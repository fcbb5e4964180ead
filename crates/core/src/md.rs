//! Movement Detection module (paper §IV-C, Algorithm 1).
//!
//! MD maintains, per monitored stream, a rolling standard deviation of
//! the last `d` seconds; their sum `s_t` is compared each tick against
//! the `(100 − α)`-th percentile of a KDE-smoothed *normal profile* of
//! past `s_t` values. Batches of recent values refresh the profile when
//! they are sufficiently calm (fraction of anomalous values < τ), which
//! keeps the threshold tracking the slowly changing radio environment
//! — the paper is explicit that a static calibration is impossible in a
//! busy office.

use fadewich_officesim::DayTrace;
use fadewich_stats::kde::GaussianKde;
use fadewich_stats::rolling::{RollingStd, RollingStdBatch, RollingStdState};
use fadewich_telemetry::{SpanId, Telemetry, Value};

use crate::config::FadewichParams;
use crate::windows::{VariationWindow, WindowTracker, WindowTrackerState};

/// MD's per-tick output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MdVerdict {
    /// Whether the environment is anomalous (Algorithm 1's return).
    pub anomalous: bool,
    /// The summed standard deviation `s_t`.
    pub st: f64,
    /// A variation window that closed at this tick, if any.
    pub closed_window: Option<VariationWindow>,
}

/// Exported MD state: the learned normal profile and its KDE-derived
/// anomaly threshold. This is what the model-artifact bundle persists
/// so a serving process can start detecting without an
/// installation-time collection phase.
#[derive(Debug, Clone, PartialEq)]
pub struct MdSnapshot {
    /// Normal-profile `s_t` values, oldest first.
    pub values: Vec<f64>,
    /// The anomaly threshold `ub`, if the profile was ever fitted.
    pub threshold: Option<f64>,
}

/// The *complete* in-flight MD state for crash-safe checkpointing —
/// everything [`MdSnapshot`] (the model-artifact export) deliberately
/// leaves out: per-stream rolling windows with their exact float
/// accumulators, the warmup/init clock, the batch-update queue, and
/// the open variation window. `MdSnapshot` stays the frozen artifact
/// v1 contract; this type wraps it rather than extending it.
#[derive(Debug, Clone, PartialEq)]
pub struct MdRuntimeState {
    /// The learned profile + threshold (the artifact-exported part).
    pub snapshot: MdSnapshot,
    /// Per-stream rolling std windows, in stream order.
    pub stream_stds: Vec<RollingStdState>,
    /// Ticks fed so far (drives warmup and the init-collection phase).
    pub ticks_seen: usize,
    /// The in-flight batch-update queue of `s_t` values.
    pub queue: Vec<f64>,
    /// How many queued values were anomalous.
    pub queue_anomalous: usize,
    /// Consecutive rejected update batches.
    pub rejected_streak: usize,
    /// The variation-window tracker, including any open window.
    pub tracker: WindowTrackerState,
}

/// The online movement detector.
#[derive(Debug, Clone)]
pub struct MovementDetector {
    params: FadewichParams,
    tick_hz: f64,
    stream_stds: RollingStdBatch,
    profile: Vec<f64>,
    threshold: Option<f64>,
    init_ticks: usize,
    warmup_ticks: usize,
    ticks_seen: usize,
    queue: Vec<f64>,
    queue_anomalous: usize,
    /// Consecutive rejected batches (see
    /// [`FadewichParams::max_rejected_batches`]).
    rejected_streak: usize,
    tracker: WindowTracker,
    /// Observability only — never serialized, never part of equality;
    /// a restored detector starts with a fresh (disabled) handle.
    telemetry: Telemetry,
    /// The span opened for the current variation window, if any.
    window_span: Option<SpanId>,
}

impl MovementDetector {
    /// Creates a detector over `n_streams` streams sampled at
    /// `tick_hz`.
    ///
    /// # Errors
    ///
    /// Returns the parameter-validation message if `params` are
    /// inconsistent, or an error for `n_streams == 0`.
    pub fn new(
        n_streams: usize,
        tick_hz: f64,
        params: FadewichParams,
    ) -> Result<MovementDetector, String> {
        params.validate()?;
        if n_streams == 0 {
            return Err("movement detection needs at least one stream".to_string());
        }
        if !(tick_hz > 0.0) {
            return Err("tick rate must be positive".to_string());
        }
        let window_ticks = params.std_window_ticks(tick_hz);
        let hangover = (params.window_hangover_s * tick_hz).round().max(1.0) as usize;
        Ok(MovementDetector {
            params,
            tick_hz,
            stream_stds: RollingStdBatch::new(n_streams, window_ticks),
            profile: Vec::with_capacity(params.profile_capacity),
            threshold: None,
            init_ticks: (params.profile_init_s * tick_hz).round() as usize,
            warmup_ticks: window_ticks,
            ticks_seen: 0,
            queue: Vec::with_capacity(params.batch_size),
            queue_anomalous: 0,
            rejected_streak: 0,
            tracker: WindowTracker::new(hangover),
            telemetry: Telemetry::disabled(),
            window_span: None,
        })
    }

    /// Installs a telemetry handle. The default handle is disabled, so
    /// detection behavior and outputs are unchanged unless the caller
    /// opts in; all records are stamped with the logical tick only.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The span covering the currently open variation window, when
    /// telemetry is enabled and a window is open. The controller
    /// parents its Rule 1/Rule 2 audit spans onto this.
    pub fn window_span(&self) -> Option<SpanId> {
        self.window_span
    }

    /// Number of monitored streams.
    pub fn n_streams(&self) -> usize {
        self.stream_stds.n_streams()
    }

    /// The current anomaly threshold `ub`, once initialized.
    pub fn threshold(&self) -> Option<f64> {
        self.threshold
    }

    /// The current normal-profile values (for Fig. 2), oldest first.
    pub fn profile_values(&self) -> &[f64] {
        &self.profile
    }

    /// Exports the learned MD state (normal profile + threshold) for
    /// the model-artifact bundle.
    pub fn snapshot(&self) -> MdSnapshot {
        MdSnapshot { values: self.profile.clone(), threshold: self.threshold }
    }

    /// Builds a detector with a previously learned profile and
    /// threshold already installed (the model-artifact load path). The
    /// rolling std windows still warm up from scratch, but the
    /// installation-time profile-collection phase is skipped entirely:
    /// the restored threshold is active from the first post-warmup
    /// tick, with no KDE fit at construction.
    ///
    /// # Errors
    ///
    /// [`MovementDetector::new`] errors, plus a description when the
    /// snapshot is inconsistent: non-finite values, a profile larger
    /// than `profile_capacity`, a non-finite threshold, or a threshold
    /// without any profile to adapt from.
    pub fn with_snapshot(
        n_streams: usize,
        tick_hz: f64,
        params: FadewichParams,
        snapshot: MdSnapshot,
    ) -> Result<MovementDetector, String> {
        let mut md = MovementDetector::new(n_streams, tick_hz, params)?;
        if snapshot.values.len() > params.profile_capacity {
            return Err(format!(
                "snapshot profile of {} values exceeds capacity {}",
                snapshot.values.len(),
                params.profile_capacity
            ));
        }
        if snapshot.values.iter().any(|v| !v.is_finite()) {
            return Err("snapshot profile contains a non-finite value".to_string());
        }
        if let Some(ub) = snapshot.threshold {
            if !ub.is_finite() {
                return Err(format!("snapshot threshold {ub} is not finite"));
            }
            if snapshot.values.is_empty() {
                return Err("snapshot has a threshold but no profile".to_string());
            }
        }
        md.profile = snapshot.values;
        md.threshold = snapshot.threshold;
        Ok(md)
    }

    /// Exports the complete in-flight state for crash-safe
    /// checkpointing (contrast with [`MovementDetector::snapshot`],
    /// which exports only the learned model for the artifact bundle).
    pub fn runtime_state(&self) -> MdRuntimeState {
        MdRuntimeState {
            snapshot: self.snapshot(),
            stream_stds: self.stream_stds.states(),
            ticks_seen: self.ticks_seen,
            queue: self.queue.clone(),
            queue_anomalous: self.queue_anomalous,
            rejected_streak: self.rejected_streak,
            tracker: self.tracker.state(),
        }
    }

    /// Rebuilds a detector mid-flight from a
    /// [`MovementDetector::runtime_state`] export. Subsequent steps are
    /// bit-identical to the detector the state was captured from — the
    /// crash-recovery property the runtime's checkpoint layer relies
    /// on.
    ///
    /// # Errors
    ///
    /// All [`MovementDetector::with_snapshot`] errors, plus a
    /// description when the runtime state disagrees with the
    /// construction parameters (stream count, window capacity, hangover
    /// length) or is internally inconsistent (oversized or non-finite
    /// batch queue, anomalous count exceeding the queue).
    pub fn from_runtime_state(
        n_streams: usize,
        tick_hz: f64,
        params: FadewichParams,
        state: &MdRuntimeState,
    ) -> Result<MovementDetector, String> {
        let mut md =
            MovementDetector::with_snapshot(n_streams, tick_hz, params, state.snapshot.clone())?;
        if state.stream_stds.len() != n_streams {
            return Err(format!(
                "state carries {} rolling windows for {} streams",
                state.stream_stds.len(),
                n_streams
            ));
        }
        let window_ticks = params.std_window_ticks(tick_hz);
        for (i, s) in state.stream_stds.iter().enumerate() {
            if s.capacity != window_ticks {
                return Err(format!(
                    "stream {i} window capacity {} disagrees with std_window {window_ticks}",
                    s.capacity
                ));
            }
            RollingStd::from_state(s).map_err(|e| format!("stream {i}: {e}"))?;
        }
        let stds = RollingStdBatch::from_states(&state.stream_stds)
            .expect("entries validated individually above");
        if state.queue.len() >= params.batch_size {
            return Err(format!(
                "batch queue of {} values should have flushed at {}",
                state.queue.len(),
                params.batch_size
            ));
        }
        if state.queue.iter().any(|v| !v.is_finite()) {
            return Err("batch queue contains a non-finite value".to_string());
        }
        if state.queue_anomalous > state.queue.len() {
            return Err(format!(
                "{} anomalous values in a queue of {}",
                state.queue_anomalous,
                state.queue.len()
            ));
        }
        let tracker = WindowTracker::from_state(&state.tracker)?;
        let hangover = (params.window_hangover_s * tick_hz).round().max(1.0) as usize;
        if state.tracker.hangover_ticks != hangover {
            return Err(format!(
                "tracker hangover {} disagrees with params ({hangover})",
                state.tracker.hangover_ticks
            ));
        }
        md.stream_stds = stds;
        md.ticks_seen = state.ticks_seen;
        md.queue = state.queue.clone();
        md.queue_anomalous = state.queue_anomalous;
        md.rejected_streak = state.rejected_streak;
        md.tracker = tracker;
        Ok(md)
    }

    /// `dW_t`: duration (ticks) of the open variation window at `tick`.
    pub fn open_duration_ticks(&self, tick: usize) -> usize {
        self.tracker.open_duration_ticks(tick)
    }

    /// Start tick of the open variation window, if one is open.
    pub fn open_window_start(&self) -> Option<usize> {
        self.tracker.open_start()
    }

    /// Feeds one tick of samples (one per stream, same order as at
    /// construction).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != n_streams()`.
    pub fn step(&mut self, tick: usize, row: &[f64]) -> MdVerdict {
        assert_eq!(row.len(), self.stream_stds.n_streams(), "stream count mismatch");
        self.step_inner(tick, row, None)
    }

    /// Feeds one tick in which some streams are unavailable (sensor
    /// quarantined, sample too stale to gap-fill). `mask[i] == true`
    /// excludes stream `i`: its rolling window is not advanced and its
    /// std-dev is left out of `s_t`, which is rescaled by
    /// `n_streams / n_active` so the threshold learned on the full
    /// deployment stays comparable. A fully-masked tick is treated as
    /// non-anomalous and does not feed the normal profile.
    ///
    /// With an all-`false` mask this is exactly [`MovementDetector::step`]
    /// (bit-identical arithmetic), which the streaming/batch parity test
    /// relies on.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != n_streams()` or `mask.len() != n_streams()`.
    pub fn step_masked(&mut self, tick: usize, row: &[f64], mask: &[bool]) -> MdVerdict {
        assert_eq!(row.len(), self.stream_stds.n_streams(), "stream count mismatch");
        assert_eq!(mask.len(), self.stream_stds.n_streams(), "mask length mismatch");
        if mask.iter().any(|&m| m) {
            self.step_inner(tick, row, Some(mask))
        } else {
            self.step_inner(tick, row, None)
        }
    }

    fn step_inner(&mut self, tick: usize, row: &[f64], mask: Option<&[bool]>) -> MdVerdict {
        match mask {
            None => self.stream_stds.push_row(row),
            Some(m) => {
                for (s, (&x, &skip)) in row.iter().zip(m).enumerate() {
                    if !skip {
                        self.stream_stds.push_one(s, x);
                    }
                }
            }
        }
        self.ticks_seen += 1;
        let st: f64 = match mask {
            // Summed in stream order: the `s_t` bit pattern depends on it.
            None => (0..self.stream_stds.n_streams()).map(|s| self.stream_stds.std_dev(s)).sum(),
            Some(m) => {
                let mut sum = 0.0;
                let mut active = 0usize;
                for (s, &skip) in m.iter().enumerate() {
                    if !skip {
                        sum += self.stream_stds.std_dev(s);
                        active += 1;
                    }
                }
                if active == 0 {
                    // Nothing measured this tick: no verdict either way,
                    // and the profile must not learn a fabricated zero.
                    let closed_window = self.track(tick, false, 0.0);
                    return MdVerdict { anomalous: false, st: 0.0, closed_window };
                }
                sum * self.stream_stds.n_streams() as f64 / active as f64
            }
        };

        // Warmup: rolling windows not yet representative.
        if self.ticks_seen <= self.warmup_ticks {
            return MdVerdict { anomalous: false, st, closed_window: None };
        }
        // Installation-time profile collection (no adversary assumed).
        if self.threshold.is_none() {
            self.profile.push(st);
            if self.ticks_seen >= self.init_ticks.max(self.warmup_ticks + 8) {
                self.refit(tick);
            }
            return MdVerdict { anomalous: false, st, closed_window: None };
        }

        let ub = self.threshold.expect("initialized above");
        let anomalous = st >= ub;
        if anomalous {
            self.telemetry.counter_add("md_anomalous_ticks", 1);
        }

        // Algorithm 1's batch update.
        self.queue.push(st);
        if anomalous {
            self.queue_anomalous += 1;
        }
        if self.queue.len() >= self.params.batch_size {
            let frac = self.queue_anomalous as f64 / self.queue.len() as f64;
            if frac < self.params.tau {
                self.profile.extend_from_slice(&self.queue);
                if self.profile.len() > self.params.profile_capacity {
                    let excess = self.profile.len() - self.params.profile_capacity;
                    self.profile.drain(..excess);
                }
                self.telemetry.counter_add("md_batches_accepted", 1);
                self.refit(tick);
                self.rejected_streak = 0;
            } else {
                self.rejected_streak += 1;
                self.telemetry.counter_add("md_batches_rejected", 1);
                if self.rejected_streak >= self.params.max_rejected_batches {
                    // The environment has shifted so far that Algorithm 1
                    // would never accept a batch again; re-learn the
                    // profile from the most recent data.
                    self.profile.clear();
                    self.profile.extend(self.queue.iter().copied());
                    self.telemetry.counter_add("md_profile_relearns", 1);
                    self.telemetry.event(
                        tick as u64,
                        "md_profile_relearn",
                        None,
                        &[("anomalous_frac", Value::F64(frac))],
                    );
                    self.refit(tick);
                    self.rejected_streak = 0;
                }
            }
            self.queue.clear();
            self.queue_anomalous = 0;
        }

        let closed_window = self.track(tick, anomalous, st);
        MdVerdict { anomalous, st, closed_window }
    }

    /// Advances the window tracker and mirrors its open/close
    /// transitions into the trace: the `md_window` span opens at the
    /// `s_t` threshold crossing and closes when the window does. The
    /// controller parents its decision audit spans onto it.
    fn track(&mut self, tick: usize, anomalous: bool, st: f64) -> Option<VariationWindow> {
        let closed = self.tracker.push(tick, anomalous);
        if let Some(w) = &closed {
            if let Some(span) = self.window_span.take() {
                self.telemetry.span_close(w.end_tick as u64, span);
            }
            self.telemetry.counter_add("md_windows_closed", 1);
            self.telemetry.histo_record("md_window_ticks", w.duration_ticks() as u64);
        }
        if self.window_span.is_none() && self.telemetry.is_enabled() {
            if let Some(start) = self.tracker.open_start() {
                self.window_span = self.telemetry.span_open(
                    tick as u64,
                    "md_window",
                    None,
                    &[
                        ("start_tick", Value::U64(start as u64)),
                        ("st", Value::F64(st)),
                        ("threshold", Value::F64(self.threshold.unwrap_or(f64::NAN))),
                    ],
                );
            }
        }
        closed
    }

    /// Flushes the open variation window at the end of a stream.
    pub fn finish(&mut self, last_tick: usize) -> Option<VariationWindow> {
        let closed = self.tracker.finish(last_tick);
        if closed.is_some() {
            if let Some(span) = self.window_span.take() {
                self.telemetry.span_close(last_tick as u64, span);
            }
        }
        closed
    }

    fn refit(&mut self, tick: usize) {
        if let Ok(kde) = GaussianKde::fit(&self.profile) {
            let ub = kde.quantile(1.0 - self.params.alpha / 100.0);
            self.threshold = Some(ub);
            self.telemetry.counter_add("md_profile_refits", 1);
            self.telemetry.gauge_set("md_threshold", ub);
            self.telemetry.event(
                tick as u64,
                "md_profile_refit",
                None,
                &[
                    ("profile_len", Value::U64(self.profile.len() as u64)),
                    ("threshold", Value::F64(ub)),
                ],
            );
        }
    }

    /// The sampling rate this detector was built for.
    pub fn tick_hz(&self) -> f64 {
        self.tick_hz
    }
}

/// The result of running MD offline over one recorded day.
#[derive(Debug, Clone, PartialEq)]
pub struct MdRun {
    /// All closed variation windows, in order (unfiltered by `t∆`).
    pub windows: Vec<VariationWindow>,
    /// The `s_t` series, one value per tick.
    pub st_series: Vec<f64>,
    /// The threshold series (NaN before initialization).
    pub threshold_series: Vec<f64>,
}

impl MdRun {
    /// Windows meeting the `t∆` significance threshold.
    pub fn significant_windows(&self, t_delta_ticks: usize) -> Vec<VariationWindow> {
        crate::windows::significant_windows(&self.windows, t_delta_ticks)
    }
}

/// Runs MD over one day of a recorded trace, monitoring only
/// `streams` (indices into the trace's stream list).
///
/// # Errors
///
/// Propagates [`MovementDetector::new`] errors.
pub fn run_md_over_day(
    day: &DayTrace,
    streams: &[usize],
    tick_hz: f64,
    params: FadewichParams,
) -> Result<MdRun, String> {
    let mut md = MovementDetector::new(streams.len(), tick_hz, params)?;
    let mut st_series = Vec::with_capacity(day.n_ticks());
    let mut threshold_series = Vec::with_capacity(day.n_ticks());
    let mut windows = Vec::new();
    let mut row = vec![0.0f64; streams.len()];
    for tick in 0..day.n_ticks() {
        let full_row = day.row(tick);
        for (dst, &s) in row.iter_mut().zip(streams) {
            *dst = full_row[s] as f64;
        }
        let verdict = md.step(tick, &row);
        st_series.push(verdict.st);
        threshold_series.push(md.threshold().unwrap_or(f64::NAN));
        if let Some(w) = verdict.closed_window {
            windows.push(w);
        }
    }
    if let Some(w) = md.finish(day.n_ticks().saturating_sub(1)) {
        windows.push(w);
    }
    Ok(MdRun { windows, st_series, threshold_series })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fadewich_stats::rng::Rng;

    /// Synthesizes a quiet multi-stream day with one burst of high
    /// variance in the middle.
    fn synthetic_day(
        n_streams: usize,
        n_ticks: usize,
        burst: Option<(usize, usize, f64)>,
        seed: u64,
    ) -> DayTrace {
        let mut rng = Rng::seed_from_u64(seed);
        let mut day = DayTrace::with_capacity(n_streams, n_ticks);
        let mut row = vec![0.0f64; n_streams];
        for t in 0..n_ticks {
            let sd = match burst {
                Some((from, to, boost)) if t >= from && t < to => 1.0 + boost,
                _ => 1.0,
            };
            for r in row.iter_mut() {
                *r = -50.0 + rng.normal() * sd;
            }
            day.push_row(&row);
        }
        day
    }

    fn fast_params() -> FadewichParams {
        FadewichParams { profile_init_s: 30.0, ..Default::default() }
    }

    #[test]
    fn quiet_day_yields_few_significant_windows() {
        let day = synthetic_day(8, 3000, None, 1);
        let run = run_md_over_day(&day, &(0..8).collect::<Vec<_>>(), 5.0, fast_params()).unwrap();
        let sig = run.significant_windows(fast_params().t_delta_ticks(5.0));
        assert!(sig.is_empty(), "false windows: {sig:?}");
    }

    #[test]
    fn variance_burst_detected_with_accurate_timing() {
        // Burst of 3x noise from tick 1500 to 1540 (8 s at 5 Hz).
        let day = synthetic_day(8, 3000, Some((1500, 1540, 2.0)), 2);
        let run = run_md_over_day(&day, &(0..8).collect::<Vec<_>>(), 5.0, fast_params()).unwrap();
        let sig = run.significant_windows(fast_params().t_delta_ticks(5.0));
        assert_eq!(sig.len(), 1, "windows: {:?}", run.windows);
        let w = sig[0];
        assert!(
            (1495..=1510).contains(&w.start_tick),
            "start {} should be near 1500",
            w.start_tick
        );
        // Rolling window keeps std high for ~window length after.
        assert!(
            (1538..=1560).contains(&w.end_tick),
            "end {} should be near 1540 (+rolling lag)",
            w.end_tick
        );
    }

    #[test]
    fn short_blip_ignored_by_t_delta() {
        // 1.2 s burst: a window forms but fails the significance test.
        let day = synthetic_day(8, 3000, Some((1500, 1506, 2.5)), 3);
        let run = run_md_over_day(&day, &(0..8).collect::<Vec<_>>(), 5.0, fast_params()).unwrap();
        let sig = run.significant_windows(fast_params().t_delta_ticks(5.0));
        assert!(sig.is_empty(), "blip wrongly significant: {sig:?}");
    }

    #[test]
    fn st_scales_with_stream_count() {
        let day = synthetic_day(8, 600, None, 4);
        let run8 = run_md_over_day(&day, &(0..8).collect::<Vec<_>>(), 5.0, fast_params()).unwrap();
        let run2 = run_md_over_day(&day, &[0, 1], 5.0, fast_params()).unwrap();
        let mean8 = fadewich_stats::descriptive::mean(&run8.st_series[200..].to_vec());
        let mean2 = fadewich_stats::descriptive::mean(&run2.st_series[200..].to_vec());
        assert!(
            (mean8 / mean2 - 4.0).abs() < 0.5,
            "sum of stds should scale ~4x: {mean8} vs {mean2}"
        );
    }

    #[test]
    fn profile_updates_follow_slow_drift() {
        // Noise sd ramps slowly from 1.0 to 1.6 over the day; the
        // adaptive profile must avoid a permanent anomaly state.
        let mut rng = Rng::seed_from_u64(5);
        let n_ticks = 20_000;
        let mut day = DayTrace::with_capacity(4, n_ticks);
        let mut row = vec![0.0f64; 4];
        for t in 0..n_ticks {
            let sd = 1.0 + 0.6 * t as f64 / n_ticks as f64;
            for r in row.iter_mut() {
                *r = -50.0 + rng.normal() * sd;
            }
            day.push_row(&row);
        }
        let run = run_md_over_day(&day, &[0, 1, 2, 3], 5.0, fast_params()).unwrap();
        let anomalous_late = run.st_series[15_000..]
            .iter()
            .zip(&run.threshold_series[15_000..])
            .filter(|(st, ub)| st >= ub)
            .count();
        let frac = anomalous_late as f64 / 5000.0;
        assert!(frac < 0.1, "drift not absorbed: {frac} anomalous late");
    }

    #[test]
    fn threshold_is_above_profile_bulk() {
        let day = synthetic_day(4, 1000, None, 6);
        let run = run_md_over_day(&day, &[0, 1, 2, 3], 5.0, fast_params()).unwrap();
        let ub = *run.threshold_series.last().unwrap();
        let bulk: Vec<f64> = run.st_series[200..].to_vec();
        let above = bulk.iter().filter(|&&s| s >= ub).count() as f64 / bulk.len() as f64;
        assert!(above < 0.05, "fraction above threshold = {above}");
    }

    #[test]
    fn online_and_offline_agree() {
        let day = synthetic_day(4, 800, Some((400, 430, 2.0)), 7);
        let streams = [0usize, 1, 2, 3];
        let offline = run_md_over_day(&day, &streams, 5.0, fast_params()).unwrap();
        let mut md = MovementDetector::new(4, 5.0, fast_params()).unwrap();
        let mut windows = Vec::new();
        for tick in 0..day.n_ticks() {
            let row: Vec<f64> = streams.iter().map(|&s| day.sample(tick, s)).collect();
            if let Some(w) = md.step(tick, &row).closed_window {
                windows.push(w);
            }
        }
        if let Some(w) = md.finish(day.n_ticks() - 1) {
            windows.push(w);
        }
        assert_eq!(windows, offline.windows);
    }

    #[test]
    fn profile_recovers_from_step_change() {
        // Noise sd jumps 0.3 -> 3.0 at mid-day: Algorithm 1 alone would
        // flag everything anomalous forever; the rejected-batch escape
        // hatch re-learns the profile.
        let mut rng = Rng::seed_from_u64(11);
        let n_ticks = 20_000;
        let mut day = DayTrace::with_capacity(4, n_ticks);
        let mut row = vec![0.0f64; 4];
        for t in 0..n_ticks {
            let sd = if t < 8_000 { 0.3 } else { 3.0 };
            for r in row.iter_mut() {
                *r = -50.0 + rng.normal() * sd;
            }
            day.push_row(&row);
        }
        let run = run_md_over_day(&day, &[0, 1, 2, 3], 5.0, fast_params()).unwrap();
        let late_anomalous = run.st_series[16_000..]
            .iter()
            .zip(&run.threshold_series[16_000..])
            .filter(|(s, ub)| s >= ub)
            .count();
        let frac = late_anomalous as f64 / 4000.0;
        assert!(frac < 0.2, "step change not absorbed: {frac} anomalous late");
    }

    #[test]
    fn all_false_mask_is_bit_identical_to_step() {
        let day = synthetic_day(4, 800, Some((400, 430, 2.0)), 8);
        let mut plain = MovementDetector::new(4, 5.0, fast_params()).unwrap();
        let mut masked = MovementDetector::new(4, 5.0, fast_params()).unwrap();
        let mask = vec![false; 4];
        for tick in 0..day.n_ticks() {
            let row: Vec<f64> = (0..4).map(|s| day.sample(tick, s)).collect();
            let a = plain.step(tick, &row);
            let b = masked.step_masked(tick, &row, &mask);
            assert_eq!(a, b, "diverged at tick {tick}");
        }
    }

    #[test]
    fn masked_streams_rescale_st() {
        // On i.i.d. streams, masking half of them should leave the
        // rescaled s_t near the unmasked value, not halve it.
        let day = synthetic_day(4, 600, None, 9);
        let mut md = MovementDetector::new(4, 5.0, fast_params()).unwrap();
        for tick in 0..599 {
            let row: Vec<f64> = (0..4).map(|s| day.sample(tick, s)).collect();
            md.step(tick, &row);
        }
        let row: Vec<f64> = (0..4).map(|s| day.sample(599, s)).collect();
        let mut fork = md.clone();
        let full = md.step(599, &row).st;
        let partial = fork.step_masked(599, &row, &[false, true, false, true]).st;
        assert!(
            (partial / full - 1.0).abs() < 0.25,
            "rescaled st {partial} should be near unmasked {full}"
        );
    }

    #[test]
    fn fully_masked_tick_is_quiet_and_skips_profile() {
        let day = synthetic_day(2, 600, None, 10);
        let mut md = MovementDetector::new(2, 5.0, fast_params()).unwrap();
        for tick in 0..600 {
            let row: Vec<f64> = (0..2).map(|s| day.sample(tick, s)).collect();
            md.step(tick, &row);
        }
        let before = md.profile_values().len();
        let v = md.step_masked(600, &[0.0, 0.0], &[true, true]);
        assert!(!v.anomalous);
        assert_eq!(v.st, 0.0);
        assert_eq!(md.profile_values().len(), before, "masked tick fed the profile");
    }

    #[test]
    fn snapshot_restore_resumes_detection_without_init_phase() {
        let day = synthetic_day(4, 1200, None, 12);
        let mut md = MovementDetector::new(4, 5.0, fast_params()).unwrap();
        for tick in 0..1200 {
            let row: Vec<f64> = (0..4).map(|s| day.sample(tick, s)).collect();
            md.step(tick, &row);
        }
        let snap = md.snapshot();
        assert!(snap.threshold.is_some());
        assert_eq!(snap.values, md.profile_values());

        let restored =
            MovementDetector::with_snapshot(4, 5.0, fast_params(), snap.clone()).unwrap();
        assert_eq!(restored.threshold(), snap.threshold);
        assert_eq!(restored.profile_values(), &snap.values[..]);
        // The threshold is live immediately after rolling-window warmup:
        // the restored detector never enters the init-collection branch,
        // so its profile length stays fixed until a batch update.
        let mut restored = restored;
        let before = restored.profile_values().len();
        for tick in 0..60 {
            let row: Vec<f64> = (0..4).map(|s| day.sample(tick, s)).collect();
            restored.step(tick, &row);
        }
        assert_eq!(restored.profile_values().len(), before);
    }

    #[test]
    fn runtime_state_restore_continues_bit_identically() {
        // Capture mid-day — after the threshold is live, mid-batch, and
        // with a masked tick mixed in — and check every subsequent
        // verdict is bit-identical between the original detector and a
        // restored clone.
        let day = synthetic_day(4, 2400, Some((1400, 1460, 2.0)), 13);
        let mut md = MovementDetector::new(4, 5.0, fast_params()).unwrap();
        let cut = 1000;
        for tick in 0..cut {
            let row: Vec<f64> = (0..4).map(|s| day.sample(tick, s)).collect();
            if tick % 97 == 0 {
                md.step_masked(tick, &row, &[false, true, false, false]);
            } else {
                md.step(tick, &row);
            }
        }
        let state = md.runtime_state();
        let mut restored =
            MovementDetector::from_runtime_state(4, 5.0, fast_params(), &state).unwrap();
        assert_eq!(restored.runtime_state(), state, "round trip changed the state");
        for tick in cut..day.n_ticks() {
            let row: Vec<f64> = (0..4).map(|s| day.sample(tick, s)).collect();
            let (a, b) = if tick % 97 == 0 {
                let mask = [false, true, false, false];
                (md.step_masked(tick, &row, &mask), restored.step_masked(tick, &row, &mask))
            } else {
                (md.step(tick, &row), restored.step(tick, &row))
            };
            assert_eq!(a.st.to_bits(), b.st.to_bits(), "s_t diverged at tick {tick}");
            assert_eq!(a, b, "verdict diverged at tick {tick}");
            assert_eq!(
                md.threshold().map(f64::to_bits),
                restored.threshold().map(f64::to_bits),
                "threshold diverged at tick {tick}"
            );
        }
        assert_eq!(md.finish(day.n_ticks() - 1), restored.finish(day.n_ticks() - 1));
    }

    #[test]
    fn runtime_state_restore_mid_init_phase_continues_identically() {
        // A crash before the threshold exists must resume the
        // installation-time collection exactly where it stopped.
        let day = synthetic_day(4, 400, None, 14);
        let mut md = MovementDetector::new(4, 5.0, fast_params()).unwrap();
        for tick in 0..80 {
            let row: Vec<f64> = (0..4).map(|s| day.sample(tick, s)).collect();
            md.step(tick, &row);
        }
        let state = md.runtime_state();
        assert!(state.snapshot.threshold.is_none(), "still collecting");
        let mut restored =
            MovementDetector::from_runtime_state(4, 5.0, fast_params(), &state).unwrap();
        for tick in 80..day.n_ticks() {
            let row: Vec<f64> = (0..4).map(|s| day.sample(tick, s)).collect();
            assert_eq!(md.step(tick, &row), restored.step(tick, &row), "tick {tick}");
        }
        assert_eq!(
            md.threshold().map(f64::to_bits),
            restored.threshold().map(f64::to_bits)
        );
    }

    #[test]
    fn bad_runtime_states_rejected() {
        let p = fast_params();
        let mut md = MovementDetector::new(4, 5.0, p).unwrap();
        let day = synthetic_day(4, 600, None, 15);
        for tick in 0..600 {
            let row: Vec<f64> = (0..4).map(|s| day.sample(tick, s)).collect();
            md.step(tick, &row);
        }
        let good = md.runtime_state();
        assert!(MovementDetector::from_runtime_state(4, 5.0, p, &good).is_ok());

        // Stream-count mismatch.
        assert!(MovementDetector::from_runtime_state(3, 5.0, p, &good).is_err());
        // Window capacity disagrees with params (different tick rate).
        assert!(MovementDetector::from_runtime_state(4, 10.0, p, &good).is_err());
        // Queue that should already have flushed.
        let mut bad = good.clone();
        bad.queue = vec![1.0; p.batch_size];
        assert!(MovementDetector::from_runtime_state(4, 5.0, p, &bad).is_err());
        // Non-finite queue value.
        let mut bad = good.clone();
        bad.queue = vec![f64::NAN];
        assert!(MovementDetector::from_runtime_state(4, 5.0, p, &bad).is_err());
        // Anomalous count exceeding the queue.
        let mut bad = good.clone();
        bad.queue_anomalous = bad.queue.len() + 1;
        assert!(MovementDetector::from_runtime_state(4, 5.0, p, &bad).is_err());
        // Tracker hangover disagreeing with params.
        let mut bad = good.clone();
        bad.tracker.hangover_ticks += 1;
        assert!(MovementDetector::from_runtime_state(4, 5.0, p, &bad).is_err());
    }

    #[test]
    fn bad_snapshots_rejected() {
        let p = fast_params();
        let snap = MdSnapshot { values: vec![1.0; p.profile_capacity + 1], threshold: None };
        assert!(MovementDetector::with_snapshot(4, 5.0, p, snap).is_err());
        let snap = MdSnapshot { values: vec![1.0, f64::NAN], threshold: None };
        assert!(MovementDetector::with_snapshot(4, 5.0, p, snap).is_err());
        let snap = MdSnapshot { values: vec![1.0], threshold: Some(f64::INFINITY) };
        assert!(MovementDetector::with_snapshot(4, 5.0, p, snap).is_err());
        let snap = MdSnapshot { values: vec![], threshold: Some(2.0) };
        assert!(MovementDetector::with_snapshot(4, 5.0, p, snap).is_err());
    }

    #[test]
    fn st_is_the_scalar_rolling_std_sum() {
        // The SoA bank against independent scalar `RollingStd` windows:
        // every tick's `s_t`, bit for bit, over a day with a burst and
        // masked ticks (whose rescaled sum skips the masked window).
        let day = synthetic_day(4, 2400, Some((1400, 1460, 2.0)), 21);
        let params = fast_params();
        let mut md = MovementDetector::new(4, 5.0, params).unwrap();
        let mut oracle = vec![RollingStd::new(params.std_window_ticks(5.0)); 4];
        let mask = [false, true, false, false];
        for tick in 0..day.n_ticks() {
            let row: Vec<f64> = (0..4).map(|s| day.sample(tick, s)).collect();
            let (got, want) = if tick % 97 == 0 {
                let mut sum = 0.0;
                for (s, w) in oracle.iter_mut().enumerate().filter(|&(s, _)| !mask[s]) {
                    w.push(row[s]);
                    sum += w.std_dev();
                }
                (md.step_masked(tick, &row, &mask), sum * 4.0 / 3.0)
            } else {
                for (w, &x) in oracle.iter_mut().zip(&row) {
                    w.push(x);
                }
                (md.step(tick, &row), oracle.iter().map(RollingStd::std_dev).sum())
            };
            assert_eq!(got.st.to_bits(), want.to_bits(), "s_t diverged at tick {tick}");
        }
    }

    #[test]
    fn construction_errors() {
        assert!(MovementDetector::new(0, 5.0, FadewichParams::default()).is_err());
        assert!(MovementDetector::new(4, 0.0, FadewichParams::default()).is_err());
        let bad = FadewichParams { tau: 2.0, ..Default::default() };
        assert!(MovementDetector::new(4, 5.0, bad).is_err());
    }

    #[test]
    #[should_panic(expected = "stream count mismatch")]
    fn wrong_row_width_panics() {
        let mut md = MovementDetector::new(4, 5.0, FadewichParams::default()).unwrap();
        md.step(0, &[1.0, 2.0]);
    }
}
