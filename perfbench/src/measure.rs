//! One benchmark run: repeated set-ups, untraced serving passes for
//! the run length, the reference checks, and — for `--trace 1` — the
//! traced replay that decomposes the served time into layers.

use fadewich_core::artifact::ModelBundle;
use fadewich_experiments::par;
use fadewich_runtime::counters::RuntimeCounters;
use fadewich_telemetry::Clock;

use crate::gen::Generated;
use crate::layers::{replay_office, ReplayCounts};
use crate::serve::{
    account, check_fleet, check_single, controller_reference, fleet_pass, single_pass,
    standalone_office, standalone_reference, FleetOpts, Inputs, OfficeOutcome, Pass, PassCheck,
    Scratch, SingleOpts, Workload, ROUND_WINDOW, TICK_WINDOW,
};
use crate::stats::{median, samples_beyond, Layer, Spans, MIN_BEYOND};

/// End-to-end metrics `(name, unit)`, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 7] = [
    ("ticks_per_s", "1/s"),
    ("tick_p50_us", "us"),
    ("tick_p999_us", "us"),
    ("round_p50_us", "us"),
    ("round_p99_us", "us"),
    ("setup_s", "s"),
    ("heap_peak_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by traced runs. A layer a
/// workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("md.refits", "count"),
    ("md.refit_us_per_refit", "us"),
    ("md.refit_share", "share"),
    ("md.step_ns_per_tick", "ns"),
    ("controller.step_ns_per_tick", "ns"),
    ("controller.rule1_evals", "count"),
    ("re.classifications", "count"),
    ("re.classify_us", "us"),
    ("wire.frames", "count"),
    ("wire.decode_ns_per_frame", "ns"),
    ("wire.rejected", "count"),
    ("auth.verify_ns_per_frame", "ns"),
    ("auth.rejected", "count"),
    ("auth.attack_quarantines", "count"),
    ("reorder.push_poll_ns_per_frame", "ns"),
    ("reorder.ticks_closed", "count"),
    ("reorder.duplicates", "count"),
    ("reorder.late", "count"),
    ("reorder.replayed", "count"),
    ("reorder.watermark_lag_max", "ticks"),
    ("engine.gap_fills", "count"),
    ("engine.masked_stream_ticks", "count"),
    ("engine.residual_share", "share"),
    ("telemetry.overhead_share", "share"),
    ("fleet.demux_ns_per_frame", "ns"),
    ("fleet.demux_share", "share"),
    ("fleet.shard_tick_lag_max", "ticks"),
    ("checkpoint.snapshots", "count"),
    ("checkpoint.encode_us_per_snapshot", "us"),
    ("checkpoint.bytes_per_snapshot", "B"),
    ("artifact.decode_ms", "ms"),
    ("artifact.bytes", "B"),
    ("alloc.calls_per_frame", "calls/frame"),
    ("alloc.bytes_per_frame", "B/frame"),
    ("alloc.calls_per_tick", "calls/tick"),
    ("alloc.live_bytes_per_office", "B"),
    ("trace.overhead_share", "share"),
];

/// Set-ups measured before serving, on top of one per pass.
const SETUP_REPS: usize = 9;
/// Upper bound on serving passes, whatever the clock says.
const MAX_PASSES: usize = 64;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it rests on, in words.
    pub samples: String,
}

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every check passed and no op failed.
    pub correct: bool,
    /// Frames offered over all passes.
    pub attempted: u64,
    /// Frames whose outcome differed from the reference.
    pub failed: u64,
    /// The metrics, in list order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Looks a metric up by name.
    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A finite JSON number with all its digits.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Runs `workload` over `inp` for `seconds` of serving, timing
/// through `clock`; `traced` selects the per-layer report.
///
/// # Errors
///
/// Set-up or reference failures of the system under test.
pub fn run(
    gen: &Generated,
    inp: &Inputs,
    workload: Workload,
    clock: &dyn Clock,
    seconds: f64,
    traced: bool,
) -> Result<Report, String> {
    // The fleet's shards drain on one worker thread: on the shared
    // 2-vCPU reference machine a second worker made every fleet metric
    // swing 10-20% with the neighbours' load. Pinning also keeps
    // FADEWICH_THREADS from changing what is measured.
    let threads = 1;
    par::with_threads(threads, || {
        let mut notes = vec![format!(
            "perfbench {}: {} office(s) x {} ticks, {} frames per pass ({} hostile), {} worker thread(s)",
            workload.name(),
            inp.spec.offices,
            inp.spec.ticks,
            inp.ops(),
            inp.hostile,
            threads
        )];
        let fleet = inp.spec.offices > 1;
        let mut scratch = Scratch::for_inputs(inp);
        let pass = |scratch: &mut Scratch, serve: bool, telemetry: bool| {
            if fleet {
                fleet_pass(gen, inp, clock, scratch, FleetOpts { serve, spans: None })
            } else {
                single_pass(gen, inp, clock, scratch, SingleOpts { telemetry, serve })
            }
        };
        let mut setups = Vec::new();
        let mut decodes = Vec::new();
        for _ in 0..SETUP_REPS {
            let p = pass(&mut scratch, false, inp.spec.telemetry)?;
            setups.push(p.setup_ns as f64);
            decodes.push(p.decode_ns as f64);
        }
        let deadline = clock.now_ns() + (seconds * 1e9) as u64;
        let mut passes: Vec<Pass> = Vec::new();
        while passes.is_empty() || (clock.now_ns() < deadline && passes.len() < MAX_PASSES) {
            let p = pass(&mut scratch, true, inp.spec.telemetry)?;
            setups.push(p.setup_ns as f64);
            decodes.push(p.decode_ns as f64);
            passes.push(p);
        }

        // Reference checks, outside every timed phase.
        let (checks, reference): (Vec<PassCheck>, Reference) = if fleet {
            let offices = standalone_reference(gen, inp)?;
            (
                passes
                    .iter()
                    .map(|p| check_fleet(inp, p, &offices))
                    .collect(),
                Reference::Offices(offices),
            )
        } else {
            let digest = controller_reference(gen, inp)?;
            (
                passes
                    .iter()
                    .map(|p| check_single(inp, p, digest))
                    .collect(),
                Reference::Digest(digest),
            )
        };
        let (attempted, failed, mut correct) = account(&checks);
        notes.push(format!(
            "checks: {} pass(es), decisions match the reference in {}, ops {attempted}, failed_ops {failed}",
            checks.len(),
            checks.iter().filter(|c| c.digests_match).count()
        ));
        notes.push(match &reference {
            Reference::Digest(d) => format!("action digest {d:#018x} (controller reference)"),
            Reference::Offices(o) => format!(
                "action digests (standalone engines): {}",
                o.iter()
                    .map(|x| format!("{:#018x}", x.actions))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
        });

        let metrics = if traced {
            let layered = traced_run(gen, inp, workload, clock, &passes, &reference, &mut scratch)?;
            if !layered.replay_matches {
                correct = false;
                notes.push("layer replay diverged from the served decisions".to_string());
            }
            notes.extend(layered.notes.iter().cloned());
            per_layer(inp, &passes, &reference, &decodes, &layered)
        } else {
            end_to_end(&passes, &mut setups, &mut notes)
        };
        for m in &metrics {
            notes.push(format!(
                "  {:<36} {:>16.4} {:<12} {}",
                m.name, m.value, m.unit, m.samples
            ));
        }
        Ok(Report {
            correct,
            attempted,
            failed,
            metrics,
            notes,
        })
    })
}

/// What the decisions were checked against.
enum Reference {
    /// The controller reference's action digest (single office).
    Digest(u64),
    /// Standalone engines, one per office (fleet).
    Offices(Vec<OfficeOutcome>),
}

fn end_to_end(passes: &[Pass], setups: &mut [f64], notes: &mut Vec<String>) -> Vec<Metric> {
    let n = passes.len();
    let med = |f: &dyn Fn(&Pass) -> f64| median(&mut passes.iter().map(f).collect::<Vec<f64>>());
    // Tail percentiles: one per window, median over the windows of
    // every pass.
    let windows = |f: &dyn Fn(&Pass) -> &[u64]| {
        let mut all: Vec<f64> = passes
            .iter()
            .flat_map(|p| f(p).iter().map(|&v| v as f64 / 1e3))
            .collect();
        (median(&mut all), all.len())
    };
    let (tick_tail, tick_windows) = windows(&|p| &p.tick_p999_ns);
    let (round_tail, round_windows) = windows(&|p| &p.round_p99_ns);
    let (ticks, rounds) = (passes[0].ticks, passes[0].rounds);
    for (q, count, window, what) in [
        (0.999, ticks, TICK_WINDOW, "tick"),
        (0.99, rounds, ROUND_WINDOW, "round"),
    ] {
        if samples_beyond(q, count.min(window)) < MIN_BEYOND {
            notes.push(format!(
                "warning: {what} p{} windows hold {} samples, fewer than {MIN_BEYOND} beyond it",
                q * 100.0,
                count.min(window)
            ));
        }
    }
    let rate = |p: &Pass| p.ticks as f64 * 1e9 / p.serve_ns.max(1) as f64;
    notes.push(format!(
        "ticks_per_s per pass: {:?}",
        passes.iter().map(|p| rate(p).round()).collect::<Vec<_>>()
    ));
    let per_pass =
        |what: &str, count: u64| format!("median of {n} passes, {count} {what} per pass");
    let values = [
        (med(&rate), per_pass("office-ticks", ticks)),
        (
            med(&|p| p.tick_p50_ns as f64 / 1e3),
            per_pass("ticks", ticks),
        ),
        (
            tick_tail,
            format!("median of {tick_windows} windows of {TICK_WINDOW} ticks"),
        ),
        (
            med(&|p| p.round_p50_ns as f64 / 1e3),
            per_pass("rounds", rounds),
        ),
        (
            round_tail,
            format!("median of {round_windows} windows of {ROUND_WINDOW} rounds"),
        ),
        (
            median(setups) / 1e9,
            format!("median of {} set-ups", setups.len()),
        ),
        (
            med(&|p| p.heap_peak as f64 / 1e6),
            format!("median of {n} passes"),
        ),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            value,
            unit,
            samples,
        })
        .collect()
}

/// The traced run's findings.
struct Layered<'c> {
    /// Spans over the replayed offices' layers.
    layers: Spans<'c>,
    /// Fleet-level spans and the traced fleet pass (fleet only).
    fleet: Option<(Spans<'c>, Pass)>,
    /// Untraced engine time for the replayed offices' deliveries.
    untraced_ns: u64,
    /// Wall time of the layer replay.
    replay_wall_ns: u64,
    /// Ticks the replay advanced.
    replay_ticks: u64,
    /// `(on - off) / on` serving time for the telemetry setting.
    telemetry_share: f64,
    /// Whether every replayed office made the served decisions.
    replay_matches: bool,
    /// Span tables.
    notes: Vec<String>,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Offices whose deliveries the fleet's layer replay covers: up to
/// four, evenly spaced.
fn sampled_offices(n: usize) -> Vec<usize> {
    (0..n).step_by(n.div_ceil(4).max(1)).collect()
}

fn traced_run<'c>(
    gen: &Generated,
    inp: &Inputs,
    workload: Workload,
    clock: &'c dyn Clock,
    passes: &[Pass],
    reference: &Reference,
    scratch: &mut Scratch,
) -> Result<Layered<'c>, String> {
    let bundle = ModelBundle::decode(&inp.artifact).map_err(|e| format!("artifact: {e}"))?;
    let mut notes = Vec::new();
    let mut spans = Spans::new(clock);
    let mut counts = ReplayCounts::default();
    let mut replay_matches = true;
    let (offices, untraced_ns, fleet) = match reference {
        Reference::Digest(digest) => {
            let untraced =
                median(&mut passes.iter().map(|p| p.serve_ns as f64).collect::<Vec<_>>());
            let c = replay_office(gen, inp, &inp.feeds[0], &bundle, &mut spans)?;
            replay_matches &= c.actions == *digest;
            counts = c;
            (1, untraced as u64, None)
        }
        Reference::Offices(reference) => {
            let mut fleet_spans = Spans::new(clock);
            let traced = fleet_pass(
                gen,
                inp,
                clock,
                scratch,
                FleetOpts {
                    serve: true,
                    spans: Some(&mut fleet_spans),
                },
            )?;
            notes.push("fleet-level spans (traced pass):".to_string());
            notes.extend(fleet_spans.table().lines().map(str::to_string));
            let mut untraced = 0u64;
            let sample = sampled_offices(inp.feeds.len());
            for &o in &sample {
                let t0 = clock.now_ns();
                standalone_office(gen, inp, &bundle, o)?;
                untraced += clock.now_ns() - t0;
                let c = replay_office(gen, inp, &inp.feeds[o], &bundle, &mut spans)?;
                replay_matches &= c.actions == reference[o].actions;
                counts.ticks += c.ticks;
                counts.wall_ns += c.wall_ns;
            }
            notes.push(format!("layer replay over offices {sample:?}"));
            (sample.len(), untraced, Some((fleet_spans, traced)))
        }
    };
    notes.push(format!("layer spans ({offices} replayed office(s)):"));
    notes.extend(spans.table().lines().map(str::to_string));
    let telemetry_share = if workload == Workload::AuthStorm {
        let off = single_pass(
            gen,
            inp,
            clock,
            scratch,
            SingleOpts {
                telemetry: false,
                serve: true,
            },
        )?;
        let on = untraced_ns as f64;
        ratio(on - off.serve_ns as f64, on)
    } else {
        0.0
    };
    Ok(Layered {
        layers: spans,
        fleet,
        untraced_ns,
        replay_wall_ns: counts.wall_ns,
        replay_ticks: counts.ticks,
        telemetry_share,
        replay_matches,
        notes,
    })
}

/// Sums office counters (watermark lag: the maximum).
fn sum_counters(offices: &[OfficeOutcome]) -> RuntimeCounters {
    let mut s = RuntimeCounters::default();
    for o in offices {
        let c = &o.counters;
        s.frames_in += c.frames_in;
        s.corrupt_crc += c.corrupt_crc;
        s.corrupt_framing += c.corrupt_framing;
        s.corrupt_unknown_sensor += c.corrupt_unknown_sensor;
        s.frames_duplicate += c.frames_duplicate;
        s.frames_late += c.frames_late;
        s.ticks_processed += c.ticks_processed;
        s.gap_fills += c.gap_fills;
        s.masked_stream_ticks += c.masked_stream_ticks;
        s.frames_unauthenticated += c.frames_unauthenticated;
        s.frames_replayed += c.frames_replayed;
        s.attack_quarantines += c.attack_quarantines;
        s.watermark_lag_max = s.watermark_lag_max.max(c.watermark_lag_max);
    }
    s
}

fn per_layer(
    inp: &Inputs,
    passes: &[Pass],
    reference: &Reference,
    decodes: &[f64],
    t: &Layered,
) -> Vec<Metric> {
    let l = &t.layers;
    let last = passes.last().expect("at least one pass");
    // Engine counters of one pass: the served offices, or for the
    // fleet the standalone engines, which also see the frames the
    // fleet front rejects before they reach an office.
    let c = match reference {
        Reference::Digest(_) => sum_counters(&last.offices),
        Reference::Offices(o) => sum_counters(o),
    };
    let untraced = t.untraced_ns as f64;
    let md = l.total(Layer::MdStep) + l.total(Layer::MdRefit);
    let re = l.total(Layer::Re);
    let ctl = l.total(Layer::Controller);
    let io = [
        Layer::Decode,
        Layer::Verify,
        Layer::ToFrame,
        Layer::Push,
        Layer::Poll,
    ]
    .iter()
    .map(|&x| l.total(x))
    .sum::<f64>();
    // The controller span covers its own MD and RE; the standalone ones
    // and the history feed are the replay's duplicate work.
    let explained = io + ctl;
    let duplicate = md + re + l.total(Layer::History);
    let frames = inp.ops() as f64;
    let all_passes = passes.len() as f64;
    let alloc_calls = passes.iter().map(|p| p.alloc_calls).sum::<u64>() as f64;
    let alloc_bytes = passes.iter().map(|p| p.alloc_bytes).sum::<u64>() as f64;
    let ticks = passes.iter().map(|p| p.ticks).sum::<u64>() as f64;
    let (demux_ns, demux_share, lag, snapshots, encode_us, snap_bytes) = match &t.fleet {
        Some((f, traced)) => (
            f.mean(Layer::FleetIngest),
            ratio(f.total(Layer::FleetIngest), traced.serve_ns as f64),
            traced.shard_lag_max as f64,
            traced.snapshots as f64,
            ratio(
                f.total(Layer::Snapshot) + f.total(Layer::Encode),
                traced.snapshots as f64,
            ) / 1e3,
            ratio(traced.snapshot_bytes as f64, traced.snapshots as f64),
        ),
        None => (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    };
    let replayed = format!("{} ticks replayed", t.replay_ticks);
    let per_pass = "one untraced pass".to_string();
    let values: Vec<(&str, f64, String)> = vec![
        ("md.refits", l.count(Layer::MdRefit), replayed.clone()),
        (
            "md.refit_us_per_refit",
            l.mean(Layer::MdRefit) / 1e3,
            format!("{} refits", l.count(Layer::MdRefit)),
        ),
        (
            "md.refit_share",
            ratio(l.total(Layer::MdRefit), untraced),
            "of untraced engine time".into(),
        ),
        (
            "md.step_ns_per_tick",
            l.mean(Layer::MdStep),
            format!("{} steps", l.count(Layer::MdStep)),
        ),
        (
            "controller.step_ns_per_tick",
            ratio(ctl - md - re, l.count(Layer::Controller)),
            replayed.clone(),
        ),
        (
            "controller.rule1_evals",
            l.count(Layer::Re),
            replayed.clone(),
        ),
        ("re.classifications", l.count(Layer::Re), replayed.clone()),
        (
            "re.classify_us",
            l.mean(Layer::Re) / 1e3,
            format!("{} windows", l.count(Layer::Re)),
        ),
        ("wire.frames", frames, per_pass.clone()),
        (
            "wire.decode_ns_per_frame",
            l.mean(Layer::Decode),
            format!("{} decodes", l.count(Layer::Decode)),
        ),
        (
            "wire.rejected",
            (c.corrupt_crc + c.corrupt_framing + c.corrupt_unknown_sensor) as f64,
            per_pass.clone(),
        ),
        (
            "auth.verify_ns_per_frame",
            l.mean(Layer::Verify),
            format!("{} verifies", l.count(Layer::Verify)),
        ),
        (
            "auth.rejected",
            (c.frames_unauthenticated + c.frames_replayed) as f64,
            per_pass.clone(),
        ),
        (
            "auth.attack_quarantines",
            c.attack_quarantines as f64,
            per_pass.clone(),
        ),
        (
            "reorder.push_poll_ns_per_frame",
            ratio(
                l.total(Layer::Push) + l.total(Layer::Poll),
                l.count(Layer::Push),
            ),
            format!("{} pushes", l.count(Layer::Push)),
        ),
        (
            "reorder.ticks_closed",
            c.ticks_processed as f64,
            per_pass.clone(),
        ),
        (
            "reorder.duplicates",
            c.frames_duplicate as f64,
            per_pass.clone(),
        ),
        ("reorder.late", c.frames_late as f64, per_pass.clone()),
        (
            "reorder.replayed",
            c.frames_replayed as f64,
            per_pass.clone(),
        ),
        (
            "reorder.watermark_lag_max",
            c.watermark_lag_max as f64,
            per_pass.clone(),
        ),
        ("engine.gap_fills", c.gap_fills as f64, per_pass.clone()),
        (
            "engine.masked_stream_ticks",
            c.masked_stream_ticks as f64,
            per_pass.clone(),
        ),
        (
            "engine.residual_share",
            ratio(untraced - explained, untraced),
            "of untraced engine time".into(),
        ),
        (
            "telemetry.overhead_share",
            t.telemetry_share,
            "one telemetry-off pass".into(),
        ),
        (
            "fleet.demux_ns_per_frame",
            demux_ns,
            "traced fleet pass".into(),
        ),
        (
            "fleet.demux_share",
            demux_share,
            "of traced fleet wall time".into(),
        ),
        ("fleet.shard_tick_lag_max", lag, "traced fleet pass".into()),
        (
            "checkpoint.snapshots",
            snapshots,
            "traced fleet pass".into(),
        ),
        (
            "checkpoint.encode_us_per_snapshot",
            encode_us,
            "snapshot plus encode".into(),
        ),
        (
            "checkpoint.bytes_per_snapshot",
            snap_bytes,
            "traced fleet pass".into(),
        ),
        (
            "artifact.decode_ms",
            median(&mut decodes.to_vec()) / 1e6,
            format!("median of {} decodes", decodes.len()),
        ),
        (
            "artifact.bytes",
            inp.artifact.len() as f64,
            "one artifact".into(),
        ),
        (
            "alloc.calls_per_frame",
            alloc_calls / (frames * all_passes),
            format!("{all_passes} passes"),
        ),
        (
            "alloc.bytes_per_frame",
            alloc_bytes / (frames * all_passes),
            format!("{all_passes} passes"),
        ),
        (
            "alloc.calls_per_tick",
            ratio(alloc_calls, ticks),
            format!("{all_passes} passes"),
        ),
        (
            "alloc.live_bytes_per_office",
            last.live_after as f64 / inp.spec.offices as f64,
            per_pass,
        ),
        (
            "trace.overhead_share",
            ratio(t.replay_wall_ns as f64 - duplicate - untraced, untraced),
            "replay wall less duplicate MD/RE vs untraced".into(),
        ),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), (listed, value, samples))| {
            debug_assert_eq!(name, listed, "per-layer values follow PER_LAYER order");
            Metric {
                name,
                value,
                unit,
                samples,
            }
        })
        .collect()
}
