//! The traced run's layer replay: one office's deliveries pushed
//! through the layers' public calls one at a time, each call under a
//! span, configured the way `StreamingEngine` configures them.
//!
//! Per delivery: `Frame::decode_borrowed`, `FrameView::verify_mac`
//! (authenticated offices), `to_frame`, `ReorderBuffer::push` and
//! `poll`. Per closed tick, after the engine's row assembly (gap-fill
//! and masking, replicated here): a standalone `MovementDetector`
//! step — a refit when `threshold()` or the profile changed — then a
//! `Controller` step over the same row, and feature extraction plus
//! `RadioEnvironment::classify` when a variation window reaches t∆
//! (Rule 1). The controller runs its own MD and RE internally; the
//! analysis subtracts the standalone ones from its time.

use fadewich_core::artifact::ModelBundle;
use fadewich_core::controller::Controller;
use fadewich_core::features::extract_features_from_histories_into;
use fadewich_core::kma::Kma;
use fadewich_core::md::MovementDetector;
use fadewich_core::stream::ChannelKind;
use fadewich_runtime::engine::EngineConfig;
use fadewich_runtime::reorder::{ReorderBuffer, ReorderConfig, TickBundle};
use fadewich_runtime::wire::Frame;
use fadewich_stats::rolling::HistoryBuffer;
use fadewich_svm::PredictScratch;

use crate::gen::Generated;
use crate::serve::{action_digest, Feed, Inputs};
use crate::stats::{Layer, Spans};

/// What the replay counted besides span times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Ticks advanced through the core layers.
    pub ticks: u64,
    /// Digest of the replayed controller's action log; equal to the
    /// engine's when the replay reproduced the served decisions.
    pub actions: u64,
    /// Wall time of the whole replay.
    pub wall_ns: u64,
}

/// Per-tick core state of the replay.
struct Core<'a> {
    md: MovementDetector,
    ctl: Controller<'a>,
    histories: Vec<HistoryBuffer>,
    bundle: &'a ModelBundle,
    tick_hz: f64,
    t_delta_ticks: usize,
    noisy: bool,
    win_buf: Vec<f64>,
    feat_buf: Vec<f64>,
    scratch: PredictScratch,
    // Engine row assembly.
    groups: &'a [(u16, Vec<usize>)],
    staleness_cap: u64,
    row: Vec<f64>,
    mask: Vec<bool>,
    last_value: Vec<f64>,
    last_seen: Vec<Option<u64>>,
}

impl<'a> Core<'a> {
    fn tick(&mut self, spans: &mut Spans<'_>, bundle: &TickBundle) {
        self.assemble(bundle);
        let tick = bundle.tick as usize;
        let span = spans.open(Layer::Tick);

        let threshold = self.md.threshold().map(f64::to_bits);
        let profile = profile_mark(self.md.profile_values());
        let start = spans.now();
        self.md.step_masked(tick, &self.row, &self.mask);
        let refit = self.md.threshold().map(f64::to_bits) != threshold
            || (threshold.is_some() && profile_mark(self.md.profile_values()) != profile);
        spans.leaf(if refit { Layer::MdRefit } else { Layer::MdStep }, start);

        let start = spans.now();
        self.ctl.step_masked(tick, &self.row, &self.mask);
        spans.leaf(Layer::Controller, start);

        let start = spans.now();
        for (h, &x) in self.histories.iter_mut().zip(&self.row) {
            h.push(x);
        }
        spans.leaf(Layer::History, start);

        // The controller's Fig. 4 FSM, replayed off the standalone MD:
        // Rule 1 classifies once per window, when dW_t reaches t∆.
        let dwt = self.md.open_duration_ticks(tick);
        if !self.noisy && dwt >= self.t_delta_ticks {
            let from = self
                .md
                .open_window_start()
                .unwrap_or((tick + 1).saturating_sub(dwt.max(1)));
            let start = spans.now();
            if extract_features_from_histories_into(
                &self.histories,
                from as u64,
                self.tick_hz,
                &self.bundle.params,
                &mut self.win_buf,
                &mut self.feat_buf,
            ) {
                std::hint::black_box(
                    self.bundle
                        .re
                        .classify_into(&self.feat_buf, &mut self.scratch),
                );
            }
            spans.leaf(Layer::Re, start);
            self.noisy = true;
        } else if self.noisy && dwt == 0 {
            self.noisy = false;
        }
        spans.close(span);
    }

    /// The engine's row assembly: fresh samples fill their positions,
    /// a missing sample is held for up to the staleness cap, then
    /// masked.
    fn assemble(&mut self, bundle: &TickBundle) {
        for ((_, positions), report) in self.groups.iter().zip(&bundle.reports) {
            match report {
                Some(values) => {
                    for (&pos, &v) in positions.iter().zip(values) {
                        self.row[pos] = f64::from(v);
                        self.mask[pos] = false;
                        self.last_value[pos] = f64::from(v);
                        self.last_seen[pos] = Some(bundle.tick);
                    }
                }
                None => {
                    for &pos in positions {
                        let age = self.last_seen[pos].map(|seen| bundle.tick.saturating_sub(seen));
                        self.row[pos] = self.last_value[pos];
                        self.mask[pos] = age.is_none_or(|age| age > self.staleness_cap);
                    }
                }
            }
        }
    }
}

/// Cheap identity of the profile: length plus first and last values.
fn profile_mark(p: &[f64]) -> (usize, u64, u64) {
    (
        p.len(),
        p.first().map_or(0, |v| v.to_bits()),
        p.last().map_or(0, |v| v.to_bits()),
    )
}

/// Replays `feed` (one office of `inp`) through the layers under
/// `spans`.
///
/// # Errors
///
/// Detector or controller construction failures.
pub fn replay_office(
    gen: &Generated,
    inp: &Inputs,
    feed: &Feed,
    bundle: &ModelBundle,
    spans: &mut Spans<'_>,
) -> Result<ReplayCounts, String> {
    let cfg = EngineConfig::new(gen.tick_hz, bundle.params);
    let groups = &inp.groups;
    let mut reorder = ReorderBuffer::new(ReorderConfig {
        n_senders: groups.len(),
        jitter_ticks: cfg.jitter_ticks,
        quarantine_after_ticks: cfg.quarantine_after_ticks,
    });
    for sender in 0..groups.len() {
        reorder.set_sender_quarantine(sender, cfg.quarantine_after_ticks_for(ChannelKind::Rssi));
    }
    let keys = if inp.spec.auth {
        bundle.keys.as_ref()
    } else {
        None
    };
    reorder.set_anti_replay(keys.is_some());
    let n = gen.streams.len();
    let params = bundle.params;
    let history_len = ((params.t_delta_s + params.window_hangover_s + 4.0) * gen.tick_hz) as usize;
    let mut core = Core {
        md: MovementDetector::new(n, gen.tick_hz, params)?,
        ctl: Controller::new(n, gen.tick_hz, params, &bundle.re, Kma::new(&gen.inputs))?,
        histories: vec![HistoryBuffer::new(history_len.max(8)); n],
        bundle,
        tick_hz: gen.tick_hz,
        t_delta_ticks: params.t_delta_ticks(gen.tick_hz),
        noisy: false,
        win_buf: Vec::new(),
        feat_buf: Vec::new(),
        scratch: PredictScratch::new(),
        groups,
        staleness_cap: cfg.staleness_cap_ticks_for(ChannelKind::Rssi),
        row: vec![0.0; n],
        mask: vec![false; n],
        last_value: vec![0.0; n],
        last_seen: vec![None; n],
    };
    let mut counts = ReplayCounts::default();
    let t0 = spans.now();
    for i in 0..feed.len() {
        let root = spans.open(Layer::Delivery);
        let mut rest = feed.get(i);
        while !rest.is_empty() {
            let start = spans.now();
            let decoded = Frame::decode_borrowed(rest);
            spans.leaf(Layer::Decode, start);
            let Ok((view, used)) = decoded else {
                break;
            };
            rest = &rest[used..];
            let start = spans.now();
            let authentic = match keys {
                Some(keys) => {
                    view.is_authenticated()
                        && keys.get(view.sensor).is_some_and(|k| view.verify_mac(k))
                }
                None => !view.is_authenticated(),
            };
            if keys.is_some() {
                spans.leaf(Layer::Verify, start);
            }
            if !authentic {
                continue;
            }
            let start = spans.now();
            let frame = view.to_frame();
            spans.leaf(Layer::ToFrame, start);
            let Some(sender) = groups
                .iter()
                .position(|(s, p)| *s == frame.sensor && p.len() == frame.values.len())
            else {
                continue;
            };
            let start = spans.now();
            reorder.push(sender, frame.seq, frame.tick, frame.values);
            spans.leaf(Layer::Push, start);
            let start = spans.now();
            let bundles = reorder.poll();
            spans.leaf(Layer::Poll, start);
            reorder.take_events();
            for b in &bundles {
                core.tick(spans, b);
            }
        }
        spans.close(root);
    }
    // End of stream: drain the watermark, then pad any lost tail.
    let root = spans.open(Layer::Delivery);
    let start = spans.now();
    let bundles = reorder.flush();
    spans.leaf(Layer::Poll, start);
    for b in &bundles {
        core.tick(spans, b);
    }
    // Every tick pushes history, so its length is the next tick.
    let done = core
        .histories
        .first()
        .map_or(0, HistoryBuffer::total_pushed);
    for tick in done..inp.n_ticks() {
        core.tick(
            spans,
            &TickBundle {
                tick,
                reports: vec![None; groups.len()],
            },
        );
    }
    spans.close(root);
    counts.wall_ns = spans.now() - t0;
    counts.ticks = core
        .histories
        .first()
        .map_or(0, HistoryBuffer::total_pushed);
    counts.actions = action_digest(core.ctl.actions());
    Ok(counts)
}
