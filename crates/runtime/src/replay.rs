//! Scenario-driven replay: the glue between `officesim` recordings and
//! the streaming engine.
//!
//! A replay reproduces the deployed workflow end to end: train RE on
//! the first days with KMA auto-labeling (exactly as the batch
//! deployment experiment does, same ordering and seed), then stream
//! each remaining day's sensor reports through a [`LinkModel`] into a
//! [`StreamingEngine`]. The batch reference
//! ([`batch_day_actions`]) steps a plain [`Controller`] over the same
//! recorded matrix, so a lossless replay must produce byte-identical
//! decisions — the invariant `tests/parity.rs` enforces.
//!
//! Every streamed day — a study's replay, a crash and its resume, a
//! `fadewichd serve` day — is a [`DayRun`]: the day as data, executed
//! by [`DayRun::run`] with the checkpoint step of [`crate::daylog`].

use fadewich_core::artifact::{FeatureSchema, ModelBundle};
use fadewich_core::auth::KeyTable;
use fadewich_core::config::FadewichParams;
use fadewich_core::controller::{Action, Controller};
use fadewich_core::features::{extract_features, TrainingSample, FEATURES_PER_STREAM};
use fadewich_core::fusion::{DecisionMode, FusionConfig};
use fadewich_core::kma::Kma;
use fadewich_core::md::{run_md_over_day, MovementDetector};
use fadewich_core::re::{auto_label, AutoLabelParams, RadioEnvironment};
use fadewich_core::stream::{rssi_groups, ChannelKind, SensorGroup};
use fadewich_officesim::{Scenario, StreamKind, Trace};
use fadewich_stats::rng::Rng;
use fadewich_telemetry::Telemetry;

use crate::checkpoint::{CheckpointStore, EngineSnapshot};
use crate::counters::RuntimeCounters;
use crate::daylog::{DayLog, LineSink};
use crate::engine::{EngineConfig, EngineEvent, StreamingEngine};
use crate::link::LinkModel;
use crate::wire::Frame;

/// RE training seed — shared with the batch deployment experiment so
/// both pipelines compare like for like.
pub const TRAIN_SEED: u64 = 0xDE9107;

/// Maps the simulator's native stream tag onto the canonical wire /
/// engine channel kind. (`officesim` sits below `fadewich-core` in the
/// dependency graph, so the conversion lives up here.)
pub fn channel_kind_of(kind: StreamKind) -> ChannelKind {
    match kind {
        StreamKind::Rssi => ChannelKind::Rssi,
        StreamKind::AmbientLight => ChannelKind::AmbientLight,
    }
}

/// The typed sensor layout of a (possibly light-enabled) trace: the
/// RF receiver groups on the row prefix, one ambient-light group per
/// monitored workstation on the suffix.
pub fn typed_groups(trace: &Trace, streams: &[usize]) -> Vec<SensorGroup> {
    trace
        .fused_groups(streams)
        .into_iter()
        .map(|(sensor, kind, positions)| SensorGroup {
            sensor,
            kind: channel_kind_of(kind),
            positions,
        })
        .collect()
}

/// The fusion configuration a light-enabled trace implies: one light
/// stream per recorded workstation photosensor, arbitrated by `mode`.
/// For an RSSI-only trace this degenerates to
/// [`FusionConfig::rssi_only`] with the requested mode.
pub fn fusion_for_trace(trace: &Trace, mode: DecisionMode) -> FusionConfig {
    FusionConfig {
        mode,
        light_workstations: trace.light_sensors().iter().map(|&w| w as usize).collect(),
        ..FusionConfig::rssi_only()
    }
}

/// Which sensor layout, and which decision arbitration, a day runs
/// under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// The trace's receiver groups with RSSI-only decisions; recorded
    /// light streams are never framed.
    Rssi,
    /// [`typed_groups`], light streams arbitrated by the mode
    /// ([`fusion_for_trace`]).
    Fused(DecisionMode),
}

impl Layout {
    /// The engine groups and fusion configuration of this layout over
    /// `streams` of `trace`.
    pub fn resolve(self, trace: &Trace, streams: &[usize]) -> (Vec<SensorGroup>, FusionConfig) {
        match self {
            Layout::Rssi => {
                (rssi_groups(trace.receiver_groups(streams)), FusionConfig::rssi_only())
            }
            Layout::Fused(mode) => (typed_groups(trace, streams), fusion_for_trace(trace, mode)),
        }
    }
}

/// The recorded deployment a day streams through.
#[derive(Debug, Clone, Copy)]
pub struct Deployment<'a> {
    /// The scenario whose input trace feeds KMA.
    pub scenario: &'a Scenario,
    /// The recorded sensor trace.
    pub trace: &'a Trace,
    /// Monitored stream indices.
    pub streams: &'a [usize],
    /// The trained RE classifier.
    pub re: &'a RadioEnvironment,
}

/// Everything one streamed day produced.
#[derive(Debug, Clone)]
pub struct DayReplay {
    /// Which recorded day was streamed.
    pub day: usize,
    /// The controller's action log (post-resume portion when resumed).
    pub actions: Vec<Action>,
    /// Structured events (post-resume portion when resumed).
    pub events: Vec<EngineEvent>,
    /// Runtime counters for the day.
    pub counters: RuntimeCounters,
    /// Whether the run stopped dead at its [`CrashPoint`].
    pub crashed: bool,
}

/// Where a checkpointed run stops dead, like a process crash: no
/// flush, no tail padding, no summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Once `stream_pos` (deliveries ingested since the day's start)
    /// reaches this count.
    AfterDeliveries(u64),
    /// Once the checkpoint stamp reaches this value
    /// (`fadewichd --crash-after-ticks`).
    AtStamp(u64),
}

/// Checkpointing for a [`DayRun`], at the engine's configured cadence.
#[derive(Debug)]
pub struct Checkpointing<'a> {
    /// Where the images go.
    pub store: &'a mut CheckpointStore,
    /// Ticks of previously served days, added to each stamp so stamps
    /// stay monotone across a multi-day run.
    pub stamp_base: u64,
    /// Stop dead here, for exercising recovery.
    pub crash: Option<CrashPoint>,
}

/// One streamed day, described as data. [`DayRun::new`] is the plain
/// case; struct-update syntax overrides the rest.
pub struct DayRun<'a> {
    /// What is deployed.
    pub deployment: Deployment<'a>,
    /// Which recorded day to stream.
    pub day: usize,
    /// Engine configuration.
    pub cfg: EngineConfig,
    /// Sensor layout and decision arbitration.
    pub layout: Layout,
    /// Office id stamped into the frames (0: the single-office bytes).
    pub office: u16,
    /// The link every delivery passes through.
    pub link: &'a LinkModel,
    /// Seeds the link as `Rng::task_stream(link_seed, day)`.
    pub link_seed: u64,
    /// Audit trail, checkpoint saves and day-end counters go here.
    pub telemetry: Telemetry,
    /// Restore from this checkpoint of `day` and skip the deliveries
    /// before its `stream_pos`.
    pub resume: Option<&'a EngineSnapshot>,
    /// Save checkpoints (and maybe crash) along the way.
    pub checkpoint: Option<Checkpointing<'a>>,
    /// Receives the decision stream (see [`crate::daylog`]).
    pub lines: Option<&'a mut (dyn LineSink + 'static)>,
}

impl<'a> DayRun<'a> {
    /// A cold start of `day` over [`Layout::Rssi`] as office 0, with
    /// telemetry disabled, no checkpoints and no sink.
    pub fn new(
        deployment: Deployment<'a>,
        day: usize,
        cfg: EngineConfig,
        link: &'a LinkModel,
        link_seed: u64,
    ) -> DayRun<'a> {
        DayRun {
            deployment,
            day,
            cfg,
            layout: Layout::Rssi,
            office: 0,
            link,
            link_seed,
            telemetry: Telemetry::disabled(),
            resume: None,
            checkpoint: None,
            lines: None,
        }
    }

    /// Streams the day: builds or restores the engine, delivers the day
    /// through the link into one flat arrival buffer (the bytes of
    /// [`day_deliveries`]), ingests it from the resume position with
    /// [`DayLog::step`] after each delivery, and stops dead at the
    /// crash point — or finishes the day, commits the summary line and
    /// exports the counters into the telemetry handle.
    ///
    /// # Errors
    ///
    /// A checkpoint for another day or beyond the day's deliveries,
    /// engine construction/restore and layout errors, checkpoint-save
    /// failures, and sink errors.
    pub fn run(self) -> Result<DayReplay, String> {
        let (dep, day) = (self.deployment, self.day);
        let (groups, fusion) = self.layout.resolve(dep.trace, dep.streams);
        let frames = framed_day(dep.trace, dep.streams, &groups, day, self.office, None)?;
        let inputs = dep.scenario.input_trace(day, 0);
        let kma = Kma::new(&inputs);
        let (cfg, re) = (self.cfg, dep.re);
        let mut engine = match self.resume {
            Some(snap) if snap.day as usize != day => {
                let at = snap.day;
                return Err(format!("checkpoint is for day {at} but the run streams day {day}"));
            }
            Some(snap) => StreamingEngine::restore(cfg, groups, fusion, re, kma, snap)?,
            None => StreamingEngine::with_layout(cfg, groups, fusion, re, kma)?,
        };
        engine.set_telemetry(self.telemetry.clone());
        let mut rng = Rng::task_stream(self.link_seed, day as u64);
        let (mut arrivals, mut ends) = (Vec::new(), Vec::new());
        self.link.deliver_into(&frames, &mut rng, &mut arrivals, &mut ends);
        let start = self.resume.map_or(0, |s| s.stream_pos as usize);
        if start > ends.len() {
            return Err(format!(
                "checkpoint claims {start} ingested deliveries but day {day} only has {}",
                ends.len()
            ));
        }
        let (mut store, stamp_base, crash) = match self.checkpoint {
            Some(c) => (Some(c.store), c.stamp_base, c.crash),
            None => (None, 0, None),
        };
        let lines: &mut dyn LineSink = match self.lines {
            Some(lines) => lines,
            None => &mut Discard,
        };
        let mut log = DayLog::new(&engine, day, stamp_base, self.telemetry.clone());
        if self.resume.is_none() {
            lines.emit(&format!("== day {day} =="))?;
        }
        let mut begin = start.checked_sub(1).map_or(0, |i| ends[i]);
        let mut crashed = false;
        for (i, &end) in ends.iter().enumerate().skip(start) {
            engine.ingest_bytes(&arrivals[begin..end]);
            begin = end;
            let stream_pos = (i + 1) as u64;
            log.step(&engine, stream_pos, lines, store.as_deref_mut())?;
            crashed = match crash {
                Some(CrashPoint::AfterDeliveries(n)) => stream_pos >= n,
                Some(CrashPoint::AtStamp(n)) => stamp_base + engine.counters().ticks_processed >= n,
                None => false,
            };
            if crashed {
                break;
            }
        }
        if !crashed {
            engine.finish(dep.trace.days()[day].n_ticks() as u64);
            log.flush(&engine, lines)?;
            engine.counters().export_into(&self.telemetry);
            self.telemetry.counter_add("runtime_days_streamed", 1);
            lines.emit(&engine.counters().deterministic_summary())?;
        }
        Ok(DayReplay {
            day,
            actions: engine.actions().to_vec(),
            events: engine.events().to_vec(),
            counters: engine.counters().clone(),
            crashed,
        })
    }
}

/// Trains RE on the first `train_days` of a scenario with KMA
/// auto-labeling (the deployment workflow's training phase).
///
/// # Errors
///
/// Returns a message for an invalid split, MD failures, or a training
/// set too small to fit a classifier.
pub fn train_re(
    scenario: &Scenario,
    trace: &Trace,
    streams: &[usize],
    train_days: usize,
    params: &FadewichParams,
) -> Result<RadioEnvironment, String> {
    let n_days = trace.days().len();
    if train_days == 0 || train_days >= n_days {
        return Err(format!("need 1..{} training days, got {train_days}", n_days - 1));
    }
    let hz = trace.tick_hz();
    let label_params = AutoLabelParams::default();
    let mut samples: Vec<TrainingSample> = Vec::new();
    for day in 0..train_days {
        let run = run_md_over_day(&trace.days()[day], streams, hz, *params)?;
        let inputs = scenario.input_trace(day, 0);
        let kma = Kma::new(&inputs);
        for w in run.significant_windows(params.t_delta_ticks(hz)) {
            let Some(label) = auto_label(&kma, w.start_s(hz), &label_params) else {
                continue;
            };
            samples.push(TrainingSample {
                features: extract_features(&trace.days()[day], streams, w.start_tick, hz, params),
                label,
            });
        }
    }
    let mut rng = Rng::seed_from_u64(TRAIN_SEED);
    RadioEnvironment::train(&samples, None, &mut rng)
        .map_err(|e| format!("training phase failed: {e}"))
}

/// Runs the full training phase and packs the result — parameters,
/// feature schema, MD's learned profile/threshold from the last
/// training day, and the trained RE classifier — into a versioned
/// [`ModelBundle`] ready for [`ModelBundle::save`].
///
/// The classifier is the exact [`train_re`] output (same ordering,
/// same [`TRAIN_SEED`]), so decisions served from the saved artifact
/// are byte-identical to an in-memory-trained engine.
///
/// # Errors
///
/// Propagates [`train_re`] and [`MovementDetector::new`] errors.
pub fn train_model(
    scenario: &Scenario,
    trace: &Trace,
    streams: &[usize],
    train_days: usize,
    params: &FadewichParams,
) -> Result<ModelBundle, String> {
    let re = train_re(scenario, trace, streams, train_days, params)?;
    let hz = trace.tick_hz();
    // MD's exportable state comes from a clean pass over the last
    // training day — the same cold-start detector the batch and
    // streaming paths use, so the snapshot reflects deployment
    // conditions rather than some partially warmed intermediate.
    let mut md = MovementDetector::new(streams.len(), hz, *params)?;
    let day = &trace.days()[train_days - 1];
    let mut row = vec![0.0f64; streams.len()];
    for tick in 0..day.n_ticks() {
        let full = day.row(tick);
        for (dst, &s) in row.iter_mut().zip(streams) {
            *dst = full[s] as f64;
        }
        md.step(tick, &row);
    }
    Ok(ModelBundle {
        params: *params,
        schema: FeatureSchema::rssi(
            hz,
            streams.iter().map(|&s| s as u32).collect(),
            FEATURES_PER_STREAM,
        ),
        md: md.snapshot(),
        re,
        // Training stays keyless: authenticated deployments attach a
        // derived KeyTable explicitly, so pre-auth artifacts (and their
        // pinned fixtures) keep encoding byte-identically.
        keys: None,
    })
}

/// Checks a loaded artifact against the live deployment before
/// serving: sampling rate, monitored streams, and feature layout must
/// all match what the model was trained on.
///
/// # Errors
///
/// Returns a description of the first mismatch.
pub fn validate_schema(
    bundle: &ModelBundle,
    trace: &Trace,
    streams: &[usize],
) -> Result<(), String> {
    let schema = &bundle.schema;
    if schema.tick_hz != trace.tick_hz() {
        return Err(format!(
            "model trained at {} Hz but deployment runs at {} Hz",
            schema.tick_hz,
            trace.tick_hz()
        ));
    }
    let live: Vec<u32> = streams.iter().map(|&s| s as u32).collect();
    if schema.stream_ids != live {
        return Err(format!(
            "model monitors streams {:?} but deployment monitors {live:?}",
            schema.stream_ids
        ));
    }
    if schema.features_per_stream != FEATURES_PER_STREAM {
        return Err(format!(
            "model uses {} features per stream but this build extracts {FEATURES_PER_STREAM}",
            schema.features_per_stream
        ));
    }
    Ok(())
}

/// The batch reference: drives a plain [`Controller`] over the
/// recorded day matrix and returns its action log.
///
/// # Errors
///
/// Propagates controller construction errors.
pub fn batch_day_actions(
    scenario: &Scenario,
    trace: &Trace,
    streams: &[usize],
    re: &RadioEnvironment,
    day: usize,
    params: &FadewichParams,
) -> Result<Vec<Action>, String> {
    let hz = trace.tick_hz();
    let inputs = scenario.input_trace(day, 0);
    let kma = Kma::new(&inputs);
    let mut controller = Controller::new(streams.len(), hz, *params, re, kma)?;
    let day_trace = &trace.days()[day];
    let mut row = vec![0.0f64; streams.len()];
    for tick in 0..day_trace.n_ticks() {
        let full = day_trace.row(tick);
        for (dst, &s) in row.iter_mut().zip(streams) {
            *dst = full[s] as f64;
        }
        controller.step(tick, &row);
    }
    Ok(controller.actions().to_vec())
}

/// The exact byte deliveries one day's sensor traffic produces after
/// passing through `link`: the reports of `groups`' senders framed in
/// send order with per-sender sequence numbers and stamped for `office`
/// (see [`framed_day`]), then dropped/duplicated/jittered by the link
/// model seeded from `Rng::task_stream(link_seed, day)`. Office 0 over
/// the all-RSSI layout streams v1 frames; any other id v2 frames
/// carrying the office field the fleet demux routes on.
///
/// This is the day's *replayable delivery sequence* — the unit the
/// crash-recovery layer counts. A checkpoint records how many
/// deliveries were fully ingested (`stream_pos`), and a resume replays
/// the same sequence from that index, so determinism here is what
/// makes resumed decisions byte-identical. [`DayRun`] streams the same
/// bytes through one flat buffer.
///
/// # Errors
///
/// Rejects a report whose `(sensor, kind)` pair is absent from `groups`
/// (the layout contract between the trace's reports and its groups
/// was broken).
pub fn day_deliveries(
    trace: &Trace,
    streams: &[usize],
    groups: &[SensorGroup],
    day: usize,
    office: u16,
    link: &LinkModel,
    link_seed: u64,
) -> Result<Vec<Vec<u8>>, String> {
    let frames = framed_day(trace, streams, groups, day, office, None)?;
    let mut rng = Rng::task_stream(link_seed, day as u64);
    Ok(link.deliver(&frames, &mut rng))
}

/// [`day_deliveries`] over the legacy all-RSSI layout, into reusable
/// buffers: the day's arrival stream lands back-to-back in `bytes`,
/// with `ends[i]` the exclusive end offset of delivery `i` (see
/// [`LinkModel::deliver_into`]). Byte-for-byte the same deliveries in
/// the same order as the owned form — the fleet feed builder uses this
/// to skip the per-delivery allocations.
///
/// # Errors
///
/// Same layout contract as [`day_deliveries`].
#[allow(clippy::too_many_arguments)]
pub fn day_deliveries_for_office_into(
    trace: &Trace,
    streams: &[usize],
    groups: &[(u16, Vec<usize>)],
    day: usize,
    link: &LinkModel,
    link_seed: u64,
    office: u16,
    bytes: &mut Vec<u8>,
    ends: &mut Vec<usize>,
) -> Result<(), String> {
    let frames = framed_day(trace, streams, &rssi_groups(groups.to_vec()), day, office, None)?;
    let mut rng = Rng::task_stream(link_seed, day as u64);
    link.deliver_into(&frames, &mut rng, bytes, ends);
    Ok(())
}

/// One day's send stream of an authenticated all-RSSI deployment:
/// every report encoded as a v4 frame signed under the sender's key
/// from `keys` — what an authenticated deployment's radio actually
/// puts on the air. The attack studies splice
/// [`AttackModel`](crate::attack::AttackModel) forgeries into this
/// stream; an engine running [`set_auth`](crate::engine::StreamingEngine::set_auth)
/// with the same table accepts exactly the genuine frames.
///
/// # Errors
///
/// Same layout contract as [`day_deliveries`], plus every reporting
/// sensor must have a key in `keys`.
pub fn signed_day_frames(
    trace: &Trace,
    streams: &[usize],
    groups: &[(u16, Vec<usize>)],
    day: usize,
    office: u16,
    keys: &KeyTable,
) -> Result<Vec<(u64, Vec<u8>)>, String> {
    framed_day(trace, streams, &rssi_groups(groups.to_vec()), day, office, Some(keys))
}

/// One day's encoded send stream before the link: `(send tick, bytes)`
/// in send order, each report framed with its sender's next sequence
/// number, stamped for `office` and — with `keys` — signed as a v4
/// frame under the sender's key. A layout with light sensors frames
/// [`Trace::sensor_reports_fused`] (RF receivers then light sensors,
/// tick-major); an all-RSSI one [`Trace::sensor_reports`]. Light and RF
/// sensor ids share a number space but not a channel, so the sender
/// lookup matches on `(sensor, kind)`.
///
/// # Errors
///
/// Same layout contract as [`day_deliveries`], plus, with `keys`,
/// every reporting sensor must have a key.
fn framed_day(
    trace: &Trace,
    streams: &[usize],
    groups: &[SensorGroup],
    day: usize,
    office: u16,
    keys: Option<&KeyTable>,
) -> Result<Vec<(u64, Vec<u8>)>, String> {
    let reports = if groups.iter().all(|g| g.kind == ChannelKind::Rssi) {
        trace.sensor_reports(day, streams)
    } else {
        trace.sensor_reports_fused(day, streams)
    };
    let mut seq = vec![0u32; groups.len()];
    let mut frames: Vec<(u64, Vec<u8>)> = Vec::with_capacity(reports.len());
    for r in reports {
        let channel = channel_kind_of(r.kind);
        let sender = groups
            .iter()
            .position(|g| g.sensor == r.sensor && g.kind == channel)
            .ok_or_else(|| {
                format!("{channel} sensor {} reports frames but is not in the layout", r.sensor)
            })?;
        let frame = Frame {
            office,
            channel,
            sensor: r.sensor,
            seq: seq[sender],
            tick: r.tick,
            values: r.values,
        };
        seq[sender] = seq[sender].wrapping_add(1);
        let bytes = match keys {
            Some(keys) => frame.encode_auth(keys.get(r.sensor).ok_or_else(|| {
                format!("sensor {} has no key in the deployment table", r.sensor)
            })?),
            None => frame.encode(),
        };
        frames.push((r.tick, bytes));
    }
    Ok(frames)
}

/// The sink of a run nobody reads the decision stream of.
struct Discard;

impl LineSink for Discard {
    fn emit(&mut self, _line: &str) -> Result<(), String> {
        Ok(())
    }
}
