//! The fleet day driver: feeds every office's delivery stream through
//! one [`FleetRuntime`], round-interleaved, with optional per-office
//! crash recovery. Shared by the `fadewichd fleet` subcommand, the
//! `reproduce fleet` scaling study, and the integration tests, so all
//! three exercise the exact same data path.
//!
//! # Feed model
//!
//! All offices of a fleet share one scenario, one trace, and one
//! read-only model — what differs per office is the office id stamped
//! into its frames and the link seed its delivery randomness draws
//! from ([`office_link_seed`]). Office 0 keeps the base seed and
//! v1 frames, so its byte stream — and therefore its decision log —
//! is **literally** what a single-office `fadewichd serve` run with
//! the same flags produces; `scripts/ci.sh` compares the two with
//! `cmp`.
//!
//! Round *r* of a day delivers each office's *r*-th link delivery in
//! office-id order; every [`advance_every`] rounds the fleet drains
//! its queues in parallel, flushes freshly produced events into the
//! per-office sink, and (when recovering) sweeps checkpoints. Both the
//! interleaving and the sweep schedule are pure functions of the
//! configuration, never of thread count.
//!
//! # Checkpoint namespaces
//!
//! Office `o` checkpoints under `<root>/office-%05d/` — its own
//! [`CheckpointStore`] with its own `decisions.log`, exactly the
//! layout a single-office serve uses, so per-office resume logic is
//! serve's logic verbatim. A torn sweep (crash partway through
//! checkpointing the fleet) is safe: each office resumes from its own
//! newest valid image, and offices whose image is a day behind simply
//! redo that day's tail deterministically.
//!
//! [`advance_every`]: FleetDayEnv::advance_every

use std::path::{Path, PathBuf};

use fadewich_core::fusion::FusionConfig;
use fadewich_core::kma::Kma;
use fadewich_core::re::RadioEnvironment;
use fadewich_core::stream::{rssi_groups, ChannelKind};
use fadewich_officesim::{Scenario, Trace};
use fadewich_runtime::checkpoint::{CheckpointStore, EngineSnapshot};
use fadewich_runtime::counters::{ChannelCounters, RuntimeCounters};
use fadewich_runtime::daylog::{DayLog, LineSink};
use fadewich_runtime::engine::{EngineConfig, EngineEvent, StreamingEngine};
use fadewich_runtime::link::LinkModel;
use fadewich_runtime::replay::{day_deliveries_for_office_into, DayRun, Deployment};
use fadewich_telemetry::Telemetry;

use crate::health::{export_health, FleetHealth, OfficeStat};
use crate::runtime::{FleetCounters, FleetRuntime};

/// Rounds between parallel queue drains when the caller has no
/// stronger opinion: large enough to amortize pool dispatch, small
/// enough that events and checkpoints stay fresh.
pub const DEFAULT_ADVANCE_EVERY: u64 = 64;

/// Derives office `office`'s link seed from the fleet's base seed.
///
/// Office 0 keeps the base seed unchanged (its byte stream matches a
/// single-office run with the same flags); every other office mixes
/// its id in via a golden-ratio multiply so neighbouring ids get
/// uncorrelated link randomness.
#[must_use]
pub fn office_link_seed(base: u64, office: u16) -> u64 {
    base ^ u64::from(office).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

pub use fadewich_runtime::daylog::event_line;

/// The checkpoint namespace of one office under a fleet root.
#[must_use]
pub fn office_dir(root: &Path, office: u16) -> PathBuf {
    root.join(format!("office-{office:05}"))
}

/// Everything a fleet day needs that outlives the day.
pub struct FleetDayEnv<'s> {
    /// The shared scenario (KMA inputs come from it).
    pub scenario: &'s Scenario,
    /// The shared recorded trace.
    pub trace: &'s Trace,
    /// Monitored stream indices (shared by every office).
    pub streams: &'s [usize],
    /// The shared read-only classifier — one copy for the whole fleet.
    pub re: &'s RadioEnvironment,
    /// Engine configuration (identical per office).
    pub cfg: EngineConfig,
    /// The link model every office's deliveries pass through.
    pub link: &'s LinkModel,
    /// Base link seed; see [`office_link_seed`].
    pub link_seed: u64,
    /// Which recorded day to stream.
    pub day: usize,
    /// Rounds between parallel drains ([`DEFAULT_ADVANCE_EVERY`]).
    pub advance_every: u64,
}

/// How one office enters the day.
pub enum OfficeStart {
    /// The office already completed this day before a crash — it is
    /// hosted but fed nothing and emits nothing.
    Skip,
    /// Cold start: fresh engine, day header emitted.
    Fresh,
    /// Resume mid-day from a checkpoint: restored engine, deliveries
    /// before `stream_pos` skipped, no header (it is already in the
    /// committed log prefix).
    Resume(EngineSnapshot),
}

impl OfficeStart {
    /// Derives the start mode for `day` from an office's loaded
    /// checkpoint, consuming the snapshot when this is its day.
    pub fn for_day(resume: &mut Option<EngineSnapshot>, day: usize) -> OfficeStart {
        match resume {
            Some(s) if (s.day as usize) > day => OfficeStart::Skip,
            Some(s) if (s.day as usize) == day => match resume.take() {
                Some(snap) => OfficeStart::Resume(snap),
                None => OfficeStart::Fresh,
            },
            _ => OfficeStart::Fresh,
        }
    }
}

/// Receives each office's decision stream (the lines a single-office
/// serve would print) and answers the recovery layer's questions.
pub trait FleetSink {
    /// One decision-stream line for `office`: day header, event line,
    /// or end-of-day summary.
    ///
    /// # Errors
    ///
    /// Propagated out of the day driver as a decision-log I/O failure.
    fn emit(&mut self, office: u16, line: &str) -> Result<(), String>;

    /// Committed log bytes for `office` — recorded into checkpoint
    /// images so a resume can truncate the uncommitted tail. Sinks
    /// without durable logs return 0.
    fn log_mark(&mut self, office: u16) -> u64 {
        let _ = office;
        0
    }
}

/// A [`FleetSink`] buffering every office's lines in memory — the
/// in-process equivalent of reading each office's decision log back.
#[derive(Debug, Clone)]
pub struct BufferSink {
    /// `lines[o]` is office `o`'s decision stream so far.
    pub lines: Vec<Vec<String>>,
}

impl BufferSink {
    /// A sink for `n_offices` offices.
    #[must_use]
    pub fn new(n_offices: usize) -> BufferSink {
        BufferSink { lines: vec![Vec::new(); n_offices] }
    }

    /// Office `o`'s stream joined with trailing newlines — byte-equal
    /// to the decision log a file sink would have written.
    #[must_use]
    pub fn rendered(&self, office: u16) -> String {
        self.lines[usize::from(office)].iter().fold(String::new(), |mut s, l| {
            s.push_str(l);
            s.push('\n');
            s
        })
    }
}

impl FleetSink for BufferSink {
    fn emit(&mut self, office: u16, line: &str) -> Result<(), String> {
        self.lines[usize::from(office)].push(line.to_string());
        Ok(())
    }
}

/// One office's stream of a [`FleetSink`], as the [`LineSink`] the
/// shared checkpoint step writes to.
struct OfficeLines<'s> {
    sink: &'s mut dyn FleetSink,
    office: u16,
}

impl LineSink for OfficeLines<'_> {
    fn emit(&mut self, line: &str) -> Result<(), String> {
        self.sink.emit(self.office, line)
    }

    fn log_mark(&mut self) -> u64 {
        self.sink.log_mark(self.office)
    }
}

/// Per-office durable state for a recovering fleet day.
pub struct OfficeRecovery {
    /// The office's own checkpoint store (`<root>/office-%05d/`).
    pub store: CheckpointStore,
}

/// Fleet-wide recovery context for one day.
pub struct FleetRecovery {
    /// One entry per office, office-id order.
    pub offices: Vec<OfficeRecovery>,
    /// Cumulative ticks of previously completed days — keeps
    /// checkpoint stamps monotone across the run, like serve.
    pub base_ticks: u64,
    /// Stop the day (reporting `crashed`) once the fleet tick frontier
    /// reaches this stamp — the library-level analogue of
    /// `--crash-after-ticks`.
    pub crash_after_ticks: Option<u64>,
}

/// What one office produced over the day.
#[derive(Debug, Clone)]
pub struct OfficeDay {
    /// Events emitted this run (post-resume portion when resumed).
    pub events: Vec<EngineEvent>,
    /// The engine's deterministic end-of-day summary ("" if skipped
    /// or crashed before day end).
    pub summary: String,
    /// Runtime counters at the end of the run.
    pub counters: RuntimeCounters,
}

/// Fleet-wide totals of the per-engine authentication counters — the
/// rollup of each office's spoof/replay/flood accounting. All zero for
/// a legacy-unauthenticated fleet under no attack, in which case the
/// stdout rollup and telemetry export stay byte-identical to the
/// pre-auth output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuthTotals {
    /// Frames rejected for a missing, forged, or mode-mismatched MAC.
    pub frames_unauthenticated: u64,
    /// Valid-MAC frames rejected by the anti-replay windows.
    pub frames_replayed: u64,
    /// Auth rejections beyond some sensor's per-window budget.
    pub frames_rate_limited: u64,
    /// Sensors attack-quarantined across the fleet.
    pub attack_quarantines: u64,
}

impl AuthTotals {
    /// Whether any engine anywhere counted authentication activity.
    #[must_use]
    pub fn any(&self) -> bool {
        *self != AuthTotals::default()
    }

    /// Adds one office's counters into the rollup.
    fn absorb(&mut self, c: &RuntimeCounters) {
        self.frames_unauthenticated += c.frames_unauthenticated;
        self.frames_replayed += c.frames_replayed;
        self.frames_rate_limited += c.frames_rate_limited;
        self.attack_quarantines += c.attack_quarantines;
    }
}

/// Everything [`run_fleet_day`] produced.
#[derive(Debug, Clone)]
pub struct FleetDayReport {
    /// Per-office outcomes, office-id order.
    pub offices: Vec<OfficeDay>,
    /// Fleet-level demux counters for the day.
    pub fleet: FleetCounters,
    /// Per-shard tick lag at the end of the run.
    pub shard_tick_lags: Vec<u64>,
    /// Stream-health counters summed over every office, sliced per
    /// channel kind (indexed by [`ChannelKind::index`]) — the fleet's
    /// rollup of each engine's [`RuntimeCounters::channel`] slices.
    pub channel_totals: [ChannelCounters; ChannelKind::COUNT],
    /// Authentication-counter rollup over every office.
    pub auth_totals: AuthTotals,
    /// Per-office health rollup (bounded-cardinality telemetry view).
    pub health: FleetHealth,
    /// True when `crash_after_ticks` stopped the day early.
    pub crashed: bool,
}

impl FleetDayReport {
    /// True when any non-RSSI channel counted anything fleet-wide —
    /// the condition under which the stdout rollup prints the
    /// per-channel lines (RSSI-only fleets keep their exact
    /// pre-fusion output).
    #[must_use]
    pub fn has_mixed_channels(&self) -> bool {
        ChannelKind::ALL
            .iter()
            .any(|&k| k != ChannelKind::Rssi && self.channel_totals[k.index()] != ChannelCounters::default())
    }
}

/// Streams one day through a fleet of `starts.len()` offices over
/// `n_shards` shards. See the module docs for the feed model; every
/// decision-stream line goes through `sink`, and when `recovery` is
/// present each office checkpoints into its own store at the engine's
/// configured cadence.
///
/// # Errors
///
/// Propagates engine construction/restore failures, layout errors,
/// checkpoint-save failures, and sink I/O errors.
#[allow(clippy::too_many_arguments)]
pub fn run_fleet_day(
    env: &FleetDayEnv<'_>,
    starts: Vec<OfficeStart>,
    n_shards: usize,
    mut recovery: Option<&mut FleetRecovery>,
    sink: &mut dyn FleetSink,
    telemetry: &Telemetry,
) -> Result<FleetDayReport, String> {
    let n_offices = starts.len();
    if let Some(rec) = recovery.as_deref() {
        if rec.offices.len() != n_offices {
            return Err(format!(
                "fleet recovery covers {} offices but the fleet hosts {n_offices}",
                rec.offices.len()
            ));
        }
    }
    let day = env.day;
    let groups = env.trace.receiver_groups(env.streams);
    let typed = rssi_groups(groups.clone());
    let inputs = env.scenario.input_trace(day, 0);
    let n_ticks = env.trace.days()[day].n_ticks() as u64;
    let advance_every = env.advance_every.max(1);
    let stamp_base = recovery.as_deref().map_or(0, |rec| rec.base_ticks);

    // Per-office delivery feeds, flattened to one buffer + offsets per
    // office so a thousand offices do not cost a thousand Vec<Vec<u8>>.
    let mut feeds: Vec<OfficeFeed> = Vec::with_capacity(n_offices);
    // Build engines, start positions and per-office decision logs.
    let mut engines: Vec<StreamingEngine<'_>> = Vec::with_capacity(n_offices);
    let mut participating = vec![true; n_offices];
    let mut start_pos = vec![0usize; n_offices];
    let mut logs: Vec<DayLog> = Vec::with_capacity(n_offices);
    for (o, start) in starts.into_iter().enumerate() {
        let office = o as u16;
        let feed = match start {
            OfficeStart::Skip => OfficeFeed::empty(),
            _ => OfficeFeed::deliver(env, &groups, office)?,
        };
        let kma = Kma::new(&inputs);
        let engine = match start {
            OfficeStart::Resume(snap) => {
                if snap.stream_pos as usize > feed.len() {
                    return Err(format!(
                        "office {office}: checkpoint claims {} ingested deliveries but day {day} only has {}",
                        snap.stream_pos,
                        feed.len()
                    ));
                }
                start_pos[o] = snap.stream_pos as usize;
                let rssi = FusionConfig::rssi_only();
                StreamingEngine::restore(env.cfg, typed.clone(), rssi, env.re, kma, &snap)
            }
            OfficeStart::Fresh => {
                sink.emit(office, &format!("== day {day} =="))?;
                StreamingEngine::new(env.cfg, groups.clone(), env.re, kma)
            }
            OfficeStart::Skip => {
                participating[o] = false;
                StreamingEngine::new(env.cfg, groups.clone(), env.re, kma)
            }
        }
        .map_err(|e| format!("office {office}: {e}"))?;
        logs.push(DayLog::new(&engine, day, stamp_base, Telemetry::disabled()));
        feeds.push(feed);
        engines.push(engine);
    }

    let mut fleet = FleetRuntime::new(n_shards, engines)?;
    let max_rounds = feeds.iter().map(OfficeFeed::len).max().unwrap_or(0);
    let mut crashed = false;

    let mut round = 0usize;
    while round < max_rounds {
        let stop = (round + advance_every as usize).min(max_rounds);
        for r in round..stop {
            for o in 0..n_offices {
                if participating[o] && r >= start_pos[o] && r < feeds[o].len() {
                    fleet.ingest(feeds[o].get(r));
                }
            }
        }
        fleet.advance();
        round = stop;

        // Control phase (serial): each office's shared checkpoint step
        // (fresh events committed first, then a due snapshot).
        let mut frontier = 0u64;
        for o in 0..n_offices {
            let office = o as u16;
            let Some(engine) = fleet.office_mut(office).filter(|_| participating[o]) else {
                continue;
            };
            frontier = frontier.max(engine.counters().ticks_processed);
            let stream_pos = round.min(feeds[o].len()).max(start_pos[o]) as u64;
            let store = recovery.as_deref_mut().map(|rec| &mut rec.offices[o].store);
            logs[o]
                .step(engine, stream_pos, &mut OfficeLines { sink: &mut *sink, office }, store)
                .map_err(|e| format!("office {office}: {e}"))?;
        }
        if let Some(rec) = recovery.as_deref() {
            if rec.crash_after_ticks.is_some_and(|n| rec.base_ticks + frontier >= n) {
                crashed = true;
                break;
            }
        }
    }

    if !crashed {
        let expected: Vec<u64> =
            participating.iter().map(|&p| if p { n_ticks } else { 0 }).collect();
        fleet.finish_per_office(&expected);
    }

    // Day end (or crash point): final event flush, summaries, report.
    let mut offices = Vec::with_capacity(n_offices);
    let mut office_stats: Vec<OfficeStat> = Vec::with_capacity(n_offices);
    let mut active = 0u64;
    let mut quarantined = 0u64;
    let mut channel_totals = [ChannelCounters::default(); ChannelKind::COUNT];
    let mut auth_totals = AuthTotals::default();
    for o in 0..n_offices {
        let office = o as u16;
        let Some(engine) = fleet.office_mut(office) else { continue };
        let mut summary = String::new();
        if participating[o] {
            logs[o].flush(engine, &mut OfficeLines { sink: &mut *sink, office })?;
            if !crashed {
                summary = engine.counters().deterministic_summary();
                sink.emit(office, &summary)?;
            }
        }
        let counters = engine.counters().clone();
        auth_totals.absorb(&counters);
        for kind in ChannelKind::ALL {
            let (total, c) = (&mut channel_totals[kind.index()], counters.channel(kind));
            total.frames_in += c.frames_in;
            total.gap_fills += c.gap_fills;
            total.masked_stream_ticks += c.masked_stream_ticks;
            total.quarantines += c.quarantines;
            total.recoveries += c.recoveries;
        }
        if counters.frames_in > 0 {
            active += 1;
        }
        if counters.quarantines > counters.recoveries {
            quarantined += 1;
        }
        // Per-office telemetry goes through the bounded health rollup
        // below instead of one labeled series per office — at the
        // ROADMAP's 10k-office scale the old `office_*{office="…"}`
        // counters made the registry render O(fleet size).
        office_stats.push(OfficeStat::from_counters(
            office,
            if participating[o] { n_ticks } else { 0 },
            &counters,
        ));
        offices.push(OfficeDay {
            events: engine.events().to_vec(),
            summary,
            counters,
        });
    }
    for kind in ChannelKind::ALL {
        let c = &channel_totals[kind.index()];
        if *c == ChannelCounters::default() {
            continue;
        }
        let label = kind.label();
        for (metric, v) in [
            ("frames_in", c.frames_in),
            ("gap_fills", c.gap_fills),
            ("masked_stream_ticks", c.masked_stream_ticks),
            ("quarantines", c.quarantines),
            ("recoveries", c.recoveries),
        ] {
            telemetry.counter_add(&format!("fleet_channel_{label}_{metric}"), v);
        }
    }
    // Auth rollups export only when some engine counted auth activity,
    // so a legacy fleet's metric registry stays byte-identical.
    if auth_totals.any() {
        for (metric, v) in [
            ("frames_unauthenticated", auth_totals.frames_unauthenticated),
            ("frames_replayed", auth_totals.frames_replayed),
            ("frames_rate_limited", auth_totals.frames_rate_limited),
            ("attack_quarantines", auth_totals.attack_quarantines),
        ] {
            telemetry.counter_add(&format!("fleet_auth_{metric}"), v);
        }
    }
    let fleet_counters = fleet.counters().clone();
    telemetry.counter_add("fleet_frames_demuxed", fleet_counters.frames_demuxed);
    telemetry.counter_add("fleet_frames_unknown_office", fleet_counters.frames_unknown_office);
    telemetry
        .counter_add("fleet_frames_corrupt", fleet_counters.corrupt_crc + fleet_counters.corrupt_framing);
    telemetry.gauge_set("fleet_offices_active", active as f64);
    telemetry.gauge_set("fleet_offices_quarantined", quarantined as f64);
    let shard_tick_lags = fleet.shard_tick_lags();
    for (i, lag) in shard_tick_lags.iter().enumerate() {
        telemetry.gauge_set(&format!("fleet_shard_tick_lag{{shard=\"{i}\"}}"), *lag as f64);
    }
    let health = export_health(&office_stats, telemetry);
    Ok(FleetDayReport {
        offices,
        fleet: fleet_counters,
        shard_tick_lags,
        channel_totals,
        auth_totals,
        health,
        crashed,
    })
}

/// Runs office `office`'s day on a dedicated single-office engine —
/// the independent deployment the fleet must be byte-identical to.
/// Returns the decision-stream lines (header + events + summary),
/// rendered exactly as [`run_fleet_day`] emits them.
///
/// # Errors
///
/// Propagates engine construction and layout errors.
pub fn single_office_day(env: &FleetDayEnv<'_>, office: u16) -> Result<Vec<String>, String> {
    let deployment =
        Deployment { scenario: env.scenario, trace: env.trace, streams: env.streams, re: env.re };
    let link_seed = office_link_seed(env.link_seed, office);
    let run = DayRun::new(deployment, env.day, env.cfg, env.link, link_seed);
    let mut lines = Vec::new();
    DayRun { office, lines: Some(&mut lines), ..run }
        .run()
        .map_err(|e| format!("office {office}: {e}"))?;
    Ok(lines)
}

/// One office's flattened delivery feed: all delivery blobs in one
/// buffer, delimited by end offsets.
struct OfficeFeed {
    bytes: Vec<u8>,
    ends: Vec<u32>,
}

impl OfficeFeed {
    fn empty() -> OfficeFeed {
        OfficeFeed { bytes: Vec::new(), ends: Vec::new() }
    }

    /// Builds office `office`'s feed straight through the link's
    /// reusable-buffer path — no per-delivery `Vec` is ever allocated.
    fn deliver(
        env: &FleetDayEnv<'_>,
        groups: &[(u16, Vec<usize>)],
        office: u16,
    ) -> Result<OfficeFeed, String> {
        let mut bytes = Vec::new();
        let mut ends = Vec::new();
        day_deliveries_for_office_into(
            env.trace,
            env.streams,
            groups,
            env.day,
            env.link,
            office_link_seed(env.link_seed, office),
            office,
            &mut bytes,
            &mut ends,
        )?;
        Ok(OfficeFeed { bytes, ends: ends.into_iter().map(|e| e as u32).collect() })
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, r: usize) -> &[u8] {
        let start = if r == 0 { 0 } else { self.ends[r - 1] as usize };
        &self.bytes[start..self.ends[r] as usize]
    }
}
