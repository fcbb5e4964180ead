//! Workload inputs, the untraced serving loops, and the reference
//! checks the served decisions are held to.
//!
//! The serving loops are closed: the next link delivery goes in only
//! after the previous call returned, one delivery per call, exactly as
//! `fadewichd serve` drives its engine. A *round* is
//! [`DEFAULT_ADVANCE_EVERY`] deliveries per office plus the serial
//! control phase that renders new events (and, in the fleet, drains
//! the shard queues and takes due checkpoints).

use std::num::NonZeroUsize;

use fadewich_core::artifact::ModelBundle;
use fadewich_core::auth::KeyTable;
use fadewich_core::controller::{Action, Controller};
use fadewich_core::kma::Kma;
use fadewich_fleet::day::{event_line, DEFAULT_ADVANCE_EVERY};
use fadewich_fleet::{office_link_seed, FleetRuntime};
use fadewich_officesim::Trace;
use fadewich_runtime::attack::{AttackKind, AttackModel};
use fadewich_runtime::checkpoint::Checkpointer;
use fadewich_runtime::counters::RuntimeCounters;
use fadewich_runtime::engine::{EngineAuth, EngineConfig, EngineEvent, StreamingEngine};
use fadewich_runtime::link::LinkModel;
use fadewich_runtime::replay;
use fadewich_stats::rng::Rng;
use fadewich_telemetry::{Clock, SloEngine, Telemetry};

use crate::alloc;
use crate::gen::{fnv, splitmix, Generated, FNV_OFFSET};
use crate::stats::{weighted_nearest_rank, windowed_nearest_rank, Layer, Spans};

/// Deliveries per office in one round.
const ROUND: usize = DEFAULT_ADVANCE_EVERY as usize;
/// Shards of the fleet workload.
pub const SHARDS: usize = 2;
/// Ticks per window of the p99.9 tick latency: the fewest that leave
/// ten samples beyond it.
pub const TICK_WINDOW: u64 = 10_000;
/// Rounds per window of the p99 round latency, by the same rule.
pub const ROUND_WINDOW: u64 = 1_000;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One office, lossless in-order v1 frames, no auth, telemetry
    /// off, no checkpoints: the deployment the paper measures.
    PaperDay,
    /// The same office authenticated (v4 frames, `set_auth`) with
    /// metrics-only telemetry, under a deauth-storm flood plus replayed
    /// captures.
    AuthStorm,
    /// Paper-scale offices behind one `FleetRuntime` on lossy links,
    /// with in-memory checkpoints.
    FleetLossy,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperDay,
        Workload::AuthStorm,
        Workload::FleetLossy,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDay => "paper_day",
            Workload::AuthStorm => "auth_storm",
            Workload::FleetLossy => "fleet_lossy",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's shape over a served day of `day_ticks` ticks.
    pub fn spec(self, day_ticks: usize) -> Spec {
        let paper_day = Spec {
            ticks: day_ticks,
            offices: 1,
            auth: false,
            telemetry: false,
            checkpoints: false,
            link: LinkModel::lossless(),
            storm_per_tick: 0,
            replay_capture_p: 0.0,
        };
        match self {
            Workload::PaperDay => paper_day,
            // A 2-hour slice (36k ticks at 5 Hz) under 32 forged frames
            // per tick plus replayed captures of 5% of genuine frames.
            Workload::AuthStorm => Spec {
                ticks: day_ticks.min(36_000),
                auth: true,
                telemetry: true,
                storm_per_tick: 32,
                replay_capture_p: 0.05,
                ..paper_day
            },
            // 32 offices × 30 minutes (9k ticks each), each on its own
            // lossy link.
            Workload::FleetLossy => Spec {
                ticks: day_ticks.min(9_000),
                offices: 32,
                checkpoints: true,
                link: LinkModel {
                    drop_p: 0.02,
                    dup_p: 0.01,
                    corrupt_p: 0.005,
                    jitter_ticks: 3,
                },
                ..paper_day
            },
        }
    }
}

/// The shape of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Ticks served per office (a prefix of the served day).
    pub ticks: usize,
    /// Offices; more than one runs the fleet.
    pub offices: usize,
    /// v4 frames and an authenticated engine.
    pub auth: bool,
    /// Metrics-only telemetry, as `fadewichd serve --metrics-addr`.
    pub telemetry: bool,
    /// In-memory snapshot plus encode every `checkpoint_every_ticks`.
    pub checkpoints: bool,
    /// The link every office's frames cross.
    pub link: LinkModel,
    /// Forged `DeauthStorm` frames per tick (0 = no storm).
    pub storm_per_tick: u32,
    /// Share of genuine frames captured and replayed.
    pub replay_capture_p: f64,
}

/// One office's deliveries, back to back, with end offsets.
#[derive(Debug, Clone, Default)]
pub struct Feed {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Feed {
    /// Number of deliveries.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Delivery `i`.
    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    fn push(&mut self, frame: &[u8]) {
        self.bytes.extend_from_slice(frame);
        self.ends.push(self.bytes.len());
    }
}

/// Everything a workload feeds the system, built before any timing.
pub struct Inputs {
    /// The workload's shape.
    pub spec: Spec,
    /// The served slice as a one-day trace (schema validation reads it).
    pub trace: Trace,
    /// Receiver groups: the sensor layout of every office.
    pub groups: Vec<(u16, Vec<usize>)>,
    /// The artifact the system decodes (with a key table when authenticated).
    pub artifact: Vec<u8>,
    /// One feed per office.
    pub feeds: Vec<Feed>,
    /// Genuine frames offered, all offices.
    pub genuine: u64,
    /// Hostile frames offered.
    pub hostile: u64,
}

impl Inputs {
    /// Frames offered in one pass.
    pub fn ops(&self) -> u64 {
        self.genuine + self.hostile
    }

    /// Ticks each office must end the day at.
    pub fn n_ticks(&self) -> u64 {
        self.spec.ticks as u64
    }
}

/// Builds a workload's inputs from a generation. Deterministic in
/// `(generation, spec, seed)`.
///
/// # Errors
///
/// A generation whose artifact or layout the runtime rejects.
pub fn build_inputs(gen: &Generated, spec: Spec, seed: u64) -> Result<Inputs, String> {
    let trace = gen.trace(spec.ticks);
    let groups = trace.receiver_groups(&gen.streams);
    let link_seed = splitmix(seed ^ 0x11_4C);
    let mut artifact = gen.artifact.clone();
    let mut feeds = Vec::with_capacity(spec.offices);
    let (mut genuine, mut hostile) = (0u64, 0u64);
    if spec.auth {
        let n_ids = groups.iter().map(|(s, _)| *s).max().map_or(0, |s| s + 1);
        let keys = KeyTable::derive(splitmix(seed ^ 0x4B_E7), n_ids);
        let mut bundle = ModelBundle::decode(&artifact).map_err(|e| format!("artifact: {e}"))?;
        bundle.keys = Some(keys.clone());
        artifact = bundle.encode();
        let clean = replay::signed_day_frames(&trace, &gen.streams, &groups, 0, 0, &keys)?;
        let feed = hostile_feed(&clean, &groups, spec, link_seed, &mut hostile);
        genuine = clean.len() as u64;
        feeds.push(feed);
    } else {
        for office in 0..spec.offices {
            let office = u16::try_from(office).map_err(|_| "office id exceeds u16".to_string())?;
            let mut feed = Feed::default();
            replay::day_deliveries_for_office_into(
                &trace,
                &gen.streams,
                &groups,
                0,
                &spec.link,
                office_link_seed(link_seed, office),
                office,
                &mut feed.bytes,
                &mut feed.ends,
            )?;
            genuine += feed.len() as u64;
            feeds.push(feed);
        }
    }
    Ok(Inputs {
        spec,
        trace,
        groups,
        artifact,
        feeds,
        genuine,
        hostile,
    })
}

/// Splices a deauth-storm flood and replayed captures into the clean
/// signed stream, tick by tick (clean first, then storm, then
/// replays), generating the flood a chunk at a time to bound memory.
fn hostile_feed(
    clean: &[(u64, Vec<u8>)],
    groups: &[(u16, Vec<usize>)],
    spec: Spec,
    link_seed: u64,
    hostile: &mut u64,
) -> Feed {
    const CHUNK_TICKS: u64 = 1_000;
    let target = &groups[(link_seed % groups.len() as u64) as usize];
    let attack = |kind, from_tick, to_tick| AttackModel {
        kind,
        sensor: target.0,
        payload_width: target.1.len(),
        from_tick,
        to_tick,
        target_office: None,
    };
    let n_ticks = spec.ticks as u64;
    let replays = attack(
        AttackKind::ReplayCapture {
            capture_p: spec.replay_capture_p,
            delay_ticks: 16,
        },
        0,
        n_ticks,
    )
    .injected(clean, &mut Rng::task_stream(link_seed, 1));
    let mut storm_rng = Rng::task_stream(link_seed, 2);
    let mut feed = Feed::default();
    let (mut c, mut r) = (0usize, 0usize);
    let mut chunk: Vec<(u64, Vec<u8>)> = Vec::new();
    let last_tick = replays
        .last()
        .map_or(n_ticks, |(t, _)| (*t + 1).max(n_ticks));
    for tick in 0..last_tick {
        if tick % CHUNK_TICKS == 0 && tick < n_ticks && spec.storm_per_tick > 0 {
            let to = (tick + CHUNK_TICKS).min(n_ticks);
            chunk = attack(
                AttackKind::DeauthStorm {
                    frames_per_tick: spec.storm_per_tick,
                },
                tick,
                to,
            )
            .injected(&[], &mut storm_rng);
            chunk.reverse();
        }
        while c < clean.len() && clean[c].0 == tick {
            feed.push(&clean[c].1);
            c += 1;
        }
        while chunk.last().is_some_and(|(t, _)| *t == tick) {
            let (_, bytes) = chunk.pop().expect("checked non-empty");
            feed.push(&bytes);
            *hostile += 1;
        }
        while r < replays.len() && replays[r].0 == tick {
            feed.push(&replays[r].1);
            *hostile += 1;
            r += 1;
        }
    }
    feed
}

/// FNV digest of an action log.
pub fn action_digest(actions: &[Action]) -> u64 {
    actions.iter().fold(FNV_OFFSET, |h, a| {
        let h = fnv(h, &a.t.to_bits().to_le_bytes());
        fnv(h, format!("{:?}", a.kind).as_bytes())
    })
}

/// Renders events `from..` with `event_line` into `digest`; returns
/// the new printed count.
fn flush_events(events: &[EngineEvent], from: usize, digest: &mut u64) -> usize {
    for ev in &events[from..] {
        *digest = fnv(*digest, event_line(ev).as_bytes());
        *digest = fnv(*digest, b"\n");
    }
    events.len()
}

/// What one office ended a pass with.
#[derive(Debug, Clone, PartialEq)]
pub struct OfficeOutcome {
    /// Digest of the action log.
    pub actions: u64,
    /// Digest of the rendered event lines.
    pub events: u64,
    /// The engine's counters.
    pub counters: RuntimeCounters,
}

fn outcome(engine: &StreamingEngine<'_>, events: u64) -> OfficeOutcome {
    OfficeOutcome {
        actions: action_digest(engine.actions()),
        events,
        counters: engine.counters().clone(),
    }
}

/// Reusable latency sample buffers, allocated before any heap
/// baseline so they never count against the system.
pub struct Scratch {
    /// `(duration of the call that closed ticks, ticks it closed)`.
    pub ticks: Vec<(u64, u64)>,
    /// `(round duration, 1)`.
    pub rounds: Vec<(u64, u64)>,
}

impl Scratch {
    /// Buffers sized for one pass over `inp`.
    pub fn for_inputs(inp: &Inputs) -> Scratch {
        let deliveries: usize = inp.feeds.iter().map(Feed::len).max().unwrap_or(0);
        let per_office = if inp.spec.offices > 1 {
            1
        } else {
            inp.spec.ticks
        };
        Scratch {
            ticks: Vec::with_capacity(deliveries / ROUND + per_office + 2),
            rounds: Vec::with_capacity(deliveries / ROUND + 2),
        }
    }
}

/// One untraced pass: set-up, then serving the whole feed.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Artifact bytes to built system, auth and telemetry applied.
    pub setup_ns: u64,
    /// The `ModelBundle::decode` part of set-up.
    pub decode_ns: u64,
    /// Serving wall time, first delivery to end of day.
    pub serve_ns: u64,
    /// Office-ticks closed.
    pub ticks: u64,
    /// Nearest-rank p50 of the call that closed each tick.
    pub tick_p50_ns: u64,
    /// Nearest-rank p99.9 of the same, one per window of
    /// [`TICK_WINDOW`] ticks.
    pub tick_p999_ns: Vec<u64>,
    /// Nearest-rank p50 round duration.
    pub round_p50_ns: u64,
    /// Nearest-rank p99 round duration, one per window of
    /// [`ROUND_WINDOW`] rounds.
    pub round_p99_ns: Vec<u64>,
    /// Rounds served.
    pub rounds: u64,
    /// Peak live heap above the pre-set-up baseline.
    pub heap_peak: u64,
    /// Live heap the built system holds at the end of the day.
    pub live_after: u64,
    /// Allocation calls while serving.
    pub alloc_calls: u64,
    /// Bytes requested while serving.
    pub alloc_bytes: u64,
    /// Per-office outcomes, office-id order.
    pub offices: Vec<OfficeOutcome>,
    /// Checkpoints taken.
    pub snapshots: u64,
    /// Encoded checkpoint bytes.
    pub snapshot_bytes: u64,
    /// Largest per-shard tick lag seen after a fleet round (traced
    /// passes only).
    pub shard_lag_max: u64,
}

impl Pass {
    fn finish_stats(&mut self, scratch: &mut Scratch) {
        self.ticks = scratch.ticks.iter().map(|&(_, w)| w).sum();
        self.rounds = scratch.rounds.len() as u64;
        self.tick_p999_ns = windowed_nearest_rank(&mut scratch.ticks, TICK_WINDOW, 0.999);
        self.round_p99_ns = windowed_nearest_rank(&mut scratch.rounds, ROUND_WINDOW, 0.99);
        self.tick_p50_ns = weighted_nearest_rank(&mut scratch.ticks, 0.5).unwrap_or(0);
        self.round_p50_ns = weighted_nearest_rank(&mut scratch.rounds, 0.5).unwrap_or(0);
    }
}

/// How a single-office pass runs.
#[derive(Debug, Clone, Copy)]
pub struct SingleOpts {
    /// Attach metrics-only telemetry (the workload's setting, or off
    /// for the telemetry-overhead pass).
    pub telemetry: bool,
    /// Serve after set-up; `false` measures set-up alone.
    pub serve: bool,
}

/// Builds the single-office system from artifact bytes and, when
/// asked, serves the whole feed through it.
///
/// # Errors
///
/// Artifact, schema or engine construction failures.
pub fn single_pass(
    gen: &Generated,
    inp: &Inputs,
    clock: &dyn Clock,
    scratch: &mut Scratch,
    opts: SingleOpts,
) -> Result<Pass, String> {
    scratch.ticks.clear();
    scratch.rounds.clear();
    let base = alloc::reset_peak();
    let t0 = clock.now_ns();
    let bundle = ModelBundle::decode(&inp.artifact).map_err(|e| format!("artifact: {e}"))?;
    let t_decoded = clock.now_ns();
    replay::validate_schema(&bundle, &inp.trace, &gen.streams)?;
    let cfg = EngineConfig::new(gen.tick_hz, bundle.params);
    let mut engine =
        StreamingEngine::new(cfg, inp.groups.clone(), &bundle.re, Kma::new(&gen.inputs))?;
    if inp.spec.auth {
        let keys = bundle
            .keys
            .clone()
            .ok_or("authenticated workload without a key table")?;
        engine.set_auth(EngineAuth::new(keys));
    }
    let telemetry = if opts.telemetry {
        let t = Telemetry::metrics_only();
        t.set_slo(SloEngine::standard(gen.tick_hz));
        engine.set_telemetry(t.clone());
        t
    } else {
        Telemetry::disabled()
    };
    let t1 = clock.now_ns();
    let mut pass = Pass {
        setup_ns: t1 - t0,
        decode_ns: t_decoded - t0,
        ..Pass::default()
    };
    if !opts.serve {
        return Ok(pass);
    }
    let a0 = alloc::snapshot();
    let feed = &inp.feeds[0];
    let (mut closed, mut printed, mut events) = (0u64, 0usize, FNV_OFFSET);
    let mut r = 0;
    let start = clock.now_ns();
    while r < feed.len() {
        let stop = (r + ROUND).min(feed.len());
        let r0 = clock.now_ns();
        for i in r..stop {
            let a = clock.now_ns();
            engine.ingest_bytes(feed.get(i));
            let b = clock.now_ns();
            let ticks = engine.counters().ticks_processed;
            if ticks > closed {
                scratch.ticks.push((b - a, ticks - closed));
                closed = ticks;
            }
        }
        printed = flush_events(engine.events(), printed, &mut events);
        scratch.rounds.push((clock.now_ns() - r0, 1));
        r = stop;
    }
    let a = clock.now_ns();
    engine.finish(inp.n_ticks());
    let b = clock.now_ns();
    let ticks = engine.counters().ticks_processed;
    if ticks > closed {
        scratch.ticks.push((b - a, ticks - closed));
    }
    flush_events(engine.events(), printed, &mut events);
    engine.counters().export_into(&telemetry);
    pass.serve_ns = clock.now_ns() - start;
    let a1 = alloc::snapshot();
    pass.alloc_calls = a1.calls - a0.calls;
    pass.alloc_bytes = a1.bytes - a0.bytes;
    pass.live_after = a1.live.saturating_sub(base);
    pass.heap_peak = a1.peak.saturating_sub(base);
    pass.offices.push(outcome(&engine, events));
    pass.finish_stats(scratch);
    Ok(pass)
}

/// How a fleet pass runs.
pub struct FleetOpts<'s, 'c> {
    /// Serve after set-up; `false` measures set-up alone.
    pub serve: bool,
    /// Spans around the fleet's public calls (the traced pass).
    pub spans: Option<&'s mut Spans<'c>>,
}

/// Builds the fleet from artifact bytes — one engine per office over
/// the shared model — and, when asked, serves every office's feed
/// round by round: each office's next delivery through
/// `FleetRuntime::ingest`, then `advance`, then the serial control
/// phase (event rendering, due checkpoints). The shards drain on as
/// many worker threads as the caller pins with `par::with_threads`.
///
/// # Errors
///
/// Artifact, schema, engine or fleet construction failures.
pub fn fleet_pass(
    gen: &Generated,
    inp: &Inputs,
    clock: &dyn Clock,
    scratch: &mut Scratch,
    mut opts: FleetOpts<'_, '_>,
) -> Result<Pass, String> {
    scratch.ticks.clear();
    scratch.rounds.clear();
    let n = inp.spec.offices;
    let base = alloc::reset_peak();
    let t0 = clock.now_ns();
    let bundle = ModelBundle::decode(&inp.artifact).map_err(|e| format!("artifact: {e}"))?;
    let t_decoded = clock.now_ns();
    replay::validate_schema(&bundle, &inp.trace, &gen.streams)?;
    let cfg = EngineConfig::new(gen.tick_hz, bundle.params);
    let engines = (0..n)
        .map(|_| StreamingEngine::new(cfg, inp.groups.clone(), &bundle.re, Kma::new(&gen.inputs)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut fleet = FleetRuntime::new(SHARDS, engines)?;
    let t1 = clock.now_ns();
    let mut pass = Pass {
        setup_ns: t1 - t0,
        decode_ns: t_decoded - t0,
        ..Pass::default()
    };
    if !opts.serve {
        return Ok(pass);
    }
    let a0 = alloc::snapshot();
    let mut closed = vec![0u64; n];
    let mut printed = vec![0usize; n];
    let mut events = vec![FNV_OFFSET; n];
    let mut checkpointers: Vec<Checkpointer> = (0..n)
        .map(|_| Checkpointer::new(cfg.checkpoint_every_ticks))
        .collect();
    let max_rounds = inp.feeds.iter().map(Feed::len).max().unwrap_or(0);
    let mut r = 0;
    let start = clock.now_ns();
    while r < max_rounds {
        let stop = (r + ROUND).min(max_rounds);
        let r0 = clock.now_ns();
        for rr in r..stop {
            for feed in &inp.feeds {
                if rr < feed.len() {
                    let span = opts
                        .spans
                        .as_deref_mut()
                        .map(|s| s.open(Layer::FleetIngest));
                    fleet.ingest(feed.get(rr));
                    close(&mut opts.spans, span);
                }
            }
        }
        let span = opts
            .spans
            .as_deref_mut()
            .map(|s| s.open(Layer::FleetAdvance));
        let a = clock.now_ns();
        fleet.advance();
        let b = clock.now_ns();
        close(&mut opts.spans, span);
        let span = opts.spans.as_deref_mut().map(|s| s.open(Layer::Control));
        let mut ticks_closed = 0;
        for o in 0..n {
            let engine = fleet.office_mut(o as u16).ok_or("fleet lost an office")?;
            printed[o] = flush_events(engine.events(), printed[o], &mut events[o]);
            let ticks = engine.counters().ticks_processed;
            ticks_closed += ticks - closed[o];
            closed[o] = ticks;
            if inp.spec.checkpoints && checkpointers[o].due(ticks) {
                let stream_pos = stop.min(inp.feeds[o].len()) as u64;
                let s = opts.spans.as_deref_mut().map(|s| s.open(Layer::Snapshot));
                let snap = engine.snapshot(0, stream_pos, 0);
                close(&mut opts.spans, s);
                let s = opts.spans.as_deref_mut().map(|s| s.open(Layer::Encode));
                let bytes = snap.encode(ticks);
                close(&mut opts.spans, s);
                pass.snapshots += 1;
                pass.snapshot_bytes += bytes.len() as u64;
                checkpointers[o].advance(ticks);
            }
        }
        close(&mut opts.spans, span);
        if ticks_closed > 0 {
            scratch.ticks.push((b - a, ticks_closed));
        }
        scratch.rounds.push((clock.now_ns() - r0, 1));
        if opts.spans.is_some() {
            let lag = fleet.shard_tick_lags().into_iter().max().unwrap_or(0);
            pass.shard_lag_max = pass.shard_lag_max.max(lag);
        }
        r = stop;
    }
    let span = opts
        .spans
        .as_deref_mut()
        .map(|s| s.open(Layer::FleetAdvance));
    let a = clock.now_ns();
    fleet.finish_day(inp.n_ticks());
    let b = clock.now_ns();
    close(&mut opts.spans, span);
    let mut ticks_closed = 0;
    for o in 0..n {
        let engine = fleet.office_mut(o as u16).ok_or("fleet lost an office")?;
        flush_events(engine.events(), printed[o], &mut events[o]);
        let ticks = engine.counters().ticks_processed;
        ticks_closed += ticks - closed[o];
    }
    if ticks_closed > 0 {
        scratch.ticks.push((b - a, ticks_closed));
    }
    pass.serve_ns = clock.now_ns() - start;
    let a1 = alloc::snapshot();
    pass.alloc_calls = a1.calls - a0.calls;
    pass.alloc_bytes = a1.bytes - a0.bytes;
    pass.live_after = a1.live.saturating_sub(base);
    pass.heap_peak = a1.peak.saturating_sub(base);
    fleet.for_each_office(|o, engine| pass.offices.push(outcome(engine, events[usize::from(o)])));
    pass.finish_stats(scratch);
    Ok(pass)
}

fn close(spans: &mut Option<&mut Spans<'_>>, open: Option<crate::stats::Open>) {
    if let (Some(s), Some(open)) = (spans.as_deref_mut(), open) {
        s.close(open);
    }
}

/// The reference for one office: a plain `Controller` stepped over
/// the recorded rows of the served slice, which is what
/// `replay::batch_day_actions` does. Returns the action digest.
///
/// # Errors
///
/// Artifact or controller construction failures.
pub fn controller_reference(gen: &Generated, inp: &Inputs) -> Result<u64, String> {
    let bundle = ModelBundle::decode(&inp.artifact).map_err(|e| format!("artifact: {e}"))?;
    let mut ctl = Controller::new(
        gen.streams.len(),
        gen.tick_hz,
        bundle.params,
        &bundle.re,
        Kma::new(&gen.inputs),
    )?;
    let day = &inp.trace.days()[0];
    let mut row = vec![0.0f64; gen.streams.len()];
    for tick in 0..day.n_ticks() {
        let full = day.row(tick);
        for (dst, &s) in row.iter_mut().zip(&gen.streams) {
            *dst = f64::from(full[s]);
        }
        ctl.step(tick, &row);
    }
    Ok(action_digest(ctl.actions()))
}

/// The fleet reference: every office on a standalone engine fed the
/// same deliveries, offices spread over one thread per core (the
/// reference is not timed).
///
/// # Errors
///
/// Artifact or engine construction failures.
///
/// # Panics
///
/// If a reference thread panicked.
pub fn standalone_reference(gen: &Generated, inp: &Inputs) -> Result<Vec<OfficeOutcome>, String> {
    let bundle = ModelBundle::decode(&inp.artifact).map_err(|e| format!("artifact: {e}"))?;
    let n = inp.feeds.len();
    let workers = std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .clamp(1, n.max(1));
    let mut results: Vec<Option<Result<OfficeOutcome, String>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let bundle = &bundle;
                s.spawn(move || {
                    (w..n)
                        .step_by(workers)
                        .map(|o| (o, standalone_office(gen, inp, bundle, o)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (o, r) in h.join().expect("reference thread panicked") {
                results[o] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every office has a reference"))
        .collect()
}

/// Office `o` alone on a fresh engine, one delivery per call.
///
/// # Errors
///
/// Engine construction failures.
pub fn standalone_office(
    gen: &Generated,
    inp: &Inputs,
    bundle: &ModelBundle,
    o: usize,
) -> Result<OfficeOutcome, String> {
    let cfg = EngineConfig::new(gen.tick_hz, bundle.params);
    let mut engine =
        StreamingEngine::new(cfg, inp.groups.clone(), &bundle.re, Kma::new(&gen.inputs))?;
    let feed = &inp.feeds[o];
    for i in 0..feed.len() {
        engine.ingest_bytes(feed.get(i));
    }
    engine.finish(inp.n_ticks());
    let mut events = FNV_OFFSET;
    flush_events(engine.events(), 0, &mut events);
    Ok(outcome(&engine, events))
}

/// Frame outcomes of one office in one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameOutcomes {
    /// Genuine frames the engine ingested.
    pub genuine_ingested: u64,
    /// Hostile frames the engine rejected.
    pub hostile_rejected: u64,
}

impl FrameOutcomes {
    /// Reads the outcomes off an engine's counters. Replayed captures
    /// pass decode and MAC, so `frames_in` counts them before the
    /// anti-replay window rejects them.
    pub fn of(c: &RuntimeCounters) -> FrameOutcomes {
        FrameOutcomes {
            genuine_ingested: c.frames_in - c.frames_replayed,
            hostile_rejected: c.frames_unauthenticated + c.frames_replayed,
        }
    }

    /// Frames whose outcome differs from `expected`: genuine frames not
    /// ingested plus hostile frames not rejected (either direction of
    /// disagreement counts).
    pub fn failed_against(&self, expected: &FrameOutcomes) -> u64 {
        self.genuine_ingested.abs_diff(expected.genuine_ingested)
            + self.hostile_rejected.abs_diff(expected.hostile_rejected)
    }
}

/// The verdict of one pass against its references.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassCheck {
    /// Frames offered.
    pub ops: u64,
    /// Frames whose outcome differs from the reference.
    pub failed: u64,
    /// Whether every office's decisions matched the reference.
    pub digests_match: bool,
}

/// Checks a single-office pass: the action log must equal the
/// controller reference, every genuine frame must be ingested and
/// every hostile frame rejected.
pub fn check_single(inp: &Inputs, pass: &Pass, reference: u64) -> PassCheck {
    let office = &pass.offices[0];
    let expected = FrameOutcomes {
        genuine_ingested: inp.genuine,
        hostile_rejected: inp.hostile,
    };
    PassCheck {
        ops: inp.ops(),
        failed: FrameOutcomes::of(&office.counters).failed_against(&expected),
        digests_match: office.actions == reference,
    }
}

/// Checks a fleet pass office by office against standalone engines:
/// identical action and event digests, identical frame outcomes.
pub fn check_fleet(inp: &Inputs, pass: &Pass, reference: &[OfficeOutcome]) -> PassCheck {
    let mut check = PassCheck {
        ops: inp.ops(),
        failed: 0,
        digests_match: pass.offices.len() == reference.len(),
    };
    for (got, want) in pass.offices.iter().zip(reference) {
        check.digests_match &= got.actions == want.actions && got.events == want.events;
        check.failed +=
            FrameOutcomes::of(&got.counters).failed_against(&FrameOutcomes::of(&want.counters));
    }
    check
}

/// Run-level failure accounting: a decision mismatch in any pass
/// fails every op of the run; otherwise the passes' failures add up.
/// Returns `(attempted, failed, correct)`.
pub fn account(checks: &[PassCheck]) -> (u64, u64, bool) {
    let attempted: u64 = checks.iter().map(|c| c.ops).sum();
    if checks.iter().any(|c| !c.digests_match) {
        return (attempted, attempted, false);
    }
    let failed: u64 = checks.iter().map(|c| c.failed).sum();
    (attempted, failed, failed == 0 && !checks.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_accounting_counts_frames_and_escalates_digest_mismatch() {
        let ok = PassCheck {
            ops: 100,
            failed: 0,
            digests_match: true,
        };
        assert_eq!(account(&[ok, ok]), (200, 0, true));
        let lossy = PassCheck {
            ops: 100,
            failed: 3,
            digests_match: true,
        };
        assert_eq!(account(&[ok, lossy]), (200, 3, false));
        let diverged = PassCheck {
            ops: 100,
            failed: 0,
            digests_match: false,
        };
        assert_eq!(account(&[ok, diverged, lossy]), (300, 300, false));
        assert_eq!(account(&[]), (0, 0, false));
    }

    #[test]
    fn frame_outcomes_charge_both_directions() {
        let c = RuntimeCounters {
            frames_in: 110,
            frames_replayed: 10,
            frames_unauthenticated: 40,
            ..RuntimeCounters::default()
        };
        let got = FrameOutcomes::of(&c);
        assert_eq!(
            got,
            FrameOutcomes {
                genuine_ingested: 100,
                hostile_rejected: 50
            }
        );
        let expected = FrameOutcomes {
            genuine_ingested: 100,
            hostile_rejected: 50,
        };
        assert_eq!(got.failed_against(&expected), 0);
        // Two genuine frames lost and one hostile frame let in.
        let expected = FrameOutcomes {
            genuine_ingested: 102,
            hostile_rejected: 51,
        };
        assert_eq!(got.failed_against(&expected), 3);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
