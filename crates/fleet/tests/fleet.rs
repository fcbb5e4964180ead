//! Fleet end-to-end gates: a fleet of N offices must produce, for
//! every office, the byte-identical decision stream that N independent
//! single-office deployments produce — at any shard count, any thread
//! count, and across a mid-day crash with per-office checkpoint
//! stores (including torn checkpoint writes). Plus the demux front's
//! accounting rules for unknown offices and corrupt frames.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use fadewich_core::config::FadewichParams;
use fadewich_core::kma::Kma;
use fadewich_core::re::RadioEnvironment;
use fadewich_core::stream::rssi_groups;
use fadewich_experiments::par;
use fadewich_fleet::day::{
    office_link_seed, run_fleet_day, single_office_day, BufferSink, FleetDayEnv, FleetRecovery,
    FleetSink, OfficeRecovery, OfficeStart, DEFAULT_ADVANCE_EVERY,
};
use fadewich_fleet::runtime::FleetRuntime;
use fadewich_officesim::{Scenario, ScenarioConfig, ScheduleParams, Trace};
use fadewich_runtime::checkpoint::CheckpointStore;
use fadewich_runtime::engine::{EngineConfig, StreamingEngine};
use fadewich_runtime::fault::{FaultInjector, FaultPlan};
use fadewich_runtime::link::LinkModel;
use fadewich_runtime::replay::{self, train_re};
use fadewich_runtime::wire::Frame;
use fadewich_telemetry::Telemetry;

const BASE_LINK_SEED: u64 = 0xF10D;

struct Fixture {
    scenario: Scenario,
    trace: Trace,
    streams: Vec<usize>,
    re: RadioEnvironment,
    cfg: EngineConfig,
    /// Lossy, jittery link so offices diverge and carry degradation
    /// state through checkpoints.
    link: LinkModel,
}

impl Fixture {
    fn env<'s>(&'s self, link: &'s LinkModel) -> FleetDayEnv<'s> {
        FleetDayEnv {
            scenario: &self.scenario,
            trace: &self.trace,
            streams: &self.streams,
            re: &self.re,
            cfg: self.cfg,
            link,
            link_seed: BASE_LINK_SEED,
            day: 1,
            advance_every: DEFAULT_ADVANCE_EVERY,
        }
    }
}

/// Short-day pipeline parameters: the 5-sensor subset's variation
/// windows run shorter than the full array's, so the significance
/// threshold comes down or training finds no labeled windows.
fn short_day_params() -> FadewichParams {
    FadewichParams { t_delta_s: 1.5, feature_window_s: 1.5, ..FadewichParams::default() }
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let config = ScenarioConfig {
            seed: 0xF1EE7,
            days: 2,
            schedule: ScheduleParams {
                day_seconds: 1800.0,
                earliest_arrival_s: 30.0,
                latest_arrival_s: 120.0,
                departures_choices: [3, 3, 4, 4],
                min_seated_s: 60.0,
                absence_bounds_s: (20.0, 45.0),
                min_event_separation_s: 10.0,
                ..ScheduleParams::default()
            },
            ..ScenarioConfig::default()
        };
        let scenario = Scenario::generate(config).unwrap();
        let trace = scenario.simulate().unwrap();
        let subset = scenario.layout().sensor_subset(5);
        let streams = trace.stream_indices_for_subset(&subset);
        let params = short_day_params();
        let re = train_re(&scenario, &trace, &streams, 1, &params).unwrap();
        let link = LinkModel { drop_p: 0.02, dup_p: 0.02, corrupt_p: 0.0, jitter_ticks: 2 };
        let mut cfg = EngineConfig::new(trace.tick_hz(), params);
        cfg.jitter_ticks = 2;
        // Checkpoint often enough that a mid-day crash has warm images.
        cfg.checkpoint_every_ticks = 400;
        Fixture { scenario, trace, streams, re, cfg, link }
    })
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fadewich-fleet-{tag}-{}-{n}", std::process::id()))
}

fn fresh_starts(n: usize) -> Vec<OfficeStart> {
    (0..n).map(|_| OfficeStart::Fresh).collect()
}

/// The headline invariant: every office of a 12-tenant fleet streams
/// byte-identically to its dedicated single-office engine, and the
/// result is invariant under shard count AND worker-thread count.
#[test]
fn fleet_matches_singles_at_any_shard_and_thread_count() {
    let fx = fixture();
    let env = fx.env(&fx.link);
    let n = 12usize;
    let telemetry = Telemetry::disabled();

    let references: Vec<Vec<String>> =
        (0..n).map(|o| single_office_day(&env, o as u16).unwrap()).collect();
    assert!(
        references.iter().any(|a| references.iter().any(|b| a != b)),
        "offices should diverge under a lossy link, or the test proves nothing"
    );

    for threads in [1usize, 8] {
        par::with_threads(threads, || {
            for shards in [1usize, 3, 8] {
                let mut sink = BufferSink::new(n);
                let report =
                    run_fleet_day(&env, fresh_starts(n), shards, None, &mut sink, &telemetry)
                        .unwrap();
                assert!(!report.crashed);
                assert_eq!(report.fleet.frames_rejected(), 0);
                assert_eq!(report.shard_tick_lags.len(), shards);
                for (o, reference) in references.iter().enumerate() {
                    assert_eq!(
                        &sink.lines[o], reference,
                        "office {o} diverged at {shards} shards / {threads} threads"
                    );
                }
            }
        });
    }
}

/// Office 0's delivery stream uses the base link seed unchanged, so a
/// fleet's office 0 is literally the single-office deployment with
/// the same flags — the property `scripts/ci.sh` leans on when it
/// compares `fadewichd fleet` office 0 against `fadewichd serve`.
#[test]
fn office_zero_keeps_the_base_link_seed() {
    assert_eq!(office_link_seed(BASE_LINK_SEED, 0), BASE_LINK_SEED);
    let fx = fixture();
    let groups = rssi_groups(fx.trace.receiver_groups(&fx.streams));
    let base =
        replay::day_deliveries(&fx.trace, &fx.streams, &groups, 1, 0, &fx.link, BASE_LINK_SEED)
            .unwrap();
    let office0 = replay::day_deliveries(
        &fx.trace,
        &fx.streams,
        &groups,
        1,
        0,
        &fx.link,
        office_link_seed(BASE_LINK_SEED, 0),
    )
    .unwrap();
    assert_eq!(base, office0, "office 0 must stream serve's exact bytes");
    let office1 = replay::day_deliveries(
        &fx.trace,
        &fx.streams,
        &groups,
        1,
        1,
        &fx.link,
        office_link_seed(BASE_LINK_SEED, 1),
    )
    .unwrap();
    assert_ne!(base, office1, "office 1 must carry its id and its own link randomness");
}

/// A sink that tracks committed byte marks like a real decision log,
/// so checkpoint images record truncation points the resume can honor.
struct MarkSink {
    lines: Vec<Vec<String>>,
    marks: Vec<u64>,
}

impl MarkSink {
    fn new(n: usize) -> MarkSink {
        MarkSink { lines: vec![Vec::new(); n], marks: vec![0; n] }
    }

    /// Drops every line past `mark` committed bytes — what serve's
    /// `set_len(mark)` does to the log file on resume.
    fn truncate_to(&mut self, office: usize, mark: u64) {
        let mut bytes = 0u64;
        let mut keep = 0usize;
        for line in &self.lines[office] {
            let next = bytes + line.len() as u64 + 1;
            if next > mark {
                break;
            }
            bytes = next;
            keep += 1;
        }
        assert_eq!(bytes, mark, "office {office}: mark {mark} is not at a line boundary");
        self.lines[office].truncate(keep);
        self.marks[office] = mark;
    }
}

impl FleetSink for MarkSink {
    fn emit(&mut self, office: u16, line: &str) -> Result<(), String> {
        self.lines[usize::from(office)].push(line.to_string());
        self.marks[usize::from(office)] += line.len() as u64 + 1;
        Ok(())
    }

    fn log_mark(&mut self, office: u16) -> u64 {
        self.marks[usize::from(office)]
    }
}

/// Crash the fleet mid-day, then resume every office from its own
/// checkpoint store — including one office whose saves are torn by the
/// fault injector — and demand the stitched per-office streams equal
/// an uninterrupted fleet run byte for byte.
#[test]
fn crash_mid_day_resumes_every_office_byte_identically() {
    let fx = fixture();
    let env = fx.env(&fx.link);
    let n = 6usize;
    let shards = 3usize;
    let telemetry = Telemetry::disabled();

    // The uninterrupted reference fleet run.
    let mut full = BufferSink::new(n);
    run_fleet_day(&env, fresh_starts(n), shards, None, &mut full, &telemetry).unwrap();

    // Crashed run: per-office stores, office 2's saves torn every
    // second time (a torn fleet sweep in miniature).
    let dirs: Vec<PathBuf> = (0..n).map(|o| scratch_dir(&format!("crash-{o}"))).collect();
    let mut offices: Vec<OfficeRecovery> = dirs
        .iter()
        .map(|d| OfficeRecovery { store: CheckpointStore::open(d).unwrap() })
        .collect();
    let plan = FaultPlan { torn_saves: (0..64).filter(|s| s % 2 == 1).collect(), ..FaultPlan::none() };
    offices[2].store.set_fault_injector(FaultInjector::new(plan, 99));
    let n_ticks = fx.trace.days()[1].n_ticks() as u64;
    let mut recovery =
        FleetRecovery { offices, base_ticks: 0, crash_after_ticks: Some(n_ticks / 2) };
    let mut sink = MarkSink::new(n);
    let crashed_report =
        run_fleet_day(&env, fresh_starts(n), shards, Some(&mut recovery), &mut sink, &telemetry)
            .unwrap();
    assert!(crashed_report.crashed, "the crash stamp never fired");

    // A fresh process: reopen every store, truncate each office's log
    // to its committed mark, resume, and compare.
    let mut starts = Vec::with_capacity(n);
    let mut resumed_any = false;
    for (o, dir) in dirs.iter().enumerate() {
        let mut store = CheckpointStore::open(dir).unwrap();
        let mut snap = store.load_latest().unwrap().snapshot.map(|(_, s)| s);
        match &snap {
            Some(s) => {
                resumed_any = true;
                sink.truncate_to(o, s.log_mark);
            }
            None => sink.truncate_to(o, 0),
        }
        starts.push(OfficeStart::for_day(&mut snap, 1));
    }
    assert!(resumed_any, "no office checkpointed before the crash");
    run_fleet_day(&env, starts, shards, None, &mut sink, &telemetry).unwrap();
    for o in 0..n {
        assert_eq!(sink.lines[o], full.lines[o], "office {o} stitched stream diverged");
    }
    for dir in &dirs {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// An office that already finished the day (its checkpoint names a
/// later day) sits the day out: hosted, fed nothing, emits nothing.
#[test]
fn office_ahead_of_the_day_is_skipped() {
    let fx = fixture();
    let env = fx.env(&fx.link);
    let telemetry = Telemetry::disabled();
    let mut sink = BufferSink::new(2);
    let starts = vec![OfficeStart::Fresh, OfficeStart::Skip];
    let report = run_fleet_day(&env, starts, 2, None, &mut sink, &telemetry).unwrap();
    assert!(!sink.lines[0].is_empty());
    assert!(sink.lines[1].is_empty(), "a skipped office must stay silent");
    assert_eq!(report.offices[1].counters.ticks_processed, 0);
    assert_eq!(report.offices[1].summary, "");
}

fn engines_for<'a>(
    fx: &'a Fixture,
    inputs: &'a fadewich_officesim::InputTrace,
    n: usize,
) -> Vec<StreamingEngine<'a>> {
    let groups = fx.trace.receiver_groups(&fx.streams);
    (0..n)
        .map(|_| StreamingEngine::new(fx.cfg, groups.clone(), &fx.re, Kma::new(inputs)).unwrap())
        .collect()
}

/// Demux accounting: a valid frame naming an office the fleet does not
/// host is counted and skipped without derailing the rest of the blob;
/// a corrupt frame is counted and abandons the blob.
#[test]
fn unknown_office_and_corrupt_frames_are_accounted() {
    let fx = fixture();
    let inputs = fx.scenario.input_trace(1, 0);
    let frame = |office: u16, seq: u32| {
        Frame { office, ..Frame::rssi(0, seq, u64::from(seq), vec![1.0, 2.0]) }.encode()
    };

    let mut fleet = FleetRuntime::new(2, engines_for(fx, &inputs, 2)).unwrap();
    let mut blob = frame(0, 0);
    blob.extend_from_slice(&frame(9, 1)); // valid frame, unhosted office
    blob.extend_from_slice(&frame(1, 2)); // must still route
    fleet.ingest(&blob);
    assert_eq!(fleet.counters().frames_demuxed, 2);
    assert_eq!(fleet.counters().frames_unknown_office, 1);
    assert_eq!(fleet.counters().corrupt_crc, 0);

    // CRC corruption: flip a payload byte, keep framing intact.
    let mut fleet = FleetRuntime::new(2, engines_for(fx, &inputs, 2)).unwrap();
    let mut blob = frame(0, 0);
    let tail = frame(1, 1);
    let mid = blob.len() - 3;
    blob[mid] ^= 0x40;
    blob.extend_from_slice(&tail);
    fleet.ingest(&blob);
    assert_eq!(fleet.counters().corrupt_crc, 1, "checksum damage must be counted as CRC");
    assert_eq!(fleet.counters().frames_demuxed, 0, "a corrupt frame abandons the blob");

    // Framing corruption: truncate the last frame.
    let mut fleet = FleetRuntime::new(2, engines_for(fx, &inputs, 2)).unwrap();
    let mut blob = frame(0, 0);
    let tail = frame(1, 1);
    blob.extend_from_slice(&tail[..tail.len() - 4]);
    fleet.ingest(&blob);
    assert_eq!(fleet.counters().frames_demuxed, 1);
    assert_eq!(fleet.counters().corrupt_framing, 1);
}

/// Per-office flood targeting: a deauth storm aimed at office 1 of an
/// authenticated fleet is rejected, rate-limited and attack-quarantined
/// inside office 1's engine alone — office 0 counts zero auth activity
/// and BOTH offices' decision streams stay byte-identical to their
/// unattacked single-office references.
#[test]
fn fleet_contains_a_targeted_flood_without_cross_tenant_damage() {
    use fadewich_core::auth::KeyTable;
    use fadewich_runtime::attack::{AttackKind, AttackModel};
    use fadewich_runtime::engine::EngineAuth;
    use fadewich_stats::rng::Rng;

    let fx = fixture();
    let inputs = fx.scenario.input_trace(1, 0);
    let groups = fx.trace.receiver_groups(&fx.streams);
    let n_sensors = groups.iter().map(|(s, _)| *s).max().unwrap() + 1;
    let keys = KeyTable::derive(0x5EC, n_sensors);
    let n_ticks = 200u64;

    // One tick of valid v4 frames for one office, seeded per office so
    // the two tenants carry different (but reproducible) traffic.
    let tick_blob = |office: u16, tick: u64| -> Vec<u8> {
        let mut rng = Rng::task_stream(7 + u64::from(office), tick);
        let mut blob = Vec::new();
        for (sensor, positions) in &groups {
            let values: Vec<f32> =
                positions.iter().map(|_| -50.0 + rng.normal() as f32 * 0.6).collect();
            let f = Frame { office, ..Frame::rssi(*sensor, tick as u32, tick, values) };
            f.encode_auth_into(keys.get(*sensor).unwrap(), &mut blob);
        }
        blob
    };

    // Unattacked single-office references.
    let mut refs = engines_for(fx, &inputs, 2);
    for e in &mut refs {
        e.set_auth(EngineAuth::new(keys.clone()));
    }
    for t in 0..n_ticks {
        for (o, e) in refs.iter_mut().enumerate() {
            e.ingest_bytes(&tick_blob(o as u16, t));
        }
        if t == n_ticks - 1 {
            for e in &mut refs {
                e.finish(n_ticks);
            }
        }
    }

    // The fleet under attack: a seq-sweeping storm stamped office 1.
    let mut engines = engines_for(fx, &inputs, 2);
    for e in &mut engines {
        e.set_auth(EngineAuth::new(keys.clone()));
    }
    let mut fleet = FleetRuntime::new(2, engines).unwrap();
    let (target_sensor, target_positions) = &groups[1];
    let storm = AttackModel {
        kind: AttackKind::DeauthStorm { frames_per_tick: 3 },
        sensor: *target_sensor,
        payload_width: target_positions.len(),
        from_tick: 50,
        to_tick: 70,
        target_office: Some(1),
    };
    let hostile = storm.injected(&[], &mut Rng::seed_from_u64(0xA77));
    assert_eq!(hostile.len(), 3 * 20);
    let mut next = 0usize;
    for t in 0..n_ticks {
        let mut blob = tick_blob(0, t);
        blob.extend_from_slice(&tick_blob(1, t));
        while next < hostile.len() && hostile[next].0 <= t {
            blob.extend_from_slice(&hostile[next].1);
            next += 1;
        }
        fleet.ingest(&blob);
        fleet.advance();
    }
    fleet.finish_per_office(&[n_ticks, n_ticks]);
    assert_eq!(fleet.counters().frames_rejected(), 0, "the front routes storm frames by office");

    let c1 = fleet.office_mut(1).unwrap().counters().clone();
    assert_eq!(c1.frames_unauthenticated, hostile.len() as u64);
    assert!(c1.frames_rate_limited > 0, "a 60-frame storm must blow the reject budget");
    assert_eq!(c1.attack_quarantines, 1);
    let c0 = fleet.office_mut(0).unwrap().counters().clone();
    assert!(!c0.has_auth_activity(), "the flood must not bleed into office 0");

    for o in 0..2u16 {
        assert_eq!(
            fleet.office_mut(o).unwrap().actions(),
            refs[usize::from(o)].actions(),
            "office {o} decision stream diverged under a contained attack"
        );
    }
}

/// The `reproduce fleet` study runs end to end on a small office
/// count; its internal byte-identity proofs (1 vs 8 shards, fleet vs
/// singles) are part of the run and fail it on any divergence.
#[test]
fn scaling_study_smoke() {
    let scaling = fadewich_fleet::scaling::run_fleet_scaling(0xAB, 4).unwrap();
    assert_eq!(scaling.rows.len(), 1);
    assert_eq!(scaling.rows[0].offices, 4);
    assert!(scaling.rows[0].frames_demuxed > 0);
    assert_eq!(scaling.wall_lines.len(), 1);
    assert!(scaling.wall_lines[0].starts_with("wall_fleet_4_"));
}

/// PR 10 cardinality fix: the per-office `office_*{office="…"}` series
/// are gone; a fleet day exports the bounded health rollup instead,
/// and the whole Prometheus render stays under the pinned cap at a
/// multi-thousand-office scale.
#[test]
fn health_export_is_cardinality_bounded() {
    use fadewich_fleet::health::{
        export_health, HealthState, OfficeStat, MAX_HEALTH_RENDER_LINES, TOP_K_OFFICES,
    };

    // A synthetic 2048-office fleet with a messy mix of states: most
    // healthy, a band of laggards, some quarantines, a few under
    // attack. Building real engines at this scale is a bench concern;
    // the export path only reads counters.
    let stats: Vec<OfficeStat> = (0..2048u16)
        .map(|o| {
            let mut s = OfficeStat {
                office: o,
                ticks_processed: 36_000,
                expected_ticks: 36_000,
                frames_in: 9 * 36_000,
                ..OfficeStat::default()
            };
            if o % 97 == 0 {
                s.ticks_processed -= u64::from(o) % 500 + 1; // laggards
            }
            if o % 401 == 0 {
                s.quarantines = 2;
                s.recoveries = 1;
            }
            if o == 77 || o == 1900 {
                s.attack_quarantines = 1;
            }
            s
        })
        .collect();
    let telemetry = Telemetry::metrics_only();
    let health = export_health(&stats, &telemetry);
    assert_eq!(health.offices(), 2048);
    assert_eq!(health.count(HealthState::UnderAttack), 2);
    assert!(health.worst.len() <= TOP_K_OFFICES);

    let text = telemetry.prometheus_text(false).unwrap();
    let lines = text.lines().count();
    assert!(
        lines <= MAX_HEALTH_RENDER_LINES,
        "render blew the cardinality cap: {lines} lines > {MAX_HEALTH_RENDER_LINES}"
    );
    assert!(
        !text.contains("office_ticks_processed{"),
        "per-office labeled counters must not come back: {text}"
    );
    let labeled =
        text.lines().filter(|l| l.starts_with("fleet_office_tick_lag{office=")).count();
    assert!(labeled <= TOP_K_OFFICES, "{text}");
    // The aggregate the old series summed to is preserved.
    assert!(text.contains("fleet_office_frames_in_total"), "{text}");
}

/// A real fleet day exports the health rollup: state gauges, the
/// aggregate totals, and the lag histogram — and no `{office="…"}`
/// counter series.
#[test]
fn fleet_day_exports_health_rollup() {
    let fx = fixture();
    let env = fx.env(&fx.link);
    let n = 6usize;
    let telemetry = Telemetry::metrics_only();
    let mut sink = BufferSink::new(n);
    let report = run_fleet_day(&env, fresh_starts(n), 3, None, &mut sink, &telemetry).unwrap();
    assert_eq!(report.health.offices(), n as u64);
    assert_eq!(
        report.health.total_ticks_processed,
        report.offices.iter().map(|o| o.counters.ticks_processed).sum::<u64>()
    );
    let summary = report.health.summary_line();
    assert!(summary.starts_with("health  healthy "), "{summary}");

    let text = telemetry.prometheus_text(false).unwrap();
    assert!(text.contains("fleet_health_offices{state=\"healthy\"}"), "{text}");
    assert!(text.contains("fleet_office_ticks_processed_total"), "{text}");
    assert!(text.contains(&format!("fleet_office_tick_lag_ticks_count {n}")), "{text}");
    assert!(!text.contains("office_ticks_processed{office="), "{text}");
}
