//! End-to-end crash/recovery: kill the streaming day at an arbitrary
//! delivery, resume from the newest valid checkpoint, and demand the
//! stitched decision stream be **byte-identical** to an uninterrupted
//! run — under a lossy, jittery link, so the checkpoint must carry
//! gap-fill, quarantine and reorder state faithfully. Also proves the
//! rejection side: corrupted checkpoints (bit flips, torn writes) are
//! always refused with an error and the store falls back to the
//! previous image or a cold start, never a silently wrong resume.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use fadewich_core::config::FadewichParams;
use fadewich_core::fusion::DecisionMode;
use fadewich_officesim::{LightSimParams, Scenario, ScenarioConfig, ScheduleParams, Trace};
use fadewich_runtime::checkpoint::{CheckpointStore, EngineSnapshot};
use fadewich_runtime::engine::EngineConfig;
use fadewich_runtime::link::LinkModel;
use fadewich_runtime::replay::{
    self, Checkpointing, CrashPoint, DayReplay, DayRun, Deployment, Layout,
};
use fadewich_testkit::prop::u64s;

const LINK_SEED: u64 = 0xF10D;

struct Fixture {
    scenario: Scenario,
    trace: Trace,
    streams: Vec<usize>,
    re: fadewich_core::re::RadioEnvironment,
    cfg: EngineConfig,
    link: LinkModel,
    /// The uninterrupted day-1 run every crashed run is held against.
    full: DayReplay,
    /// How many link deliveries day 1 produces (the crash axis).
    n_deliveries: u64,
    /// One genuine mid-day checkpoint image, encoded (corruption axis).
    encoded: Vec<u8>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let config = ScenarioConfig {
            seed: 0xC4A5,
            days: 2,
            schedule: ScheduleParams {
                day_seconds: 3600.0,
                departures_choices: [2, 2, 3, 3],
                min_seated_s: 300.0,
                absence_bounds_s: (80.0, 240.0),
                ..ScheduleParams::default()
            },
            ..ScenarioConfig::default()
        };
        let scenario = Scenario::generate(config).unwrap();
        let trace = scenario.simulate().unwrap();
        let subset = scenario.layout().sensor_subset(9);
        let streams = trace.stream_indices_for_subset(&subset);
        let params = FadewichParams::default();
        let re = replay::train_re(&scenario, &trace, &streams, 1, &params).unwrap();
        // A lossy, jittery link: the checkpoint must carry degradation
        // state, not just the happy path.
        let link = LinkModel { drop_p: 0.02, dup_p: 0.02, corrupt_p: 0.0, jitter_ticks: 2 };
        let mut cfg = EngineConfig::new(trace.tick_hz(), params);
        cfg.jitter_ticks = 2;
        // Checkpoint often enough that most crash points have a warm
        // image to resume from, and several get pruned by retention.
        cfg.checkpoint_every_ticks = 400;
        let deployment = Deployment { scenario: &scenario, trace: &trace, streams: &streams, re: &re };
        let day1 = || DayRun::new(deployment, 1, cfg, &link, LINK_SEED);
        let full = day1().run().unwrap();
        let (groups, _) = Layout::Rssi.resolve(&trace, &streams);
        let n_deliveries =
            replay::day_deliveries(&trace, &streams, &groups, 1, 0, &link, LINK_SEED)
                .unwrap()
                .len() as u64;

        // One real, state-heavy checkpoint image for corruption tests:
        // crash mid-day and grab what the store wrote last.
        let dir = scratch_dir("fixture");
        let mut store = CheckpointStore::open(&dir).unwrap();
        checkpointed(day1(), &mut store, n_deliveries / 2).run().unwrap();
        let (stamp, snap) = store.load_latest().unwrap().snapshot.unwrap();
        let encoded = snap.encode(stamp);
        std::fs::remove_dir_all(&dir).unwrap();

        Fixture { scenario, trace, streams, re, cfg, link, full, n_deliveries, encoded }
    })
}

impl Fixture {
    /// The fixture's day 1 as a plain run; tests override fields.
    fn day1(&self) -> DayRun<'_> {
        let deployment = Deployment {
            scenario: &self.scenario,
            trace: &self.trace,
            streams: &self.streams,
            re: &self.re,
        };
        DayRun::new(deployment, 1, self.cfg, &self.link, LINK_SEED)
    }
}

/// `run`, checkpointing into `store` and crashing after `crash_after`
/// deliveries.
fn checkpointed<'a>(
    run: DayRun<'a>,
    store: &'a mut CheckpointStore,
    crash_after: u64,
) -> DayRun<'a> {
    let crash = Some(CrashPoint::AfterDeliveries(crash_after));
    DayRun { checkpoint: Some(Checkpointing { store, stamp_base: 0, crash }), ..run }
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fadewich-crashrec-{tag}-{}-{n}", std::process::id()))
}

/// Crashed-run prefix + resumed run must equal the uninterrupted run,
/// byte for byte, in actions, events and deterministic counters.
fn assert_stitches(fx: &Fixture, crashed: &DayReplay, snap: &EngineSnapshot, resumed: &DayReplay) {
    let stitched_actions: Vec<_> = crashed.actions[..snap.controller.n_actions as usize]
        .iter()
        .chain(&resumed.actions)
        .collect();
    let full_actions: Vec<_> = fx.full.actions.iter().collect();
    assert_eq!(stitched_actions, full_actions, "stitched decisions diverged");
    assert_eq!(
        format!("{stitched_actions:?}"),
        format!("{full_actions:?}"),
        "decisions must match byte-for-byte, not merely structurally"
    );
    let stitched_events: Vec<_> = crashed.events[..snap.events_emitted as usize]
        .iter()
        .chain(&resumed.events)
        .collect();
    let full_events: Vec<_> = fx.full.events.iter().collect();
    assert_eq!(stitched_events, full_events, "stitched events diverged");
    assert_eq!(
        resumed.counters.deterministic_summary(),
        fx.full.counters.deterministic_summary(),
        "resumed counters diverged"
    );
}

fadewich_testkit::property! {
    // The tentpole acceptance property: crash after ANY number of
    // deliveries, resume from the newest checkpoint (or cold if the
    // crash beat the first save) — the decision stream is identical.
    #[cases(12)]
    fn crash_at_any_delivery_resumes_byte_identically(seed in u64s(0..1 << 48)) {
        let fx = fixture();
        let crash_after = 1 + seed % (fx.n_deliveries - 1);
        let dir = scratch_dir("crash");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let crashed = checkpointed(fx.day1(), &mut store, crash_after).run().unwrap();

        // A fresh process opens the directory, as fadewichd would.
        let mut reopened = CheckpointStore::open(&dir).unwrap();
        let outcome = reopened.load_latest().unwrap();
        assert!(outcome.rejected.is_empty(), "clean saves were rejected: {:?}", outcome.rejected);
        match outcome.snapshot {
            Some((_, snap)) => {
                assert!(snap.stream_pos <= crash_after, "checkpoint from beyond the crash");
                let resumed = DayRun { resume: Some(&snap), ..fx.day1() }.run().unwrap();
                assert_stitches(fx, &crashed, &snap, &resumed);
            }
            None => {
                // Crash beat the first checkpoint: cold start rules.
                let rerun = fx.day1().run().unwrap();
                assert_eq!(rerun.actions, fx.full.actions);
                assert_eq!(rerun.events, fx.full.events);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // The rejection property, on a genuine state-heavy mid-day image:
    // a single bit flip anywhere is refused with an error — no panic,
    // no silently wrong resume.
    #[cases(512)]
    fn any_bit_flip_in_a_real_checkpoint_is_rejected(seed in u64s(0..1 << 48)) {
        let fx = fixture();
        let bit = (seed as usize) % (fx.encoded.len() * 8);
        let mut dirty = fx.encoded.clone();
        dirty[bit / 8] ^= 1 << (bit % 8);
        assert!(
            EngineSnapshot::decode(&dirty).is_err(),
            "flip of byte {} bit {} slipped through",
            bit / 8,
            bit % 8
        );
    }

    // Same for truncation: no prefix of a real checkpoint decodes.
    #[cases(128)]
    fn any_truncated_real_checkpoint_is_rejected(seed in u64s(0..1 << 48)) {
        let fx = fixture();
        let keep = (seed as usize) % fx.encoded.len();
        assert!(
            EngineSnapshot::decode(&fx.encoded[..keep]).is_err(),
            "prefix of {keep} bytes slipped through"
        );
    }
}

#[test]
fn corrupted_newest_checkpoint_falls_back_and_still_resumes_identically() {
    let fx = fixture();
    let dir = scratch_dir("fallback");
    let mut store = CheckpointStore::open(&dir).unwrap();
    let crash_after = fx.n_deliveries * 3 / 4;
    let crashed = checkpointed(fx.day1(), &mut store, crash_after).run().unwrap();

    // Flip one byte in the newest checkpoint file on disk.
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "fwcp"))
        .collect();
    files.sort();
    assert!(files.len() >= 2, "retention should hold two checkpoints, found {files:?}");
    let newest = files.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(newest, &bytes).unwrap();

    let mut reopened = CheckpointStore::open(&dir).unwrap();
    let outcome = reopened.load_latest().unwrap();
    assert_eq!(outcome.rejected.len(), 1, "the corrupt newest file must be reported");
    let (_, snap) = outcome.snapshot.expect("the previous checkpoint must still load");
    let resumed = DayRun { resume: Some(&snap), ..fx.day1() }.run().unwrap();
    assert_stitches(fx, &crashed, &snap, &resumed);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_write_during_the_day_degrades_to_the_previous_checkpoint() {
    use fadewich_runtime::fault::{FaultInjector, FaultPlan};
    let fx = fixture();
    let dir = scratch_dir("torn");
    let mut store = CheckpointStore::open(&dir).unwrap();
    // Tear every second save: whatever the newest file is, at least one
    // valid older image (or a cold start) must remain reachable.
    let plan = FaultPlan {
        torn_saves: (0..64).filter(|s| s % 2 == 1).collect(),
        ..FaultPlan::none()
    };
    store.set_fault_injector(FaultInjector::new(plan, 99));
    let crash_after = fx.n_deliveries / 2;
    let crashed = checkpointed(fx.day1(), &mut store, crash_after).run().unwrap();
    assert!(store.fault_log().unwrap().torn > 0, "the plan never fired");

    let mut reopened = CheckpointStore::open(&dir).unwrap();
    let outcome = reopened.load_latest().unwrap();
    for (path, err) in &outcome.rejected {
        assert!(
            matches!(err, fadewich_runtime::CheckpointError::Truncated),
            "torn file {} rejected for the wrong reason: {err}",
            path.display()
        );
    }
    if let Some((_, snap)) = outcome.snapshot {
        let resumed = DayRun { resume: Some(&snap), ..fx.day1() }.run().unwrap();
        assert_stitches(fx, &crashed, &snap, &resumed);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fused_crash_resumes_byte_identically() {
    // The same crash/resume contract over the typed layout: the
    // checkpoint must carry the channel-kind tags, the light detector
    // bank, and the per-channel counters, and the caller-supplied
    // fusion config must be validated against the restored state.
    let config = ScenarioConfig {
        seed: 0xC4A5,
        days: 2,
        schedule: ScheduleParams {
            day_seconds: 3600.0,
            departures_choices: [2, 2, 3, 3],
            min_seated_s: 300.0,
            absence_bounds_s: (80.0, 240.0),
            ..ScheduleParams::default()
        },
        light: Some(LightSimParams::default()),
        ..ScenarioConfig::default()
    };
    let scenario = Scenario::generate(config).unwrap();
    let trace = scenario.simulate().unwrap();
    let subset = scenario.layout().sensor_subset(9);
    let streams = trace.stream_indices_for_subset(&subset);
    let params = FadewichParams::default();
    let re = replay::train_re(&scenario, &trace, &streams, 1, &params).unwrap();
    let link = LinkModel { drop_p: 0.02, dup_p: 0.02, corrupt_p: 0.0, jitter_ticks: 2 };
    let mut cfg = EngineConfig::new(trace.tick_hz(), params);
    cfg.jitter_ticks = 2;
    cfg.checkpoint_every_ticks = 400;
    let deployment = Deployment { scenario: &scenario, trace: &trace, streams: &streams, re: &re };
    let rssi = || DayRun::new(deployment, 1, cfg, &link, LINK_SEED);
    let fused = || DayRun { layout: Layout::Fused(DecisionMode::Fused), ..rssi() };
    let full = fused().run().unwrap();
    let groups = replay::typed_groups(&trace, &streams);
    let n_deliveries = replay::day_deliveries(&trace, &streams, &groups, 1, 0, &link, LINK_SEED)
        .unwrap()
        .len() as u64;

    for crash_after in [n_deliveries / 3, 2 * n_deliveries / 3] {
        let dir = scratch_dir("fused");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let crashed = checkpointed(fused(), &mut store, crash_after).run().unwrap();
        let mut reopened = CheckpointStore::open(&dir).unwrap();
        let outcome = reopened.load_latest().unwrap();
        assert!(outcome.rejected.is_empty(), "clean saves were rejected: {:?}", outcome.rejected);
        let (_, snap) = outcome.snapshot.expect("mid-day crash must have a checkpoint");
        assert!(snap.stream_pos <= crash_after);

        // The layout is deployment config, not state: a resume with the
        // pre-fusion (no light streams) layout must be refused, not
        // silently mis-shaped.
        let err = DayRun { resume: Some(&snap), ..rssi() }.run().unwrap_err();
        assert!(err.contains("light"), "unhelpful fusion mismatch error: {err}");

        let resumed = DayRun { resume: Some(&snap), ..fused() }.run().unwrap();
        let stitched_actions: Vec<_> = crashed.actions[..snap.controller.n_actions as usize]
            .iter()
            .chain(&resumed.actions)
            .collect();
        let full_actions: Vec<_> = full.actions.iter().collect();
        assert_eq!(stitched_actions, full_actions, "fused stitched decisions diverged");
        assert_eq!(
            format!("{stitched_actions:?}"),
            format!("{full_actions:?}"),
            "fused decisions must match byte-for-byte"
        );
        let stitched_events: Vec<_> = crashed.events[..snap.events_emitted as usize]
            .iter()
            .chain(&resumed.events)
            .collect();
        assert_eq!(stitched_events, full.events.iter().collect::<Vec<_>>());
        assert_eq!(
            resumed.counters.deterministic_summary(),
            full.counters.deterministic_summary(),
            "fused resumed counters diverged (per-channel breakdown included)"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn resume_rejects_a_checkpoint_from_another_scenario() {
    let fx = fixture();
    let (_, snap) = EngineSnapshot::decode(&fx.encoded).unwrap();
    // Same deployment shape, different recorded world: the KMA
    // fingerprint must catch it.
    let other = Scenario::generate(ScenarioConfig {
        seed: 0xBEEF,
        days: 2,
        schedule: ScheduleParams {
            day_seconds: 3600.0,
            departures_choices: [2, 2, 3, 3],
            min_seated_s: 300.0,
            absence_bounds_s: (80.0, 240.0),
            ..ScheduleParams::default()
        },
        ..ScenarioConfig::default()
    })
    .unwrap();
    let other_trace = other.simulate().unwrap();
    let deployment =
        Deployment { scenario: &other, trace: &other_trace, streams: &fx.streams, re: &fx.re };
    let run = DayRun::new(deployment, 1, fx.cfg, &fx.link, LINK_SEED);
    let err = DayRun { resume: Some(&snap), ..run }.run().unwrap_err();
    assert!(err.contains("scenario") || err.contains("KMA"), "unhelpful mismatch error: {err}");
}

#[test]
fn a_resumed_run_checkpoints_and_survives_a_second_crash() {
    // Crash at n/3, resume with checkpointing and crash again at 2n/3,
    // then resume once more: the three runs, stitched by each run's own
    // (relative) action and event counts, must equal the uninterrupted
    // day.
    let fx = fixture();
    let dir = scratch_dir("twice");
    let latest = || {
        let outcome = CheckpointStore::open(&dir).unwrap().load_latest().unwrap();
        assert!(outcome.rejected.is_empty(), "clean saves were rejected: {:?}", outcome.rejected);
        outcome.snapshot.expect("a mid-day crash must leave a checkpoint").1
    };
    let mut store = CheckpointStore::open(&dir).unwrap();
    let first = checkpointed(fx.day1(), &mut store, fx.n_deliveries / 3).run().unwrap();
    assert!(first.crashed);
    let snap1 = latest();

    let mut store = CheckpointStore::open(&dir).unwrap();
    let second = DayRun {
        resume: Some(&snap1),
        ..checkpointed(fx.day1(), &mut store, 2 * fx.n_deliveries / 3)
    }
    .run()
    .unwrap();
    assert!(second.crashed);
    let snap2 = latest();
    assert!(snap2.stream_pos > snap1.stream_pos, "the resumed run never checkpointed");
    assert!(snap2.stream_pos <= 2 * fx.n_deliveries / 3, "checkpoint from beyond the crash");

    let third = DayRun { resume: Some(&snap2), ..fx.day1() }.run().unwrap();
    assert!(!third.crashed);
    let actions: Vec<_> = first.actions[..snap1.controller.n_actions as usize]
        .iter()
        .chain(&second.actions[..snap2.controller.n_actions as usize])
        .chain(&third.actions)
        .collect();
    assert_eq!(actions, fx.full.actions.iter().collect::<Vec<_>>(), "stitched decisions diverged");
    let events: Vec<_> = first.events[..snap1.events_emitted as usize]
        .iter()
        .chain(&second.events[..snap2.events_emitted as usize])
        .chain(&third.events)
        .collect();
    assert_eq!(events, fx.full.events.iter().collect::<Vec<_>>(), "stitched events diverged");
    assert_eq!(
        third.counters.deterministic_summary(),
        fx.full.counters.deterministic_summary(),
        "twice-resumed counters diverged"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
