//! End-to-end streaming-vs-batch parity, plus a seeded lossy replay.
//!
//! The tentpole invariant: over a lossless link the streaming engine
//! must reach **byte-identical** deauthentication decisions to the
//! batch pipeline for the same seed. Under loss it must complete with
//! degradation counted, never panic.

use std::sync::OnceLock;

use fadewich_core::config::FadewichParams;
use fadewich_officesim::{Scenario, ScenarioConfig, ScheduleParams, Trace};
use fadewich_runtime::engine::EngineConfig;
use fadewich_runtime::link::LinkModel;
use fadewich_runtime::replay::{self, DayRun, Deployment};

struct Fixture {
    scenario: Scenario,
    trace: Trace,
    streams: Vec<usize>,
    re: fadewich_core::re::RadioEnvironment,
    params: FadewichParams,
}

impl Fixture {
    /// Streams fixture day 1 over `link` into a fresh engine, with `re`
    /// as the classifier.
    fn stream_day1(
        &self,
        re: &fadewich_core::re::RadioEnvironment,
        cfg: EngineConfig,
        link: &LinkModel,
    ) -> replay::DayReplay {
        let deployment =
            Deployment { scenario: &self.scenario, trace: &self.trace, streams: &self.streams, re };
        DayRun::new(deployment, 1, cfg, link, 0xF10D).run().unwrap()
    }
}

/// A 2-day small office: day 0 trains RE, day 1 is replayed.
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let config = ScenarioConfig {
            seed: 0xD3B,
            days: 2,
            schedule: ScheduleParams {
                day_seconds: 2.0 * 3600.0,
                departures_choices: [3, 3, 4, 4],
                min_seated_s: 400.0,
                absence_bounds_s: (90.0, 300.0),
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
        Fixture { scenario, trace, streams, re, params }
    })
}

#[test]
fn lossless_streaming_decisions_are_byte_identical_to_batch() {
    let fx = fixture();
    let batch = replay::batch_day_actions(&fx.scenario, &fx.trace, &fx.streams, &fx.re, 1, &fx.params)
        .unwrap();
    let cfg = EngineConfig::new(fx.trace.tick_hz(), fx.params);
    let out = fx.stream_day1(&fx.re, cfg, &LinkModel::lossless());

    assert!(!batch.is_empty(), "fixture day produced no actions at all");
    assert_eq!(out.actions, batch);
    // Byte-identical, not merely equivalent.
    assert_eq!(format!("{:?}", out.actions), format!("{batch:?}"));

    let n_ticks = fx.trace.days()[1].n_ticks() as u64;
    let n_sensors = fx.trace.receiver_groups(&fx.streams).len() as u64;
    let c = &out.counters;
    assert_eq!(c.ticks_processed, n_ticks);
    assert_eq!(c.frames_in, n_ticks * n_sensors);
    assert_eq!(
        (c.gap_fills, c.masked_stream_ticks, c.quarantines, c.frames_corrupt(), c.frames_late),
        (0, 0, 0, 0, 0),
        "lossless replay must not degrade: {c:?}"
    );
}

#[test]
fn artifact_served_decisions_are_byte_identical_to_in_memory() {
    // The train/serve split's contract: export the trained model
    // through the versioned artifact codec, reload it, and the served
    // decision stream must match the in-memory-trained engine byte
    // for byte.
    let fx = fixture();
    let bundle = replay::train_model(&fx.scenario, &fx.trace, &fx.streams, 1, &fx.params).unwrap();
    // The bundled classifier IS the fixture classifier (same ordering
    // and seed)...
    assert_eq!(bundle.re, fx.re);
    // ...and it survives encode → decode bit-exactly.
    let loaded = fadewich_core::artifact::ModelBundle::decode(&bundle.encode()).unwrap();
    assert_eq!(loaded, bundle);
    replay::validate_schema(&loaded, &fx.trace, &fx.streams).unwrap();
    assert!(loaded.md.threshold.is_some(), "training must export a fitted MD threshold");

    let cfg = EngineConfig::new(fx.trace.tick_hz(), fx.params);
    let in_memory = fx.stream_day1(&fx.re, cfg, &LinkModel::lossless());
    let served = fx.stream_day1(&loaded.re, cfg, &LinkModel::lossless());
    assert_eq!(format!("{:?}", served.actions), format!("{:?}", in_memory.actions));
    assert_eq!(format!("{:?}", served.events), format!("{:?}", in_memory.events));
}

#[test]
fn schema_mismatches_are_rejected_before_serving() {
    let fx = fixture();
    let bundle = replay::train_model(&fx.scenario, &fx.trace, &fx.streams, 1, &fx.params).unwrap();
    // Wrong stream subset.
    let fewer = &fx.streams[..fx.streams.len() - 1];
    assert!(replay::validate_schema(&bundle, &fx.trace, fewer).is_err());
    // Wrong tick rate.
    let mut wrong_hz = bundle.clone();
    wrong_hz.schema.tick_hz += 1.0;
    assert!(replay::validate_schema(&wrong_hz, &fx.trace, &fx.streams).is_err());
    // Wrong feature layout.
    let mut wrong_layout = bundle;
    wrong_layout.schema.features_per_stream = 7;
    assert!(replay::validate_schema(&wrong_layout, &fx.trace, &fx.streams).is_err());
}

#[test]
fn seeded_lossy_replay_completes_and_reports_degradation() {
    let fx = fixture();
    let link = LinkModel { drop_p: 0.02, dup_p: 0.01, corrupt_p: 0.005, jitter_ticks: 3 };
    let mut cfg = EngineConfig::new(fx.trace.tick_hz(), fx.params);
    cfg.jitter_ticks = 3;
    let out = fx.stream_day1(&fx.re, cfg, &link);

    let n_ticks = fx.trace.days()[1].n_ticks() as u64;
    let c = &out.counters;
    // Every tick still advances the pipeline.
    assert_eq!(c.ticks_processed, n_ticks);
    // The loss actually happened and was counted, not hidden.
    assert!(c.gap_fills > 0, "2% drop must show up as gap-fills: {c:?}");
    assert!(c.frames_corrupt() > 0, "corruption must be rejected by the codec: {c:?}");
    assert!(c.frames_duplicate > 0, "duplicates must be deduplicated: {c:?}");
    assert!(c.frames_reordered > 0, "jitter must reorder some frames: {c:?}");
    assert!(c.watermark_lag_max >= 3, "jitter must show up as watermark lag: {c:?}");
    // Counters are observable in both output formats.
    assert!(c.summary().contains("quarantines"));
    assert!(c.to_json().contains("\"gap_fills\""));
    // Determinism: the same seed replays to the same counters and
    // decisions (histograms are wall-clock, so compare the rest).
    let again = fx.stream_day1(&fx.re, cfg, &link);
    assert_eq!(again.actions, out.actions);
    assert_eq!(
        (again.counters.frames_in, again.counters.gap_fills, again.counters.masked_stream_ticks),
        (c.frames_in, c.gap_fills, c.masked_stream_ticks)
    );
}

#[test]
fn dead_sensor_is_quarantined_and_decisions_still_flow() {
    // Kill one sensor halfway by filtering its frames out at the
    // transport: the engine must quarantine it, mask its streams and
    // keep the day alive end to end.
    let fx = fixture();
    let groups = fx.trace.receiver_groups(&fx.streams);
    let victim = groups[0].0;
    let reports = fx.trace.sensor_reports(1, &fx.streams);
    let n_ticks = fx.trace.days()[1].n_ticks() as u64;
    let half = n_ticks / 2;

    let inputs = fx.scenario.input_trace(1, 0);
    let kma = fadewich_core::kma::Kma::new(&inputs);
    let cfg = EngineConfig::new(fx.trace.tick_hz(), fx.params);
    let mut engine =
        fadewich_runtime::StreamingEngine::new(cfg, groups.clone(), &fx.re, kma).unwrap();
    let mut seqs = vec![0u32; groups.len()];
    for r in reports {
        if r.sensor == victim && r.tick >= half {
            continue;
        }
        let sender = groups.iter().position(|(s, _)| *s == r.sensor).unwrap();
        let frame = fadewich_runtime::Frame::rssi(r.sensor, seqs[sender], r.tick, r.values);
        seqs[sender] += 1;
        engine.ingest_bytes(&frame.encode());
    }
    engine.finish(n_ticks);

    let c = engine.counters();
    assert_eq!(c.ticks_processed, n_ticks);
    assert_eq!(c.quarantines, 1, "{c:?}");
    assert!(c.masked_stream_ticks > 0);
    assert!(engine.events().iter().any(|e| matches!(
        e,
        fadewich_runtime::EngineEvent::SensorQuarantined { sensor, .. } if *sensor == victim
    )));
}
