//! Telemetry determinism: two replays of the same seeded scenario must
//! emit byte-identical trace JSONL and metrics JSON — the contract the
//! `--trace-out`/`--metrics-out` CI gate in `scripts/ci.sh` `cmp`s at
//! the daemon level, proven here at the library level (including under
//! a lossy link, where the emission set is richer).

use std::sync::OnceLock;

use fadewich_core::config::FadewichParams;
use fadewich_officesim::{Scenario, ScenarioConfig, ScheduleParams, Trace};
use fadewich_runtime::engine::EngineConfig;
use fadewich_runtime::link::LinkModel;
use fadewich_runtime::replay::{self, DayRun, Deployment};
use fadewich_telemetry::Telemetry;

struct Fixture {
    scenario: Scenario,
    trace: Trace,
    streams: Vec<usize>,
    re: fadewich_core::re::RadioEnvironment,
    params: FadewichParams,
}

impl Fixture {
    /// Fixture day 1 over `link` with `telemetry` threaded through.
    fn stream_day1(&self, link: &LinkModel, telemetry: &Telemetry) -> replay::DayReplay {
        let deployment = Deployment {
            scenario: &self.scenario,
            trace: &self.trace,
            streams: &self.streams,
            re: &self.re,
        };
        let cfg = EngineConfig::new(self.trace.tick_hz(), self.params);
        let run = DayRun::new(deployment, 1, cfg, link, 0xF10D);
        DayRun { telemetry: telemetry.clone(), ..run }.run().unwrap()
    }
}

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

/// One instrumented replay of fixture day 1 over `link`, returning the
/// rendered trace JSONL and the deterministic metrics JSON.
fn traced_replay(fx: &Fixture, link: &LinkModel) -> (String, String) {
    let telemetry = Telemetry::buffering();
    fx.stream_day1(link, &telemetry);
    let trace = telemetry.trace_string();
    let metrics = telemetry.metrics_json(false).unwrap();
    (trace, metrics)
}

#[test]
fn two_seeded_replays_emit_byte_identical_telemetry() {
    let fx = fixture();
    let lossy =
        LinkModel { drop_p: 0.05, dup_p: 0.02, corrupt_p: 0.01, jitter_ticks: 3 };
    for link in [LinkModel::lossless(), lossy] {
        let (trace_a, metrics_a) = traced_replay(fx, &link);
        let (trace_b, metrics_b) = traced_replay(fx, &link);
        assert!(!trace_a.is_empty(), "instrumented replay emitted no trace records");
        assert_eq!(trace_a, trace_b, "trace JSONL diverged across identical replays");
        assert_eq!(metrics_a, metrics_b, "metrics JSON diverged across identical replays");
        // Every line is valid JSON with the schema's required keys.
        for line in trace_a.lines() {
            let rec = fadewich_telemetry::json::parse(line).unwrap();
            assert!(rec.get("tick").and_then(|t| t.as_num()).is_some(), "no tick in {line}");
            assert!(rec.get("ev").is_some(), "no ev in {line}");
        }
        fadewich_telemetry::json::parse(&metrics_a).unwrap();
    }
}

#[test]
fn instrumentation_does_not_change_decisions() {
    // The audit trail is observability, not behavior: an instrumented
    // replay must produce the exact action log of an uninstrumented
    // one, and the deterministic metrics must exclude wall-clock noise.
    let fx = fixture();
    let plain = fx.stream_day1(&LinkModel::lossless(), &Telemetry::disabled());
    let telemetry = Telemetry::buffering();
    let traced = fx.stream_day1(&LinkModel::lossless(), &telemetry);
    assert_eq!(plain.actions, traced.actions);
    assert_eq!(plain.counters.deterministic_summary(), traced.counters.deterministic_summary());
    let metrics = telemetry.metrics_json(false).unwrap();
    assert!(
        !metrics.contains("_ns"),
        "wall-clock histograms leaked into the deterministic dump: {metrics}"
    );
    assert!(metrics.contains("\"runtime_frames_in\""));
    assert!(metrics.contains("\"rule1_deauths\"") || metrics.contains("\"rule1_no_deauths\""));
}
