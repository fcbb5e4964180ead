//! Cross-version pin of the streaming engine's outputs.
//!
//! Streams one seeded officesim day through [`StreamingEngine`] over a
//! lossless link, a lossy link, with telemetry on, and through the
//! fused (RSSI + ambient light) layout, and holds every output to an
//! FNV-1a digest recorded before the engine's tick path was last
//! restructured: the decision log, the engine events, the
//! deterministic counters, each mid-day checkpoint image and — when
//! instrumented — the trace JSONL and the metrics JSON. A digest that
//! moves means a refactor changed a decision, an event, a counter, a
//! checkpoint byte or a trace record.

use std::sync::OnceLock;

use fadewich_core::config::FadewichParams;
use fadewich_core::fusion::DecisionMode;
use fadewich_core::kma::Kma;
use fadewich_officesim::{LightSimParams, Scenario, ScenarioConfig, ScheduleParams, Trace};
use fadewich_runtime::engine::EngineConfig;
use fadewich_runtime::link::LinkModel;
use fadewich_runtime::replay;
use fadewich_runtime::StreamingEngine;
use fadewich_telemetry::Telemetry;

struct Fixture {
    scenario: Scenario,
    trace: Trace,
    streams: Vec<usize>,
    re: fadewich_core::re::RadioEnvironment,
    params: FadewichParams,
}

fn build_fixture(light: Option<LightSimParams>) -> Fixture {
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
        light,
        ..ScenarioConfig::default()
    };
    let scenario = Scenario::generate(config).unwrap();
    let trace = scenario.simulate().unwrap();
    let subset = scenario.layout().sensor_subset(9);
    let streams = trace.stream_indices_for_subset(&subset);
    let params = FadewichParams::default();
    let re = replay::train_re(&scenario, &trace, &streams, 1, &params).unwrap();
    Fixture { scenario, trace, streams, re, params }
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| build_fixture(None))
}

/// The same office with one photosensor per workstation: the fused
/// engine layout (RSSI prefix + light suffix).
fn fused_fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| build_fixture(Some(LightSimParams::default())))
}

/// FNV-1a over `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digests of everything one replay produced.
#[derive(Debug, PartialEq, Eq)]
struct Digests {
    actions: u64,
    events: u64,
    counters: u64,
    snapshots: [u64; 2],
    trace: u64,
    metrics: u64,
}

/// What a run looked like, beyond its digests: enough to check the
/// fixture still exercises what each test claims to pin.
struct Run {
    digests: Digests,
    n_actions: usize,
    counters_summary: String,
    trace_len: usize,
}

/// Streams fixture day 1 over `link`, capturing mid-day checkpoints at
/// fixed delivery positions. `fused` selects the typed layout in fused
/// decision mode instead of the all-RSSI one.
fn run_day(fx: &Fixture, link: &LinkModel, instrument: bool, fused: bool) -> Run {
    let inputs = fx.scenario.input_trace(1, 0);
    let kma = Kma::new(&inputs);
    let mut cfg = EngineConfig::new(fx.trace.tick_hz(), fx.params);
    cfg.jitter_ticks = 3;
    let (mut engine, deliveries) = if fused {
        let groups = replay::typed_groups(&fx.trace, &fx.streams);
        let fusion = replay::fusion_for_trace(&fx.trace, DecisionMode::Fused);
        let deliveries =
            replay::day_deliveries(&fx.trace, &fx.streams, &groups, 1, 0, link, 0xF10D).unwrap();
        (StreamingEngine::with_layout(cfg, groups, fusion, &fx.re, kma).unwrap(), deliveries)
    } else {
        let groups = fx.trace.receiver_groups(&fx.streams);
        let deliveries = replay::day_deliveries(
            &fx.trace,
            &fx.streams,
            &fadewich_core::stream::rssi_groups(groups.clone()),
            1,
            0,
            link,
            0xF10D,
        )
        .unwrap();
        (StreamingEngine::new(cfg, groups, &fx.re, kma).unwrap(), deliveries)
    };
    let telemetry = if instrument { Telemetry::buffering() } else { Telemetry::disabled() };
    engine.set_telemetry(telemetry.clone());
    let snap_at = [deliveries.len() / 3, 2 * deliveries.len() / 3];
    let mut snapshots = [0u64; 2];
    for (i, bytes) in deliveries.iter().enumerate() {
        engine.ingest_bytes(bytes);
        if let Some(k) = snap_at.iter().position(|&at| at == i + 1) {
            snapshots[k] = fnv(&engine.snapshot(1, (i + 1) as u64, 0).encode(0));
        }
    }
    engine.finish(fx.trace.days()[1].n_ticks() as u64);
    let counters_summary = engine.counters().deterministic_summary();
    let trace = telemetry.trace_string();
    let metrics =
        if instrument { telemetry.metrics_json(false).unwrap() } else { String::new() };
    Run {
        digests: Digests {
            actions: fnv(format!("{:?}", engine.actions()).as_bytes()),
            events: fnv(format!("{:?}", engine.events()).as_bytes()),
            counters: fnv(counters_summary.as_bytes()),
            snapshots,
            trace: fnv(trace.as_bytes()),
            metrics: fnv(metrics.as_bytes()),
        },
        n_actions: engine.actions().len(),
        counters_summary,
        trace_len: trace.len(),
    }
}

fn lossy_link() -> LinkModel {
    LinkModel { drop_p: 0.05, dup_p: 0.02, corrupt_p: 0.01, jitter_ticks: 3 }
}

/// The digest of an empty string: what an uninstrumented run's trace
/// and metrics hash to.
const EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

/// The all-RSSI lossless day. Telemetry must not perturb it, so the
/// instrumented run shares every digest but the trace and metrics.
const LOSSLESS: Digests = Digests {
    actions: 0x813b_22fd_6754_1c7c,
    events: 0x427d_89d1_0ec1_ed11,
    counters: 0xe86e_0ed1_aa3b_83ff,
    snapshots: [0xa209_e465_6b59_9a2d, 0x22ef_e0a0_5768_10e6],
    trace: EMPTY,
    metrics: EMPTY,
};

#[test]
fn lossless_day_is_pinned() {
    let run = run_day(fixture(), &LinkModel::lossless(), false, false);
    assert!(run.n_actions > 0, "fixture day produced no actions at all");
    assert_eq!(run.digests, LOSSLESS);
}

#[test]
fn lossy_day_is_pinned() {
    // Gap-fills and masked ticks drive the masked MD step.
    let run = run_day(fixture(), &lossy_link(), false, false);
    assert!(
        run.counters_summary.contains("gap-fills"),
        "summary should expose degradation counters: {}",
        run.counters_summary
    );
    assert_eq!(
        run.digests,
        Digests {
            actions: 0x254f_d24d_2a20_ef48,
            events: 0xd3ad_668f_5871_ea7e,
            counters: 0x95b5_e51b_6f4c_92d9,
            snapshots: [0xce5e_64cb_bb1f_49e7, 0x8def_afc7_6902_35fd],
            trace: EMPTY,
            metrics: EMPTY,
        }
    );
}

#[test]
fn instrumented_day_is_pinned() {
    // With telemetry on, Rule 1 takes the audited branch: the trace
    // carries the feature vector and the SVM margins.
    let run = run_day(fixture(), &LinkModel::lossless(), true, false);
    assert!(run.trace_len > 0, "instrumented replay emitted no trace records");
    assert_eq!(
        run.digests,
        Digests { trace: 0x70af_2b16_9778_7cd8, metrics: 0x4354_6f67_7fb4_8d9d, ..LOSSLESS }
    );
}

#[test]
fn fused_days_are_pinned() {
    // The typed layout interleaves light observations with RF steps
    // and checkpoints the light detector bank.
    let run = run_day(fused_fixture(), &LinkModel::lossless(), false, true);
    assert!(run.n_actions > 0, "fused fixture day produced no actions at all");
    assert!(
        run.counters_summary.contains("channel     light"),
        "fused run must print the per-channel breakdown: {}",
        run.counters_summary
    );
    assert_eq!(
        run.digests,
        Digests {
            actions: 0x033f_8ead_761c_c46f,
            events: 0x0f7e_3948_1223_64f3,
            counters: 0x2f2e_70f7_e3a7_0dec,
            snapshots: [0xb455_fcbd_8d81_6b69, 0x1ee3_f273_ab5f_d8a9],
            trace: EMPTY,
            metrics: EMPTY,
        },
        "fused lossless"
    );
    let run = run_day(fused_fixture(), &lossy_link(), false, true);
    assert_eq!(
        run.digests,
        Digests {
            actions: 0xced6_fe23_abab_e8e3,
            events: 0x1351_0387_8d46_0eb3,
            counters: 0xc699_4e1a_1361_711f,
            snapshots: [0xd484_d7d1_d874_84cb, 0x0367_8fca_63a4_8d26],
            trace: EMPTY,
            metrics: EMPTY,
        },
        "fused lossy"
    );
}
