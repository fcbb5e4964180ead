//! Self-tests for the perf-baseline harness: the measurement core is
//! exact under a [`ManualClock`], degenerate configurations are
//! rejected, and the emitted JSON both parses with the workspace's
//! own reader and is byte-identical across runs once the `wall_`
//! fields are set aside.

use std::sync::Arc;

use fadewich_bench::harness::{self, BenchConfig, FieldValue};
use fadewich_telemetry::json::{self, Json};
use fadewich_telemetry::{Clock, ManualClock, WallClock};

/// A configuration small enough for debug-mode test runs while still
/// exercising every workload (bursts, windows, SVM votes, KDE fits).
fn tiny_config() -> BenchConfig {
    BenchConfig {
        seed: 0xFADE,
        warmup_iters: 0,
        iters: 1,
        samples: 1,
        engine_ticks: 60,
        md_ticks: 80,
        n_frames: 32,
        svm_rows: 8,
        kde_points: 50,
        alloc_ticks: 40,
        smoke: true,
    }
}

#[test]
fn measure_reports_exact_medians_under_a_manual_clock() {
    // Every call advances the clock by exactly 1_000 ns, so with
    // 4 iterations of 10 units the per-unit time is exactly 100 ns.
    let clock = ManualClock::new();
    let m = harness::measure(&clock, 2, 4, 3, 10, || clock.advance_ns(1_000)).unwrap();
    assert_eq!(m.samples, 3);
    assert_eq!(m.iters, 4);
    assert_eq!(m.units_per_iter, 10);
    assert_eq!(m.wall_median_ns_per_unit, 100.0);
    assert_eq!(m.wall_total_ns, 3 * 4 * 1_000);

    // Per-sample advances 300 / 100 / 200: the sorted per-unit
    // samples are [100, 200, 300] and the median is exactly 200.
    let clock = ManualClock::new();
    let advances = [300u64, 100, 200];
    let mut call = 0usize;
    let m = harness::measure(&clock, 0, 1, 3, 1, || {
        clock.advance_ns(advances[call]);
        call += 1;
    })
    .unwrap();
    assert_eq!(m.wall_median_ns_per_unit, 200.0);
    assert_eq!(m.wall_total_ns, 600);
}

#[test]
fn measure_rejects_degenerate_parameters() {
    let clock = ManualClock::new();
    for (iters, samples, units) in [(0u64, 1u64, 1u64), (1, 0, 1), (1, 1, 0)] {
        let err = harness::measure(&clock, 0, iters, samples, units, || {}).unwrap_err();
        assert!(err.contains("nonzero"), "unexpected error: {err}");
    }
}

#[test]
fn config_validation_names_the_offending_knob() {
    assert!(BenchConfig::standard(1).validate().is_ok());
    assert!(BenchConfig::smoke(1).validate().is_ok());
    let zeroed: [(&str, fn(&mut BenchConfig)); 8] = [
        ("iters", |c| c.iters = 0),
        ("samples", |c| c.samples = 0),
        ("engine_ticks", |c| c.engine_ticks = 0),
        ("md_ticks", |c| c.md_ticks = 0),
        ("n_frames", |c| c.n_frames = 0),
        ("svm_rows", |c| c.svm_rows = 0),
        ("kde_points", |c| c.kde_points = 0),
        ("alloc_ticks", |c| c.alloc_ticks = 0),
    ];
    for (name, zap) in zeroed {
        let mut cfg = BenchConfig::smoke(1);
        zap(&mut cfg);
        let err = cfg.validate().unwrap_err();
        assert!(err.contains(name), "error for {name} should name it: {err}");
    }
    let mut cfg = BenchConfig::smoke(1);
    cfg.kde_points = 1;
    let err = cfg.validate().unwrap_err();
    assert!(err.contains("at least 2"), "unexpected error: {err}");
}

#[test]
fn manual_clock_report_is_fully_deterministic_and_parses() {
    // Under a manual clock that never advances, *every* field of the
    // report — including the wall_ ones, which all degrade to zero —
    // must be identical between runs, and the JSON must parse with
    // the workspace's own reader.
    let cfg = tiny_config();
    let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
    let a = harness::run(&cfg, &clock).unwrap();
    let b = harness::run(&cfg, &clock).unwrap();
    assert_eq!(a, b, "manual-clock reports must be bitwise identical");
    assert_eq!(a.to_json(), b.to_json());

    let doc = json::parse(&a.to_json()).expect("bench JSON parses with telemetry::json");
    assert_eq!(doc.get("schema"), Some(&Json::Str(harness::SCHEMA.to_string())));
    assert_eq!(doc.get("seed").and_then(Json::as_num), Some(cfg.seed as f64));
    assert_eq!(doc.get("smoke"), Some(&Json::Bool(true)));
    let rows = match doc.get("rows") {
        Some(Json::Arr(rows)) => rows,
        other => panic!("rows should be an array, got {other:?}"),
    };
    let expected = [
        "engine",
        "engine_telemetry_on",
        "wire_decode",
        "wire_decode_borrowed",
        "mac_verify",
        "md_step",
        "svm_predict_scalar",
        "svm_predict_batch",
        "kde_fit",
        "fleet_demux",
        "controller_tick_allocs",
        "engine_ingest_allocs",
    ];
    let names: Vec<_> = rows
        .iter()
        .map(|r| match r.get("name") {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("row name should be a string, got {other:?}"),
        })
        .collect();
    assert_eq!(names, expected);
    // Each timed row carries a median; the hot-path rows prove they
    // matched the reference arithmetic.
    for name in ["engine", "wire_decode", "md_step", "kde_fit"] {
        let row = rows.iter().find(|r| r.get("name") == Some(&Json::Str(name.into()))).unwrap();
        assert!(row.get("wall_median_ns_per_unit").is_some(), "{name} lacks a median");
    }
    let svm_batch = rows
        .iter()
        .find(|r| r.get("name") == Some(&Json::Str("svm_predict_batch".into())))
        .unwrap();
    assert_eq!(svm_batch.get("matches_reference"), Some(&Json::Bool(true)));
    let borrowed = rows
        .iter()
        .find(|r| r.get("name") == Some(&Json::Str("wire_decode_borrowed".into())))
        .unwrap();
    assert_eq!(borrowed.get("matches_owned"), Some(&Json::Bool(true)));
    let fleet = rows
        .iter()
        .find(|r| r.get("name") == Some(&Json::Str("fleet_demux".into())))
        .unwrap();
    assert_eq!(fleet.get("matches_single_office"), Some(&Json::Bool(true)));
    // Both end-to-end rows certify decisions: the fleet's offices made
    // exactly the standalone engine's decisions, so the digests agree.
    let engine = rows
        .iter()
        .find(|r| r.get("name") == Some(&Json::Str("engine".into())))
        .unwrap();
    assert!(engine.get("action_digest").and_then(Json::as_num).is_some());
    assert_eq!(engine.get("action_digest"), fleet.get("action_digest"));
    // Telemetry prices the instrumentation without moving a decision,
    // and digests its deterministic metrics dump.
    let instrumented = a.row("engine_telemetry_on").unwrap();
    assert_eq!(instrumented.get("action_digest"), a.row("engine").unwrap().get("action_digest"));
    assert!(matches!(instrumented.get("metrics_digest"), Some(FieldValue::U64(_))));
    // The ingest probe feeds the engine workload one frame per call and
    // must reach the same decisions as the one-blob `engine` row.
    let ingest = a.row("engine_ingest_allocs").unwrap();
    assert_eq!(ingest.get("frames"), Some(&FieldValue::U64(2 * cfg.engine_ticks)));
    assert_eq!(ingest.get("ticks"), Some(&FieldValue::U64(cfg.engine_ticks)));
    for field in ["counting_active", "zero_alloc_frames", "alloc_calls_per_frame"] {
        assert!(ingest.get(field).is_some(), "engine_ingest_allocs lacks {field}");
    }
    assert!(matches!(ingest.get("alloc_calls_per_tick"), Some(FieldValue::F64(_))));
    assert_eq!(
        ingest.get("action_digest"),
        a.row("engine").unwrap().get("action_digest"),
        "per-frame ingest diverged from the one-blob engine row"
    );
    let kde = a.row("kde_fit").unwrap();
    match (kde.get("threshold"), kde.get("threshold_bits")) {
        (Some(FieldValue::F64(t)), Some(FieldValue::U64(bits))) => assert_eq!(t.to_bits(), *bits),
        other => panic!("kde_fit should carry threshold and threshold_bits, got {other:?}"),
    }
    let mac = rows
        .iter()
        .find(|r| r.get("name") == Some(&Json::Str("mac_verify".into())))
        .unwrap();
    assert_eq!(
        mac.get("frames_verified").and_then(Json::as_num),
        Some(tiny_config().n_frames as f64),
        "every genuine signed frame must verify"
    );

    // The in-memory accessors agree with the parsed document.
    let batch = a.row("svm_predict_batch").unwrap();
    assert_eq!(batch.get("matches_reference"), Some(&FieldValue::Bool(true)));
    assert!(a.row("no_such_row").is_none());
    assert!(a.table().contains("controller_tick_allocs"));
}

#[test]
fn wall_clock_runs_agree_on_every_non_wall_line() {
    // The property the CI smoke gate enforces on the binary, held
    // in-process: two wall-clock runs of the same seed differ only in
    // lines carrying a wall_ field.
    let cfg = tiny_config();
    let clock: Arc<dyn Clock> = Arc::new(WallClock);
    let a = harness::run(&cfg, &clock).unwrap().to_json();
    let b = harness::run(&cfg, &clock).unwrap().to_json();
    let strip = |s: &str| {
        s.lines().filter(|l| !l.contains("\"wall_")).map(String::from).collect::<Vec<_>>()
    };
    assert_eq!(strip(&a), strip(&b), "non-wall_ lines diverged between seeded runs");
    assert_ne!(a.find("\"wall_"), None, "report should carry wall_ fields at all");
}

#[test]
fn civil_date_stamps_known_calendar_days() {
    assert_eq!(harness::civil_date(0), "1970-01-01");
    assert_eq!(harness::civil_date(86_399), "1970-01-01");
    assert_eq!(harness::civil_date(86_400), "1970-01-02");
    // 2000-02-29 00:00:00 UTC — a century leap day.
    assert_eq!(harness::civil_date(951_782_400), "2000-02-29");
    // 2026-01-01 00:00:00 UTC.
    assert_eq!(harness::civil_date(1_767_225_600), "2026-01-01");
}
