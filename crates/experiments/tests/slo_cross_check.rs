//! Cross-check: the telemetry SLO engine's deauth-latency statistics,
//! fed live from the decision audit trail during a replay, must match
//! the `reproduce telemetry` latency study *exactly* — same events,
//! same samples, same order statistics. The study is the offline
//! ground truth (it walks the buffered records after the fact); the
//! SLO engine is the online view (it ingests the same events as they
//! are emitted). Any daylight between them means the live SLO lies.

use fadewich_core::FadewichParams;
use fadewich_experiments::experiment::Experiment;
use fadewich_experiments::telemetry::latency_study;
use fadewich_officesim::{ScenarioConfig, ScheduleParams};
use fadewich_runtime::link::LinkModel;
use fadewich_runtime::replay::{self, DayRun, Deployment};
use fadewich_runtime::EngineConfig;
use fadewich_telemetry::{SloEngine, Telemetry};

fn fixture() -> Experiment {
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
    Experiment::from_config(config, FadewichParams::default()).unwrap()
}

#[test]
fn slo_latency_matches_the_latency_study_exactly() {
    let experiment = fixture();
    let train_days = 1;
    let rows = latency_study(&experiment, train_days, 9).unwrap();
    assert_eq!(rows.len(), 1);
    let row = &rows[0];
    assert!(row.deauths > 0, "the seeded day must produce deauths: {row:?}");

    // Replay the same online day with the standard SLO set attached —
    // the exact configuration `fadewichd serve --metrics-addr` runs.
    let subset = experiment.scenario.layout().sensor_subset(9);
    let streams = experiment.trace.stream_indices_for_subset(&subset);
    let re = replay::train_re(
        &experiment.scenario,
        &experiment.trace,
        &streams,
        train_days,
        &experiment.params,
    )
    .unwrap();
    let hz = experiment.trace.tick_hz();
    let telemetry = Telemetry::buffering();
    telemetry.set_slo(SloEngine::standard(hz));
    let cfg = EngineConfig::new(hz, experiment.params);
    let link = LinkModel::lossless();
    let (scenario, trace) = (&experiment.scenario, &experiment.trace);
    let deployment = Deployment { scenario, trace, streams: &streams, re: &re };
    let run = DayRun::new(deployment, train_days, cfg, &link, 0xF10D);
    DayRun { telemetry: telemetry.clone(), ..run }.run().unwrap();

    let statuses = telemetry.with_slo(|s| s.statuses()).unwrap();
    let slo = statuses.iter().find(|s| s.name == "deauth_latency").unwrap();
    let (stats, threshold) = slo.latency.expect("latency stats present");

    // Exact agreement with the study's order statistics.
    assert_eq!(stats.count, row.deauths, "sample count");
    assert_eq!(stats.min_ticks, row.min_ticks, "min");
    assert_eq!(stats.median_ticks, row.median_ticks, "median");
    assert_eq!(stats.max_ticks, row.max_ticks, "max");
    assert!(stats.median_ticks <= stats.p95_ticks && stats.p95_ticks <= stats.max_ticks);

    // The standard threshold is the paper's 4 s budget in ticks, and
    // the SLO's event accounting covers exactly the study's deauths.
    assert_eq!(threshold, (4.0 * hz).ceil() as u64);
    assert_eq!(slo.total, row.deauths);
    if stats.max_ticks > threshold {
        assert!(slo.bad > 0, "a sample over the 4 s budget must burn error budget");
    } else {
        assert_eq!(slo.bad, 0, "no sample over budget, none may be counted bad");
    }
}
