//! Decision-latency study over the telemetry audit trail.
//!
//! The paper's headline claim is *fast* deauthentication — FADEWICH
//! deauthenticates most departures within seconds of the movement that
//! betrays them. The audit trail makes that latency directly
//! measurable: every Rule 1 verdict is a span chain rooted at the MD
//! variation-window open, so `verdict tick − window-open tick` is the
//! pipeline's decision latency in logical ticks, free of wall-clock
//! noise. This module replays each online day with a buffering
//! [`Telemetry`] handle, walks the emitted records, and tabulates
//! per-day latency-to-deauth — the `reproduce telemetry` target.
//! Everything here is seed-deterministic: byte-identical output across
//! runs and thread counts.

use fadewich_runtime::link::LinkModel;
use fadewich_runtime::replay::{self, DayRun, Deployment};
use fadewich_runtime::EngineConfig;
use fadewich_telemetry::{Telemetry, Value};

use crate::experiment::Experiment;
use crate::par::{self, timing};
use crate::report::TextTable;

/// Per-day decision-latency summary, extracted from the audit trail.
#[derive(Debug, Clone)]
pub struct DecisionLatencyRow {
    /// Which recorded day was replayed.
    pub day: usize,
    /// MD variation windows closed during the day.
    pub windows: u64,
    /// Rule 1 evaluations (one per significant window at `t∆`).
    pub evals: u64,
    /// Evaluations that ended in a deauthentication.
    pub deauths: u64,
    /// Latency from window open to deauth, in ticks: min over the day.
    pub min_ticks: u64,
    /// Median latency in ticks.
    pub median_ticks: u64,
    /// Max latency in ticks.
    pub max_ticks: u64,
    /// Median latency in seconds (`median_ticks / tick_hz`).
    pub median_s: f64,
}

/// Replays every online day with an instrumented engine and tabulates
/// the latency from variation-window open to Rule 1 deauthentication.
///
/// # Errors
///
/// Returns a message for an invalid train/online split or when RE
/// training / engine construction fails.
pub fn latency_study(
    experiment: &Experiment,
    train_days: usize,
    n_sensors: usize,
) -> Result<Vec<DecisionLatencyRow>, String> {
    let n_days = experiment.trace.days().len();
    if train_days == 0 || train_days >= n_days {
        return Err(format!("need 1..{} training days, got {train_days}", n_days - 1));
    }
    let subset = experiment.scenario.layout().sensor_subset(n_sensors);
    let streams = experiment.trace.stream_indices_for_subset(&subset);
    let re = timing::time_stage("telemetry::train", || {
        replay::train_re(&experiment.scenario, &experiment.trace, &streams, train_days, &experiment.params)
    })?;
    let hz = experiment.trace.tick_hz();
    let (scenario, trace) = (&experiment.scenario, &experiment.trace);
    let deployment = Deployment { scenario, trace, streams: &streams, re: &re };

    let day_rows = timing::time_stage("telemetry::replay", || {
        par::par_map_indices(n_days - train_days, |i| -> Result<_, String> {
            let day = train_days + i;
            let telemetry = Telemetry::buffering();
            let cfg = EngineConfig::new(hz, experiment.params);
            let link = LinkModel::lossless();
            let run = DayRun::new(deployment, day, cfg, &link, 0xF10D);
            DayRun { telemetry: telemetry.clone(), ..run }.run()?;

            let mut windows = 0u64;
            let mut evals = 0u64;
            let mut latencies: Vec<u64> = Vec::new();
            for rec in telemetry.records() {
                match rec.name.as_str() {
                    "md_window" => windows += 1,
                    "rule1_verdict" => {
                        evals += 1;
                        let deauthed = matches!(rec.attr("deauth"), Some(Value::Bool(true)));
                        if let (true, Some(Value::U64(start))) =
                            (deauthed, rec.attr("window_start_tick"))
                        {
                            latencies.push(rec.tick.saturating_sub(*start));
                        }
                    }
                    _ => {}
                }
            }
            latencies.sort_unstable();
            let median = latencies.get(latencies.len() / 2).copied().unwrap_or(0);
            Ok(DecisionLatencyRow {
                day,
                windows,
                evals,
                deauths: latencies.len() as u64,
                min_ticks: latencies.first().copied().unwrap_or(0),
                median_ticks: median,
                max_ticks: latencies.last().copied().unwrap_or(0),
                median_s: median as f64 / hz,
            })
        })
    });

    day_rows.into_iter().collect()
}

/// Renders the latency study as the `reproduce telemetry` table.
pub fn latency_table(rows: &[DecisionLatencyRow]) -> TextTable {
    let mut t = TextTable::new(
        "Decision latency from the audit trail (window open -> Rule 1 deauth)",
        &["day", "windows", "rule1 evals", "deauths", "min ticks", "median ticks", "max ticks", "median s"],
    );
    for r in rows {
        t.add_row(vec![
            r.day.to_string(),
            r.windows.to_string(),
            r.evals.to_string(),
            r.deauths.to_string(),
            r.min_ticks.to_string(),
            r.median_ticks.to_string(),
            r.max_ticks.to_string(),
            format!("{:.1}", r.median_s),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use fadewich_officesim::{ScenarioConfig, ScheduleParams};
    use std::sync::OnceLock;

    fn fixture() -> &'static Experiment {
        static FIX: OnceLock<Experiment> = OnceLock::new();
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
            Experiment::from_config(config, fadewich_core::FadewichParams::default()).unwrap()
        })
    }

    #[test]
    fn study_extracts_consistent_latencies() {
        let rows = latency_study(fixture(), 1, 9).unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.windows > 0, "{r:?}");
        assert!(r.evals > 0, "{r:?}");
        assert!(r.deauths <= r.evals, "{r:?}");
        assert!(r.min_ticks <= r.median_ticks && r.median_ticks <= r.max_ticks, "{r:?}");
        let hz = fixture().trace.tick_hz();
        assert!((r.median_s - r.median_ticks as f64 / hz).abs() < 1e-12);
        // Deterministic: the same replay yields the same table.
        let again = latency_study(fixture(), 1, 9).unwrap();
        assert_eq!(latency_table(&rows).render(), latency_table(&again).render());
        assert!(latency_table(&rows).render().contains("median"), "table header");
    }

    #[test]
    fn invalid_split_rejected() {
        assert!(latency_study(fixture(), 0, 9).is_err());
        assert!(latency_study(fixture(), 2, 9).is_err());
    }
}
