//! Streaming-vs-batch comparison: the runtime crate's engine replayed
//! over recorded days, next to the batch controller reference.
//!
//! Two questions, one table. Over a lossless link the streaming
//! engine must reproduce the batch decisions **byte for byte** — the
//! `parity` column. Over a lossy link it must keep every tick moving
//! and surface the degradation in its counters — the gap-fill /
//! quarantine / watermark columns. All emitted fields are
//! seed-deterministic (no wall-clock latency figures here; those live
//! in the `fadewichd` summary), so the `reproduce` binary's output
//! stays byte-identical across thread counts.

use fadewich_runtime::link::LinkModel;
use fadewich_runtime::replay::{self, DayRun, Deployment};
use fadewich_runtime::EngineConfig;

use crate::experiment::Experiment;
use crate::par::{self, timing};
use crate::report::TextTable;

/// The lossy link the comparison stresses the engine with: 2% drops,
/// 1% duplicates, 0.5% corruption, up to 3 ticks of jitter.
pub fn stress_link() -> LinkModel {
    LinkModel { drop_p: 0.02, dup_p: 0.01, corrupt_p: 0.005, jitter_ticks: 3 }
}

/// One replayed day under one link condition.
#[derive(Debug, Clone)]
pub struct StreamingDayRow {
    /// Which recorded day was replayed.
    pub day: usize,
    /// `"lossless"` or `"lossy"`.
    pub link: &'static str,
    /// Ticks the engine processed (must equal the day length).
    pub ticks: u64,
    /// Actions the batch reference produced.
    pub batch_actions: usize,
    /// Actions the streaming engine produced.
    pub stream_actions: usize,
    /// Whether the two action logs are byte-identical.
    pub parity: bool,
    /// Hold-last-value substitutions for late/lost frames.
    pub gap_fills: u64,
    /// Stream-ticks masked out of `s_t` past the staleness cap.
    pub masked_stream_ticks: u64,
    /// Sensors quarantined during the day.
    pub quarantines: u64,
    /// Frames that arrived behind an already-closed watermark.
    pub frames_late: u64,
    /// Worst watermark lag seen, in ticks.
    pub watermark_lag_max: u64,
}

/// Replays every online day of `experiment` through the streaming
/// engine, lossless and lossy, and compares against the batch
/// controller.
///
/// # Errors
///
/// Returns a message for an invalid train/online split or when RE
/// training / engine construction fails.
pub fn streaming_comparison(
    experiment: &Experiment,
    train_days: usize,
    n_sensors: usize,
) -> Result<Vec<StreamingDayRow>, String> {
    let n_days = experiment.trace.days().len();
    if train_days == 0 || train_days >= n_days {
        return Err(format!("need 1..{} training days, got {train_days}", n_days - 1));
    }
    let subset = experiment.scenario.layout().sensor_subset(n_sensors);
    let streams = experiment.trace.stream_indices_for_subset(&subset);
    let re = timing::time_stage("streaming::train", || {
        replay::train_re(&experiment.scenario, &experiment.trace, &streams, train_days, &experiment.params)
    })?;

    let (scenario, trace) = (&experiment.scenario, &experiment.trace);
    let deployment = Deployment { scenario, trace, streams: &streams, re: &re };
    let lossy = stress_link();
    let day_rows = timing::time_stage("streaming::replay", || {
        par::par_map_indices(n_days - train_days, |i| -> Result<_, String> {
            let day = train_days + i;
            let batch = replay::batch_day_actions(
                &experiment.scenario, &experiment.trace, &streams, &re, day, &experiment.params,
            )?;
            let mut rows = Vec::with_capacity(2);
            for (label, link) in [("lossless", LinkModel::lossless()), ("lossy", lossy)] {
                let mut cfg = EngineConfig::new(experiment.trace.tick_hz(), experiment.params);
                cfg.jitter_ticks = cfg.jitter_ticks.max(link.jitter_ticks);
                let out = DayRun::new(deployment, day, cfg, &link, 0xF10D).run()?;
                let c = &out.counters;
                rows.push(StreamingDayRow {
                    day,
                    link: label,
                    ticks: c.ticks_processed,
                    batch_actions: batch.len(),
                    stream_actions: out.actions.len(),
                    parity: format!("{:?}", out.actions) == format!("{batch:?}"),
                    gap_fills: c.gap_fills,
                    masked_stream_ticks: c.masked_stream_ticks,
                    quarantines: c.quarantines,
                    frames_late: c.frames_late,
                    watermark_lag_max: c.watermark_lag_max,
                });
            }
            Ok(rows)
        })
    });

    let mut rows = Vec::new();
    for r in day_rows {
        rows.extend(r?);
    }
    Ok(rows)
}

/// Renders the comparison as the `reproduce` table.
pub fn streaming_table(rows: &[StreamingDayRow]) -> TextTable {
    let mut t = TextTable::new(
        "Streaming runtime vs batch controller (per online day)",
        &[
            "day", "link", "ticks", "batch acts", "stream acts", "parity",
            "gap fills", "masked", "quarantines", "late", "max lag",
        ],
    );
    for r in rows {
        t.add_row(vec![
            r.day.to_string(),
            r.link.to_string(),
            r.ticks.to_string(),
            r.batch_actions.to_string(),
            r.stream_actions.to_string(),
            if r.parity { "identical".into() } else { "differs".into() },
            r.gap_fills.to_string(),
            r.masked_stream_ticks.to_string(),
            r.quarantines.to_string(),
            r.frames_late.to_string(),
            r.watermark_lag_max.to_string(),
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
    fn lossless_rows_hold_parity_and_lossy_rows_degrade_observably() {
        let rows = streaming_comparison(fixture(), 1, 9).unwrap();
        assert_eq!(rows.len(), 2);
        let lossless = rows.iter().find(|r| r.link == "lossless").unwrap();
        assert!(lossless.parity, "{lossless:?}");
        assert_eq!(lossless.gap_fills, 0);
        let lossy = rows.iter().find(|r| r.link == "lossy").unwrap();
        assert_eq!(lossy.ticks, lossless.ticks, "loss must not stall ticks");
        assert!(lossy.gap_fills > 0, "{lossy:?}");
        let table = streaming_table(&rows).render();
        assert!(table.contains("identical"), "{table}");
    }

    #[test]
    fn invalid_split_rejected() {
        assert!(streaming_comparison(fixture(), 0, 9).is_err());
        assert!(streaming_comparison(fixture(), 2, 9).is_err());
    }
}
