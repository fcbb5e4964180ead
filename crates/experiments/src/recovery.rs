//! Crash-recovery study: kill the streaming engine mid-day, resume
//! from the newest on-disk checkpoint, and check the stitched
//! decision stream against an uninterrupted run.
//!
//! For every online day the engine is crashed at 25%, 50% and 75% of
//! the day's deliveries (over the same lossy link the streaming
//! comparison uses), resumed from the checkpoint store, and the
//! pre-crash action prefix plus the post-resume log is compared —
//! `Debug`-formatted, so byte for byte — against the reference run,
//! along with the deterministic counter summary. All reported fields
//! are seed-deterministic, so the `reproduce` table stays
//! byte-identical across thread counts; the checkpoint files
//! themselves live in a scratch directory that is removed afterwards.

use std::path::PathBuf;

use fadewich_runtime::checkpoint::CheckpointStore;
use fadewich_runtime::replay::{
    self, Checkpointing, CrashPoint, DayReplay, DayRun, Deployment, Layout,
};
use fadewich_runtime::EngineConfig;

use crate::experiment::Experiment;
use crate::par::{self, timing};
use crate::report::TextTable;
use crate::streaming::stress_link;

/// One crash/resume cycle of one online day.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Which recorded day was crashed and resumed.
    pub day: usize,
    /// Fraction of the day's deliveries ingested before the crash.
    pub crash_fraction: f64,
    /// Delivery index the crash was injected at.
    pub crash_delivery: u64,
    /// Delivery position the surviving checkpoint put the resume at
    /// (always `<= crash_delivery`; 0 means no checkpoint survived
    /// and the day was restarted cold).
    pub resumed_from: u64,
    /// Checkpoint files left on disk after the cycle (the store
    /// retains the newest two).
    pub checkpoints_kept: usize,
    /// Corrupt checkpoint files skipped at load (0 in this study —
    /// fault injection is exercised by the runtime's own tests).
    pub rejected: usize,
    /// Whether the stitched action log (pre-crash prefix + resumed
    /// log) is byte-identical to the uninterrupted run's.
    pub action_parity: bool,
    /// Whether the resumed run's deterministic counter summary equals
    /// the uninterrupted run's.
    pub counter_parity: bool,
}

/// Scratch directory for one crash cycle's checkpoint store; unique
/// per process and cycle so parallel workers never collide.
fn scratch_dir(day: usize, pct: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "fadewich-recovery-{}-d{day}-p{pct}",
        std::process::id()
    ))
}

/// Crashes and resumes every online day of `experiment` at 25/50/75%
/// of its deliveries and reports whether the stitched output matches
/// the uninterrupted reference.
///
/// # Errors
///
/// Returns a message for an invalid train/online split, RE training
/// failure, or any checkpoint save/load/resume failure (none of which
/// are expected on a healthy filesystem).
pub fn recovery_study(
    experiment: &Experiment,
    train_days: usize,
    n_sensors: usize,
) -> Result<Vec<RecoveryRow>, String> {
    let n_days = experiment.trace.days().len();
    if train_days == 0 || train_days >= n_days {
        return Err(format!("need 1..{} training days, got {train_days}", n_days - 1));
    }
    let subset = experiment.scenario.layout().sensor_subset(n_sensors);
    let streams = experiment.trace.stream_indices_for_subset(&subset);
    let re = timing::time_stage("recovery::train", || {
        replay::train_re(&experiment.scenario, &experiment.trace, &streams, train_days, &experiment.params)
    })?;

    let (scenario, trace) = (&experiment.scenario, &experiment.trace);
    let deployment = Deployment { scenario, trace, streams: &streams, re: &re };
    let (groups, _) = Layout::Rssi.resolve(&experiment.trace, &streams);
    let link = stress_link();
    let link_seed = 0xF10D;
    let day_rows = timing::time_stage("recovery::cycles", || {
        par::par_map_indices(n_days - train_days, |i| -> Result<_, String> {
            let day = train_days + i;
            let mut cfg = EngineConfig::new(experiment.trace.tick_hz(), experiment.params);
            cfg.jitter_ticks = cfg.jitter_ticks.max(link.jitter_ticks);
            let new_run = || DayRun::new(deployment, day, cfg, &link, link_seed);
            let reference = new_run().run()?;
            let n_deliveries = replay::day_deliveries(
                &experiment.trace, &streams, &groups, day, 0, &link, link_seed,
            )?
            .len() as u64;

            let mut rows = Vec::with_capacity(3);
            for pct in [25u64, 50, 75] {
                let crash_delivery = (n_deliveries * pct / 100).max(1);
                let dir = scratch_dir(day, pct);
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
                let row = crash_cycle(&new_run, &reference, crash_delivery, pct, &dir);
                let _ = std::fs::remove_dir_all(&dir);
                rows.push(row?);
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

/// One crash-at-`crash_delivery` / resume cycle of the day `new_run`
/// streams, against its uninterrupted `reference`.
fn crash_cycle<'a>(
    new_run: impl Fn() -> DayRun<'a>,
    reference: &DayReplay,
    crash_delivery: u64,
    pct: u64,
    dir: &std::path::Path,
) -> Result<RecoveryRow, String> {
    let mut store = CheckpointStore::open(dir).map_err(|e| e.to_string())?;
    let crash = Some(CrashPoint::AfterDeliveries(crash_delivery));
    let checkpoint = Some(Checkpointing { store: &mut store, stamp_base: 0, crash });
    let crashed = DayRun { checkpoint, ..new_run() }.run()?;

    // Reopen, as a restarted process would.
    let mut store = CheckpointStore::open(dir).map_err(|e| e.to_string())?;
    let outcome = store.load_latest().map_err(|e| e.to_string())?;
    let rejected = outcome.rejected.len();
    let checkpoints_kept = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with(".fwcp"))
        .count();

    let (resumed_from, prefix_actions, resumed) = match &outcome.snapshot {
        Some((_, snap)) => {
            let resumed = DayRun { resume: Some(snap), ..new_run() }.run()?;
            (snap.stream_pos, snap.controller.n_actions as usize, resumed)
        }
        // Crash before the first checkpoint: cold restart of the day.
        None => (0, 0, new_run().run()?),
    };

    let stitched: Vec<&fadewich_core::controller::Action> = crashed.actions[..prefix_actions]
        .iter()
        .chain(resumed.actions.iter())
        .collect();
    let full: Vec<&fadewich_core::controller::Action> = reference.actions.iter().collect();
    Ok(RecoveryRow {
        day: reference.day,
        crash_fraction: pct as f64 / 100.0,
        crash_delivery,
        resumed_from,
        checkpoints_kept,
        rejected,
        action_parity: format!("{stitched:?}") == format!("{full:?}"),
        counter_parity: resumed.counters.deterministic_summary()
            == reference.counters.deterministic_summary(),
    })
}

/// Renders the study as the `reproduce` table.
pub fn recovery_table(rows: &[RecoveryRow]) -> TextTable {
    let mut t = TextTable::new(
        "Crash recovery: checkpointed resume vs uninterrupted run (per online day)",
        &[
            "day", "crash at", "crash delivery", "resumed from", "ckpts kept",
            "rejected", "actions", "counters",
        ],
    );
    for r in rows {
        t.add_row(vec![
            r.day.to_string(),
            format!("{:.0}%", r.crash_fraction * 100.0),
            r.crash_delivery.to_string(),
            r.resumed_from.to_string(),
            r.checkpoints_kept.to_string(),
            r.rejected.to_string(),
            if r.action_parity { "identical".into() } else { "differ".into() },
            if r.counter_parity { "identical".into() } else { "differ".into() },
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
    fn every_crash_fraction_resumes_identically() {
        let rows = recovery_study(fixture(), 1, 9).unwrap();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.action_parity, "{r:?}");
            assert!(r.counter_parity, "{r:?}");
            assert!(r.rejected == 0, "{r:?}");
            assert!(r.resumed_from <= r.crash_delivery, "{r:?}");
            assert!(r.checkpoints_kept <= 2, "retention must prune: {r:?}");
        }
        let table = recovery_table(&rows).render();
        assert!(table.contains("identical"), "{table}");
    }

    #[test]
    fn invalid_split_rejected() {
        assert!(recovery_study(fixture(), 0, 9).is_err());
        assert!(recovery_study(fixture(), 2, 9).is_err());
    }
}
