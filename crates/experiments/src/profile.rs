//! Span-profile study over the decision audit trail — the
//! `reproduce profile` target.
//!
//! PR 5's tracing spans stamp every MD variation window and Rule 1
//! evaluation with the logical tick clock. Folding those spans gives a
//! *deterministic* profile of where the tick budget goes — per-stage
//! self time vs total time, in ticks, byte-identical across runs and
//! thread counts — plus collapsed stacks in the flamegraph text
//! format for visual drill-down. This is the replay-side complement to
//! `fadewichd stats --profile` (which folds a `--trace-out` JSONL from
//! a live run): same [`Profile`] fold, different source.

use fadewich_core::FadewichParams;
use fadewich_officesim::{ScenarioConfig, ScheduleParams};
use fadewich_runtime::link::LinkModel;
use fadewich_runtime::replay::{self, DayRun, Deployment};
use fadewich_runtime::EngineConfig;
use fadewich_telemetry::{Profile, Telemetry};

use crate::experiment::Experiment;
use crate::par::{self, timing};

/// Per-day span profiles plus the merged whole-run fold.
#[derive(Debug, Clone)]
pub struct ProfileStudy {
    /// `(day, profile)` for each replayed online day, day order.
    pub per_day: Vec<(usize, Profile)>,
    /// All online days folded together.
    pub merged: Profile,
}

/// Replays every online day with a buffering [`Telemetry`] handle and
/// folds the emitted spans into per-day and merged profiles.
///
/// # Errors
///
/// Returns a message for an invalid train/online split or when RE
/// training / engine construction fails.
pub fn profile_study(
    experiment: &Experiment,
    train_days: usize,
    n_sensors: usize,
) -> Result<ProfileStudy, String> {
    let n_days = experiment.trace.days().len();
    if train_days == 0 || train_days >= n_days {
        return Err(format!("need 1..{} training days, got {train_days}", n_days - 1));
    }
    let subset = experiment.scenario.layout().sensor_subset(n_sensors);
    let streams = experiment.trace.stream_indices_for_subset(&subset);
    let re = timing::time_stage("profile::train", || {
        replay::train_re(
            &experiment.scenario,
            &experiment.trace,
            &streams,
            train_days,
            &experiment.params,
        )
    })?;
    let hz = experiment.trace.tick_hz();
    let (scenario, trace) = (&experiment.scenario, &experiment.trace);
    let deployment = Deployment { scenario, trace, streams: &streams, re: &re };

    let per_day: Result<Vec<(usize, Profile)>, String> =
        timing::time_stage("profile::replay", || {
            par::par_map_indices(n_days - train_days, |i| {
                let day = train_days + i;
                let telemetry = Telemetry::buffering();
                let cfg = EngineConfig::new(hz, experiment.params);
                let link = LinkModel::lossless();
                let run = DayRun::new(deployment, day, cfg, &link, 0xF10D);
                DayRun { telemetry: telemetry.clone(), ..run }.run()?;
                Ok((day, Profile::from_records(&telemetry.records())))
            })
            .into_iter()
            .collect()
        });
    let per_day = per_day?;
    let mut merged = Profile::default();
    for (_, p) in &per_day {
        merged.merge_from(p);
    }
    Ok(ProfileStudy { per_day, merged })
}

/// The standalone form the explicit-only `reproduce profile` target
/// uses: generates its own `days`-day office scenario (the shared
/// quick experiment is single-day, too short to split into train and
/// online), trains on day 0, and profiles the rest.
///
/// # Errors
///
/// Propagates scenario generation and [`profile_study`] failures.
pub fn profile_study_standalone(
    seed: u64,
    days: usize,
    n_sensors: usize,
) -> Result<ProfileStudy, String> {
    let config = ScenarioConfig {
        seed,
        days,
        schedule: ScheduleParams {
            day_seconds: 2.0 * 3600.0,
            departures_choices: [3, 3, 4, 4],
            min_seated_s: 400.0,
            absence_bounds_s: (90.0, 300.0),
            ..ScheduleParams::default()
        },
        ..ScenarioConfig::default()
    };
    let experiment = Experiment::from_config(config, FadewichParams::default())?;
    profile_study(&experiment, 1, n_sensors)
}

/// Renders the study as the `reproduce profile` report: per-day stage
/// tables, the merged table, and the merged collapsed stacks
/// (`path self_ticks` per line — `flamegraph.pl`-compatible). Every
/// number is a logical-tick count, so the report carries no `wall_`
/// lines at all and is byte-identical across same-seed runs.
#[must_use]
pub fn profile_report(study: &ProfileStudy) -> String {
    let mut out = String::new();
    for (day, p) in &study.per_day {
        out.push_str(&format!("== span profile: day {day} ==\n"));
        out.push_str(&p.table());
        out.push('\n');
    }
    out.push_str("== span profile: all online days ==\n");
    out.push_str(&study.merged.table());
    out.push('\n');
    out.push_str("== collapsed stacks (all online days) ==\n");
    out.push_str(&study.merged.collapsed());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standalone_study_is_deterministic_and_nonempty() {
        let a = profile_study_standalone(0xD3B, 2, 9).unwrap();
        assert_eq!(a.per_day.len(), 1);
        let (day, p) = &a.per_day[0];
        assert_eq!(*day, 1);
        assert!(!p.is_empty(), "a replayed day must emit spans");
        let md = p.stage("md_window").expect("md_window stage present");
        assert!(md.count > 0);
        assert!(md.total_ticks >= md.self_ticks);
        // Rule 1 evaluations nest under variation windows, so the
        // collapsed stacks carry the two-deep path.
        assert!(
            a.merged.collapsed().contains("md_window;rule1_eval"),
            "{}",
            a.merged.collapsed()
        );
        let b = profile_study_standalone(0xD3B, 2, 9).unwrap();
        assert_eq!(profile_report(&a), profile_report(&b), "report must be reproducible");
        assert!(
            !profile_report(&a).contains("wall_"),
            "profile report is logical-tick only"
        );
    }

    #[test]
    fn invalid_split_rejected() {
        let experiment = Experiment::small(0xD3B).unwrap();
        assert!(profile_study(&experiment, 0, 9).is_err());
        assert!(profile_study(&experiment, 1, 9).is_err(), "1-day trace has no online days");
    }
}
