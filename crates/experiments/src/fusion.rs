//! RSSI/light fusion ablation: the `reproduce fusion` study.
//!
//! The tentpole question of the sensor-stream generalization: what
//! does the ambient-light modality buy, and what does it cost? One
//! light-enabled scenario is streamed three times through the fused
//! engine — [`DecisionMode::RssiOnly`], [`DecisionMode::LightOnly`],
//! [`DecisionMode::Fused`] — and every run is scored against the
//! simulator's ground-truth departure log:
//!
//! * **latency** — seconds from the user clearing workstation
//!   proximity (the paper's reference time `t`) to the
//!   deauthentication that covers that departure;
//! * **FN** — departures no deauthentication covered within the match
//!   window (the attack opportunities left open);
//! * **FP** — deauthentications covering no ground-truth departure
//!   (usability cost: a logged-in user kicked for no reason).
//!
//! The fixture mounts one photosensor per workstation with deliberately
//! unequal mounting quality (`mount_factors`), so the light-only mode
//! shows its blind spot on the badly-mounted desk while the fused mode
//! recovers it through rule 1 — the qualitative shape the ablation
//! table is pinned on. Everything is seeded; the table is
//! byte-identical across runs and thread counts, which `scripts/ci.sh`
//! enforces by diffing two `reproduce fusion` invocations.

use fadewich_core::config::FadewichParams;
use fadewich_core::controller::{Action, ActionKind};
use fadewich_core::fusion::DecisionMode;
use fadewich_officesim::{LightSimParams, Scenario, ScenarioConfig, ScheduleParams};
use fadewich_runtime::link::LinkModel;
use fadewich_runtime::replay::{self, DayRun, Deployment, Layout};
use fadewich_runtime::EngineConfig;

use crate::par::timing;
use crate::report::TextTable;

/// Per-workstation photosensor mounting quality for the ablation
/// fixture: w0 ideal, w1 slightly off-axis, w2 badly mounted (the
/// occlusion dip shrinks below the detector threshold, so light-only
/// misses that desk).
pub const MOUNT_FACTORS: [f64; 3] = [1.0, 0.85, 0.3];

/// A deauthentication covers a departure when it fires inside
/// `[t_start, t_end + MATCH_WINDOW_S]` for the departed workstation.
pub const MATCH_WINDOW_S: f64 = 30.0;

/// The light-enabled ablation scenario: the streaming fixture's
/// schedule with one photosensor per workstation at [`MOUNT_FACTORS`]
/// quality.
#[must_use]
pub fn fusion_scenario(seed: u64, days: usize) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        days,
        schedule: ScheduleParams {
            day_seconds: 2.0 * 3600.0,
            departures_choices: [3, 3, 4, 4],
            min_seated_s: 400.0,
            absence_bounds_s: (90.0, 300.0),
            ..ScheduleParams::default()
        },
        light: Some(LightSimParams {
            mount_factors: MOUNT_FACTORS.to_vec(),
            ..LightSimParams::default()
        }),
        ..ScenarioConfig::default()
    }
}

/// One decision mode's scorecard over one streamed day.
#[derive(Debug, Clone)]
pub struct FusionModeRow {
    /// Which decision mode arbitrated.
    pub mode: DecisionMode,
    /// Which recorded day was streamed.
    pub day: usize,
    /// Ground-truth departures that day.
    pub leaves: usize,
    /// Deauthentications the engine fired.
    pub deauths: usize,
    /// Deauthentications fired by the light departure path.
    pub light_deauths: usize,
    /// Departures covered by a deauthentication in the match window.
    pub matched: usize,
    /// Departures left open (missed).
    pub false_negatives: usize,
    /// Deauthentications covering no departure.
    pub false_positives: usize,
    /// Mean seconds from proximity-clear to the covering deauth.
    pub mean_latency_s: f64,
    /// Worst covered-departure latency.
    pub max_latency_s: f64,
    /// `Some(identical)` for the RSSI-only mode: whether the typed
    /// engine's decisions are byte-identical to the legacy untyped
    /// path over the same trace. `None` for the light modes.
    pub rssi_parity: Option<bool>,
}

/// Scores one mode's action log against the day's ground truth.
fn score(
    mode: DecisionMode,
    day: usize,
    actions: &[Action],
    scenario: &Scenario,
    rssi_parity: Option<bool>,
) -> FusionModeRow {
    let leaves: Vec<_> = scenario.events().events_on_day(day).filter(|e| e.is_leave()).collect();
    let deauths: Vec<&Action> = actions.iter().filter(|a| a.kind.is_deauth()).collect();
    let light_deauths = deauths
        .iter()
        .filter(|a| matches!(a.kind, ActionKind::DeauthenticateLight { .. }))
        .count();
    // Greedy chronological matching: each departure takes the earliest
    // unclaimed deauth of its workstation inside the match window.
    let mut used = vec![false; deauths.len()];
    let mut latencies: Vec<f64> = Vec::new();
    for e in &leaves {
        let ws = e.label() - 1;
        let hit = deauths.iter().enumerate().find(|(i, a)| {
            !used[*i]
                && a.kind.workstation() == ws
                && a.t >= e.t_start
                && a.t <= e.t_end + MATCH_WINDOW_S
        });
        if let Some((i, a)) = hit {
            used[i] = true;
            latencies.push(a.t - e.t_proximity);
        }
    }
    let matched = latencies.len();
    FusionModeRow {
        mode,
        day,
        leaves: leaves.len(),
        deauths: deauths.len(),
        light_deauths,
        matched,
        false_negatives: leaves.len() - matched,
        false_positives: deauths.len() - matched,
        mean_latency_s: if matched == 0 {
            0.0
        } else {
            latencies.iter().sum::<f64>() / matched as f64
        },
        max_latency_s: latencies.iter().fold(0.0f64, |m, &l| m.max(l)),
        rssi_parity,
    }
}

/// Runs the full ablation: generate the light-enabled scenario, train
/// RE on the leading days, stream every online day through all three
/// decision modes over a lossless link, score each against ground
/// truth.
///
/// # Errors
///
/// Returns a message for scenario/simulation failures, an invalid
/// train/online split, or engine construction errors.
pub fn fusion_study(
    seed: u64,
    days: usize,
    train_days: usize,
    n_sensors: usize,
) -> Result<Vec<FusionModeRow>, String> {
    if train_days == 0 || train_days >= days {
        return Err(format!("need 1..{} training days, got {train_days}", days - 1));
    }
    let (scenario, trace) = timing::time_stage("fusion::scenario", || {
        let scenario =
            Scenario::generate(fusion_scenario(seed, days)).map_err(|e| format!("{e}"))?;
        let trace = scenario.simulate().map_err(|e| format!("{e}"))?;
        Ok::<_, String>((scenario, trace))
    })?;
    let params = FadewichParams::default();
    let subset = scenario.layout().sensor_subset(n_sensors);
    let streams = trace.stream_indices_for_subset(&subset);
    let re = timing::time_stage("fusion::train", || {
        replay::train_re(&scenario, &trace, &streams, train_days, &params)
    })?;

    let deployment = Deployment { scenario: &scenario, trace: &trace, streams: &streams, re: &re };
    let link = LinkModel::lossless();
    let cfg = EngineConfig::new(trace.tick_hz(), params);
    let mut rows = Vec::new();
    for day in train_days..days {
        // The pre-refactor reference: the same day streamed through the
        // untyped RSSI-only path (light columns never framed).
        let legacy = DayRun::new(deployment, day, cfg, &link, 0xF10D).run()?.actions;
        for mode in [DecisionMode::RssiOnly, DecisionMode::LightOnly, DecisionMode::Fused] {
            let layout = Layout::Fused(mode);
            let out = DayRun { layout, ..DayRun::new(deployment, day, cfg, &link, 0xF10D) }.run()?;
            let parity = (mode == DecisionMode::RssiOnly)
                .then(|| format!("{:?}", out.actions) == format!("{legacy:?}"));
            rows.push(score(mode, day, &out.actions, &scenario, parity));
        }
    }
    Ok(rows)
}

/// Renders the ablation as the `reproduce fusion` table.
#[must_use]
pub fn fusion_table(rows: &[FusionModeRow]) -> TextTable {
    let mut t = TextTable::new(
        "Fusion ablation: deauth latency and error rates per decision mode",
        &[
            "day", "mode", "leaves", "deauths", "light deauths", "matched", "FN", "FP",
            "mean latency (s)", "max latency (s)", "rssi parity",
        ],
    );
    for r in rows {
        t.add_row(vec![
            r.day.to_string(),
            r.mode.label().to_string(),
            r.leaves.to_string(),
            r.deauths.to_string(),
            r.light_deauths.to_string(),
            r.matched.to_string(),
            r.false_negatives.to_string(),
            r.false_positives.to_string(),
            format!("{:.1}", r.mean_latency_s),
            format!("{:.1}", r.max_latency_s),
            match r.rssi_parity {
                Some(true) => "identical".into(),
                Some(false) => "DIFFERS".into(),
                None => "-".into(),
            },
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn rows() -> &'static Vec<FusionModeRow> {
        static ROWS: OnceLock<Vec<FusionModeRow>> = OnceLock::new();
        ROWS.get_or_init(|| fusion_study(0xD3B, 2, 1, 9).unwrap())
    }

    #[test]
    fn rssi_only_mode_is_byte_identical_to_legacy_path() {
        let r = rows().iter().find(|r| r.mode == DecisionMode::RssiOnly).unwrap();
        assert_eq!(r.rssi_parity, Some(true), "{r:?}");
    }

    #[test]
    fn every_mode_covers_departures_and_light_modes_use_the_light_path() {
        for r in rows().iter() {
            assert!(r.leaves > 0, "{r:?}");
            assert!(r.matched > 0, "{r:?}");
            assert_eq!(r.matched + r.false_negatives, r.leaves);
            assert_eq!(r.matched + r.false_positives, r.deauths);
        }
        let light = rows().iter().find(|r| r.mode == DecisionMode::LightOnly).unwrap();
        assert!(light.light_deauths > 0, "{light:?}");
        let rssi = rows().iter().find(|r| r.mode == DecisionMode::RssiOnly).unwrap();
        assert_eq!(rssi.light_deauths, 0, "{rssi:?}");
    }

    #[test]
    fn study_is_deterministic_and_renders() {
        let again = fusion_study(0xD3B, 2, 1, 9).unwrap();
        assert_eq!(
            format!("{:?}", rows()),
            format!("{again:?}"),
            "fusion ablation must be seed-deterministic"
        );
        let table = fusion_table(rows()).render();
        assert!(table.contains("rssi-only") && table.contains("fused"), "{table}");
    }

    #[test]
    fn invalid_split_rejected() {
        assert!(fusion_study(0xD3B, 2, 0, 9).is_err());
        assert!(fusion_study(0xD3B, 2, 2, 9).is_err());
    }
}
