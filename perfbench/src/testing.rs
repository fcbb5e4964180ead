//! Test fixtures: a tiny synthetic generation (fast in debug builds)
//! and a stepping fake clock, plus the end-to-end self-tests that use
//! them.

use std::sync::atomic::{AtomicU64, Ordering};

use fadewich_core::artifact::{FeatureSchema, ModelBundle};
use fadewich_core::config::FadewichParams;
use fadewich_core::features::{extract_features, TrainingSample, FEATURES_PER_STREAM};
use fadewich_core::md::MovementDetector;
use fadewich_core::re::RadioEnvironment;
use fadewich_geometry::{Point, Segment};
use fadewich_officesim::{DayTrace, InputTrace};
use fadewich_rfchannel::LinkId;
use fadewich_stats::rng::Rng;
use fadewich_telemetry::Clock;

use crate::gen::Generated;

const HZ: f64 = 5.0;
const SENSORS: usize = 3;
const TICKS: usize = 900;

/// A fake clock that advances by a fixed step on every reading, so a
/// measured duration is exactly `step ×` the readings it spans.
#[derive(Debug)]
pub struct StepClock {
    ns: AtomicU64,
    step: u64,
}

impl StepClock {
    /// A clock at zero advancing `step` ns per reading.
    pub fn new(step: u64) -> StepClock {
        StepClock {
            ns: AtomicU64::new(0),
            step,
        }
    }
}

impl Clock for StepClock {
    fn now_ns(&self) -> u64 {
        self.ns.fetch_add(self.step, Ordering::SeqCst) + self.step
    }
}

/// Three sensors (six streams), quiet RSSI with two movement bursts,
/// two busy workstations, and a small classifier trained through the
/// real feature/SVM layers.
pub fn tiny_generation(seed: u64) -> Generated {
    let mut link_ids = Vec::new();
    let mut segments = Vec::new();
    for tx in 0..SENSORS {
        for rx in (0..SENSORS).filter(|&rx| rx != tx) {
            link_ids.push(LinkId { tx, rx });
            segments.push(Segment {
                a: Point {
                    x: tx as f64,
                    y: 0.0,
                },
                b: Point {
                    x: rx as f64,
                    y: 1.0,
                },
            });
        }
    }
    let n = link_ids.len();
    let streams: Vec<usize> = (0..n).collect();
    let mut rng = Rng::seed_from_u64(seed);
    let mut day = DayTrace::with_capacity(n, TICKS);
    for tick in 0..TICKS {
        let sd = if (500..540).contains(&tick) || (700..730).contains(&tick) {
            4.0
        } else {
            0.6
        };
        let row: Vec<f64> = (0..n)
            .map(|_| (-50.0 + rng.normal() * sd).round())
            .collect();
        day.push_row(&row);
    }
    let params = FadewichParams {
        profile_init_s: 30.0,
        ..FadewichParams::default()
    };
    let mut samples = Vec::new();
    for i in 0..24 {
        let sd = if i % 2 == 1 { 4.0 } else { 0.6 };
        let mut w = DayTrace::with_capacity(n, 30);
        for _ in 0..30 {
            let row: Vec<f64> = (0..n).map(|_| -50.0 + rng.normal() * sd).collect();
            w.push_row(&row);
        }
        samples.push(TrainingSample {
            features: extract_features(&w, &streams, 0, HZ, &params),
            label: i % 2,
        });
    }
    let re =
        RadioEnvironment::train(&samples, None, &mut rng).expect("synthetic training set is valid");
    let mut md = MovementDetector::new(n, HZ, params).expect("valid detector");
    let mut row = vec![0.0; n];
    for tick in 0..TICKS {
        for (dst, &v) in row.iter_mut().zip(day.row(tick)) {
            *dst = f64::from(v);
        }
        md.step(tick, &row);
    }
    let busy: Vec<f64> = (0..TICKS / 5).step_by(7).map(|s| s as f64).collect();
    let bundle = ModelBundle {
        params,
        schema: FeatureSchema::rssi(
            HZ,
            streams.iter().map(|&s| s as u32).collect(),
            FEATURES_PER_STREAM,
        ),
        md: md.snapshot(),
        re,
        keys: None,
    };
    Generated {
        tick_hz: HZ,
        link_ids,
        segments,
        streams,
        day,
        inputs: InputTrace::from_times(vec![busy.clone(), busy]),
        artifact: bundle.encode(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{self, END_TO_END, PER_LAYER};
    use crate::serve::{build_inputs, Workload};
    use fadewich_telemetry::json::{self, Json};

    fn tiny_inputs(gen: &Generated, workload: Workload) -> crate::serve::Inputs {
        let mut spec = workload.spec(TICKS);
        spec.offices = spec.offices.min(3);
        spec.storm_per_tick = spec.storm_per_tick.min(4);
        build_inputs(gen, spec, 11).expect("tiny inputs build")
    }

    #[test]
    fn fake_clock_runs_are_exact_and_decisions_check_out() {
        let gen = tiny_generation(3);
        for workload in Workload::ALL {
            let inp = tiny_inputs(&gen, workload);
            let run = || {
                measure::run(&gen, &inp, workload, &StepClock::new(100), 2e-3, false).expect("run")
            };
            let report = run();
            assert!(report.correct, "{}: {:?}", workload.name(), report.notes);
            assert_eq!(report.failed, 0);
            assert!(
                report.attempted >= 2 * inp.ops(),
                "{}: several passes",
                workload.name()
            );
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, END_TO_END.map(|(n, _)| n));
            for m in &report.metrics {
                assert!(
                    m.value > 0.0,
                    "{} {} must be nonzero",
                    workload.name(),
                    m.name
                );
            }
            // Each call is one clock step; a single-office round is 64
            // deliveries × 2 readings + its own end reading; a fleet
            // round reads before, around advance, and at its end.
            assert_eq!(report.metric("tick_p50_us"), Some(0.1));
            assert_eq!(report.metric("tick_p999_us"), Some(0.1));
            let round = if inp.spec.offices > 1 { 0.3 } else { 12.9 };
            assert_eq!(
                report.metric("round_p50_us"),
                Some(round),
                "{}",
                workload.name()
            );
            // The same clock and inputs reproduce every timing exactly.
            let again = run();
            for name in ["ticks_per_s", "tick_p999_us", "round_p99_us", "setup_s"] {
                assert_eq!(report.metric(name), again.metric(name), "{name}");
            }
            let parsed = json::parse(&report.json()).expect("result line is JSON");
            assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        }
    }

    #[test]
    fn traced_runs_report_every_layer_and_replay_the_served_decisions() {
        let gen = tiny_generation(5);
        for workload in Workload::ALL {
            let inp = tiny_inputs(&gen, workload);
            let report = measure::run(&gen, &inp, workload, &StepClock::new(10), 1e-4, true)
                .expect("traced run");
            assert!(report.correct, "{}: {:?}", workload.name(), report.notes);
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, PER_LAYER.map(|(n, _)| n));
            let get = |n: &str| report.metric(n).expect("listed");
            assert_eq!(get("wire.frames"), inp.ops() as f64);
            assert!(get("reorder.ticks_closed") >= TICKS as f64);
            assert_eq!(get("auth.rejected"), inp.hostile as f64);
            assert_eq!(
                get("fleet.demux_share") > 0.0,
                workload == Workload::FleetLossy
            );
            assert_eq!(
                get("checkpoint.snapshots") > 0.0,
                workload == Workload::FleetLossy
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|m| match (m.get("name"), m.get("unit")) {
                        (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                        _ => panic!("{key} entry without name/unit"),
                    })
                    .collect(),
                _ => panic!("{key} missing"),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = match doc.get("workloads") {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(|w| match w.get("name") {
                    Some(Json::Str(n)) => Some(n.clone()),
                    _ => None,
                })
                .collect(),
            _ => panic!("workloads missing"),
        };
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }
}
