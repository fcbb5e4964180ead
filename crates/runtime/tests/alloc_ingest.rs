//! Allocation pins for the engine's ingest path.
//!
//! This file is its own test binary on purpose: it registers the
//! testkit counting allocator process-wide, and its tests take one
//! lock for their whole body (setup before any measured region), so
//! no sibling test thread can pollute the per-frame deltas.
//!
//! The claims under test, at the paper's layout (9 sensors × 8
//! streams) fed one frame per [`StreamingEngine::ingest_bytes`] call:
//!
//! - Lossless v1 bytes, telemetry off: once warmed up, no frame
//!   allocates. The frame that opens a tick takes a recycled reorder
//!   slot and the frame that closes it hands the slot back; the only
//!   exception is the closing frame of an Algorithm-1 batch flush (and
//!   any KDE refit it triggers).
//! - Authenticated v4 bytes under forged and replayed frames, with
//!   metrics-only telemetry and the standard SLO set (`fadewichd serve
//!   --metrics-addr`): once every metric name exists, a frame allocates
//!   only if it refits the profile or emits a span or event that
//!   carries owned attributes (FSM transitions, Rule-1 audits, sensor
//!   quarantines).
//! - [`RuntimeCounters::export_into`] costs the same allocations
//!   whatever the number of latency samples it exports.

use std::sync::{Mutex, MutexGuard};

use fadewich_core::auth::{AuthKey, KeyTable};
use fadewich_core::config::FadewichParams;
use fadewich_core::features::{extract_features, TrainingSample};
use fadewich_core::kma::Kma;
use fadewich_core::re::RadioEnvironment;
use fadewich_officesim::{DayTrace, InputTrace};
use fadewich_runtime::engine::EngineConfig;
use fadewich_runtime::{EngineAuth, Frame, RuntimeCounters, StreamingEngine};
use fadewich_stats::rng::Rng;
use fadewich_telemetry::{SloEngine, Telemetry};
use fadewich_testkit::bench::{alloc_counts, black_box, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Held by every test for its whole body: the allocation counters are
/// process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock; its data is `()`, so carry on.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const SENSORS: usize = 9;
const STREAMS_PER_SENSOR: usize = 8;
const N_STREAMS: usize = SENSORS * STREAMS_PER_SENSOR;
const TICK_HZ: f64 = 5.0;

/// A small real classifier over the 72-stream layout, trained on
/// seeded quiet/burst windows through the feature layer.
fn trained_re(rng: &mut Rng) -> RadioEnvironment {
    let params = FadewichParams::default();
    let streams: Vec<usize> = (0..N_STREAMS).collect();
    let mut samples = Vec::new();
    for i in 0..24 {
        let sd = if i % 2 == 1 { 4.0 } else { 0.6 };
        let mut day = DayTrace::with_capacity(N_STREAMS, 30);
        for _ in 0..30 {
            let row: Vec<f64> = (0..N_STREAMS).map(|_| -50.0 + rng.normal() * sd).collect();
            day.push_row(&row);
        }
        let features = extract_features(&day, &streams, 0, TICK_HZ, &params);
        samples.push(TrainingSample { features, label: i % 2 });
    }
    RadioEnvironment::train(&samples, None, rng).expect("seeded training set is valid")
}

#[test]
fn lossless_ingest_allocates_nothing_at_steady_state() {
    let _serial = serial();
    // Sanity: the counting allocator really is registered here.
    let probe = alloc_counts();
    black_box(Box::new(0x5EEDu64));
    assert!(
        alloc_counts().since(probe).calls > 0,
        "counting allocator is not registered in this test binary"
    );

    let mut rng = Rng::seed_from_u64(0x1A6E57);
    let re = trained_re(&mut rng);
    let params = FadewichParams { profile_init_s: 30.0, ..Default::default() };
    let batch_size = params.batch_size;
    let busy: Vec<f64> = (0..2_000).step_by(3).map(|s| s as f64).collect();
    let inputs = InputTrace::from_times(vec![busy.clone(), busy]);
    let groups: Vec<(u16, Vec<usize>)> = (0..SENSORS)
        .map(|s| (s as u16, (s * STREAMS_PER_SENSOR..(s + 1) * STREAMS_PER_SENSOR).collect()))
        .collect();
    let cfg = EngineConfig::new(TICK_HZ, params);
    let mut engine = StreamingEngine::new(cfg, groups.clone(), &re, Kma::new(&inputs)).unwrap();

    // Quiet RSSI only, encoded up front: the claim is about the
    // steady-state ingest loop, not window bookkeeping or encoding.
    let warm = 600u64;
    let measured = 300u64;
    let frames: Vec<Vec<Vec<u8>>> = (0..warm + measured)
        .map(|tick| {
            groups
                .iter()
                .map(|(sensor, positions)| {
                    let values =
                        positions.iter().map(|_| (-50.0 + rng.normal() * 0.6) as f32).collect();
                    Frame::rssi(*sensor, tick as u32, tick, values).encode()
                })
                .collect()
        })
        .collect();
    for tick_frames in &frames[..warm as usize] {
        for bytes in tick_frames {
            engine.ingest_bytes(bytes);
        }
    }
    assert_eq!(engine.counters().ticks_processed, warm, "every warm-up tick closed");

    let mut closing_allocs = Vec::new();
    for tick in warm..warm + measured {
        for (k, bytes) in frames[tick as usize].iter().enumerate() {
            let t0 = alloc_counts();
            engine.ingest_bytes(bytes);
            let calls = alloc_counts().since(t0).calls;
            let closed = engine.counters().ticks_processed;
            if k + 1 < SENSORS {
                assert_eq!(calls, 0, "tick {tick} frame {k} closes nothing but allocated");
                assert_eq!(closed, tick, "tick {tick} closed before its last frame");
            } else {
                assert_eq!(closed, tick + 1, "tick {tick} did not close on its last frame");
                if calls > 0 {
                    closing_allocs.push((tick, calls));
                }
            }
        }
    }
    assert_eq!(engine.counters().frames_in, (warm + measured) * SENSORS as u64);

    // Every allocating closing frame must be an Algorithm-1 flush: with
    // period `batch_size` there are exactly measured/batch_size of
    // those in the measured span (the phase depends on when profile
    // init finished, so only the spacing is pinned).
    let flushes = (measured as usize) / batch_size;
    assert!(
        closing_allocs.len() <= flushes,
        "{} closing frames allocated (expected at most {flushes} flush ticks): {closing_allocs:?}",
        closing_allocs.len()
    );
    for pair in closing_allocs.windows(2) {
        assert_eq!(
            pair[1].0 - pair[0].0,
            batch_size as u64,
            "allocating closing frames are not one batch apart: {closing_allocs:?}"
        );
    }
}

/// The registry counters whose movement during a frame excuses an
/// allocation: profile refits, FSM transitions and Rule-1 audits.
fn excusing_metrics(telemetry: &Telemetry) -> u64 {
    telemetry
        .with_registry(|r| {
            ["md_profile_refits", "controller_transitions", "rule1_deauths", "rule1_no_deauths"]
                .iter()
                .map(|name| r.counter(name))
                .sum()
        })
        .expect("telemetry is enabled")
}

/// Sensor quarantines and recoveries: their events carry an owned
/// attribute list.
fn sensor_events(c: &RuntimeCounters) -> u64 {
    c.attack_quarantines + c.quarantines + c.recoveries
}

#[test]
fn metrics_only_authenticated_ingest_allocates_only_for_refits_and_owned_records() {
    let _serial = serial();
    let mut rng = Rng::seed_from_u64(0xA7_5107);
    let re = trained_re(&mut rng);
    let params = FadewichParams { profile_init_s: 30.0, ..Default::default() };
    let (warm, measured) = (1_200u64, 900u64);
    // Typing on every tick: no workstation is ever idle, so past the
    // first tick's logins Rule 1 audits every long window without
    // deauthenticating and Rule 2 raises no alert. The action log
    // never grows.
    let typing: Vec<f64> = (0..(warm + measured + 50)).map(|t| t as f64 / TICK_HZ).collect();
    let inputs = InputTrace::from_times(vec![typing.clone(), typing]);
    let groups: Vec<(u16, Vec<usize>)> = (0..SENSORS)
        .map(|s| (s as u16, (s * STREAMS_PER_SENSOR..(s + 1) * STREAMS_PER_SENSOR).collect()))
        .collect();
    let keys = KeyTable::derive(0x5EC2E7, SENSORS as u16);
    let forger = AuthKey::derive(0xBAD, 0);
    let cfg = EngineConfig::new(TICK_HZ, params);
    let mut engine = StreamingEngine::new(cfg, groups.clone(), &re, Kma::new(&inputs)).unwrap();
    engine.set_auth(EngineAuth::new(keys.clone()));
    let telemetry = Telemetry::metrics_only();
    telemetry.set_slo(SloEngine::standard(TICK_HZ));
    engine.set_telemetry(telemetry.clone());

    // Every tick: the nine genuine frames, with a forged frame after
    // sensors 0, 3 and 6 and, from tick 3 on, a byte-exact replay of
    // sensor 4's frame from three ticks back; sensor 8's genuine frame
    // comes last and closes the tick. A 40-tick movement burst every
    // 300 ticks opens variation windows long enough for Rule 1.
    let mut genuine: Vec<Vec<Vec<u8>>> = Vec::new();
    let mut deliveries: Vec<Vec<Vec<u8>>> = Vec::new();
    for tick in 0..warm + measured {
        let sd = if tick % 300 >= 200 && tick % 300 < 240 { 4.0 } else { 0.6 };
        let mut frames = Vec::new();
        let mut out = Vec::new();
        for (k, (sensor, positions)) in groups.iter().enumerate() {
            let values = positions.iter().map(|_| (-50.0 + rng.normal() * sd) as f32).collect();
            let frame = Frame::rssi(*sensor, tick as u32, tick, values);
            frames.push(frame.encode_auth(keys.get(*sensor).unwrap()));
            out.push(frames[k].clone());
            if k % 3 == 0 {
                let values = positions.iter().map(|_| -30.0f32).collect();
                let forged = Frame::rssi(*sensor, tick as u32 + 1, tick, values);
                out.push(forged.encode_auth(&forger));
            }
            if k == 4 && tick >= 3 {
                out.push(genuine[tick as usize - 3][4].clone());
            }
        }
        genuine.push(frames);
        deliveries.push(out);
    }
    for tick_frames in &deliveries[..warm as usize] {
        for bytes in tick_frames {
            engine.ingest_bytes(bytes);
        }
    }
    assert_eq!(engine.counters().ticks_processed, warm, "every warm-up tick closed");
    let counter = |name: &str| telemetry.with_registry(|r| r.counter(name)).unwrap();
    let anomalous_before = counter("md_anomalous_ticks");
    let audits_before = counter("rule1_no_deauths");
    let actions_before = engine.actions().len();

    for tick in warm..warm + measured {
        for bytes in &deliveries[tick as usize] {
            let metrics = excusing_metrics(&telemetry);
            let events = sensor_events(engine.counters());
            let t0 = alloc_counts();
            engine.ingest_bytes(bytes);
            let calls = alloc_counts().since(t0).calls;
            let excused = excusing_metrics(&telemetry) != metrics
                || sensor_events(engine.counters()) != events;
            if !excused {
                assert_eq!(
                    calls, 0,
                    "tick {tick}: a frame that refit nothing and emitted no owned record allocated"
                );
            }
        }
    }
    let c = engine.counters();
    assert_eq!(c.ticks_processed, warm + measured);
    assert_eq!(engine.actions().len(), actions_before, "no workstation was ever idle");
    // The measured span really exercised the anomalous-tick, audit and
    // rejection paths.
    assert!(counter("md_anomalous_ticks") > anomalous_before + 40, "bursts raise anomalous ticks");
    assert!(counter("rule1_no_deauths") > audits_before, "bursts reach Rule 1");
    assert!(c.frames_unauthenticated > 0 && c.frames_replayed > 0, "{}", c.summary());
}

#[test]
fn latency_export_allocations_do_not_grow_with_samples() {
    let _serial = serial();
    // Same buckets, 100x the samples: an export that is O(buckets)
    // allocates the same for both.
    let export_calls = |samples: u64| {
        let mut c = RuntimeCounters { frames_in: samples, ..Default::default() };
        for i in 0..samples {
            c.decode.record_ns(500 + (i % 5) * 3_000);
            c.step.record_ns(40_000 + (i % 3) * 90_000);
        }
        let telemetry = Telemetry::metrics_only();
        let t0 = alloc_counts();
        c.export_into(&telemetry);
        let calls = alloc_counts().since(t0).calls;
        let count = telemetry.with_registry(|r| r.histogram("runtime_decode_ns").unwrap().count());
        assert_eq!(count, Some(samples));
        calls
    };
    let small = export_calls(1_000);
    let large = export_calls(100_000);
    assert_eq!(small, large, "export allocations grew with the sample count");
}
