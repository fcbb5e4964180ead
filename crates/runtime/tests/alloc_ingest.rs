//! Allocation pin for the engine's ingest path.
//!
//! This file is its own test binary on purpose: it registers the
//! testkit counting allocator process-wide and holds exactly one test,
//! so no sibling test thread can pollute the per-frame deltas.
//!
//! The claim under test, at the paper's layout (9 sensors × 8 streams)
//! fed lossless v1 bytes one frame per [`StreamingEngine::ingest_bytes`]
//! call: once warmed up, no frame allocates. The frame that opens a
//! tick takes a recycled reorder slot and the frame that closes it
//! hands the slot back; the only exception is the closing frame of an
//! Algorithm-1 batch flush (and any KDE refit it triggers).

use fadewich_core::config::FadewichParams;
use fadewich_core::features::{extract_features, TrainingSample};
use fadewich_core::kma::Kma;
use fadewich_core::re::RadioEnvironment;
use fadewich_officesim::{DayTrace, InputTrace};
use fadewich_runtime::engine::EngineConfig;
use fadewich_runtime::{Frame, StreamingEngine};
use fadewich_stats::rng::Rng;
use fadewich_testkit::bench::{alloc_counts, black_box, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

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
