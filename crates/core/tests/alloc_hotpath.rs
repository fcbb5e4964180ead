//! Allocation pin for the untraced per-tick hot path.
//!
//! This file is its own test binary on purpose: it registers the
//! testkit counting allocator process-wide and holds exactly one
//! test, so no sibling test thread can pollute the per-tick deltas.
//!
//! The claim under test: once the MD profile is initialized, a quiet
//! untraced [`Controller::step`] allocates **nothing** at steady
//! state — the only allowed heap traffic is the Algorithm-1 batch
//! flush every `batch_size` ticks (and any KDE refit it triggers).

use fadewich_core::config::FadewichParams;
use fadewich_core::controller::Controller;
use fadewich_core::features::{extract_features, TrainingSample};
use fadewich_core::kma::Kma;
use fadewich_core::re::RadioEnvironment;
use fadewich_officesim::{DayTrace, InputTrace};
use fadewich_stats::rng::Rng;
use fadewich_testkit::bench::{alloc_counts, black_box, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const N_STREAMS: usize = 4;
const TICK_HZ: f64 = 5.0;

/// A tiny real classifier, trained the same way the runtime fixtures
/// train theirs: seeded quiet/burst windows through the feature layer.
fn trained_re(rng: &mut Rng) -> RadioEnvironment {
    let params = FadewichParams::default();
    let mut samples = Vec::new();
    for i in 0..24 {
        let sd = if i % 2 == 1 { 4.0 } else { 0.6 };
        let mut day = DayTrace::with_capacity(N_STREAMS, 30);
        for _ in 0..30 {
            let row: Vec<f64> = (0..N_STREAMS).map(|_| -50.0 + rng.normal() * sd).collect();
            day.push_row(&row);
        }
        let streams: Vec<usize> = (0..N_STREAMS).collect();
        let features = extract_features(&day, &streams, 0, TICK_HZ, &params);
        samples.push(TrainingSample { features, label: i % 2 });
    }
    RadioEnvironment::train(&samples, None, rng).expect("seeded training set is valid")
}

#[test]
fn quiet_untraced_ticks_do_not_allocate_at_steady_state() {
    // Sanity: the counting allocator really is registered here.
    let probe = alloc_counts();
    black_box(Box::new(0x5EEDu64));
    assert!(
        alloc_counts().since(probe).calls > 0,
        "counting allocator is not registered in this test binary"
    );

    let mut rng = Rng::seed_from_u64(0xA110C);
    let re = trained_re(&mut rng);
    let params = FadewichParams { profile_init_s: 30.0, ..Default::default() };
    let batch_size = params.batch_size;
    let busy: Vec<f64> = (0..2_000).step_by(3).map(|s| s as f64).collect();
    let inputs = InputTrace::from_times(vec![busy.clone(), busy]);
    let kma = Kma::new(&inputs);
    let mut ctl = Controller::new(N_STREAMS, TICK_HZ, params, &re, kma).unwrap();

    // Quiet RSSI only: the claim is about the steady-state loop, not
    // window bookkeeping (crates/runtime/tests/cross_version_pin.rs
    // covers busy days).
    let warm = 600usize;
    let measured = 300usize;
    let rows: Vec<f64> =
        (0..(warm + measured) * N_STREAMS).map(|_| -50.0 + rng.normal() * 0.6).collect();
    for tick in 0..warm {
        ctl.step(tick, &rows[tick * N_STREAMS..(tick + 1) * N_STREAMS]);
    }

    let mut zero_ticks = 0usize;
    let mut dirty = Vec::new();
    let before = alloc_counts();
    for tick in warm..warm + measured {
        let t0 = alloc_counts();
        ctl.step(tick, &rows[tick * N_STREAMS..(tick + 1) * N_STREAMS]);
        let delta = alloc_counts().since(t0);
        if delta.calls == 0 {
            zero_ticks += 1;
        } else {
            dirty.push((tick, delta.calls));
        }
    }
    let total = alloc_counts().since(before);

    // Every allocating tick must be an Algorithm-1 flush, and with
    // period `batch_size` there are exactly measured/batch_size of
    // those in the measured span (the phase depends on when profile
    // init finished, so only the spacing is pinned).
    let flushes = measured / batch_size;
    assert!(
        zero_ticks >= measured - flushes,
        "{} of {measured} quiet ticks allocated (expected at most {flushes} flush ticks): {dirty:?}",
        measured - zero_ticks
    );
    for pair in dirty.windows(2) {
        assert_eq!(
            pair[1].0 - pair[0].0,
            batch_size,
            "allocating ticks are not spaced one batch apart: {dirty:?}"
        );
    }
    assert!(
        total.calls <= (flushes as u64) * 16,
        "flush ticks allocated more than expected: {} calls, {} bytes",
        total.calls,
        total.bytes
    );
}
