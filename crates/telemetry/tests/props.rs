//! Property tests for the telemetry primitives: histogram quantile
//! soundness, count-weighted recording and trace render determinism.

use fadewich_telemetry::registry::Histogram;
use fadewich_telemetry::{Telemetry, Value};
use fadewich_testkit::prop;
use fadewich_testkit::property;

property! {
    // Quantiles are monotone in `q`, conservative (the `q`-quantile
    // bound covers at least `ceil(q·n)` samples), and `q = 1` never
    // under-reports the maximum sample.
    #[cases(64)]
    fn quantiles_are_monotone_and_cover_max(
        samples in prop::vecs(prop::u64s(0..u64::MAX / 2), 1..200)
    ) {
        let mut h = Histogram::default();
        for &s in &samples {
            h.record(s);
        }
        let max = *samples.iter().max().unwrap();
        assert!(h.quantile(1.0) >= max, "p100 {} < max {max}", h.quantile(1.0));
        let mut prev = 0;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let b = h.quantile(q);
            assert!(b >= prev, "quantile not monotone: q={q} gives {b} < {prev}");
            // Conservative: at least ceil(q*n) samples fall at or
            // below the returned bound.
            let target = ((q * samples.len() as f64).ceil() as usize).max(1);
            let covered = samples.iter().filter(|&&s| s <= b).count();
            assert!(covered >= target, "q={q}: bound {b} covers {covered} < {target}");
            prev = b;
        }
    }
}

property! {
    // Recording `(v, n)` once leaves the histogram exactly as `n`
    // single records of `v` do (buckets, count, u128 sum, min, max),
    // and `n = 0` changes nothing. Values span the whole `u64` range,
    // so `v·n` overflows `u64` and must be summed in `u128`.
    #[cases(64)]
    fn weighted_record_equals_repeated_records(
        pairs in prop::vecs((prop::u64s(0..u64::MAX), prop::u64s(0..40)), 0..30)
    ) {
        let mut weighted = Histogram::default();
        let mut single = Histogram::default();
        for &(v, n) in &pairs {
            let before = weighted.clone();
            weighted.record_n(v, n);
            if n == 0 {
                assert_eq!(weighted, before, "record_n({v}, 0) changed the histogram");
            }
            for _ in 0..n {
                single.record(v);
            }
        }
        assert_eq!(weighted, single);
    }
}

property! {
    // Re-emitting the same record sequence yields byte-identical
    // JSONL and metrics JSON — the contract the CI `cmp` gate relies
    // on.
    #[cases(32)]
    fn identical_emission_renders_identical_bytes(
        ticks in prop::vecs(prop::u64s(0..1_000_000), 1..40)
    ) {
        let run = || {
            let t = Telemetry::buffering();
            let mut open = Vec::new();
            for (i, &tick) in ticks.iter().enumerate() {
                let parent = open.last().copied();
                if i % 3 == 0 {
                    if let Some(id) = t.span_open(
                        tick,
                        "window",
                        parent,
                        &[("st", Value::F64(tick as f64 * 0.5)), ("i", Value::U64(i as u64))],
                    ) {
                        open.push(id);
                    }
                } else if i % 3 == 1 {
                    t.event(tick, "sample", parent, &[("v", Value::I64(i as i64 - 7))]);
                    t.counter_add("samples", 1);
                    t.histo_record("tick_gap", tick % 97);
                } else if let Some(id) = open.pop() {
                    t.span_close(tick, id);
                }
            }
            (t.trace_string(), t.metrics_json(false).unwrap())
        };
        let (trace_a, metrics_a) = run();
        let (trace_b, metrics_b) = run();
        assert_eq!(trace_a, trace_b);
        assert_eq!(metrics_a, metrics_b);
    }
}
