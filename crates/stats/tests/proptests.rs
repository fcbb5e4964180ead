//! Property-based tests of the statistics substrate.

use fadewich_stats::descriptive;
use fadewich_stats::histogram::Histogram;
use fadewich_stats::kde::GaussianKde;
use fadewich_stats::metrics::DetectionCounts;
use fadewich_stats::rmi::relative_mutual_information;
use fadewich_stats::rolling::{HistoryBuffer, RollingStd, RollingStdBatch};
use fadewich_testkit::prop::{f64s, u32s, u64s, usizes, vecs, F64Range, VecStrategy};

fn finite_vec(max_len: usize) -> VecStrategy<F64Range> {
    vecs(f64s(-1e4..1e4), 1..max_len)
}

fadewich_testkit::property! {
    fn rolling_std_matches_batch(xs in finite_vec(200), cap in usizes(2..40)) {
        let mut w = RollingStd::new(cap);
        for &x in &xs {
            w.push(x);
        }
        let tail: Vec<f64> = xs.iter().rev().take(cap).rev().copied().collect();
        let batch = descriptive::std_dev(&tail);
        assert!((w.std_dev() - batch).abs() < 1e-6,
            "rolling {} vs batch {}", w.std_dev(), batch);
    }

    fn rolling_mean_matches_batch(xs in finite_vec(200), cap in usizes(2..40)) {
        let mut w = RollingStd::new(cap);
        for &x in &xs {
            w.push(x);
        }
        let tail: Vec<f64> = xs.iter().rev().take(cap).rev().copied().collect();
        assert!((w.mean() - descriptive::mean(&tail)).abs() < 1e-6);
    }

    fn percentile_is_monotone_and_bounded(
        xs in finite_vec(100),
        p1 in f64s(0.0..100.0),
        p2 in f64s(0.0..100.0),
    ) {
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let a = descriptive::percentile(&xs, lo);
        let b = descriptive::percentile(&xs, hi);
        assert!(a <= b + 1e-12);
        assert!(a >= descriptive::min(&xs).unwrap() - 1e-12);
        assert!(b <= descriptive::max(&xs).unwrap() + 1e-12);
    }

    fn variance_is_non_negative_and_shift_invariant(
        xs in finite_vec(100),
        shift in f64s(-1e3..1e3),
    ) {
        let v = descriptive::variance(&xs);
        assert!(v >= 0.0);
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        assert!((descriptive::variance(&shifted) - v).abs() < 1e-4 * (1.0 + v));
    }

    fn entropy_bounded_by_log2_bins(xs in finite_vec(200), bins in usizes(1..64)) {
        let h = Histogram::of_data(&xs, bins).entropy_bits();
        assert!(h >= 0.0);
        assert!(h <= (bins as f64).log2() + 1e-9, "H = {h} bins = {bins}");
    }

    fn kde_cdf_monotone_in_x(
        xs in finite_vec(50),
        a in f64s(-1e4..1e4),
        b in f64s(-1e4..1e4),
    ) {
        let kde = GaussianKde::fit(&xs).unwrap();
        let (lo, hi) = (a.min(b), a.max(b));
        assert!(kde.cdf(lo) <= kde.cdf(hi) + 1e-12);
        let c = kde.cdf(a);
        assert!((0.0..=1.0).contains(&c));
    }

    fn kde_quantile_round_trip(xs in finite_vec(50), q in f64s(0.01..0.99)) {
        let kde = GaussianKde::fit(&xs).unwrap();
        let x = kde.quantile(q);
        assert!((kde.cdf(x) - q).abs() < 1e-6);
    }

    fn rmi_in_unit_interval(
        xs in finite_vec(150),
        labels in vecs(usizes(0..4), 1..150),
    ) {
        let n = xs.len().min(labels.len());
        let rmi = relative_mutual_information(&xs[..n], &labels[..n], 32);
        assert!((0.0..=1.0).contains(&rmi));
    }

    fn f_measure_bounded(
        tp in usizes(0..1000),
        fp in usizes(0..1000),
        fn_ in usizes(0..1000),
    ) {
        let c = DetectionCounts::new(tp, fp, fn_);
        let f = c.f_measure();
        assert!((0.0..=1.0).contains(&f));
        // The harmonic mean never exceeds either component.
        assert!(f <= c.precision().max(c.recall()) + 1e-12);
        assert!(f <= 2.0 * c.precision().min(c.recall()) + 1e-12);
    }

    fn history_buffer_range_returns_pushed_values(
        xs in vecs(f64s(-100.0..100.0), 1..100),
        cap in usizes(1..50),
    ) {
        let mut h = HistoryBuffer::new(cap);
        for &x in &xs {
            h.push(x);
        }
        let total = xs.len() as u64;
        let retained = cap.min(xs.len()) as u64;
        let start = total - retained;
        let got = h.range(0, start, total).expect("retained range");
        assert_eq!(got, xs[start as usize..].to_vec());
        // Anything older is unavailable.
        if start > 0 {
            assert!(h.range(0, start - 1, total).is_none());
        }
    }

    fn shuffle_preserves_elements(xs in vecs(u32s(0..1000), 0..100), seed in u64s(0..1000)) {
        let mut rng = fadewich_stats::rng::Rng::seed_from_u64(seed);
        let mut shuffled = xs.clone();
        rng.shuffle(&mut shuffled);
        let mut a = xs;
        let mut b = shuffled;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}

// Differential pins for the struct-of-arrays rolling-std bank: the
// fast path must agree with the scalar reference **bit for bit**
// (`to_bits`), not merely within epsilon — the controller's `s_t`
// threshold comparisons and checkpoint round-trips depend on exact
// bit patterns. Shrinking narrows any counterexample to the minimal
// push sequence.
fadewich_testkit::property! {
    // Uniform row pushes, with occasional NaN/∞ samples exercising
    // the hold-last guard, against independently fed scalar windows.
    #[cases(96)]
    fn rolling_std_batch_rows_are_bit_identical_to_scalar(
        xs in vecs(f64s(-1e4..1e4), 1..300),
        n_streams in usizes(1..6),
        cap in usizes(2..40),
        seed in u64s(0..1 << 32),
    ) {
        let mut rng = fadewich_stats::rng::Rng::seed_from_u64(seed);
        let mut batch = RollingStdBatch::new(n_streams, cap);
        let mut scalars: Vec<RollingStd> =
            (0..n_streams).map(|_| RollingStd::new(cap)).collect();
        let mut row = vec![0.0; n_streams];
        for &x in &xs {
            for (s, slot) in row.iter_mut().enumerate() {
                *slot = match rng.below(24) {
                    0 => f64::NAN,
                    1 => f64::NEG_INFINITY,
                    _ => x + s as f64 + rng.f64(),
                };
            }
            batch.push_row(&row);
            for (w, &v) in scalars.iter_mut().zip(&row) {
                w.push(v);
            }
            for (s, w) in scalars.iter().enumerate() {
                assert_eq!(batch.std_dev(s).to_bits(), w.std_dev().to_bits());
                assert_eq!(batch.mean(s).to_bits(), w.mean().to_bits());
                assert_eq!(batch.variance(s).to_bits(), w.variance().to_bits());
                assert_eq!(batch.non_finite_count(s), w.non_finite_count());
            }
        }
        // The exported state — the checkpoint representation — agrees
        // field-for-field as well.
        let states = batch.states();
        for (s, w) in scalars.iter().enumerate() {
            assert_eq!(states[s], w.state());
        }
    }

    // Masked delivery: per-stream pushes desynchronize the streams
    // (the engine masks quarantined sensors), forcing the bank off its
    // fused fast path. Still bit-identical, and the state round-trips
    // back into a bank that continues bit-identically.
    #[cases(96)]
    fn rolling_std_batch_masked_pushes_stay_bit_identical(
        xs in vecs(f64s(-1e4..1e4), 1..300),
        n_streams in usizes(1..6),
        cap in usizes(2..40),
        seed in u64s(0..1 << 32),
    ) {
        let mut rng = fadewich_stats::rng::Rng::seed_from_u64(seed);
        let mut batch = RollingStdBatch::new(n_streams, cap);
        let mut scalars: Vec<RollingStd> =
            (0..n_streams).map(|_| RollingStd::new(cap)).collect();
        for &x in &xs {
            for s in 0..n_streams {
                if rng.below(5) == 0 {
                    continue; // masked this tick
                }
                let v = if rng.below(31) == 0 { f64::NAN } else { x + s as f64 + rng.f64() };
                batch.push_one(s, v);
                scalars[s].push(v);
            }
            for (s, w) in scalars.iter().enumerate() {
                assert_eq!(batch.std_dev(s).to_bits(), w.std_dev().to_bits());
            }
        }
        let restored = RollingStdBatch::from_states(&batch.states()).unwrap();
        for (s, w) in scalars.iter_mut().enumerate() {
            assert_eq!(restored.std_dev(s).to_bits(), w.std_dev().to_bits());
        }
        let mut batch = restored;
        for i in 0..20u64 {
            let v = -60.0 + i as f64;
            for (s, w) in scalars.iter_mut().enumerate() {
                batch.push_one(s, v);
                w.push(v);
                assert_eq!(batch.std_dev(s).to_bits(), w.std_dev().to_bits());
            }
        }
    }

    // `range_into` is the allocation-free twin of `range`: identical
    // samples, identical availability verdicts, across arbitrary
    // eviction depths.
    #[cases(96)]
    fn history_range_into_matches_range(
        xs in vecs(f64s(-1e4..1e4), 1..200),
        cap in usizes(1..50),
        start in usizes(0..220),
        span in usizes(0..60),
    ) {
        let mut h = HistoryBuffer::new(cap);
        for &x in &xs {
            h.push(x);
        }
        let (start, end) = (start as u64, (start + span) as u64);
        let mut out = vec![f64::NAN; 7]; // stale garbage must be cleared
        let ok = h.range_into(0, start, end, &mut out);
        match h.range(0, start, end) {
            Some(window) => {
                assert!(ok);
                assert_eq!(out.len(), window.len());
                for (a, b) in out.iter().zip(&window) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            None => {
                assert!(!ok);
                assert!(out.is_empty());
            }
        }
    }

    // One width-n buffer is n single-stream buffers pushed in
    // lockstep: every per-stream range (retained, evicted or not yet
    // produced), `range_into` and exported state agree, across
    // wraparound and through a mid-stream restore from the per-stream
    // states.
    #[cases(96)]
    fn lockstep_history_matches_single_stream_buffers(
        xs in vecs(f64s(-1e4..1e4), 0..150),
        width in usizes(1..8),
        cap in usizes(1..40),
        seed in u64s(0..1 << 32),
    ) {
        let mut rng = fadewich_stats::rng::Rng::seed_from_u64(seed);
        let cut = rng.below(xs.len() + 1); // where the restore happens
        let mut wide = HistoryBuffer::with_width(width, cap);
        let mut narrow: Vec<HistoryBuffer> = (0..width).map(|_| HistoryBuffer::new(cap)).collect();
        let mut row = vec![0.0; width];
        let mut out = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            if i == cut {
                wide = HistoryBuffer::from_states(&wide.states()).unwrap();
            }
            for (s, slot) in row.iter_mut().enumerate() {
                *slot = x + s as f64 + rng.f64();
            }
            wide.push_row(&row);
            for (h, &v) in narrow.iter_mut().zip(&row) {
                h.push(v);
            }
            let start = rng.below(i + 3) as u64;
            let end = start + rng.below(cap + 2) as u64;
            for (s, h) in narrow.iter().enumerate() {
                let want = h.range(0, start, end);
                assert_eq!(wide.range(s, start, end), want, "stream {s}");
                assert_eq!(wide.range_into(s, start, end, &mut out), want.is_some());
                assert_eq!(out, want.unwrap_or_default());
            }
            assert_eq!(wide.len(), narrow[0].len());
            assert_eq!(wide.total_pushed(), narrow[0].total_pushed());
        }
        let states = wide.states();
        assert_eq!(states.len(), width);
        for (st, h) in states.iter().zip(&narrow) {
            assert_eq!(std::slice::from_ref(st), &h.states()[..]);
        }
    }
}
