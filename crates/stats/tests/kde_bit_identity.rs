//! Bit identity of the Algorithm-1 refit (`GaussianKde::fit` +
//! `quantile`) against the arithmetic it replaced.
//!
//! The production KDE skips saturated erf terms, decides most bisection
//! comparisons by a certificate instead of evaluating the CDF, stops
//! bisecting at a fixed point and selects both Silverman quartiles
//! instead of sorting. Each shortcut is exact, so every threshold, CDF
//! value and bandwidth must carry the same IEEE-754 bits as the
//! unoptimized [`oracle`]: every term through the A&S erf, 80 evaluated
//! bisection steps, one sort per quartile.

use fadewich_stats::descriptive;
use fadewich_stats::kde::GaussianKde;
use fadewich_stats::rng::Rng;
use fadewich_testkit::prop::{f64s, usizes, vecs};

/// The unoptimized refit arithmetic, kept as the reference.
mod oracle {
    use std::f64::consts::SQRT_2;

    fn erf(x: f64) -> f64 {
        let sign = if x < 0.0 { -1.0 } else { 1.0 };
        let x = x.abs();
        let t = 1.0 / (1.0 + 0.3275911 * x);
        let y = 1.0
            - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
                + 0.254829592)
                * t
                * (-x * x).exp();
        sign * y
    }

    fn phi(z: f64) -> f64 {
        0.5 * (1.0 + erf(z / SQRT_2))
    }

    pub fn cdf(samples: &[f64], h: f64, x: f64) -> f64 {
        samples.iter().map(|&xi| phi((x - xi) / h)).sum::<f64>() / samples.len() as f64
    }

    pub fn quantile(samples: &[f64], h: f64, q: f64) -> f64 {
        let lo0 = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi0 = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut lo = lo0 - 10.0 * h;
        let mut hi = hi0 + 10.0 * h;
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if cdf(samples, h, mid) < q {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    fn percentile(xs: &[f64], p: f64) -> f64 {
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let rank = p / 100.0 * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let w = rank - lo as f64;
            sorted[lo] * (1.0 - w) + sorted[hi] * w
        }
    }

    pub fn silverman(samples: &[f64]) -> f64 {
        let n = samples.len() as f64;
        let sd = fadewich_stats::descriptive::std_dev(samples);
        let iqr = if samples.len() >= 4 {
            percentile(samples, 75.0) - percentile(samples, 25.0)
        } else {
            0.0
        };
        let spread = if iqr > 0.0 { sd.min(iqr / 1.34) } else { sd };
        let h = 0.9 * spread * n.powf(-0.2);
        if h > 1e-9 {
            h
        } else {
            1e-3
        }
    }
}

/// The threshold levels Algorithm 1 and the experiments use.
const LEVELS: [f64; 5] = [0.01, 0.5, 0.95, 0.99, 0.995];

/// Levels at the edges of `(0, 1)`, whose roots lie in the far tails.
const EDGE_LEVELS: [f64; 2] = [1e-6, 1.0 - 1e-6];

/// Asserts bandwidth, quantile and CDF bit identity for one sample.
fn assert_identical(label: &str, data: &[f64]) {
    let kde = GaussianKde::fit(data).expect("finite, non-empty sample");
    let h = oracle::silverman(data);
    assert_eq!(kde.bandwidth().to_bits(), h.to_bits(), "{label}: bandwidth");
    assert_kde_identical(label, &kde, data);
}

fn assert_kde_identical(label: &str, kde: &GaussianKde, data: &[f64]) {
    let h = kde.bandwidth();
    let mut probes = Vec::new();
    for &q in LEVELS.iter().chain(&EDGE_LEVELS) {
        let got = kde.quantile(q);
        let want = oracle::quantile(data, h, q);
        assert_same_bits(got, want, &format!("{label}: quantile({q})"));
        probes.push(got);
    }
    let lo = descriptive::min(data).unwrap();
    let hi = descriptive::max(data).unwrap();
    for i in 0..=64 {
        probes.push(lo - 12.0 * h + (hi - lo + 24.0 * h) * f64::from(i) / 64.0);
    }
    probes.extend([lo, hi, lo - 8.5 * h, hi + 8.5 * h, f64::INFINITY, f64::NEG_INFINITY]);
    for x in probes {
        let got = kde.cdf(x);
        let want = oracle::cdf(data, h, x);
        assert_same_bits(got, want, &format!("{label}: cdf({x})"));
    }
}

/// Bit equality, except where the oracle's value is NaN: there only
/// NaN-ness is compared, because a NaN's sign bit follows the
/// compiler's register allocation, not the arithmetic.
fn assert_same_bits(got: f64, want: f64, what: &str) {
    if want.is_nan() {
        assert!(got.is_nan(), "{what}: {got} vs NaN");
    } else {
        assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got} vs {want}");
    }
}

fn normal(seed: u64, n: usize, mu: f64, sigma: f64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.normal_with(mu, sigma)).collect()
}

fn log_normal(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| (0.4 + 0.8 * rng.normal()).exp()).collect()
}

fn skewed(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| 3.0 + rng.skew_laplace(0.2, 1.5)).collect()
}

fn with_outliers(seed: u64, n: usize) -> Vec<f64> {
    let mut data = normal(seed, n, 2.0, 0.5);
    for (i, far) in [(3, 1e3), (n / 2, -4e4), (n - 1, 1e6)] {
        data[i] = far;
    }
    data
}

/// A normal profile shaped like the paper deployment's: `s_t` is the
/// sum over 72 RSSI streams (0.5 dB quantization) of each stream's
/// standard deviation over the last 10 ticks, with a few short
/// movement bursts.
fn paper_profile(seed: u64) -> Vec<f64> {
    const STREAMS: usize = 72;
    const WINDOW: usize = 10;
    const LEN: usize = 1_500;
    let mut rng = Rng::seed_from_u64(seed);
    let sigmas: Vec<f64> = (0..STREAMS).map(|_| rng.range_f64(0.3, 1.2)).collect();
    let bases: Vec<f64> = (0..STREAMS).map(|_| rng.range_f64(-75.0, -45.0)).collect();
    let ticks = LEN + WINDOW - 1;
    let bursts: Vec<usize> = (0..4).map(|_| rng.below(ticks)).collect();
    let series: Vec<Vec<f64>> = (0..STREAMS)
        .map(|s| {
            (0..ticks)
                .map(|t| {
                    let burst = bursts.iter().any(|&b| t >= b && t < b + 8);
                    let sd = if burst { 4.0 * sigmas[s] } else { sigmas[s] };
                    ((bases[s] + rng.normal() * sd) / 0.5).round() * 0.5
                })
                .collect()
        })
        .collect();
    (0..LEN)
        .map(|t| series.iter().map(|xs| descriptive::std_dev(&xs[t..t + WINDOW])).sum())
        .collect()
}

#[test]
fn normal_samples_match_the_oracle() {
    for (seed, n) in [(1, 50), (2, 200), (3, 1_500), (4, 5_000)] {
        assert_identical(&format!("normal seed {seed} n {n}"), &normal(seed, n, 10.0, 2.0));
    }
    assert_identical("unit normal", &normal(5, 500, 0.0, 1.0));
    assert_identical("negative, narrow", &normal(6, 300, -7e3, 1e-3));
}

#[test]
fn skewed_samples_match_the_oracle() {
    for seed in 10..14 {
        assert_identical(&format!("log-normal seed {seed}"), &log_normal(seed, 1_500));
        assert_identical(&format!("skew-laplace seed {seed}"), &skewed(seed, 1_500));
    }
}

#[test]
fn degenerate_samples_match_the_oracle() {
    assert_identical("constant", &[5.0; 50]);
    assert_identical("constant 1500", &[42.25; 1_500]);
    assert_identical("zeros", &[0.0; 10]);
    assert_identical("n = 1", &[3.5]);
    assert_identical("n = 2", &[-1.0, 2.0]);
    assert_identical("n = 3", &[0.1, 0.1, 7.0]);
    assert_identical("n = 4, tied quartiles", &[1.0, 1.0, 1.0, 9.0]);
    assert_identical("two clusters", &[0.0, 0.0, 0.0, 1e4, 1e4, 1e4]);
    let mut rng = Rng::seed_from_u64(60);
    for n in 1..=3 {
        for scale in [1e-6, 1.0, 1e6] {
            let data: Vec<f64> = (0..n).map(|_| scale * rng.normal_with(3.0, 1.0)).collect();
            assert_identical(&format!("n {n}, scale {scale:e}"), &data);
        }
    }
}

#[test]
fn signed_zeros_and_duplicates_match_the_oracle() {
    // Selection may order −0.0 and +0.0 differently from the stable
    // sort. Here the sort's IQR is −0.0 and selection's +0.0, while the
    // standard deviation is positive: the bandwidth must not move.
    assert_identical("±0 quartiles, sd > 0", &[0.0, 0.0, -0.0, -0.0, 5.0]);
    assert_identical("±0 only", &[0.0, -0.0, 0.0, -0.0, -0.0, 0.0]);
    let mut rng = Rng::seed_from_u64(50);
    for n in [4, 5, 17, 100, 1_500] {
        let zeros: Vec<f64> = (0..n).map(|_| if rng.bernoulli(0.5) { 0.0 } else { -0.0 }).collect();
        assert_identical(&format!("±0, n {n}"), &zeros);
        let values = [-0.0, 0.0, 0.5, 0.5, 0.5, 2.0, 7.25];
        let dups: Vec<f64> = (0..n).map(|_| values[rng.below(values.len())]).collect();
        assert_identical(&format!("heavy duplicates, n {n}"), &dups);
    }
}

#[test]
fn far_outliers_match_the_oracle() {
    for seed in 20..24 {
        assert_identical(&format!("outliers seed {seed}"), &with_outliers(seed, 1_500));
    }
}

#[test]
fn paper_scale_profiles_match_the_oracle() {
    for seed in 30..36 {
        assert_identical(&format!("paper profile seed {seed}"), &paper_profile(seed));
    }
}

#[test]
fn explicit_bandwidths_match_the_oracle() {
    // Includes bandwidths whose saturation offset is subnormal (no
    // skip may fire) or overflows to infinity, and bandwidths where the
    // certificate must fall back: a staircase CDF at 1e-300, an
    // overflowing bracket at f64::MAX.
    let data = normal(40, 300, 1.0, 1.0);
    for h in [5e-324, 1e-310, 1e-300, 1e-9, 0.37, 1e3, 1e300, f64::MAX] {
        let kde = GaussianKde::fit_with_bandwidth(&data, h).unwrap();
        assert_kde_identical(&format!("bandwidth {h:e}"), &kde, &data);
    }
    let tiny = [0.0, 1e-323, 2e-323, 1.0];
    let kde = GaussianKde::fit_with_bandwidth(&tiny, 5e-324).unwrap();
    assert_kde_identical("subnormal data and bandwidth", &kde, &tiny);
}

fadewich_testkit::property! {
    fn random_samples_match_the_oracle(
        data in vecs(f64s(-1e4..1e4), 1..120),
        scale in f64s(-6.0..6.0),
        level in usizes(0..LEVELS.len()),
    ) {
        let scaled: Vec<f64> = data.iter().map(|x| x * 10f64.powf(scale)).collect();
        let kde = GaussianKde::fit(&scaled).unwrap();
        let q = LEVELS[level];
        assert_eq!(
            kde.quantile(q).to_bits(),
            oracle::quantile(&scaled, kde.bandwidth(), q).to_bits()
        );
        assert_eq!(kde.bandwidth().to_bits(), oracle::silverman(&scaled).to_bits());
    }
}

/// Thresholds recorded before the refit shortcuts landed. They pin the
/// arithmetic itself, not just agreement with the in-file oracle.
#[test]
fn golden_thresholds_are_unchanged() {
    let cases: [(&str, Vec<f64>, f64, u64); 6] = [
        ("normal 1500 q0.99", normal(3, 1_500, 10.0, 2.0), 0.99, 0x402d_67cd_4c89_76e6),
        ("log-normal q0.995", log_normal(10, 1_500), 0.995, 0x402c_8d78_14e4_82ce),
        ("outliers q0.95", with_outliers(20, 1_500), 0.95, 0x4006_a71d_a571_1c8c),
        ("paper profile q0.99", paper_profile(30), 0.99, 0x4064_5109_7a98_e80a),
        ("paper profile q0.995", paper_profile(31), 0.995, 0x406a_151a_b6fa_590e),
        ("constant q0.99", vec![5.0; 50], 0.99, 0x4014_0261_d681_6426),
    ];
    for (label, data, q, bits) in cases {
        let got = GaussianKde::fit(&data).unwrap().quantile(q);
        assert_eq!(got.to_bits(), bits, "{label}: {got} ({:#018x})", got.to_bits());
    }
}
