//! Gaussian kernel density estimation.
//!
//! MD's *normal profile* (paper §IV-C2) is the KDE-smoothed
//! distribution of the summed window standard deviations `s_t`; the
//! anomaly threshold is the `(100 − α)`-th percentile of the estimated
//! cumulative distribution `Ŝ`. [`GaussianKde`] provides the density,
//! the exact smoothed CDF (a mixture of normal CDFs), and its inverse.
//!
//! # Certified bisection
//!
//! [`GaussianKde::quantile`] bisects on `cdf(mid) < q`. Most of those
//! comparisons are *decided* by a certificate instead of evaluated, with
//! the outcome the evaluation would give, so the bisection takes the same
//! steps and returns the same bits. Two facts make that sound:
//!
//! 1. **A monotone reference.** For sample `i` let `w̃ᵢ(x)` be the
//!    argument the code computes, `fl(fl(fl(x − xᵢ)/h)/√2)`, and let
//!    `G(x) = Σᵢ Φ(w̃ᵢ(x))`, where `Φ(w) = ½(1 + erf_AS(w))` is the
//!    A&S formula evaluated in exact arithmetic on the code's f64
//!    constants (with `erf_AS(0) = +1e-9`, as the code's `x < 0.0` sign
//!    test has it). Rounding is monotone, so each `w̃ᵢ` is
//!    non-decreasing in `x`; `erf_AS` is increasing on `(0, ∞)` (see
//!    [`AS_A`]) and odd, with one upward jump at 0 (from `−1e-9` to
//!    `+1e-9`). So `G` is non-decreasing.
//! 2. **The computed sum stays close to it.** `S(x)`, the sample-order
//!    sum that `cdf` divides by `n`, satisfies `|S(x) − G(x)| ≤ B` with
//!    `B = n·ε + γₙ·n`. Each computed term is within `ε` of its
//!    `Φ(w̃ᵢ)` ([`TERM_ERROR`]; a saturated `1.0` or `0.0` too, since its
//!    `w̃ᵢ` is past ±6), and recursive summation of `n` terms in `[0, 1]`
//!    adds at most `γₙ·n`, `γₙ = nu/(1 − nu)` (Higham, *Accuracy and
//!    Stability of Numerical Algorithms*, §4.2).
//!
//! So for `x ≤ a`, `S(x) ≤ G(x) + B ≤ G(a) + B ≤ S(a) + 2B`. One exact
//! sum with `(S(a) + 2B)/n < q` proves `cdf(x) < q` for every `x ≤ a`,
//! and one with `(S(b) − 2B)/n ≥ q` proves `cdf(x) ≥ q` for every
//! `x ≥ b`. Both bounds are computed with outward rounding, and `cdf`'s
//! division rounds monotonically, so the comparison with the float `q`
//! holds after rounding too.
//!
//! The points come from a safeguarded Newton iteration on the exact
//! sum, started at the empirical `q`-quantile. It stops once a step
//! would move the sum by at most `B`; one exact sum at `x̃ − 3B/S′` and
//! one at `x̃ + 3B/S′` around the Newton root `x̃` then give `a` and `b`,
//! each kept only if it proves its own side. A non-finite bracket, a
//! zero or NaN slope, or an iteration that does not converge leaves the
//! certificate empty, and every comparison is evaluated.

use std::f64::consts::{PI, SQRT_2};
use std::sync::{Mutex, PoisonError};

/// The A&S 7.1.26 constant `p` in `t = 1/(1 + p·x)`.
const AS_P: f64 = 0.3275911;

/// The A&S 7.1.26 coefficients: for `x ≥ 0`,
/// `erf(x) ≈ 1 − R(t)·e^(−x²)` with `R(t) = a₁t + a₂t² + … + a₅t⁵`.
///
/// The approximation is increasing on `x > 0`. Its derivative is
/// `e^(−x²)·Q(t)/p` with `Q(t) = p²t²R′(t) + 2(1 − t)·R(t)/t` (substitute
/// `x = (1 − t)/(p·t)`), the degree-6 polynomial
/// `0.50966 − 1.07865t + 3.43917t² − 5.81019t³ + 5.48674t⁴ − 2.74660t⁵ +
/// 0.56953t⁶`. `Q` is at least 0.369 on `(0, 1]` (its minimum is near
/// `t ≈ 0.62`), as the test `erf_as_is_increasing` checks.
const AS_A: [f64; 5] = [0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429];

/// `ε`: how far one computed CDF term may be from `Φ(w̃)`, the exact A&S
/// value at the argument `w̃` the code computed (module docs).
///
/// Rounding by rounding, with `u = 2⁻⁵³`, `t ≤ 1` and `0 ≤ R(t) < 1`:
/// - `t = 1/(1 + p·w̃)` carries three roundings, a relative `3u`. Since
///   `|t·R′(t)| ≤ Σ i·|aᵢ| ≤ 16.3`, that moves `R(t)·e` by at most `49u`.
/// - Horner's `R(t)/t` (8 operations over `Σ|aᵢ| ≤ 4.48`), then `·t`
///   and `·e`: at most `38u`.
/// - `e = exp(fl(−w̃²))`: the argument's rounding costs `u·w̃²·e ≤ u/e`,
///   and libm's `exp` is within an ulp: at most `3u`.
/// - `1 − R·e` and `1 + erf`: at most `3u`. The sign and `½·` are exact.
///
/// In all at most `93u ≈ 1.0e-14`; `1e-13` leaves a 10× margin. A
/// saturated term's `1.0` or `0.0` is within `2.2e-17` of `Φ(w̃)`,
/// because its `|w̃| ≥ 6` (see [`ERF_SATURATION`]). The test
/// `term_error_is_within_epsilon` measures the error against a
/// double-double evaluation of the same formula.
const TERM_ERROR: f64 = 1e-13;

/// Newton iterations the certificate may spend before giving up.
///
/// From the empirical quantile, Newton converges within 6 iterations on
/// every refit of the `perfbench` workloads. It creeps instead, and the
/// cap ends it, where `q·n` falls on a flat stretch of the CDF between
/// the bulk of the profile and a cluster of movement bursts.
const NEWTON_STEPS: usize = 10;

/// From this `|x|` on, `erf` returns exactly `±1.0`.
///
/// For `x ≥ 6` the A&S tail term `P(t)·t·e^(−x²)` is at most
/// `0.28 · 0.34 · e^(−36) ≈ 2.2e-17`, below `2^-54` (half an ulp under
/// `1.0`), so `1.0 − term` rounds to `1.0` and the standard normal CDF
/// returns exactly `1.0` or `0.0`. (Numerically, saturation already
/// starts near 5.9226.)
const ERF_SATURATION: f64 = 6.0;

/// Abramowitz–Stegun 7.1.26 rational approximation of `erf`
/// (|error| ≤ 1.5e-7, ample for percentile thresholds).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + AS_P * x);
    let y = 1.0
        - ((((AS_A[4] * t + AS_A[3]) * t + AS_A[2]) * t + AS_A[1]) * t + AS_A[0])
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal CDF via `erf`.
fn phi(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / SQRT_2))
}

/// [`phi`], and the kernel `e^(−z²/2)` its `erf` computes on the way.
/// The same operations in the same order give the same value as `phi`
/// for every non-NaN `z`. `phi` and `erf` keep their own bodies so that
/// `cdf` compiles as before: a NaN's sign bit follows the machine code.
fn phi_and_gauss(z: f64) -> (f64, f64) {
    let w = z / SQRT_2;
    let sign = if w < 0.0 { -1.0 } else { 1.0 };
    let x = w.abs();
    let t = 1.0 / (1.0 + AS_P * x);
    let gauss = (-x * x).exp();
    let y =
        1.0 - ((((AS_A[4] * t + AS_A[3]) * t + AS_A[2]) * t + AS_A[1]) * t + AS_A[0]) * t * gauss;
    (0.5 * (1.0 + sign * y), gauss)
}

/// A Gaussian kernel density estimate over a sample of `f64` values.
///
/// # Examples
///
/// ```
/// use fadewich_stats::kde::GaussianKde;
///
/// let data: Vec<f64> = (0..100).map(|i| (i % 10) as f64).collect();
/// let kde = GaussianKde::fit(&data).unwrap();
/// let p99 = kde.quantile(0.99);
/// assert!(p99 > 8.0 && p99 < 12.0);
/// ```
#[derive(Debug)]
pub struct GaussianKde {
    samples: Vec<f64>,
    bandwidth: f64,
    /// Offset `|x − xi|` from which a sample's CDF term is exactly
    /// `1.0` or `0.0` (see [`ERF_SATURATION`]).
    saturated_from: f64,
    /// A copy of the samples in selection order, never summed. `fit`
    /// selects Silverman's quartiles in it and `quantile` its Newton
    /// start, so a refit allocates no third copy. Any permutation of the
    /// samples is valid, so a poisoned lock is harmless.
    scratch: Mutex<Vec<f64>>,
}

impl Clone for GaussianKde {
    fn clone(&self) -> Self {
        let scratch = self.scratch.lock().unwrap_or_else(PoisonError::into_inner).clone();
        GaussianKde {
            samples: self.samples.clone(),
            bandwidth: self.bandwidth,
            saturated_from: self.saturated_from,
            scratch: Mutex::new(scratch),
        }
    }
}

/// Error fitting a KDE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitKdeError {
    /// No samples were provided.
    Empty,
    /// Samples contained NaN or infinity.
    NonFinite,
}

impl std::fmt::Display for FitKdeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitKdeError::Empty => write!(f, "cannot fit a density to an empty sample"),
            FitKdeError::NonFinite => write!(f, "sample contains non-finite values"),
        }
    }
}

impl std::error::Error for FitKdeError {}

impl GaussianKde {
    /// Fits a KDE with Silverman's rule-of-thumb bandwidth.
    ///
    /// # Errors
    ///
    /// Returns [`FitKdeError::Empty`] for an empty sample and
    /// [`FitKdeError::NonFinite`] if any value is NaN/∞.
    pub fn fit(samples: &[f64]) -> Result<Self, FitKdeError> {
        let mut scratch = samples.to_vec();
        let bw = silverman(samples, &mut scratch)?;
        Ok(GaussianKde::new(samples, bw, scratch))
    }

    /// Fits with an explicit bandwidth.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GaussianKde::fit`]; additionally rejects a
    /// non-positive or non-finite bandwidth as [`FitKdeError::NonFinite`].
    pub fn fit_with_bandwidth(samples: &[f64], bandwidth: f64) -> Result<Self, FitKdeError> {
        if samples.is_empty() {
            return Err(FitKdeError::Empty);
        }
        if samples.iter().any(|x| !x.is_finite()) || !(bandwidth > 0.0) || !bandwidth.is_finite() {
            return Err(FitKdeError::NonFinite);
        }
        Ok(GaussianKde::new(samples, bandwidth, samples.to_vec()))
    }

    fn new(samples: &[f64], bandwidth: f64, scratch: Vec<f64>) -> Self {
        // `d ≥ k` implies `(d / h) / √2 ≥ 6`: the 1e-6 slack dwarfs the
        // roundings of `k`, `d / h` and `z / √2`. A subnormal product
        // loses that precision, so such (absurd) bandwidths never skip.
        let k = ERF_SATURATION * SQRT_2 * bandwidth * (1.0 + 1e-6);
        let saturated_from = if k.is_normal() { k } else { f64::INFINITY };
        GaussianKde {
            samples: samples.to_vec(),
            bandwidth,
            saturated_from,
            scratch: Mutex::new(scratch),
        }
    }

    /// The kernel bandwidth `h`.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the KDE has no samples (never true for a fitted KDE).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Estimated probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        let norm = 1.0 / ((self.samples.len() as f64) * h * (2.0 * PI).sqrt());
        self.samples
            .iter()
            .map(|&xi| {
                let z = (x - xi) / h;
                (-0.5 * z * z).exp()
            })
            .sum::<f64>()
            * norm
    }

    /// Estimated cumulative distribution at `x` (exact mixture CDF).
    pub fn cdf(&self, x: f64) -> f64 {
        #[cfg(test)]
        tests::EVALUATIONS.with(|count| count.set(count.get() + 1));
        let (h, k) = (self.bandwidth, self.saturated_from);
        // A saturated term adds the exact constant `phi` would return, in
        // sample order, before the divisions: the sum keeps its bits.
        self.samples
            .iter()
            .map(|&xi| {
                let d = x - xi;
                if d >= k {
                    1.0
                } else if d <= -k {
                    0.0
                } else {
                    phi(d / h)
                }
            })
            .sum::<f64>()
            / self.samples.len() as f64
    }

    /// `S(x)`, the sum of CDF terms that [`cdf`](Self::cdf) divides by
    /// `n` (the same terms in the same order, so the same value for every
    /// non-NaN `x`), and its slope `S′(x)` from the unsaturated terms.
    fn sum_and_slope(&self, x: f64) -> (f64, f64) {
        #[cfg(test)]
        tests::EVALUATIONS.with(|count| count.set(count.get() + 1));
        let (h, k) = (self.bandwidth, self.saturated_from);
        let (mut sum, mut gauss) = (0.0, 0.0);
        for &xi in &self.samples {
            let d = x - xi;
            let (term, g) = if d >= k {
                (1.0, 0.0)
            } else if d <= -k {
                (0.0, 0.0)
            } else {
                phi_and_gauss(d / h)
            };
            sum += term;
            gauss += g;
        }
        (sum, gauss / (h * (2.0 * PI).sqrt()))
    }

    /// Inverse CDF by bisection: the smallest `x` with `cdf(x) ≥ q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1)`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q < 1.0, "quantile level {q} must be in (0,1)");
        let (mut lo, mut hi) = self.bracket();
        let (below, above) = self.certificate(q, lo, hi);
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            let cdf_below_q = if mid <= below {
                true
            } else if mid >= above {
                false
            } else {
                self.cdf(mid) < q
            };
            let next = if cdf_below_q { (mid, hi) } else { (lo, mid) };
            // A step is a pure function of `(lo, hi)`: once it maps the
            // pair onto itself bit for bit, so would every later step.
            // (`mid == lo` alone is not enough: `hi` may still move.)
            if next.0.to_bits() == lo.to_bits() && next.1.to_bits() == hi.to_bits() {
                break;
            }
            (lo, hi) = next;
        }
        0.5 * (lo + hi)
    }

    /// The bisection's starting bracket: the mixture's tails extend a
    /// few bandwidths past the data.
    fn bracket(&self) -> (f64, f64) {
        let lo0 = self
            .samples
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let hi0 = self
            .samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        (lo0 - 10.0 * self.bandwidth, hi0 + 10.0 * self.bandwidth)
    }

    /// Points `(a, b)` such that `cdf(x) < q` for every `x ≤ a` and
    /// `cdf(x) ≥ q` for every `x ≥ b` (module docs). The empty
    /// certificate `(−∞, +∞)` only restates `cdf(−∞) = 0` and
    /// `cdf(+∞) = 1`.
    fn certificate(&self, q: f64, lo: f64, hi: f64) -> (f64, f64) {
        let empty = (f64::NEG_INFINITY, f64::INFINITY);
        if !(lo.is_finite() && hi.is_finite()) {
            return empty;
        }
        let n = self.samples.len() as f64;
        let bound = sum_error_bound(n);
        let target = q * n;
        let (mut left, mut right) = (lo, hi);
        let mut x = self.empirical_quantile(q);
        for _ in 0..NEWTON_STEPS {
            let (sum, slope) = self.sum_and_slope(x);
            if slope.is_nan() || slope <= 0.0 {
                return empty;
            }
            let excess = sum - target;
            let root = x - excess / slope;
            if excess.abs() <= bound {
                // One exact sum on each side of the root, kept only if it
                // proves its own side: `(S ± 2B)/n` rounded outward.
                let delta = 3.0 * bound / slope;
                let (a, b) = (root - delta, root + delta);
                let upper = |s: f64| ((s + 2.0 * bound).next_up() / n).next_up();
                let lower = |s: f64| ((s - 2.0 * bound).next_down() / n).next_down();
                let a = if upper(self.sum_and_slope(a).0) < q { a } else { empty.0 };
                let b = if lower(self.sum_and_slope(b).0) >= q { b } else { empty.1 };
                return (a, b);
            }
            if root == x {
                // One ulp of `x` moves the sum by more than `B`.
                return empty;
            }
            if excess < 0.0 {
                left = x;
            } else {
                right = x;
            }
            x = if root > left && root < right { root } else { 0.5 * (left + right) };
        }
        empty
    }

    /// The sample of rank `⌊q·(n − 1)⌋`, where Newton starts.
    fn empirical_quantile(&self, q: f64) -> f64 {
        let mut scratch = self.scratch.lock().unwrap_or_else(PoisonError::into_inner);
        let rank = (q * (scratch.len() - 1) as f64) as usize;
        *scratch.select_nth_unstable_by(rank, f64::total_cmp).1
    }
}

/// `B = n·ε + γₙ·n`, the bound on `|S(x) − G(x)|` (module docs), rounded
/// up.
fn sum_error_bound(n: f64) -> f64 {
    let nu = n * (f64::EPSILON / 2.0);
    let gamma = (nu / (1.0 - nu).next_down()).next_up();
    ((n * TERM_ERROR).next_up() + (gamma * n).next_up()).next_up()
}

/// Silverman's rule-of-thumb bandwidth `0.9 · min(σ̂, IQR/1.34) · n^(−1/5)`.
///
/// Falls back to a small positive constant for (near-)degenerate
/// samples so that a constant profile still yields a usable KDE.
///
/// # Errors
///
/// Returns [`FitKdeError::Empty`]/[`FitKdeError::NonFinite`] under the
/// same conditions as [`GaussianKde::fit`].
pub fn silverman_bandwidth(samples: &[f64]) -> Result<f64, FitKdeError> {
    silverman(samples, &mut samples.to_vec())
}

/// [`silverman_bandwidth`], selecting the quartiles in `scratch`, a copy
/// of `samples` that it reorders.
fn silverman(samples: &[f64], scratch: &mut [f64]) -> Result<f64, FitKdeError> {
    if samples.is_empty() {
        return Err(FitKdeError::Empty);
    }
    if samples.iter().any(|x| !x.is_finite()) {
        return Err(FitKdeError::NonFinite);
    }
    let n = samples.len() as f64;
    let sd = crate::descriptive::std_dev(samples);
    let iqr = if samples.len() >= 4 {
        percentile_by_selection(scratch, 75.0) - percentile_by_selection(scratch, 25.0)
    } else {
        0.0
    };
    let spread = if iqr > 0.0 { sd.min(iqr / 1.34) } else { sd };
    let h = 0.9 * spread * n.powf(-0.2);
    Ok(if h > 1e-9 { h } else { 1e-3 })
}

/// [`percentile`](crate::descriptive::percentile)`(xs, p)` by selection
/// instead of a sort; reorders `xs`.
///
/// Selection in the total order reads the same order statistics as
/// `percentile`'s stable sort, except that `−0.0` and `+0.0` may trade
/// places. That changes at most the sign of a zero result: an IQR then
/// differs only as `−0.0` against `+0.0`, which Silverman's `iqr > 0.0`
/// treats alike, so the bandwidth keeps its bits.
fn percentile_by_selection(xs: &mut [f64], p: f64) -> f64 {
    let rank = p / 100.0 * (xs.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let (_, &mut at_lo, above) = xs.select_nth_unstable_by(lo, f64::total_cmp);
    if lo == hi {
        at_lo
    } else {
        // The next order statistic is the least of those above.
        let at_hi = above
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .expect("a fractional rank leaves a sample above it");
        let w = rank - lo as f64;
        at_lo * (1.0 - w) + at_hi * w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use std::cell::Cell;

    thread_local! {
        /// Full CDF sums evaluated on this thread.
        pub(super) static EVALUATIONS: Cell<usize> = const { Cell::new(0) };
    }

    #[test]
    fn erf_reference_values() {
        // The A&S 7.1.26 approximation has ~1.5e-7 absolute error.
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779095).abs() < 1e-6);
    }

    #[test]
    fn erf_is_exactly_one_from_the_saturation_constant() {
        // The bound on `ERF_SATURATION`, checked on a 1e-4 grid up to 40
        // (past ~27.3, `e^(−x²)` underflows to zero anyway).
        let steps = 340_000;
        for i in 0..=steps {
            let x = ERF_SATURATION + (40.0 - ERF_SATURATION) * f64::from(i) / f64::from(steps);
            assert_eq!(erf(x).to_bits(), 1.0f64.to_bits(), "erf({x})");
            assert_eq!(erf(-x).to_bits(), (-1.0f64).to_bits(), "erf(-{x})");
        }
        // ...and the constant is not far below where saturation begins.
        assert!(erf(5.9) < 1.0);
    }

    #[test]
    fn saturated_terms_are_exact_at_the_offset() {
        // Right at the skip offset, the skipped term equals what `phi`
        // computes through the divisions and the erf.
        for h in [1e-300, 1e-3, 0.37, 2.0, 1e5] {
            let kde = GaussianKde::fit_with_bandwidth(&[0.0], h).unwrap();
            let k = kde.saturated_from;
            assert_eq!(phi(k / h), 1.0, "h = {h}");
            assert_eq!(phi(-k / h), 0.0, "h = {h}");
        }
    }

    #[test]
    fn pdf_integrates_to_one() {
        let mut rng = Rng::seed_from_u64(4);
        let data: Vec<f64> = (0..200).map(|_| rng.normal_with(10.0, 2.0)).collect();
        let kde = GaussianKde::fit(&data).unwrap();
        // Trapezoidal integration over a wide range.
        let (a, b, steps) = (-10.0, 30.0, 4000);
        let dx = (b - a) / steps as f64;
        let integral: f64 = (0..=steps)
            .map(|i| {
                let x = a + i as f64 * dx;
                let w = if i == 0 || i == steps { 0.5 } else { 1.0 };
                w * kde.pdf(x)
            })
            .sum::<f64>()
            * dx;
        assert!((integral - 1.0).abs() < 1e-3, "integral = {integral}");
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let data = [1.0, 2.0, 2.5, 3.0, 10.0];
        let kde = GaussianKde::fit(&data).unwrap();
        let mut prev = 0.0;
        for i in 0..200 {
            let x = -5.0 + i as f64 * 0.1;
            let c = kde.cdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c + 1e-12 >= prev, "CDF not monotone at {x}");
            prev = c;
        }
        assert!(kde.cdf(-100.0) < 1e-6);
        assert!(kde.cdf(100.0) > 1.0 - 1e-6);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let mut rng = Rng::seed_from_u64(8);
        let data: Vec<f64> = (0..500).map(|_| rng.normal_with(0.0, 1.0)).collect();
        let kde = GaussianKde::fit(&data).unwrap();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99] {
            let x = kde.quantile(q);
            assert!((kde.cdf(x) - q).abs() < 1e-9, "q = {q}");
        }
    }

    #[test]
    fn quantile_of_standard_normal_sample() {
        let mut rng = Rng::seed_from_u64(15);
        let data: Vec<f64> = (0..5000).map(|_| rng.normal()).collect();
        let kde = GaussianKde::fit(&data).unwrap();
        // True 99th percentile of N(0,1) is ~2.326.
        let q99 = kde.quantile(0.99);
        assert!((q99 - 2.326).abs() < 0.25, "q99 = {q99}");
    }

    #[test]
    fn constant_sample_still_fits() {
        let kde = GaussianKde::fit(&[5.0; 50]).unwrap();
        assert!(kde.bandwidth() > 0.0);
        let q = kde.quantile(0.99);
        assert!((q - 5.0).abs() < 0.1, "q = {q}");
    }

    #[test]
    fn fit_errors() {
        assert_eq!(GaussianKde::fit(&[]).unwrap_err(), FitKdeError::Empty);
        assert_eq!(
            GaussianKde::fit(&[1.0, f64::NAN]).unwrap_err(),
            FitKdeError::NonFinite
        );
        assert_eq!(
            GaussianKde::fit_with_bandwidth(&[1.0], 0.0).unwrap_err(),
            FitKdeError::NonFinite
        );
        assert!(!format!("{}", FitKdeError::Empty).is_empty());
    }

    #[test]
    #[should_panic(expected = "must be in (0,1)")]
    fn quantile_rejects_invalid_level() {
        GaussianKde::fit(&[1.0, 2.0]).unwrap().quantile(1.0);
    }

    #[test]
    fn erf_as_is_increasing() {
        // Q(t) = p²t²R′(t) + 2(1 − t)·R(t)/t, coefficients of t⁰..t⁶.
        let [a1, a2, a3, a4, a5] = AS_A;
        let p2 = AS_P * AS_P;
        let c = [
            2.0 * a1,
            2.0 * (a2 - a1),
            2.0 * (a3 - a2) + p2 * a1,
            2.0 * (a4 - a3) + 2.0 * p2 * a2,
            2.0 * (a5 - a4) + 3.0 * p2 * a3,
            -2.0 * a5 + 4.0 * p2 * a4,
            5.0 * p2 * a5,
        ];
        let q = |t: f64| c.iter().rev().fold(0.0, |acc, &ci| acc * t + ci);
        // The derivation: e^(−x²)·Q(t)/p against a central difference of
        // the code's erf, where rounding is far below the tolerance.
        for x in [0.05, 0.3, 0.7, 1.0, 1.6, 2.5, 3.5] {
            let t = 1.0 / (1.0 + AS_P * x);
            let derivative = (-x * x).exp() * q(t) / AS_P;
            let step = 1e-5;
            let numeric = (erf(x + step) - erf(x - step)) / (2.0 * step);
            assert!((derivative - numeric).abs() < 1e-6 * derivative, "x = {x}");
        }
        // |Q′| ≤ Σ i·|cᵢ| on [0, 1], so between grid points Q can sit at
        // most half a grid step times that below the grid minimum.
        let lipschitz: f64 = c.iter().enumerate().map(|(i, ci)| i as f64 * ci.abs()).sum();
        let steps = 100_000;
        let grid_min = (1..=steps)
            .map(|j| q(f64::from(j) / f64::from(steps)))
            .fold(f64::INFINITY, f64::min);
        let lower_bound = grid_min - lipschitz / (2.0 * f64::from(steps));
        assert!(lower_bound > 0.369, "Q ≥ {lower_bound} on (0, 1]");
        // The jump at 0 is upward: erf(−0) = erf(+0) = +1e-9 > erf(0−).
        assert!(erf(-f64::MIN_POSITIVE) < 0.0 && erf(-0.0) > 0.0 && erf(0.0) > 0.0);
    }

    /// Double-double arithmetic (~106 bits), the reference for ε.
    #[derive(Clone, Copy)]
    struct Dd(f64, f64);

    impl Dd {
        fn of(x: f64) -> Dd {
            Dd(x, 0.0)
        }

        /// Knuth's TwoSum.
        fn two_sum(a: f64, b: f64) -> Dd {
            let s = a + b;
            let v = s - a;
            Dd(s, (a - (s - v)) + (b - v))
        }

        /// Renormalizes `a + b` with `|a| ≥ |b|`.
        fn fast_two_sum(a: f64, b: f64) -> Dd {
            let s = a + b;
            Dd(s, b - (s - a))
        }

        fn add(self, o: Dd) -> Dd {
            let s = Dd::two_sum(self.0, o.0);
            let t = Dd::two_sum(self.1, o.1);
            let s = Dd::fast_two_sum(s.0, s.1 + t.0);
            Dd::fast_two_sum(s.0, s.1 + t.1)
        }

        fn neg(self) -> Dd {
            Dd(-self.0, -self.1)
        }

        fn mul(self, o: Dd) -> Dd {
            let p = self.0 * o.0;
            let e = self.0.mul_add(o.0, -p);
            Dd::fast_two_sum(p, e + (self.0 * o.1 + self.1 * o.0))
        }

        fn div(self, o: Dd) -> Dd {
            let q1 = self.0 / o.0;
            let r = self.add(o.mul(Dd::of(q1)).neg());
            let q2 = r.0 / o.0;
            let r = r.add(o.mul(Dd::of(q2)).neg());
            let q3 = r.0 / o.0;
            Dd::fast_two_sum(q1, q2).add(Dd::of(q3))
        }

        /// `e^self` for moderate arguments: `2^k·e^r` with `|r| ≤ ln 2 / 2`
        /// and a Taylor series far past double-double precision.
        fn exp(self) -> Dd {
            let ln2 = Dd(std::f64::consts::LN_2, 2.319_046_813_846_299_6e-17);
            let k = (self.0 / ln2.0).round();
            let r = self.add(ln2.mul(Dd::of(k)).neg());
            let (mut term, mut sum) = (Dd::of(1.0), Dd::of(1.0));
            for i in 1..=24 {
                term = term.mul(r).div(Dd::of(f64::from(i)));
                sum = sum.add(term);
            }
            let scale = 2f64.powi(k as i32);
            Dd(sum.0 * scale, sum.1 * scale)
        }
    }

    /// `Φ(w) = ½(1 + erf_AS(w))` in double-double on the code's constants.
    fn phi_reference(w: f64) -> Dd {
        let x = Dd::of(w.abs());
        let t = Dd::of(1.0).div(Dd::of(1.0).add(Dd::of(AS_P).mul(x)));
        let poly = AS_A.iter().rev().fold(Dd::of(0.0), |acc, &a| acc.mul(t).add(Dd::of(a)));
        let tail = poly.mul(t).mul(x.mul(x).neg().exp());
        let erf = Dd::of(1.0).add(tail.neg());
        let erf = if w < 0.0 { erf.neg() } else { erf };
        Dd::of(1.0).add(erf).mul(Dd::of(0.5))
    }

    #[test]
    fn term_error_is_within_epsilon() {
        // Every computed term against the exact formula at the argument
        // the code computed: a dense grid across the unsaturated range
        // and a little past it, a finer one around 0, and random points.
        let mut rng = Rng::seed_from_u64(0xE5);
        let grid = (-130_000..=130_000).map(|i| f64::from(i) * 1e-4);
        let near_zero = (-2_000..=2_000).map(|i| f64::from(i) * 1e-9);
        let random = (0..20_000).map(|_| rng.range_f64(-13.0, 13.0));
        let mut worst = 0.0f64;
        for z in grid.chain(near_zero).chain(random) {
            let computed = phi(z);
            assert_eq!(phi_and_gauss(z).0.to_bits(), computed.to_bits(), "z = {z}");
            let exact = phi_reference(z / SQRT_2);
            let error = Dd::of(computed).add(exact.neg()).0.abs();
            assert!(error <= TERM_ERROR, "phi({z}): error {error:e}");
            worst = worst.max(error);
        }
        // The crude analysis is loose: the worst error measured is ~4.8e-16.
        assert!(worst < TERM_ERROR / 100.0, "worst {worst:e}");
    }

    /// A profile shaped like the paper deployment's, as in
    /// `tests/kde_bit_identity.rs`: per tick, the sum over 72 quantized
    /// RSSI streams of each stream's standard deviation over the last 10
    /// ticks, with a few short movement bursts.
    fn paper_profile(seed: u64) -> Vec<f64> {
        let (streams, window, len) = (72, 10, 1_500);
        let mut rng = Rng::seed_from_u64(seed);
        let sigmas: Vec<f64> = (0..streams).map(|_| rng.range_f64(0.3, 1.2)).collect();
        let bases: Vec<f64> = (0..streams).map(|_| rng.range_f64(-75.0, -45.0)).collect();
        let ticks = len + window - 1;
        let bursts: Vec<usize> = (0..4).map(|_| rng.below(ticks)).collect();
        let series: Vec<Vec<f64>> = (0..streams)
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
        (0..len)
            .map(|t| {
                series
                    .iter()
                    .map(|xs| crate::descriptive::std_dev(&xs[t..t + window]))
                    .sum()
            })
            .collect()
    }

    /// Replays `quantile`'s bisection with every comparison evaluated,
    /// asserting each one the certificate decides; returns how many it
    /// decided.
    fn assert_certificate_agrees(kde: &GaussianKde, q: f64) -> usize {
        let (mut lo, mut hi) = kde.bracket();
        let (below, above) = kde.certificate(q, lo, hi);
        assert!(below < above, "q = {q}: ({below}, {above})");
        for x in [below, below.next_down(), above, above.next_up()] {
            if x.is_finite() {
                assert_eq!(kde.cdf(x) < q, x <= below, "q = {q}, x = {x}");
            }
        }
        let mut decided = 0;
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            let exact = kde.cdf(mid) < q;
            if mid <= below || mid >= above {
                assert_eq!(exact, mid <= below, "q = {q}, mid = {mid}");
                decided += 1;
            }
            let next = if exact { (mid, hi) } else { (lo, mid) };
            if next.0.to_bits() == lo.to_bits() && next.1.to_bits() == hi.to_bits() {
                break;
            }
            (lo, hi) = next;
        }
        decided
    }

    #[test]
    fn certified_comparisons_match_the_cdf() {
        let mut rng = Rng::seed_from_u64(0xCE27);
        let (mut fired, mut bisections) = (0, 0);
        for case in 0..240 {
            let n = [1, 2, 3, 5, 40, 300, 1_500][case % 7];
            let scale = 10f64.powf(rng.range_f64(-6.0, 6.0));
            let offset = rng.range_f64(-1e3, 1e3) * scale;
            let data: Vec<f64> = match case % 4 {
                0 => (0..n).map(|_| offset + scale * rng.normal()).collect(),
                1 => (0..n).map(|_| offset + scale * rng.skew_laplace(0.2, 1.5)).collect(),
                // Heavy duplicates: a handful of distinct values.
                2 => (0..n).map(|_| offset + scale * rng.below(4) as f64).collect(),
                _ => paper_profile(case as u64).into_iter().take(n).collect(),
            };
            let kde = GaussianKde::fit(&data).unwrap();
            for q in [rng.f64().max(1e-9), 1e-6, 1.0 - 1e-6] {
                assert_certificate_agrees(&kde, q);
            }
            fired += usize::from(assert_certificate_agrees(&kde, 0.99) > 0);
            bisections += 1;
        }
        // Not vacuous: at the threshold level the certificate fires on
        // almost every profile (it cannot where one ulp of `x` moves the
        // sum by more than `B`, as for a lone sample far from 0).
        assert!(fired * 10 >= bisections * 8, "fired on {fired} of {bisections}");
    }

    #[test]
    fn paper_refit_evaluates_the_cdf_at_most_30_times() {
        // An uncertified bisection evaluates all of the ~52 steps it takes.
        for seed in [30, 31] {
            let kde = GaussianKde::fit(&paper_profile(seed)).unwrap();
            let before = EVALUATIONS.with(Cell::get);
            kde.quantile(0.99);
            let evaluations = EVALUATIONS.with(Cell::get) - before;
            assert!(evaluations <= 30, "seed {seed}: {evaluations} CDF evaluations");
        }
    }

    #[test]
    fn certificate_falls_back_when_it_cannot_prove() {
        let data = [1.0, 2.0, 4.0, 8.0];
        // Huge bandwidth: the bracket overflows.
        let kde = GaussianKde::fit_with_bandwidth(&data, f64::MAX).unwrap();
        let (lo, hi) = kde.bracket();
        assert_eq!(kde.certificate(0.5, lo, hi), (f64::NEG_INFINITY, f64::INFINITY));
        // Tiny bandwidth: the CDF is a staircase with flat treads.
        let kde = GaussianKde::fit_with_bandwidth(&data, 1e-300).unwrap();
        let (lo, hi) = kde.bracket();
        assert_eq!(kde.certificate(0.6, lo, hi), (f64::NEG_INFINITY, f64::INFINITY));
    }

    #[test]
    fn selection_reads_the_sorted_order_statistics() {
        let mut rng = Rng::seed_from_u64(0x5E1);
        for n in 4..60 {
            // Heavy duplicates, signed zeros among them.
            let data: Vec<f64> =
                (0..n).map(|_| [-2.0, -0.0, 0.0, 0.0, 1.5, 3.0][rng.below(6)]).collect();
            for p in [0.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
                let want = crate::descriptive::percentile(&data, p);
                let got = percentile_by_selection(&mut data.clone(), p);
                // Only the sign of a zero may differ.
                assert!(
                    got.to_bits() == want.to_bits() || (got == 0.0 && want == 0.0),
                    "n = {n}, p = {p}: {got} vs {want}"
                );
            }
        }
    }
}
