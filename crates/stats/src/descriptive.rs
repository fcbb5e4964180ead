//! Descriptive statistics over slices of `f64`.
//!
//! These are the batch (non-streaming) counterparts of
//! [`crate::rolling`]; both are unit-tested against each other.

/// Arithmetic mean. Returns `0.0` for an empty slice.
///
/// ```
/// assert_eq!(fadewich_stats::descriptive::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (divides by `n`, as the paper's feature
/// definition does). Returns `0.0` for an empty slice.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Sample variance (divides by `n − 1`). Returns `0.0` when `n < 2`.
pub fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Minimum, ignoring NaNs. Returns `None` for an empty slice.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().filter(|x| !x.is_nan()).fold(None, |acc, x| {
        Some(acc.map_or(x, |a: f64| a.min(x)))
    })
}

/// Maximum, ignoring NaNs. Returns `None` for an empty slice.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().filter(|x| !x.is_nan()).fold(None, |acc, x| {
        Some(acc.map_or(x, |a: f64| a.max(x)))
    })
}

/// Percentile with linear interpolation between order statistics
/// (the same convention as NumPy's default).
///
/// `p` is in percent, e.g. `percentile(xs, 99.0)`.
///
/// # Panics
///
/// Panics if `xs` is empty or `p` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
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

/// Median (50th percentile).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// A compact five-number-plus summary of a distribution, used when
/// rendering figure data as text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum observation.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Maximum observation.
    pub max: f64,
}

impl Summary {
    /// Computes the summary of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn of(xs: &[f64]) -> Summary {
        assert!(!xs.is_empty(), "summary of empty slice");
        Summary {
            n: xs.len(),
            mean: mean(xs),
            std_dev: std_dev(xs),
            min: min(xs).expect("non-empty"),
            p25: percentile(xs, 25.0),
            median: median(xs),
            p75: percentile(xs, 75.0),
            max: max(xs).expect("non-empty"),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} p25={:.3} med={:.3} p75={:.3} max={:.3}",
            self.n, self.mean, self.std_dev, self.min, self.p25, self.median, self.p75, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn variance_known_values() {
        // Population variance of [1..5] is 2.0.
        assert!((variance(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 2.0).abs() < 1e-12);
        // Sample variance divides by n-1 -> 2.5.
        assert!((sample_variance(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn variance_constant_is_zero() {
        assert_eq!(variance(&[3.0; 10]), 0.0);
        assert_eq!(std_dev(&[3.0; 10]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        // 99th percentile of [1..4]: rank 2.97 -> 3.97.
        assert!((percentile(&xs, 99.0) - 3.97).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[7.0], 35.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "percentile of empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn min_max_ignore_nan() {
        let xs = [f64::NAN, 2.0, -1.0];
        assert_eq!(min(&xs), Some(-1.0));
        assert_eq!(max(&xs), Some(2.0));
        assert_eq!(min(&[]), None);
    }

    #[test]
    fn summary_is_consistent() {
        let xs: Vec<f64> = (1..=9).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 9);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 9.0);
        assert!(s.p25 < s.median && s.median < s.p75);
        assert!(!format!("{s}").is_empty());
    }
}
