//! Per-stream sample features (paper §IV-D1).
//!
//! For a variation window `[t1, t2]`, RE builds a sample from the
//! *initial* `t∆` seconds only — the beginning of the user's path is
//! workstation-specific, while later portions converge on the shared
//! approach to the door. Per stream, three features: the window's
//! variance, the entropy of its value histogram, and its
//! autocorrelation.

use fadewich_officesim::DayTrace;
use fadewich_rfchannel::LinkId;
use fadewich_stats::{autocorr, descriptive, histogram::Histogram};

use crate::config::FadewichParams;

/// Number of features extracted per stream.
pub const FEATURES_PER_STREAM: usize = 3;

/// Feature-kind suffixes, in extraction order (matching the paper's
/// Table V naming).
pub const FEATURE_SUFFIXES: [&str; FEATURES_PER_STREAM] = ["var", "ent", "ac"];

/// Extracts the feature vector of the window-initial segment
/// `[t1, t1 + feature_window)` over the given streams. Windows
/// truncated by the end of the day use whatever samples exist
/// (minimum 2).
///
/// The result is `streams.len() × 3` values ordered
/// `[var, ent, ac]` per stream, streams in the given order.
///
/// # Panics
///
/// Panics if `t1` is out of range or a stream index is invalid.
pub fn extract_features(
    day: &DayTrace,
    streams: &[usize],
    t1_tick: usize,
    tick_hz: f64,
    params: &FadewichParams,
) -> Vec<f64> {
    assert!(t1_tick < day.n_ticks(), "window start out of range");
    let t_end = (t1_tick + params.feature_window_ticks(tick_hz)).min(day.n_ticks());
    let t_end = t_end.max(t1_tick + 2);
    let mut features = Vec::with_capacity(streams.len() * FEATURES_PER_STREAM);
    for &s in streams {
        let window = day.window(s, t1_tick, t_end.min(day.n_ticks()));
        features.push(descriptive::variance(&window));
        features.push(Histogram::of_data(&window, params.entropy_bins).entropy_bits());
        features.push(autocorr::mean_acf(&window, params.acf_max_lag));
    }
    features
}

/// Names of the features produced by [`extract_features`], in the
/// paper's `d<i>-d<j>-<kind>` convention.
pub fn feature_names(link_ids: &[LinkId], streams: &[usize]) -> Vec<String> {
    let mut names = Vec::with_capacity(streams.len() * FEATURES_PER_STREAM);
    for &s in streams {
        let stream = link_ids[s].stream_name();
        for suffix in FEATURE_SUFFIXES {
            names.push(format!("{stream}-{suffix}"));
        }
    }
    names
}

/// Extracts the same features as [`extract_features`], but from the
/// online history buffers the controller maintains instead of a
/// recorded trace: every stream of every buffer, in order (the
/// controller passes one buffer as wide as its stream set). The window
/// samples land in `win_buf` and the features are appended to a
/// cleared `out`, so once both buffers have reached steady-state
/// capacity a call performs no feature-vector or window allocation.
/// Returns `false` (leaving `out` empty) if the window has already been
/// evicted from history (the buffers are sized so this cannot happen
/// during normal operation).
pub fn extract_features_from_histories_into(
    histories: &[fadewich_stats::rolling::HistoryBuffer],
    t1_tick: u64,
    tick_hz: f64,
    params: &FadewichParams,
    win_buf: &mut Vec<f64>,
    out: &mut Vec<f64>,
) -> bool {
    out.clear();
    for h in histories {
        let t_end = (t1_tick + params.feature_window_ticks(tick_hz) as u64)
            .min(h.total_pushed())
            .max(t1_tick + 2);
        for stream in 0..h.width() {
            if !h.range_into(stream, t1_tick, t_end, win_buf) {
                out.clear();
                return false;
            }
            out.push(descriptive::variance(win_buf));
            out.push(Histogram::of_data(win_buf, params.entropy_bins).entropy_bits());
            out.push(autocorr::mean_acf(win_buf, params.acf_max_lag));
        }
    }
    true
}

/// A labeled training sample for RE.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSample {
    /// The feature vector from [`extract_features`].
    pub features: Vec<f64>,
    /// The class: `0` = `w0` (entered office), `i + 1` = left
    /// workstation `i`.
    pub label: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fadewich_stats::rng::Rng;

    fn day_with_ramp() -> DayTrace {
        // Stream 0: noisy ramp (high variance & autocorrelation);
        // stream 1: constant; stream 2: white noise.
        let mut rng = Rng::seed_from_u64(1);
        let mut day = DayTrace::with_capacity(3, 100);
        for t in 0..100 {
            day.push_row(&[
                -50.0 + t as f64 * 0.3 + rng.normal() * 0.1,
                -55.0,
                -60.0 + rng.normal(),
            ]);
        }
        day
    }

    #[test]
    fn feature_vector_shape() {
        let day = day_with_ramp();
        let f = extract_features(&day, &[0, 1, 2], 10, 5.0, &FadewichParams::default());
        assert_eq!(f.len(), 9);
        assert!(f.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn ramp_has_high_variance_and_autocorrelation() {
        let day = day_with_ramp();
        let f = extract_features(&day, &[0, 1, 2], 10, 5.0, &FadewichParams::default());
        let (var_ramp, ac_ramp) = (f[0], f[2]);
        let (var_const, ent_const, ac_const) = (f[3], f[4], f[5]);
        let ac_noise = f[8];
        assert!(var_ramp > 1.0, "ramp variance = {var_ramp}");
        assert!(ac_ramp > 0.3, "ramp autocorrelation = {ac_ramp}");
        assert_eq!(var_const, 0.0);
        assert_eq!(ent_const, 0.0);
        assert_eq!(ac_const, 0.0);
        assert!(ac_noise.abs() < 0.5);
    }

    #[test]
    fn truncated_window_at_day_end() {
        let day = day_with_ramp();
        let f = extract_features(&day, &[0], 97, 5.0, &FadewichParams::default());
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn names_follow_paper_convention() {
        let ids = vec![
            LinkId { tx: 0, rx: 1 },
            LinkId { tx: 8, rx: 1 },
        ];
        let names = feature_names(&ids, &[1, 0]);
        assert_eq!(
            names,
            vec![
                "d9-d2-var", "d9-d2-ent", "d9-d2-ac",
                "d1-d2-var", "d1-d2-ent", "d1-d2-ac",
            ]
        );
    }

    /// The allocating form of [`extract_features_from_histories_into`]:
    /// the window is copied out with `HistoryBuffer::range`. Kept as
    /// that function's test oracle.
    fn extract_features_from_histories(
        histories: &[fadewich_stats::rolling::HistoryBuffer],
        t1_tick: u64,
        tick_hz: f64,
        params: &FadewichParams,
    ) -> Option<Vec<f64>> {
        let mut features = Vec::new();
        for h in histories {
            let t_end = (t1_tick + params.feature_window_ticks(tick_hz) as u64)
                .min(h.total_pushed())
                .max(t1_tick + 2);
            for stream in 0..h.width() {
                let window = h.range(stream, t1_tick, t_end)?;
                features.push(descriptive::variance(&window));
                features.push(Histogram::of_data(&window, params.entropy_bins).entropy_bits());
                features.push(autocorr::mean_acf(&window, params.acf_max_lag));
            }
        }
        Some(features)
    }

    #[test]
    fn histories_into_matches_allocating_variant() {
        use fadewich_stats::rolling::HistoryBuffer;
        let mut rng = Rng::seed_from_u64(2);
        let params = FadewichParams::default();
        let mut histories: Vec<HistoryBuffer> = (0..3).map(|_| HistoryBuffer::new(64)).collect();
        for _ in 0..100 {
            for h in histories.iter_mut() {
                h.push(-50.0 + rng.normal());
            }
        }
        let mut win_buf = Vec::new();
        let mut out = Vec::new();
        for t1 in [40u64, 80, 98] {
            let reference = extract_features_from_histories(&histories, t1, 5.0, &params);
            let ok =
                extract_features_from_histories_into(&histories, t1, 5.0, &params, &mut win_buf, &mut out);
            assert!(ok);
            let reference = reference.unwrap();
            assert_eq!(out.len(), reference.len());
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // An evicted window fails the same way in both variants.
        assert!(extract_features_from_histories(&histories, 2, 5.0, &params).is_none());
        assert!(!extract_features_from_histories_into(
            &histories, 2, 5.0, &params, &mut win_buf, &mut out
        ));
        assert!(out.is_empty());
    }

    #[test]
    fn one_lockstep_buffer_extracts_what_per_stream_buffers_do() {
        // The controller's history is one width-72 buffer; the features
        // must carry the bits 72 single-stream buffers gave, including
        // after the ring wrapped and at a window cut short by the
        // newest tick.
        use fadewich_stats::rolling::HistoryBuffer;
        const N: usize = 72;
        let mut rng = Rng::seed_from_u64(3);
        let params = FadewichParams::default();
        let mut wide = HistoryBuffer::with_width(N, 90);
        let mut narrow: Vec<HistoryBuffer> = (0..N).map(|_| HistoryBuffer::new(90)).collect();
        let mut row = vec![0.0; N];
        let (mut win_buf, mut out) = (Vec::new(), Vec::new());
        let (mut narrow_win, mut narrow_out) = (Vec::new(), Vec::new());
        for tick in 0..400u64 {
            let sd = if (200..260).contains(&tick) { 4.0 } else { 0.6 };
            for x in row.iter_mut() {
                *x = -50.0 + rng.normal() * sd;
            }
            wide.push_row(&row);
            for (h, &x) in narrow.iter_mut().zip(&row) {
                h.push(x);
            }
            if tick % 7 != 0 {
                continue;
            }
            for t1 in [tick.saturating_sub(60), tick.saturating_sub(3), tick.saturating_sub(95)] {
                let ok = extract_features_from_histories_into(
                    std::slice::from_ref(&wide),
                    t1,
                    5.0,
                    &params,
                    &mut win_buf,
                    &mut out,
                );
                let want = extract_features_from_histories_into(
                    &narrow,
                    t1,
                    5.0,
                    &params,
                    &mut narrow_win,
                    &mut narrow_out,
                );
                assert_eq!(ok, want, "tick {tick} t1 {t1}");
                assert_eq!(out.len(), narrow_out.len());
                for (a, b) in out.iter().zip(&narrow_out) {
                    assert_eq!(a.to_bits(), b.to_bits(), "tick {tick} t1 {t1}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_start_panics() {
        let day = day_with_ramp();
        extract_features(&day, &[0], 100, 5.0, &FadewichParams::default());
    }
}
