//! Central metrics registry: named counters, gauges and log-linear
//! histograms, with hand-rolled Prometheus-text and JSON exposition
//! (the workspace has no serde).
//!
//! Metrics split into two determinism classes. Anything derived from
//! the logical tick stream (counters, gauges, tick-valued histograms)
//! is seed-reproducible; wall-clock latency histograms are not and
//! are registered through the `*_wall` entry points. The exposition
//! functions take `include_wall` so `--metrics-out` can emit a
//! byte-identical dump across replays while `fadewichd stats` still
//! sees the latency data from a live dump.

use std::collections::BTreeMap;

use crate::render::{escape_json, fmt_f64};

/// Exact buckets for values `0..8`; above that, four linear
/// sub-buckets per power of two (a log-linear layout, ~12% worst-case
/// relative error on quantile bounds).
const EXACT: u64 = 8;
const SUB_BITS: u32 = 2;
/// Enough buckets to index any `u64` value: exact buckets plus
/// octaves `SUB_BITS + 1 ..= 63`, each with `2^SUB_BITS` sub-buckets.
const N_BUCKETS: usize = EXACT as usize + (63 - SUB_BITS as usize) * (1 << SUB_BITS);

fn bucket_index(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() as usize; // >= 3
    let sub = ((v >> (octave as u32 - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
    EXACT as usize + (octave - SUB_BITS as usize - 1) * (1 << SUB_BITS) + sub
}

/// Inclusive upper bound of bucket `k`.
fn bucket_bound(k: usize) -> u64 {
    if k < EXACT as usize {
        return k as u64;
    }
    let rel = k - EXACT as usize;
    let octave = rel / (1 << SUB_BITS) + SUB_BITS as usize + 1;
    let sub = (rel % (1 << SUB_BITS)) as u64;
    let step = 1u64 << (octave as u32 - SUB_BITS);
    // Summed in this order the top bucket lands exactly on u64::MAX
    // without overflowing.
    (1u64 << octave) - 1 + (sub + 1) * step
}

/// A log-linear histogram over unit-agnostic `u64` samples (ticks for
/// deterministic metrics, nanoseconds for wall-clock latency).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { buckets: vec![0; N_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of value `v` at once: the same state as `n`
    /// calls of [`record`](Self::record) with `v`, and a no-op when
    /// `n` is 0.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(v)] += n;
        self.count += n;
        self.sum += u128::from(v) * u128::from(n);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 { 0 } else { self.min }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 { 0 } else { (self.sum / self.count as u128) as u64 }
    }

    /// Upper bucket bound below which at least `q` of the samples
    /// fall — a conservative quantile read off the histogram, monotone
    /// in `q` and never below the floor of the bucket holding the
    /// largest sample.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // The top populated bucket's nominal bound can sit
                // below the recorded max (values past the layout's
                // range saturate); clamp so q = 1 covers the max.
                return if seen == self.count { bucket_bound(k).max(self.max) } else { bucket_bound(k) };
            }
        }
        self.max
    }

    fn json(&self) -> String {
        let mut nonzero = Vec::new();
        for (k, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                nonzero.push(format!("[{},{}]", bucket_bound(k), c));
            }
        }
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"buckets\":[{}]}}",
            self.count,
            self.sum,
            self.min(),
            self.max,
            self.mean(),
            self.quantile(0.50),
            self.quantile(0.99),
            nonzero.join(",")
        )
    }
}

#[derive(Debug, Clone)]
struct HistoEntry {
    h: Histogram,
    /// Wall-clock histograms are excluded from deterministic dumps.
    wall: bool,
}

/// Named counters, gauges and histograms behind `BTreeMap`s, so every
/// exposition is emitted in one canonical (sorted) order.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histos: BTreeMap<String, HistoEntry>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the named counter, creating it at zero. Only the
    /// first call for a name allocates its key.
    pub fn counter_add(&mut self, name: &str, n: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Reads a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge to the latest observation. Only the first
    /// call for a name allocates its key.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Reads back a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records a sample into a deterministic (tick-domain) histogram.
    pub fn histo_record(&mut self, name: &str, v: u64) {
        self.record(name, false, v, 1);
    }

    /// Records `n` samples of `v` into a wall-clock histogram; these
    /// are excluded when the exposition is asked for deterministic
    /// output. `n = 0` records nothing and creates no entry.
    pub fn histo_record_wall(&mut self, name: &str, v: u64, n: u64) {
        if n > 0 {
            self.record(name, true, v, n);
        }
    }

    /// Reads back a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histos.get(name).map(|e| &e.h)
    }

    /// Records `n` samples of `v` into the named histogram, creating
    /// it (and allocating its key) on first use only.
    fn record(&mut self, name: &str, wall: bool, v: u64, n: u64) {
        match self.histos.get_mut(name) {
            Some(e) => e.h.record_n(v, n),
            None => {
                let mut h = Histogram::default();
                h.record_n(v, n);
                self.histos.insert(name.to_string(), HistoEntry { h, wall });
            }
        }
    }

    /// Hand-rolled JSON dump. With `include_wall = false` the output
    /// is a pure function of the logical event stream and therefore
    /// byte-identical across replays of the same seeded scenario.
    pub fn to_json(&self, include_wall: bool) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", escape_json(k), v))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", escape_json(k), fmt_f64(*v)))
            .collect();
        let histos: Vec<String> = self
            .histos
            .iter()
            .filter(|(_, e)| include_wall || !e.wall)
            .map(|(k, e)| format!("\"{}\":{}", escape_json(k), e.h.json()))
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            histos.join(",")
        )
    }

    /// Prometheus text exposition (`# TYPE` lines, cumulative
    /// histogram buckets, `_sum`/`_count` series). Same `include_wall`
    /// contract as [`to_json`](Self::to_json).
    /// Metric keys may carry a Prometheus-style label block — e.g. the
    /// fleet runtime registers `runtime_ticks_processed{office="3"}` —
    /// which is passed through verbatim; the `# TYPE` line is emitted
    /// once per *base* name, so labeled series of the same family share
    /// one declaration (`BTreeMap` order keeps a family's series
    /// adjacent).
    pub fn prometheus_text(&self, include_wall: bool) -> String {
        let mut out = String::new();
        let mut last_typed = String::new();
        for (k, v) in &self.counters {
            let (name, labels) = prom_name(k);
            if name != last_typed {
                out.push_str(&format!("# TYPE {name} counter\n"));
                last_typed = name.clone();
            }
            out.push_str(&format!("{name}{labels} {v}\n"));
        }
        last_typed.clear();
        for (k, v) in &self.gauges {
            let (name, labels) = prom_name(k);
            if name != last_typed {
                out.push_str(&format!("# TYPE {name} gauge\n"));
                last_typed = name.clone();
            }
            out.push_str(&format!("{name}{labels} {}\n", fmt_f64(*v)));
        }
        last_typed.clear();
        for (k, e) in &self.histos {
            if e.wall && !include_wall {
                continue;
            }
            let (name, labels) = prom_name(k);
            if name != last_typed {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                last_typed = name.clone();
            }
            // A histogram's extra labels join `le` inside the braces.
            let inner = labels.trim_start_matches('{').trim_end_matches('}');
            let le_prefix =
                if inner.is_empty() { String::new() } else { format!("{inner},") };
            let mut cum = 0u64;
            for (i, &c) in e.h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cum += c;
                out.push_str(&format!(
                    "{name}_bucket{{{le_prefix}le=\"{}\"}} {cum}\n",
                    bucket_bound(i)
                ));
            }
            out.push_str(&format!("{name}_bucket{{{le_prefix}le=\"+Inf\"}} {}\n", e.h.count));
            out.push_str(&format!("{name}_sum{labels} {}\n", e.h.sum));
            out.push_str(&format!("{name}_count{labels} {}\n", e.h.count));
        }
        out
    }

    /// Folds another registry into this one (counters add, gauges take
    /// the other's value, histogram buckets merge).
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            self.counter_add(k, *v);
        }
        for (k, v) in &other.gauges {
            self.gauge_set(k, *v);
        }
        for (k, e) in &other.histos {
            let mine = self
                .histos
                .entry(k.clone())
                .or_insert_with(|| HistoEntry { h: Histogram::default(), wall: e.wall });
            for (i, &c) in e.h.buckets.iter().enumerate() {
                mine.h.buckets[i] += c;
            }
            mine.h.count += e.h.count;
            mine.h.sum += e.h.sum;
            mine.h.min = mine.h.min.min(e.h.min);
            mine.h.max = mine.h.max.max(e.h.max);
        }
    }
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; everything else
/// becomes `_`.
fn sanitize_prom(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect()
}

/// Splits a registry key into a sanitized metric name and its verbatim
/// label block (`""` when unlabeled). A key with no closing `}` is
/// treated as unlabeled and fully sanitized — a stray `{` must not
/// produce invalid exposition text.
fn prom_name(key: &str) -> (String, String) {
    match key.find('{') {
        Some(open) if key.ends_with('}') => {
            (sanitize_prom(&key[..open]), key[open..].to_string())
        }
        _ => (sanitize_prom(key), String::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_are_consistent() {
        // Every value lands in a bucket whose bound covers it, and
        // bounds are strictly monotone in the bucket index.
        for v in (0..10_000u64).chain([1 << 20, (1 << 20) + 13, u64::MAX / 2, u64::MAX]) {
            let k = bucket_index(v);
            assert!(bucket_bound(k) >= v, "v={v} k={k} bound={}", bucket_bound(k));
            if k > 0 {
                assert!(bucket_bound(k - 1) < v, "v={v} below bucket {k}'s floor");
            }
        }
        for k in 1..N_BUCKETS {
            assert!(bucket_bound(k) > bucket_bound(k - 1), "bounds not monotone at {k}");
        }
    }

    #[test]
    fn quantile_covers_max_sample() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record(2);
        }
        h.record(1_000_000);
        assert_eq!(h.quantile(0.5), 2);
        assert!(h.quantile(1.0) >= 1_000_000);
        assert_eq!(h.mean(), (99 * 2 + 1_000_000) / 100);
    }

    #[test]
    fn registry_json_and_prometheus_shapes() {
        let mut r = MetricsRegistry::new();
        r.counter_add("frames_in", 3);
        r.counter_add("frames_in", 4);
        r.gauge_set("md_threshold", 1.25);
        r.histo_record("deauth_latency_ticks", 12);
        r.histo_record_wall("step_ns", 900, 1);

        let det = r.to_json(false);
        assert!(det.contains("\"frames_in\":7"), "{det}");
        assert!(det.contains("\"md_threshold\":1.25"), "{det}");
        assert!(det.contains("deauth_latency_ticks"), "{det}");
        assert!(!det.contains("step_ns"), "wall histo leaked: {det}");
        assert!(r.to_json(true).contains("step_ns"));
        assert_eq!(det.matches('{').count(), det.matches('}').count());
        assert!(!det.contains(",}") && !det.contains(",]"));

        let prom = r.prometheus_text(true);
        assert!(prom.contains("# TYPE frames_in counter"), "{prom}");
        assert!(prom.contains("# TYPE step_ns histogram"), "{prom}");
        assert!(prom.contains("step_ns_bucket{le=\"+Inf\"} 1"), "{prom}");
        assert!(!r.prometheus_text(false).contains("step_ns"));
    }

    #[test]
    fn labeled_keys_render_as_prometheus_labels() {
        // The fleet runtime registers per-office series by embedding
        // the label block in the key; one # TYPE line must cover the
        // whole family and each series keeps its labels verbatim.
        let mut r = MetricsRegistry::new();
        r.counter_add("runtime_ticks_processed{office=\"0\"}", 10);
        r.counter_add("runtime_ticks_processed{office=\"12\"}", 20);
        r.gauge_set("fleet_shard_tick_lag{shard=\"1\"}", 3.0);
        r.histo_record("deauth_latency_ticks{office=\"7\"}", 5);

        let prom = r.prometheus_text(false);
        assert_eq!(prom.matches("# TYPE runtime_ticks_processed counter").count(), 1, "{prom}");
        assert!(prom.contains("runtime_ticks_processed{office=\"0\"} 10"), "{prom}");
        assert!(prom.contains("runtime_ticks_processed{office=\"12\"} 20"), "{prom}");
        assert!(prom.contains("fleet_shard_tick_lag{shard=\"1\"} 3"), "{prom}");
        assert!(prom.contains("deauth_latency_ticks_bucket{office=\"7\",le=\""), "{prom}");
        assert!(prom.contains("deauth_latency_ticks_count{office=\"7\"} 1"), "{prom}");
        // A malformed key (unterminated brace) degrades to a sanitized
        // plain name instead of emitting invalid exposition text.
        let mut bad = MetricsRegistry::new();
        bad.counter_add("oops{office=\"3\"", 1);
        let text = bad.prometheus_text(false);
        assert!(text.contains("oops_office__3_ 1"), "{text}");
        // JSON keeps full keys untouched.
        assert!(r.to_json(false).contains("\"runtime_ticks_processed{office=\\\"0\\\"}\":10"));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.counter_add("c", 1);
        b.counter_add("c", 2);
        b.histo_record("h", 5);
        a.merge_from(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.histogram("h").unwrap().count(), 1);
    }
}
