//! Runtime observability: counters and per-stage latency histograms.
//!
//! Everything the engine does to keep running under loss is counted
//! here, printable as a human summary ([`RuntimeCounters::summary`])
//! and dumpable as JSON ([`RuntimeCounters::to_json`] — hand-rolled,
//! the workspace has no serde). Latencies are wall-clock and therefore
//! the one non-deterministic output of a replay; decisions and all
//! other counters are seed-reproducible.
//!
//! Timing goes through the engine's [`fadewich_telemetry::Clock`]
//! handle — this module only *stores* durations, it never reads the
//! wall clock itself (the `Instant::now()` lint in `scripts/ci.sh`
//! keeps it that way). [`RuntimeCounters::export_into`] mirrors every
//! counter into the shared telemetry registry for `--metrics-out` and
//! Prometheus exposition.

use fadewich_core::stream::ChannelKind;
use fadewich_telemetry::Telemetry;

/// Log₂-bucketed latency histogram (bucket `i` holds samples in
/// `[2^i, 2^(i+1))` microseconds; bucket 0 also takes sub-µs samples).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHisto {
    buckets: [u64; 20],
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl LatencyHisto {
    /// Records one duration in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        let us = ns / 1000;
        let idx = if us == 0 { 0 } else { (63 - us.leading_zeros()) as usize };
        self.buckets[idx.min(self.buckets.len() - 1)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        if self.count == 0 { 0 } else { (self.sum_ns / self.count as u128) as u64 }
    }

    /// Largest recorded sample in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Upper bucket bound (µs) below which `q` of samples fall —
    /// a conservative percentile read off the histogram.
    ///
    /// Samples past the top bucket saturate into it, so whenever the
    /// requested quantile lands on the histogram's final populated
    /// bucket the nominal bound is clamped up to cover the observed
    /// maximum — otherwise `quantile_us(1.0)` could sit *below*
    /// [`max_ns`](Self::max_ns).
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let max_us = self.max_ns.div_ceil(1000);
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let bound = 1u64 << (i + 1);
                return if seen == self.count { bound.max(max_us) } else { bound };
            }
        }
        max_us.max(1u64 << self.buckets.len())
    }

    fn json(&self) -> String {
        let buckets: Vec<String> = self.buckets.iter().map(|c| c.to_string()).collect();
        format!(
            "{{\"count\":{},\"mean_ns\":{},\"max_ns\":{},\"p50_us\":{},\"p99_us\":{},\"buckets\":[{}]}}",
            self.count,
            self.mean_ns(),
            self.max_ns,
            self.quantile_us(0.50),
            self.quantile_us(0.99),
            buckets.join(",")
        )
    }

    /// Mirrors the recorded samples into a wall-clock registry
    /// histogram, one call per non-empty bucket. Bucket-approximated:
    /// each log₂ bucket records its count at the bucket's lower bound,
    /// so the registry keeps the count, while its sum, min, max and
    /// quantiles are read off the bucket floors (its max is the top
    /// bucket's floor, not [`max_ns`](Self::max_ns)).
    fn export_into(&self, telemetry: &Telemetry, name: &str) {
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                telemetry.histo_record_wall(name, (1u64 << i) * 1000, c);
            }
        }
    }
}

/// The stream-health counters that are worth slicing per channel kind
/// once a deployment mixes RSSI links with other sensor modalities.
/// Each field is a channel-local share of the matching
/// [`RuntimeCounters`] total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelCounters {
    /// Frames of this channel kind accepted into the reorder buffer.
    pub frames_in: u64,
    /// Missing samples of this kind patched by hold-last-value.
    pub gap_fills: u64,
    /// Stream-ticks of this kind masked out (stale or quarantined).
    pub masked_stream_ticks: u64,
    /// Senders of this kind quarantined for silence.
    pub quarantines: u64,
    /// Quarantined senders of this kind that came back.
    pub recoveries: u64,
}

impl ChannelCounters {
    /// True when nothing of this kind was ever observed — the
    /// condition under which the summary omits the channel breakdown.
    pub fn is_empty(&self) -> bool {
        *self == ChannelCounters::default()
    }

    fn json(&self) -> String {
        format!(
            "{{\"frames_in\":{},\"gap_fills\":{},\"masked_stream_ticks\":{},\
             \"quarantines\":{},\"recoveries\":{}}}",
            self.frames_in,
            self.gap_fills,
            self.masked_stream_ticks,
            self.quarantines,
            self.recoveries
        )
    }
}

/// Everything a replay/live run counts. Fields are public so the
/// engine (and tests) can add to them directly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeCounters {
    /// Frames successfully decoded and offered to the reorder buffer.
    pub frames_in: u64,
    /// Raw bytes ingested (including rejected frames).
    pub bytes_in: u64,
    /// Byte buffers rejected for a CRC-32 mismatch.
    pub corrupt_crc: u64,
    /// Byte buffers rejected for framing damage (bad magic, bad
    /// length, truncation).
    pub corrupt_framing: u64,
    /// Well-formed frames rejected at the engine boundary: unknown
    /// sensor id or a payload that disagrees with the sensor layout.
    pub corrupt_unknown_sensor: u64,
    /// Frames for a (sensor, tick) slot that was already filled.
    pub frames_duplicate: u64,
    /// Frames that arrived after their tick had been emitted.
    pub frames_late: u64,
    /// Sequence-number regressions observed (out-of-order delivery).
    pub frames_reordered: u64,
    /// Ticks advanced through MD → RE → Controller.
    pub ticks_processed: u64,
    /// Missing samples patched by hold-last-value.
    pub gap_fills: u64,
    /// Stream-ticks masked out of `s_t` (stale or quarantined).
    pub masked_stream_ticks: u64,
    /// Sensors quarantined for silence.
    pub quarantines: u64,
    /// Quarantined sensors that came back.
    pub recoveries: u64,
    /// Frames rejected for an authentication mismatch with the engine
    /// mode: in an authenticated deployment, any v1–v3 frame and any
    /// v4 frame whose MAC does not verify; in a legacy deployment, any
    /// v4 frame (the station has no keys to verify it with).
    pub frames_unauthenticated: u64,
    /// Authenticated frames rejected by the sequence-space anti-replay
    /// window (a captured-and-replayed frame carries a *valid* MAC).
    pub frames_replayed: u64,
    /// Auth rejections beyond a sensor's per-window reject budget —
    /// the flood tail the containment layer stops attributing one by
    /// one.
    pub frames_rate_limited: u64,
    /// Sensors attack-quarantined for exceeding their reject budget.
    pub attack_quarantines: u64,
    /// Largest observed distance between ingest frontier and emission.
    pub watermark_lag_max: u64,
    /// Per-channel-kind slices of the stream-health counters, indexed
    /// by [`ChannelKind::index`]. Pure-RSSI deployments leave every
    /// non-RSSI slot empty, and the summary then omits the breakdown.
    pub channels: [ChannelCounters; ChannelKind::COUNT],
    /// Wire-decode stage latency, a 1-in-64 sample: the engine times
    /// one decode attempt in 64, so the mean and quantiles estimate
    /// per-frame decode latency and the count is the number of sampled
    /// frames, not of decoded ones. Timing every frame cost two clock
    /// reads per frame, about as much as a forged frame's CRC and MAC.
    /// The engine samples it only while telemetry is enabled.
    pub decode: LatencyHisto,
    /// Pipeline (row assembly, MD → RE → Controller) latency, one
    /// sample per drain of closed ticks: an ingest call that closes
    /// several ticks records the span from its first closed tick to
    /// its return. The engine samples it only while telemetry is
    /// enabled.
    pub step: LatencyHisto,
}

impl RuntimeCounters {
    /// Mutable access to one channel's counter slice.
    pub fn channel_mut(&mut self, kind: ChannelKind) -> &mut ChannelCounters {
        &mut self.channels[kind.index()]
    }

    /// One channel's counter slice.
    pub fn channel(&self, kind: ChannelKind) -> &ChannelCounters {
        &self.channels[kind.index()]
    }

    /// True when any non-RSSI channel has counted anything — the
    /// summary only prints the per-channel breakdown for deployments
    /// that actually mix modalities, keeping pure-RSSI stdout
    /// byte-identical to pre-fusion builds.
    pub fn has_mixed_channels(&self) -> bool {
        ChannelKind::ALL
            .iter()
            .any(|&k| k != ChannelKind::Rssi && !self.channel(k).is_empty())
    }
    /// Total rejected frames across every cause — the headline number
    /// the summary and checkpoint layers have always reported, now
    /// derived from the per-reason counters.
    pub fn frames_corrupt(&self) -> u64 {
        self.corrupt_crc + self.corrupt_framing + self.corrupt_unknown_sensor
    }

    /// True when any authentication counter is nonzero. The summary
    /// only prints the auth line for deployments that actually saw
    /// auth activity, keeping legacy-unauthenticated stdout
    /// byte-identical to pre-auth builds.
    pub fn has_auth_activity(&self) -> bool {
        self.frames_unauthenticated != 0
            || self.frames_replayed != 0
            || self.frames_rate_limited != 0
            || self.attack_quarantines != 0
    }

    /// Multi-line human-readable summary.
    pub fn summary(&self) -> String {
        format!("{}\n{}", self.deterministic_summary(), self.latency_summary())
    }

    /// The seed-deterministic counter lines of [`summary`](Self::summary)
    /// — everything except wall-clock latency. `fadewichd` prints this
    /// to stdout, keeping a `replay` and a `serve --model` of the same
    /// scenario byte-comparable (the train/serve parity gate in
    /// `scripts/ci.sh` relies on it).
    pub fn deterministic_summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "frames      in {}  corrupt {}  duplicate {}  late {}  reordered {}\n",
            self.frames_in,
            self.frames_corrupt(),
            self.frames_duplicate,
            self.frames_late,
            self.frames_reordered
        ));
        s.push_str(&format!(
            "ticks       processed {}  gap-fills {}  masked stream-ticks {}\n",
            self.ticks_processed, self.gap_fills, self.masked_stream_ticks
        ));
        s.push_str(&format!(
            "sensors     quarantines {}  recoveries {}  watermark lag max {} ticks",
            self.quarantines, self.recoveries, self.watermark_lag_max
        ));
        if self.has_auth_activity() {
            s.push_str(&format!(
                "\nauth        unauthenticated {}  replayed {}  rate-limited {}  \
                 attack-quarantines {}",
                self.frames_unauthenticated,
                self.frames_replayed,
                self.frames_rate_limited,
                self.attack_quarantines
            ));
        }
        if self.has_mixed_channels() {
            for kind in ChannelKind::ALL {
                let c = self.channel(kind);
                s.push_str(&format!(
                    "\nchannel     {:<5}  frames {}  gap-fills {}  masked {}  \
                     quarantines {}  recoveries {}",
                    kind.label(),
                    c.frames_in,
                    c.gap_fills,
                    c.masked_stream_ticks,
                    c.quarantines,
                    c.recoveries
                ));
            }
        }
        s
    }

    /// The wall-clock latency line: the only non-deterministic part of
    /// the summary. A histogram without samples (telemetry off, or
    /// nothing decoded or closed) prints `not sampled` rather than a
    /// zero latency that was never measured.
    pub fn latency_summary(&self) -> String {
        let decode = if self.decode.count() == 0 {
            "decode not sampled".to_string()
        } else {
            format!(
                "decode mean {} ns (p99 < {} us)",
                self.decode.mean_ns(),
                self.decode.quantile_us(0.99)
            )
        };
        let step = if self.step.count() == 0 {
            "step not sampled".to_string()
        } else {
            format!(
                "step mean {} ns (p99 < {} us, max {} us)",
                self.step.mean_ns(),
                self.step.quantile_us(0.99),
                self.step.max_ns() / 1000
            )
        };
        format!("latency     {decode}  {step}")
    }

    /// JSON object with every counter and both histograms. The
    /// `frames_corrupt` total is kept for dashboard compatibility,
    /// next to the per-reason breakdown.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"frames_in\":{},\"bytes_in\":{},\"frames_corrupt\":{},\"corrupt_crc\":{},\
             \"corrupt_framing\":{},\"corrupt_unknown_sensor\":{},\"frames_duplicate\":{},\
             \"frames_late\":{},\"frames_reordered\":{},\"ticks_processed\":{},\"gap_fills\":{},\
             \"masked_stream_ticks\":{},\"quarantines\":{},\"recoveries\":{},\
             \"frames_unauthenticated\":{},\"frames_replayed\":{},\"frames_rate_limited\":{},\
             \"attack_quarantines\":{},\
             \"watermark_lag_max\":{},\"channels\":{{{}}},\"decode\":{},\"step\":{}}}",
            self.frames_in,
            self.bytes_in,
            self.frames_corrupt(),
            self.corrupt_crc,
            self.corrupt_framing,
            self.corrupt_unknown_sensor,
            self.frames_duplicate,
            self.frames_late,
            self.frames_reordered,
            self.ticks_processed,
            self.gap_fills,
            self.masked_stream_ticks,
            self.quarantines,
            self.recoveries,
            self.frames_unauthenticated,
            self.frames_replayed,
            self.frames_rate_limited,
            self.attack_quarantines,
            self.watermark_lag_max,
            ChannelKind::ALL
                .iter()
                .map(|&k| format!("\"{}\":{}", k.label(), self.channel(k).json()))
                .collect::<Vec<_>>()
                .join(","),
            self.decode.json(),
            self.step.json()
        )
    }

    /// Folds every counter into the shared telemetry registry under
    /// `runtime_*` names (counters accumulate across days; the
    /// watermark lag becomes a gauge holding the worst value seen).
    pub fn export_into(&self, telemetry: &Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        for (name, v) in [
            ("runtime_frames_in", self.frames_in),
            ("runtime_bytes_in", self.bytes_in),
            ("runtime_frames_corrupt", self.frames_corrupt()),
            ("runtime_corrupt_crc", self.corrupt_crc),
            ("runtime_corrupt_framing", self.corrupt_framing),
            ("runtime_corrupt_unknown_sensor", self.corrupt_unknown_sensor),
            ("runtime_frames_duplicate", self.frames_duplicate),
            ("runtime_frames_late", self.frames_late),
            ("runtime_frames_reordered", self.frames_reordered),
            ("runtime_ticks_processed", self.ticks_processed),
            ("runtime_gap_fills", self.gap_fills),
            ("runtime_masked_stream_ticks", self.masked_stream_ticks),
            ("runtime_quarantines", self.quarantines),
            ("runtime_recoveries", self.recoveries),
        ] {
            telemetry.counter_add(name, v);
        }
        // Auth counters only exist in the registry once auth activity
        // happened — legacy runs keep their pre-auth metrics output.
        if self.has_auth_activity() {
            for (name, v) in [
                ("runtime_frames_unauthenticated", self.frames_unauthenticated),
                ("runtime_frames_replayed", self.frames_replayed),
                ("runtime_frames_rate_limited", self.frames_rate_limited),
                ("runtime_attack_quarantines", self.attack_quarantines),
            ] {
                telemetry.counter_add(name, v);
            }
        }
        for kind in ChannelKind::ALL {
            let c = self.channel(kind);
            if c.is_empty() {
                continue;
            }
            let label = kind.label();
            for (metric, v) in [
                ("frames_in", c.frames_in),
                ("gap_fills", c.gap_fills),
                ("masked_stream_ticks", c.masked_stream_ticks),
                ("quarantines", c.quarantines),
                ("recoveries", c.recoveries),
            ] {
                telemetry.counter_add(&format!("runtime_channel_{label}_{metric}"), v);
            }
        }
        let prev = telemetry
            .with_registry(|r| r.gauge("runtime_watermark_lag_max"))
            .flatten()
            .unwrap_or(0.0);
        if self.watermark_lag_max as f64 > prev {
            telemetry.gauge_set("runtime_watermark_lag_max", self.watermark_lag_max as f64);
        }
        self.decode.export_into(telemetry, "runtime_decode_ns");
        self.step.export_into(telemetry, "runtime_step_ns");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LatencyHisto::default();
        for _ in 0..99 {
            h.record_ns(1_500); // 1.5 µs → bucket 0
        }
        h.record_ns(2_000_000); // 2 ms → a high bucket
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.5), 2);
        assert!(h.quantile_us(1.0) >= 2048);
        assert_eq!(h.max_ns(), 2_000_000);
        assert!(h.mean_ns() > 1_500);
    }

    #[test]
    fn top_bucket_quantile_covers_observed_max() {
        // A sample far past the last bucket (2^25 µs ≫ the 2^20 µs
        // top-bucket bound) saturates into bucket 19; the reported
        // quantile bound must still cover it instead of under-reporting
        // the old fixed 2^20.
        let mut h = LatencyHisto::default();
        for _ in 0..9 {
            h.record_ns(1_500);
        }
        let huge_ns = (1u64 << 25) * 1000;
        h.record_ns(huge_ns);
        assert!(
            h.quantile_us(1.0) * 1000 >= h.max_ns(),
            "p100 {} us below max {} ns",
            h.quantile_us(1.0),
            h.max_ns()
        );
        assert_eq!(h.quantile_us(1.0), 1 << 25);
        // Lower quantiles are untouched by the clamp...
        assert_eq!(h.quantile_us(0.5), 2);
        // ...and quantiles stay monotone in q.
        let mut prev = 0;
        for i in 0..=10 {
            let b = h.quantile_us(i as f64 / 10.0);
            assert!(b >= prev, "not monotone at q={}", i as f64 / 10.0);
            prev = b;
        }
    }

    #[test]
    fn json_is_parseable_shape() {
        let mut c = RuntimeCounters::default();
        c.frames_in = 7;
        c.step.record_ns(10_000);
        let j = c.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"frames_in\":7"));
        assert!(j.contains("\"step\":{\"count\":1"));
        // Balanced braces, no trailing commas.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(!j.contains(",}") && !j.contains(",]"));
    }

    #[test]
    fn summary_mentions_every_headline_counter() {
        let c = RuntimeCounters::default();
        let s = c.summary();
        for needle in ["frames", "ticks", "sensors", "latency", "watermark lag"] {
            assert!(s.contains(needle), "summary missing {needle}: {s}");
        }
    }

    #[test]
    fn empty_latency_histograms_say_not_sampled() {
        let mut c = RuntimeCounters::default();
        assert_eq!(c.latency_summary(), "latency     decode not sampled  step not sampled");
        c.decode.record_ns(1_500);
        assert_eq!(
            c.latency_summary(),
            "latency     decode mean 1500 ns (p99 < 2 us)  step not sampled"
        );
        c.step.record_ns(2_500_000);
        assert_eq!(
            c.latency_summary(),
            "latency     decode mean 1500 ns (p99 < 2 us)  \
             step mean 2500000 ns (p99 < 4096 us, max 2500 us)"
        );
    }

    #[test]
    fn corrupt_split_sums_into_total() {
        let mut c = RuntimeCounters::default();
        c.corrupt_crc = 3;
        c.corrupt_framing = 2;
        c.corrupt_unknown_sensor = 1;
        assert_eq!(c.frames_corrupt(), 6);
        // The summary still reports the derived total on the same line.
        assert!(c.deterministic_summary().contains("corrupt 6"), "{}", c.deterministic_summary());
        let j = c.to_json();
        assert!(j.contains("\"frames_corrupt\":6"));
        assert!(j.contains("\"corrupt_crc\":3"));
        assert!(j.contains("\"corrupt_framing\":2"));
        assert!(j.contains("\"corrupt_unknown_sensor\":1"));
    }

    #[test]
    fn channel_breakdown_only_prints_for_mixed_deployments() {
        // Pure-RSSI runs (even busy ones) keep the exact 3-line
        // summary — the serve/replay stdout-parity gate depends on it.
        let mut c = RuntimeCounters::default();
        c.frames_in = 100;
        c.channel_mut(ChannelKind::Rssi).frames_in = 100;
        assert!(!c.has_mixed_channels());
        assert_eq!(c.deterministic_summary().lines().count(), 3);
        assert!(!c.deterministic_summary().contains("channel"));
        // One light frame flips the breakdown on, for every kind.
        c.channel_mut(ChannelKind::AmbientLight).frames_in = 1;
        assert!(c.has_mixed_channels());
        let s = c.deterministic_summary();
        assert_eq!(s.lines().count(), 3 + ChannelKind::COUNT);
        assert!(s.contains("channel     rssi   frames 100"), "{s}");
        assert!(s.contains("channel     light  frames 1"), "{s}");
    }

    #[test]
    fn auth_line_only_prints_for_authenticated_activity() {
        // Legacy runs keep the exact 3-line summary and a registry
        // without auth metrics — the serve/replay parity gates depend
        // on pre-auth output staying byte-identical.
        let mut c = RuntimeCounters::default();
        c.frames_in = 50;
        assert!(!c.has_auth_activity());
        assert_eq!(c.deterministic_summary().lines().count(), 3);
        assert!(!c.deterministic_summary().contains("auth"));
        let t = Telemetry::metrics_only();
        c.export_into(&t);
        assert!(!t.metrics_json(false).unwrap().contains("unauthenticated"));
        // One auth rejection flips the line (and the metrics) on.
        c.frames_unauthenticated = 3;
        c.frames_replayed = 2;
        c.frames_rate_limited = 1;
        c.attack_quarantines = 1;
        assert!(c.has_auth_activity());
        let s = c.deterministic_summary();
        assert_eq!(s.lines().count(), 4);
        assert!(
            s.contains("auth        unauthenticated 3  replayed 2  rate-limited 1"),
            "{s}"
        );
        assert!(s.contains("attack-quarantines 1"), "{s}");
        let j = c.to_json();
        assert!(j.contains("\"frames_unauthenticated\":3"), "{j}");
        assert!(j.contains("\"frames_replayed\":2"), "{j}");
        assert!(j.contains("\"attack_quarantines\":1"), "{j}");
        let t = Telemetry::metrics_only();
        c.export_into(&t);
        t.with_registry(|r| {
            assert_eq!(r.counter("runtime_frames_unauthenticated"), 3);
            assert_eq!(r.counter("runtime_frames_replayed"), 2);
            assert_eq!(r.counter("runtime_frames_rate_limited"), 1);
            assert_eq!(r.counter("runtime_attack_quarantines"), 1);
        });
    }

    #[test]
    fn channel_counters_appear_in_json_and_registry() {
        let mut c = RuntimeCounters::default();
        c.channel_mut(ChannelKind::Rssi).gap_fills = 4;
        c.channel_mut(ChannelKind::AmbientLight).quarantines = 2;
        let j = c.to_json();
        assert!(j.contains("\"channels\":{\"rssi\":{"), "{j}");
        assert!(j.contains("\"light\":{"), "{j}");
        assert!(j.contains("\"quarantines\":2"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        let t = Telemetry::metrics_only();
        c.export_into(&t);
        t.with_registry(|r| {
            assert_eq!(r.counter("runtime_channel_rssi_gap_fills"), 4);
            assert_eq!(r.counter("runtime_channel_light_quarantines"), 2);
        });
    }

    #[test]
    fn export_mirrors_counters_into_registry() {
        let mut c = RuntimeCounters::default();
        c.frames_in = 5;
        c.corrupt_crc = 2;
        c.watermark_lag_max = 9;
        c.step.record_ns(4_000);
        let t = Telemetry::metrics_only();
        c.export_into(&t);
        c.export_into(&t); // two days accumulate
        t.with_registry(|r| {
            assert_eq!(r.counter("runtime_frames_in"), 10);
            assert_eq!(r.counter("runtime_corrupt_crc"), 4);
            assert_eq!(r.histogram("runtime_step_ns").map(|h| h.count()), Some(2));
        });
        // The wall histograms stay out of the deterministic dump.
        assert!(!t.metrics_json(false).unwrap().contains("runtime_step_ns"));
        assert!(t.metrics_json(true).unwrap().contains("runtime_step_ns"));
        // Disabled handles are a no-op.
        c.export_into(&Telemetry::disabled());
    }

    #[test]
    fn watermark_lag_gauge_keeps_the_worst_day() {
        let t = Telemetry::metrics_only();
        for (lag, expect) in [(9, 9.0), (4, 9.0), (12, 12.0)] {
            let c = RuntimeCounters { watermark_lag_max: lag, ..Default::default() };
            c.export_into(&t);
            assert_eq!(
                t.with_registry(|r| r.gauge("runtime_watermark_lag_max")).flatten(),
                Some(expect),
                "after a day with lag {lag}"
            );
        }
    }

    /// The per-sample export the bucket export replaced: one registry
    /// record per sample, at its bucket's lower bound.
    fn export_per_sample(h: &LatencyHisto, telemetry: &Telemetry, name: &str) {
        for (i, &c) in h.buckets.iter().enumerate() {
            for _ in 0..c {
                telemetry.histo_record_wall(name, (1u64 << i) * 1000, 1);
            }
        }
    }

    #[test]
    fn bucket_export_matches_the_per_sample_oracle() {
        let mut rng = fadewich_stats::rng::Rng::seed_from_u64(0xB0C4E7);
        for case in 0..48 {
            // Two days' histograms; case 0 has an all-empty one, and
            // most leave buckets empty by drawing from a few octaves.
            let mut days = [LatencyHisto::default(), LatencyHisto::default()];
            for (d, h) in days.iter_mut().enumerate() {
                if case == 0 && d == 0 {
                    continue;
                }
                let octaves: Vec<u32> =
                    (0..1 + rng.below(4)).map(|_| rng.below(26) as u32).collect();
                for _ in 0..rng.below(400) {
                    let octave = octaves[rng.below(octaves.len())];
                    h.record_ns((1000u64 << octave) + rng.next_u64() % (1000u64 << octave));
                }
            }
            let (bucketed, oracle) = (Telemetry::metrics_only(), Telemetry::metrics_only());
            for h in &days {
                h.export_into(&bucketed, "runtime_decode_ns");
                export_per_sample(h, &oracle, "runtime_decode_ns");
            }
            assert_eq!(bucketed.metrics_json(true), oracle.metrics_json(true), "case {case}");
            assert_eq!(bucketed.prometheus_text(true), oracle.prometheus_text(true), "case {case}");
        }
        // An all-empty histogram creates no registry entry.
        let t = Telemetry::metrics_only();
        LatencyHisto::default().export_into(&t, "runtime_step_ns");
        assert_eq!(t.with_registry(|r| r.histogram("runtime_step_ns").is_none()), Some(true));
    }
}
