//! Order statistics and the span aggregator of the traced run.

use fadewich_telemetry::Clock;

/// Nearest-rank percentile over weighted samples `(value, weight)`:
/// the smallest value whose cumulative weight reaches
/// `ceil(q * total)`. Sorts `samples` in place. `None` when the total
/// weight is zero.
///
/// # Panics
///
/// If `q` is outside `(0, 1]`.
pub fn weighted_nearest_rank(samples: &mut [(u64, u64)], q: f64) -> Option<u64> {
    assert!(q > 0.0 && q <= 1.0, "percentile {q} outside (0, 1]");
    let total: u64 = samples.iter().map(|&(_, w)| w).sum();
    if total == 0 {
        return None;
    }
    samples.sort_unstable_by_key(|&(v, _)| v);
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for &(v, w) in samples.iter() {
        seen += w;
        if seen >= rank {
            return Some(v);
        }
    }
    samples.last().map(|&(v, _)| v)
}

/// The nearest-rank `q` percentile of each consecutive window of
/// `samples` (in recording order) that holds at least `window` weight;
/// a lighter trailing remainder joins the last window. Sorts each
/// window in place. A tail percentile taken per window and then
/// summarised by the median across windows is not moved by a burst of
/// interference shorter than half the run.
pub fn windowed_nearest_rank(samples: &mut [(u64, u64)], window: u64, q: f64) -> Vec<u64> {
    let mut ends = Vec::new();
    let mut acc = 0u64;
    for (i, &(_, w)) in samples.iter().enumerate() {
        acc += w;
        if acc >= window {
            ends.push(i + 1);
            acc = 0;
        }
    }
    if acc > 0 {
        match ends.last_mut() {
            Some(last) => *last = samples.len(),
            None => ends.push(samples.len()),
        }
    }
    let mut out = Vec::with_capacity(ends.len());
    let mut start = 0;
    for end in ends {
        out.extend(weighted_nearest_rank(&mut samples[start..end], q));
        start = end;
    }
    out
}

/// Samples strictly above the nearest-rank `q` percentile of `n`
/// samples. A percentile is reported only where this is at least
/// [`MIN_BEYOND`].
pub fn samples_beyond(q: f64, n: u64) -> u64 {
    n.saturating_sub(((q * n as f64).ceil() as u64).max(1))
}

/// The fewest samples a reported percentile must have beyond it.
pub const MIN_BEYOND: u64 = 10;

/// Median of `values` (mean of the middle pair for an even count);
/// `0.0` for no values. Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The layers the traced run puts spans on. Each span of one layer has
/// the same parent layer, so aggregation per layer keeps the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One link delivery offered to the replayed office (root).
    Delivery,
    /// `Frame::decode_borrowed`.
    Decode,
    /// `FrameView::verify_mac` (authenticated offices only).
    Verify,
    /// `FrameView::to_frame`.
    ToFrame,
    /// `ReorderBuffer::push`.
    Push,
    /// `ReorderBuffer::poll` (and the end-of-stream `flush`).
    Poll,
    /// One closed tick advanced through the core layers.
    Tick,
    /// A standalone `MovementDetector` step that did not refit.
    MdStep,
    /// A standalone `MovementDetector` step that refit Algorithm 1.
    MdRefit,
    /// `Controller::step_masked` over the same closed tick; it runs
    /// its own MD and RE, which the analysis subtracts.
    Controller,
    /// Feature extraction plus `RadioEnvironment::classify` at a
    /// Rule-1 window.
    Re,
    /// Feeding the standalone RE's history buffers (duplicate work the
    /// controller also does inside its own step).
    History,
    /// `FleetRuntime::ingest` (root).
    FleetIngest,
    /// `FleetRuntime::advance` and the end-of-day finish (root).
    FleetAdvance,
    /// The serial control phase of a fleet round (root).
    Control,
    /// `StreamingEngine::snapshot`.
    Snapshot,
    /// `EngineSnapshot::encode`.
    Encode,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 17] = [
        Layer::Delivery,
        Layer::Decode,
        Layer::Verify,
        Layer::ToFrame,
        Layer::Push,
        Layer::Poll,
        Layer::Tick,
        Layer::MdStep,
        Layer::MdRefit,
        Layer::Controller,
        Layer::Re,
        Layer::History,
        Layer::FleetIngest,
        Layer::FleetAdvance,
        Layer::Control,
        Layer::Snapshot,
        Layer::Encode,
    ];

    /// The span name, after the module the call lands in.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Delivery => "delivery",
            Layer::Decode => "wire.decode",
            Layer::Verify => "auth.verify",
            Layer::ToFrame => "wire.to_frame",
            Layer::Push => "reorder.push",
            Layer::Poll => "reorder.poll",
            Layer::Tick => "tick",
            Layer::MdStep => "md.step",
            Layer::MdRefit => "md.refit",
            Layer::Controller => "controller.step",
            Layer::Re => "re.classify",
            Layer::History => "re.history",
            Layer::FleetIngest => "fleet.ingest",
            Layer::FleetAdvance => "fleet.advance",
            Layer::Control => "fleet.control",
            Layer::Snapshot => "checkpoint.snapshot",
            Layer::Encode => "checkpoint.encode",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Count, total and child time of one layer's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations of direct child spans.
    pub child_ns: u64,
    /// The parent layer of these spans, if any.
    pub parent: Option<Layer>,
}

impl LayerTotals {
    /// Span time not covered by child spans.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// An open span: its layer and start reading.
#[must_use = "close the span"]
pub struct Open {
    layer: Layer,
    start: u64,
}

/// In-memory span aggregator. Spans nest through an explicit stack;
/// each closed span adds its duration to its layer and to its parent's
/// child time. Nothing is written until the run ends.
pub struct Spans<'c> {
    clock: &'c dyn Clock,
    stack: Vec<Layer>,
    totals: [LayerTotals; Layer::ALL.len()],
}

impl<'c> Spans<'c> {
    /// An empty aggregator reading `clock`.
    pub fn new(clock: &'c dyn Clock) -> Spans<'c> {
        Spans {
            clock,
            stack: Vec::with_capacity(8),
            totals: [LayerTotals::default(); Layer::ALL.len()],
        }
    }

    /// The clock reading spans are timed with.
    pub fn now(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Opens a span that may have children.
    pub fn open(&mut self, layer: Layer) -> Open {
        self.stack.push(layer);
        Open {
            layer,
            start: self.clock.now_ns(),
        }
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// If `span` is not the innermost open span.
    pub fn close(&mut self, span: Open) {
        let end = self.clock.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(span.layer), "spans must close innermost first");
        self.record(span.layer, span.start, end);
    }

    /// Records a childless span that started at `start` and ends now,
    /// under the innermost open span. The layer may be chosen after
    /// the call returned (a step that turned out to refit).
    pub fn leaf(&mut self, layer: Layer, start: u64) {
        let end = self.clock.now_ns();
        self.record(layer, start, end);
    }

    fn record(&mut self, layer: Layer, start: u64, end: u64) {
        let dur = end.saturating_sub(start);
        let parent = self.stack.last().copied();
        let t = &mut self.totals[layer.index()];
        t.count += 1;
        t.total_ns += dur;
        t.parent = parent;
        if let Some(p) = parent {
            self.totals[p.index()].child_ns += dur;
        }
    }

    /// The aggregate of one layer.
    pub fn get(&self, layer: Layer) -> LayerTotals {
        self.totals[layer.index()]
    }

    /// Summed span time of `layer`, in nanoseconds.
    pub fn total(&self, layer: Layer) -> f64 {
        self.get(layer).total_ns as f64
    }

    /// Spans recorded for `layer`.
    pub fn count(&self, layer: Layer) -> f64 {
        self.get(layer).count as f64
    }

    /// Mean span duration of `layer` in nanoseconds, 0 without spans.
    pub fn mean(&self, layer: Layer) -> f64 {
        let count = self.count(layer);
        if count > 0.0 {
            self.total(layer) / count
        } else {
            0.0
        }
    }

    /// The aggregate as a table: layer, parent, count, total and self
    /// milliseconds, one line per layer that recorded a span.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<20} {:<16} {:>10} {:>12} {:>12}\n",
            "span", "parent", "count", "total_ms", "self_ms"
        );
        for layer in Layer::ALL {
            let t = self.get(layer);
            if t.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<20} {:<16} {:>10} {:>12.3} {:>12.3}\n",
                layer.name(),
                t.parent.map_or("-", Layer::name),
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns() as f64 / 1e6
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fadewich_telemetry::ManualClock;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        // 1..=10 unweighted: p50 is the 5th value, p90 the 9th, p100 the max.
        let mut s: Vec<(u64, u64)> = (1..=10).rev().map(|v| (v, 1)).collect();
        assert_eq!(weighted_nearest_rank(&mut s, 0.5), Some(5));
        assert_eq!(weighted_nearest_rank(&mut s, 0.9), Some(9));
        assert_eq!(weighted_nearest_rank(&mut s, 0.91), Some(10));
        assert_eq!(weighted_nearest_rank(&mut s, 1.0), Some(10));
        assert_eq!(weighted_nearest_rank(&mut s, 0.01), Some(1));
    }

    #[test]
    fn weights_count_as_repeated_samples() {
        // 7 ticks closed by a 3 ns call, 3 ticks by a 100 ns call.
        let mut w = vec![(100, 3), (3, 7)];
        let mut flat: Vec<(u64, u64)> = std::iter::repeat_n((3, 1), 7)
            .chain(std::iter::repeat_n((100, 1), 3))
            .collect();
        for q in [0.1, 0.5, 0.7, 0.71, 0.999] {
            assert_eq!(
                weighted_nearest_rank(&mut w, q),
                weighted_nearest_rank(&mut flat, q)
            );
        }
        assert_eq!(weighted_nearest_rank(&mut w, 0.7), Some(3));
        assert_eq!(weighted_nearest_rank(&mut w, 0.71), Some(100));
        assert_eq!(weighted_nearest_rank(&mut [], 0.5), None);
        assert_eq!(weighted_nearest_rank(&mut [(5, 0)], 0.5), None);
    }

    #[test]
    fn windows_split_by_weight_and_fold_the_remainder() {
        // Weights 4+6 | 3+3+4 | 2 (remainder joins the second window).
        let mut s = vec![(9, 4), (1, 6), (5, 3), (7, 3), (2, 4), (8, 2)];
        assert_eq!(windowed_nearest_rank(&mut s, 10, 1.0), vec![9, 8]);
        let mut s = vec![(9, 4), (1, 6), (5, 3), (7, 3), (2, 4), (8, 2)];
        assert_eq!(windowed_nearest_rank(&mut s, 10, 0.5), vec![1, 5]);
        // Lighter than one window: a single window over everything.
        let mut s = vec![(3, 1), (1, 1)];
        assert_eq!(windowed_nearest_rank(&mut s, 10, 1.0), vec![3]);
        assert!(windowed_nearest_rank(&mut [], 10, 0.5).is_empty());
    }

    #[test]
    fn sample_counts_gate_tail_percentiles() {
        // p99.9 needs 10 samples beyond it: 10 000 samples is the floor.
        assert_eq!(samples_beyond(0.999, 10_000), 10);
        assert_eq!(samples_beyond(0.999, 9_999), 9);
        assert_eq!(samples_beyond(0.99, 1_000), 10);
        assert_eq!(samples_beyond(0.5, 1), 0);
        assert_eq!(samples_beyond(0.5, 0), 0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn spans_split_total_into_self_and_child_time() {
        let clock = ManualClock::new();
        let mut spans = Spans::new(&clock);
        let root = spans.open(Layer::Delivery);
        clock.advance_ns(5);
        let start = spans.now();
        clock.advance_ns(20);
        spans.leaf(Layer::Decode, start);
        let tick = spans.open(Layer::Tick);
        let start = spans.now();
        clock.advance_ns(100);
        spans.leaf(Layer::MdRefit, start);
        clock.advance_ns(1);
        spans.close(tick);
        clock.advance_ns(4);
        spans.close(root);
        let d = spans.get(Layer::Delivery);
        assert_eq!(
            (d.count, d.total_ns, d.child_ns, d.self_ns()),
            (1, 130, 121, 9)
        );
        assert_eq!(spans.get(Layer::Tick).self_ns(), 1);
        assert_eq!(spans.get(Layer::MdRefit).parent, Some(Layer::Tick));
        assert_eq!(spans.get(Layer::Decode).parent, Some(Layer::Delivery));
        assert_eq!(spans.get(Layer::Delivery).parent, None);
        assert!(spans.table().contains("md.refit"));
    }
}
