//! Streaming (rolling-window) statistics.
//!
//! MD computes, at every tick, the standard deviation of the last `d`
//! seconds of every RSSI stream. With 72 streams at 5 Hz that is far
//! too hot a loop for recomputing from scratch, so [`RollingStd`]
//! maintains running first and second moments over a ring buffer in
//! O(1) per sample.
//!
//! Floating-point drift is kept in check by recomputing the running
//! sums from the buffer every `RECOMPUTE_EVERY` updates; a property
//! test asserts agreement with the batch formula.

/// How many pushes between full recomputations of the running sums.
const RECOMPUTE_EVERY: u64 = 4096;

/// The complete runtime state of a [`RollingStd`], exportable for
/// crash-safe checkpointing and re-importable bit-exactly.
///
/// The accumulators (`offset`, `sum`, `sum_sq`) are carried verbatim —
/// not recomputed from the samples — because a restored window must
/// produce the **same bit pattern** from `std_dev` as the original
/// would have, including any accumulated rounding. `pushes` preserves
/// the periodic-recompute phase for the same reason.
#[derive(Debug, Clone, PartialEq)]
pub struct RollingStdState {
    /// Window capacity the state was captured from.
    pub capacity: usize,
    /// Retained samples, oldest first (`≤ capacity` of them).
    pub samples: Vec<f64>,
    /// Centering offset at capture time.
    pub offset: f64,
    /// Running first moment (offset-centered) at capture time.
    pub sum: f64,
    /// Running second moment (offset-centered) at capture time.
    pub sum_sq: f64,
    /// Total samples ever pushed (drives the recompute cadence).
    pub pushes: u64,
    /// Cumulative non-finite samples replaced by hold-last-value.
    pub non_finite: u64,
}

/// Fixed-capacity rolling window maintaining mean/variance/std in O(1).
///
/// Until the window has been filled, statistics are computed over the
/// samples seen so far ([`RollingStd::is_full`] tells which regime
/// applies).
///
/// # Examples
///
/// ```
/// use fadewich_stats::rolling::RollingStd;
///
/// let mut w = RollingStd::new(3);
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     w.push(x);
/// }
/// // Window now holds [2, 3, 4]; population std of that is sqrt(2/3).
/// assert!((w.std_dev() - (2.0f64 / 3.0).sqrt()).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct RollingStd {
    buf: Vec<f64>,
    capacity: usize,
    head: usize,
    len: usize,
    /// Offset subtracted from samples before accumulating, refreshed at
    /// every recompute. Keeping the accumulated values near zero avoids
    /// the catastrophic cancellation of `E[x²] − E[x]²` for streams with
    /// a large DC component (RSSI sits around −50 dBm; synthetic tests
    /// go much further).
    offset: f64,
    sum: f64,
    sum_sq: f64,
    pushes: u64,
    non_finite: u64,
}

impl RollingStd {
    /// Creates a window of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "rolling window capacity must be positive");
        RollingStd {
            buf: vec![0.0; capacity],
            capacity,
            head: 0,
            len: 0,
            offset: 0.0,
            sum: 0.0,
            sum_sq: 0.0,
            pushes: 0,
            non_finite: 0,
        }
    }

    /// Pushes a sample, evicting the oldest when full.
    ///
    /// Non-finite samples (NaN, ±∞) are replaced by the most recent
    /// finite sample (or `0.0` on an empty window) and counted in
    /// [`RollingStd::non_finite_count`]. A NaN fed into the running
    /// sums would otherwise poison `sum`/`sum_sq` — and therefore every
    /// `std_dev` — until the next periodic recompute evicted it.
    pub fn push(&mut self, x: f64) {
        let x = if x.is_finite() {
            x
        } else {
            self.non_finite += 1;
            if self.len == 0 {
                0.0
            } else {
                // Hold the last value: the newest retained sample.
                self.buf[(self.head + self.capacity - 1) % self.capacity]
            }
        };
        if self.len == 0 {
            self.offset = x;
        }
        if self.len == self.capacity {
            let old = self.buf[self.head] - self.offset;
            self.sum -= old;
            self.sum_sq -= old * old;
        } else {
            self.len += 1;
        }
        self.buf[self.head] = x;
        self.head = (self.head + 1) % self.capacity;
        let d = x - self.offset;
        self.sum += d;
        self.sum_sq += d * d;
        self.pushes += 1;
        if self.pushes % RECOMPUTE_EVERY == 0 {
            self.recompute();
        }
    }

    fn recompute(&mut self) {
        // Re-center on the current mean, then rebuild the sums exactly.
        self.offset += if self.len > 0 { self.sum / self.len as f64 } else { 0.0 };
        self.sum = 0.0;
        self.sum_sq = 0.0;
        for i in 0..self.len {
            let d = self.buf[(self.head + self.capacity - 1 - i) % self.capacity] - self.offset;
            self.sum += d;
            self.sum_sq += d * d;
        }
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window holds no samples yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the window has reached its capacity.
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Mean of the samples in the window (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.offset + self.sum / self.len as f64
        }
    }

    /// Population variance of the window (`0.0` when empty).
    ///
    /// Clamped at zero: catastrophic cancellation can otherwise yield
    /// tiny negative values for near-constant inputs.
    pub fn variance(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let n = self.len as f64;
        let m = self.sum / n;
        (self.sum_sq / n - m * m).max(0.0)
    }

    /// Population standard deviation of the window.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Copies the window contents, oldest first.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.len {
            out.push(self.buf[(self.head + self.capacity - self.len + i) % self.capacity]);
        }
        out
    }

    /// Number of non-finite samples ever pushed (each was replaced by
    /// the held value; see [`RollingStd::push`]).
    pub fn non_finite_count(&self) -> u64 {
        self.non_finite
    }

    /// Clears the window without deallocating. The non-finite counter
    /// is cumulative and survives the clear.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
        self.offset = 0.0;
        self.sum = 0.0;
        self.sum_sq = 0.0;
    }

    /// Exports the full runtime state for checkpointing.
    pub fn state(&self) -> RollingStdState {
        RollingStdState {
            capacity: self.capacity,
            samples: self.to_vec(),
            offset: self.offset,
            sum: self.sum,
            sum_sq: self.sum_sq,
            pushes: self.pushes,
            non_finite: self.non_finite,
        }
    }

    /// Rebuilds a window from an exported state. The ring layout is
    /// canonicalized (samples at indices `0..len`, head after them) —
    /// a rotation the arithmetic cannot observe — while every
    /// accumulator is restored bit-exactly, so subsequent pushes
    /// produce the same `std_dev` bits as the uninterrupted window.
    ///
    /// # Errors
    ///
    /// Returns a description when the state is internally inconsistent
    /// (zero capacity, more samples than capacity, fewer pushes than
    /// retained samples, or a non-finite sample/accumulator).
    pub fn from_state(state: &RollingStdState) -> Result<RollingStd, String> {
        if state.capacity == 0 {
            return Err("rolling window capacity must be positive".to_string());
        }
        if state.samples.len() > state.capacity {
            return Err(format!(
                "rolling window holds {} samples but capacity is {}",
                state.samples.len(),
                state.capacity
            ));
        }
        if state.pushes < state.samples.len() as u64 {
            return Err(format!(
                "rolling window claims {} pushes but retains {} samples",
                state.pushes,
                state.samples.len()
            ));
        }
        if state.samples.iter().any(|v| !v.is_finite()) {
            return Err("rolling window state contains a non-finite sample".to_string());
        }
        if !(state.offset.is_finite() && state.sum.is_finite() && state.sum_sq.is_finite()) {
            return Err("rolling window state has a non-finite accumulator".to_string());
        }
        let mut w = RollingStd::new(state.capacity);
        w.buf[..state.samples.len()].copy_from_slice(&state.samples);
        w.len = state.samples.len();
        w.head = state.samples.len() % state.capacity;
        w.offset = state.offset;
        w.sum = state.sum;
        w.sum_sq = state.sum_sq;
        w.pushes = state.pushes;
        w.non_finite = state.non_finite;
        Ok(w)
    }
}

/// A bank of rolling-std windows in struct-of-arrays layout.
///
/// MD maintains one [`RollingStd`] per RSSI stream and pushes one
/// sample into each of them every tick. With `m×(m−1)` streams that
/// loop walks `m×(m−1)` separately-allocated ring buffers and scalar
/// accumulator structs; this bank stores all the rings in one
/// stream-major buffer and all the accumulators in parallel arrays, so
/// the per-tick [`RollingStdBatch::push_row`] sweep is a branch-light
/// pass over contiguous memory the compiler can vectorize.
///
/// **Bit-identity contract:** for every stream, every operation
/// replicates [`RollingStd`]'s floating-point arithmetic op-for-op —
/// offset initialization on the first sample, eviction, the non-finite
/// hold-last guard, and the per-stream periodic recompute at the same
/// `pushes` phase. Feeding the same per-stream sample sequence into a
/// bank and into a `Vec<RollingStd>` yields bit-identical `std_dev`,
/// `mean`, and exported [`RollingStdState`]s. Differential tests in
/// `crates/stats/tests/` pin this.
///
/// Streams may advance independently (the MD masked path pushes only
/// delivered streams), so `head`/`len`/`pushes` are per-stream. A
/// uniformity flag tracks the common case where every push arrived via
/// `push_row`, enabling a fused fast path.
#[derive(Debug, Clone)]
pub struct RollingStdBatch {
    n_streams: usize,
    capacity: usize,
    /// Stream-major ring storage: stream `s` occupies
    /// `buf[s*capacity .. (s+1)*capacity]`.
    buf: Vec<f64>,
    head: Vec<usize>,
    len: Vec<usize>,
    offset: Vec<f64>,
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
    pushes: Vec<u64>,
    non_finite: Vec<u64>,
    /// True while all streams share identical head/len/pushes (no
    /// masked single-stream pushes yet), gating the fused row path.
    uniform: bool,
}

impl RollingStdBatch {
    /// Creates a bank of `n_streams` windows of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `n_streams == 0` or `capacity == 0`.
    pub fn new(n_streams: usize, capacity: usize) -> Self {
        assert!(n_streams > 0, "rolling bank needs at least one stream");
        assert!(capacity > 0, "rolling window capacity must be positive");
        RollingStdBatch {
            n_streams,
            capacity,
            buf: vec![0.0; n_streams * capacity],
            head: vec![0; n_streams],
            len: vec![0; n_streams],
            offset: vec![0.0; n_streams],
            sum: vec![0.0; n_streams],
            sum_sq: vec![0.0; n_streams],
            pushes: vec![0; n_streams],
            non_finite: vec![0; n_streams],
            uniform: true,
        }
    }

    /// Number of streams in the bank.
    pub fn n_streams(&self) -> usize {
        self.n_streams
    }

    /// Per-stream window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of samples currently held for stream `s`.
    pub fn len(&self, s: usize) -> usize {
        self.len[s]
    }

    /// Whether no stream has received a sample yet.
    pub fn is_empty(&self) -> bool {
        self.len.iter().all(|&l| l == 0)
    }

    /// Cumulative non-finite samples replaced on stream `s`.
    pub fn non_finite_count(&self, s: usize) -> u64 {
        self.non_finite[s]
    }

    /// Pushes one sample into every stream (`row[s]` → stream `s`).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != n_streams`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.n_streams, "row width must match stream count");
        // Fused path: all streams in lockstep, every window full, all
        // samples finite, and this push does not land on a recompute
        // boundary. One shared head/len/pushes update, and an inner
        // loop with no branches over contiguous stream-major slots —
        // per-stream float ops in exactly RollingStd::push's order.
        if self.uniform
            && self.len[0] == self.capacity
            && (self.pushes[0] + 1) % RECOMPUTE_EVERY != 0
            && row.iter().all(|x| x.is_finite())
        {
            let head = self.head[0];
            let cap = self.capacity;
            for (s, &x) in row.iter().enumerate() {
                let slot = s * cap + head;
                let old = self.buf[slot] - self.offset[s];
                self.sum[s] -= old;
                self.sum_sq[s] -= old * old;
                self.buf[slot] = x;
                let d = x - self.offset[s];
                self.sum[s] += d;
                self.sum_sq[s] += d * d;
            }
            let new_head = (head + 1) % cap;
            let new_pushes = self.pushes[0] + 1;
            self.head.fill(new_head);
            self.pushes.fill(new_pushes);
            return;
        }
        for (s, &x) in row.iter().enumerate() {
            self.push_scalar(s, x);
        }
    }

    /// Pushes one sample into stream `s` only (the masked-delivery
    /// path). After the first single-stream push the streams are no
    /// longer in lockstep and `push_row` takes the per-stream path.
    pub fn push_one(&mut self, s: usize, x: f64) {
        self.uniform = false;
        self.push_scalar(s, x);
    }

    /// One push into stream `s`, replicating [`RollingStd::push`]
    /// bit-for-bit.
    fn push_scalar(&mut self, s: usize, x: f64) {
        let cap = self.capacity;
        let base = s * cap;
        let x = if x.is_finite() {
            x
        } else {
            self.non_finite[s] += 1;
            if self.len[s] == 0 {
                0.0
            } else {
                self.buf[base + (self.head[s] + cap - 1) % cap]
            }
        };
        if self.len[s] == 0 {
            self.offset[s] = x;
        }
        if self.len[s] == cap {
            let old = self.buf[base + self.head[s]] - self.offset[s];
            self.sum[s] -= old;
            self.sum_sq[s] -= old * old;
        } else {
            self.len[s] += 1;
        }
        self.buf[base + self.head[s]] = x;
        self.head[s] = (self.head[s] + 1) % cap;
        let d = x - self.offset[s];
        self.sum[s] += d;
        self.sum_sq[s] += d * d;
        self.pushes[s] += 1;
        if self.pushes[s] % RECOMPUTE_EVERY == 0 {
            self.recompute(s);
        }
    }

    /// Re-centers stream `s`, replicating [`RollingStd`]'s private
    /// `recompute` (newest-to-oldest rebuild) bit-for-bit.
    fn recompute(&mut self, s: usize) {
        let cap = self.capacity;
        let base = s * cap;
        self.offset[s] += if self.len[s] > 0 { self.sum[s] / self.len[s] as f64 } else { 0.0 };
        self.sum[s] = 0.0;
        self.sum_sq[s] = 0.0;
        for i in 0..self.len[s] {
            let d = self.buf[base + (self.head[s] + cap - 1 - i) % cap] - self.offset[s];
            self.sum[s] += d;
            self.sum_sq[s] += d * d;
        }
    }

    /// Mean of stream `s`'s window (`0.0` when empty).
    pub fn mean(&self, s: usize) -> f64 {
        if self.len[s] == 0 {
            0.0
        } else {
            self.offset[s] + self.sum[s] / self.len[s] as f64
        }
    }

    /// Population variance of stream `s`'s window (`0.0` when empty),
    /// clamped at zero exactly like [`RollingStd::variance`].
    pub fn variance(&self, s: usize) -> f64 {
        if self.len[s] == 0 {
            return 0.0;
        }
        let n = self.len[s] as f64;
        let m = self.sum[s] / n;
        (self.sum_sq[s] / n - m * m).max(0.0)
    }

    /// Population standard deviation of stream `s`'s window.
    pub fn std_dev(&self, s: usize) -> f64 {
        self.variance(s).sqrt()
    }

    /// Exports every stream's state, index-aligned with the streams.
    /// Each entry is exactly what the equivalent [`RollingStd`] would
    /// export, so a bank checkpoints through the same codec.
    pub fn states(&self) -> Vec<RollingStdState> {
        (0..self.n_streams)
            .map(|s| {
                let cap = self.capacity;
                let base = s * cap;
                let mut samples = Vec::with_capacity(self.len[s]);
                for i in 0..self.len[s] {
                    samples.push(self.buf[base + (self.head[s] + cap - self.len[s] + i) % cap]);
                }
                RollingStdState {
                    capacity: cap,
                    samples,
                    offset: self.offset[s],
                    sum: self.sum[s],
                    sum_sq: self.sum_sq[s],
                    pushes: self.pushes[s],
                    non_finite: self.non_finite[s],
                }
            })
            .collect()
    }

    /// Rebuilds a bank from per-stream states (the inverse of
    /// [`RollingStdBatch::states`], validating each entry exactly like
    /// [`RollingStd::from_state`]).
    ///
    /// The restored bank takes the per-stream path until the windows
    /// are observed back in lockstep, which the arithmetic cannot
    /// distinguish from the fused path.
    ///
    /// # Errors
    ///
    /// Returns a description when `states` is empty, capacities
    /// disagree, or any entry is internally inconsistent.
    pub fn from_states(states: &[RollingStdState]) -> Result<RollingStdBatch, String> {
        if states.is_empty() {
            return Err("rolling bank needs at least one stream".to_string());
        }
        let capacity = states[0].capacity;
        if states.iter().any(|st| st.capacity != capacity) {
            return Err("rolling bank streams must share one capacity".to_string());
        }
        // Validate through the scalar restore so both paths reject the
        // same states, then transplant the canonicalized layout.
        let mut bank = RollingStdBatch::new(states.len(), capacity);
        for (s, st) in states.iter().enumerate() {
            let w = RollingStd::from_state(st)?;
            let base = s * capacity;
            bank.buf[base..base + capacity].copy_from_slice(&w.buf);
            bank.head[s] = w.head;
            bank.len[s] = w.len;
            bank.offset[s] = w.offset;
            bank.sum[s] = w.sum;
            bank.sum_sq[s] = w.sum_sq;
            bank.pushes[s] = w.pushes;
            bank.non_finite[s] = w.non_finite;
        }
        bank.uniform = bank.head.iter().all(|&h| h == bank.head[0])
            && bank.len.iter().all(|&l| l == bank.len[0])
            && bank.pushes.iter().all(|&p| p == bank.pushes[0]);
        Ok(bank)
    }
}

/// The runtime state of one stream of a [`HistoryBuffer`], exportable
/// for crash-safe checkpointing. `total` anchors the absolute indexing
/// of [`HistoryBuffer::range`], so a restored buffer answers exactly
/// the queries the original would.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryState {
    /// Buffer capacity the state was captured from.
    pub capacity: usize,
    /// Retained samples, oldest first (`≤ capacity` of them).
    pub samples: Vec<f64>,
    /// Total samples ever pushed.
    pub total: u64,
}

/// A ring buffer that keeps the most recent `capacity` rows of `width`
/// lockstep streams and can hand out arbitrary recent slices of one
/// stream by age.
///
/// RE needs, when a variation window is confirmed, the RSSI samples of
/// `[t1, t1 + t∆]` — i.e. a slice *into the past* of each stream. The
/// online pipeline keeps one buffer as wide as the stream set instead
/// of the whole trace, so a tick is one row copy. Rows are stored
/// row-major; every stream shares the ring's head, length and push
/// count, which is what lets the checkpoint form stay one
/// [`HistoryState`] per stream ([`HistoryBuffer::states`] /
/// [`HistoryBuffer::from_states`]).
#[derive(Debug, Clone)]
pub struct HistoryBuffer {
    /// Row `r` occupies `buf[r * width..(r + 1) * width]`.
    buf: Vec<f64>,
    width: usize,
    capacity: usize,
    head: usize,
    len: usize,
    /// Total number of rows ever pushed; the index of the next push.
    total: u64,
}

impl HistoryBuffer {
    /// Creates a single-stream buffer remembering the last `capacity`
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        HistoryBuffer::with_width(1, capacity)
    }

    /// Creates a buffer of `width` lockstep streams remembering the
    /// last `capacity` rows.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`, `capacity == 0` or `width × capacity`
    /// overflows `usize`.
    pub fn with_width(width: usize, capacity: usize) -> Self {
        assert!(width > 0, "history width must be positive");
        assert!(capacity > 0, "history capacity must be positive");
        let buf = vec![0.0; width.checked_mul(capacity).expect("history size overflows usize")];
        HistoryBuffer { buf, width, capacity, head: 0, len: 0, total: 0 }
    }

    /// Appends a sample to a single-stream buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is wider than one stream.
    pub fn push(&mut self, x: f64) {
        self.push_row(&[x]);
    }

    /// Appends one sample per stream.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the width.
    pub fn push_row(&mut self, row: &[f64]) {
        let start = self.head * self.width;
        self.buf[start..start + self.width].copy_from_slice(row);
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
        }
        if self.len < self.capacity {
            self.len += 1;
        }
        self.total += 1;
    }

    /// Total number of rows ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.total
    }

    /// Number of lockstep streams.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The fixed capacity (in rows) this buffer was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of rows currently retained.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ring row holding absolute index `abs` (which must be retained).
    fn row_of(&self, abs: u64) -> usize {
        let age = (self.total - 1 - abs) as usize; // 0 = newest
        (self.head + self.capacity - 1 - age) % self.capacity
    }

    /// Whether `[start, end)` is non-empty and fully retained.
    fn retains(&self, start: u64, end: u64) -> bool {
        start < end && end <= self.total && start >= self.total - self.len as u64
    }

    /// Returns `stream`'s samples with absolute indices `[start, end)`
    /// (indices count from the first push ever), or `None` when the
    /// range has already been evicted or not yet been produced.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range for a retained range.
    pub fn range(&self, stream: usize, start: u64, end: u64) -> Option<Vec<f64>> {
        if !self.retains(start, end) {
            return None;
        }
        assert!(stream < self.width, "history stream out of range");
        Some((start..end).map(|abs| self.buf[self.row_of(abs) * self.width + stream]).collect())
    }

    /// Allocation-free variant of [`HistoryBuffer::range`]: clears
    /// `out` and fills it with `stream`'s samples at absolute indices
    /// `[start, end)`. Returns `false` (leaving `out` empty) when the
    /// range is unavailable. Beyond `out`'s first growth to the window
    /// length, repeated calls do not touch the allocator.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range for a retained range.
    pub fn range_into(&self, stream: usize, start: u64, end: u64, out: &mut Vec<f64>) -> bool {
        out.clear();
        if !self.retains(start, end) {
            return false;
        }
        assert!(stream < self.width, "history stream out of range");
        let mut row = self.row_of(start);
        for _ in start..end {
            out.push(self.buf[row * self.width + stream]);
            row += 1;
            if row == self.capacity {
                row = 0;
            }
        }
        true
    }

    /// Exports the full runtime state for checkpointing: one state
    /// per stream, in stream order, each with the retained samples
    /// oldest first.
    pub fn states(&self) -> Vec<HistoryState> {
        let oldest = self.total - self.len as u64;
        (0..self.width)
            .map(|stream| HistoryState {
                capacity: self.capacity,
                samples: (oldest..self.total)
                    .map(|abs| self.buf[self.row_of(abs) * self.width + stream])
                    .collect(),
                total: self.total,
            })
            .collect()
    }

    /// Rebuilds a buffer from per-stream exported states, one stream
    /// per state (canonicalized ring layout; identical
    /// [`HistoryBuffer::range`] answers).
    ///
    /// # Errors
    ///
    /// Returns a description when the states are inconsistent: none at
    /// all, streams out of lockstep (differing capacity, sample count
    /// or push count), zero capacity, more samples than capacity, a
    /// `total` smaller than the sample count, or a partially-filled
    /// buffer claiming evictions (`total > len` is only possible once
    /// the buffer is full).
    pub fn from_states(states: &[HistoryState]) -> Result<HistoryBuffer, String> {
        let Some(first) = states.first() else {
            return Err("history needs at least one stream".to_string());
        };
        let shape = |st: &HistoryState| (st.capacity, st.samples.len(), st.total);
        let (capacity, len, total) = shape(first);
        if let Some(s) = states.iter().position(|st| shape(st) != (capacity, len, total)) {
            return Err(format!("stream {s} history is out of lockstep with stream 0"));
        }
        if capacity == 0 {
            return Err("history capacity must be positive".to_string());
        }
        if len > capacity {
            return Err(format!("history holds {len} samples but capacity is {capacity}"));
        }
        if total < len as u64 {
            return Err(format!("history claims {total} total pushes but retains {len} samples"));
        }
        if total > len as u64 && len < capacity {
            return Err("history claims evictions before filling its capacity".to_string());
        }
        let mut h = HistoryBuffer::with_width(states.len(), capacity);
        for (stream, st) in states.iter().enumerate() {
            for (row, &x) in st.samples.iter().enumerate() {
                h.buf[row * h.width + stream] = x;
            }
        }
        h.len = len;
        h.head = len % capacity;
        h.total = total;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive;
    use crate::rng::Rng;

    #[test]
    fn matches_batch_std() {
        let mut rng = Rng::seed_from_u64(1);
        let mut w = RollingStd::new(20);
        let mut all = Vec::new();
        for _ in 0..500 {
            let x = rng.normal_with(-48.0, 2.5);
            w.push(x);
            all.push(x);
            let tail: Vec<f64> = all.iter().rev().take(20).rev().copied().collect();
            assert!(
                (w.std_dev() - descriptive::std_dev(&tail)).abs() < 1e-9,
                "rolling and batch std diverged"
            );
        }
    }

    #[test]
    fn partial_window() {
        let mut w = RollingStd::new(10);
        w.push(1.0);
        w.push(3.0);
        assert_eq!(w.len(), 2);
        assert!(!w.is_full());
        assert_eq!(w.mean(), 2.0);
        assert!((w.std_dev() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_stream_zero_std() {
        let mut w = RollingStd::new(8);
        for _ in 0..100 {
            w.push(-55.5);
        }
        assert_eq!(w.std_dev(), 0.0);
    }

    #[test]
    fn to_vec_preserves_order() {
        let mut w = RollingStd::new(3);
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            w.push(x);
        }
        assert_eq!(w.to_vec(), vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn clear_resets() {
        let mut w = RollingStd::new(4);
        w.push(9.0);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
    }

    #[test]
    fn long_run_numerical_stability() {
        // Large offset + long run exercises the periodic recompute.
        let mut rng = Rng::seed_from_u64(2);
        let mut w = RollingStd::new(64);
        for _ in 0..20_000 {
            w.push(1.0e6 + rng.normal());
        }
        let batch = descriptive::std_dev(&w.to_vec());
        assert!((w.std_dev() - batch).abs() < 1e-6, "{} vs {batch}", w.std_dev());
    }

    #[test]
    fn nan_is_held_not_accumulated() {
        let mut w = RollingStd::new(4);
        w.push(1.0);
        w.push(3.0);
        w.push(f64::NAN);
        // NaN must act as hold-last-value: window is now [1, 3, 3].
        assert_eq!(w.non_finite_count(), 1);
        assert_eq!(w.to_vec(), vec![1.0, 3.0, 3.0]);
        assert!(w.std_dev().is_finite());
        let batch = descriptive::std_dev(&[1.0, 3.0, 3.0]);
        assert!((w.std_dev() - batch).abs() < 1e-12);
        // Before the guard, the poisoned sums stayed NaN until the next
        // RECOMPUTE_EVERY boundary; the very next push must be clean.
        w.push(5.0);
        assert!(w.std_dev().is_finite());
    }

    #[test]
    fn non_finite_first_sample_becomes_zero() {
        let mut w = RollingStd::new(3);
        w.push(f64::INFINITY);
        assert_eq!(w.non_finite_count(), 1);
        assert_eq!(w.to_vec(), vec![0.0]);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.std_dev(), 0.0);
    }

    #[test]
    fn infinities_and_nans_mixed_stay_finite() {
        let mut rng = Rng::seed_from_u64(3);
        let mut w = RollingStd::new(16);
        for i in 0..5000 {
            if i % 7 == 3 {
                w.push(if i % 2 == 0 { f64::NAN } else { f64::NEG_INFINITY });
            } else {
                w.push(rng.normal_with(-50.0, 2.0));
            }
            assert!(w.std_dev().is_finite(), "std went non-finite at push {i}");
        }
        // i ≡ 3 (mod 7) for i in 0..5000 → 714 non-finite pushes.
        assert_eq!(w.non_finite_count(), 714);
        let batch = descriptive::std_dev(&w.to_vec());
        assert!((w.std_dev() - batch).abs() < 1e-6);
    }

    #[test]
    fn history_range_basic() {
        let mut h = HistoryBuffer::new(5);
        for i in 0..10 {
            h.push(i as f64);
        }
        // Retains samples 5..10.
        assert_eq!(h.range(0, 5, 8), Some(vec![5.0, 6.0, 7.0]));
        assert_eq!(h.range(0, 9, 10), Some(vec![9.0]));
        // Evicted.
        assert_eq!(h.range(0, 4, 6), None);
        // Not yet produced.
        assert_eq!(h.range(0, 9, 11), None);
        // Degenerate.
        assert_eq!(h.range(0, 7, 7), None);
    }

    #[test]
    fn rolling_state_round_trip_is_bit_identical_under_continued_pushes() {
        // Checkpoint mid-stream, keep pushing into both copies: every
        // std_dev must agree to the last bit, across a recompute
        // boundary too (pushes phase is part of the state).
        let mut rng = Rng::seed_from_u64(17);
        let mut w = RollingStd::new(10);
        for _ in 0..4090 {
            w.push(1.0e5 + rng.normal_with(-48.0, 2.5));
        }
        let mut restored = RollingStd::from_state(&w.state()).unwrap();
        assert_eq!(restored.state(), w.state());
        for _ in 0..50 {
            let x = rng.normal_with(-48.0, 2.5);
            w.push(x);
            restored.push(x);
            assert_eq!(w.std_dev().to_bits(), restored.std_dev().to_bits());
            assert_eq!(w.mean().to_bits(), restored.mean().to_bits());
        }
        assert_eq!(restored.state(), w.state());
    }

    #[test]
    fn rolling_state_rejects_inconsistencies() {
        let good = RollingStd::new(4).state();
        let bad = RollingStdState { capacity: 0, ..good.clone() };
        assert!(RollingStd::from_state(&bad).is_err());
        let bad = RollingStdState { samples: vec![0.0; 5], pushes: 5, ..good.clone() };
        assert!(RollingStd::from_state(&bad).is_err());
        let bad = RollingStdState { samples: vec![1.0, 2.0], pushes: 1, ..good.clone() };
        assert!(RollingStd::from_state(&bad).is_err());
        let bad = RollingStdState { samples: vec![f64::NAN], pushes: 1, ..good.clone() };
        assert!(RollingStd::from_state(&bad).is_err());
        let bad = RollingStdState { sum: f64::INFINITY, ..good };
        assert!(RollingStd::from_state(&bad).is_err());
    }

    #[test]
    fn history_state_round_trip_preserves_absolute_ranges() {
        let mut h = HistoryBuffer::new(5);
        for i in 0..13 {
            h.push(i as f64);
        }
        let restored = HistoryBuffer::from_states(&h.states()).unwrap();
        assert_eq!(restored.total_pushed(), 13);
        assert_eq!(restored.range(0, 8, 13), h.range(0, 8, 13));
        assert_eq!(restored.range(0, 7, 9), None);
        let mut h2 = restored;
        let mut h1 = h;
        for i in 13..20 {
            h1.push(i as f64);
            h2.push(i as f64);
            let (start, end) = (15.min(i as u64), i as u64 + 1);
            assert_eq!(h1.range(0, start, end), h2.range(0, start, end));
        }
    }

    #[test]
    fn history_state_rejects_inconsistencies() {
        assert!(HistoryBuffer::from_states(&[HistoryState {
            capacity: 0,
            samples: vec![],
            total: 0
        }])
        .is_err());
        assert!(HistoryBuffer::from_states(&[HistoryState {
            capacity: 2,
            samples: vec![1.0, 2.0, 3.0],
            total: 3
        }])
        .is_err());
        assert!(HistoryBuffer::from_states(&[HistoryState {
            capacity: 4,
            samples: vec![1.0, 2.0],
            total: 1
        }])
        .is_err());
        // total > len with a partially filled buffer: impossible state.
        assert!(HistoryBuffer::from_states(&[HistoryState {
            capacity: 4,
            samples: vec![1.0, 2.0],
            total: 9
        }])
        .is_err());
        // No stream at all, and streams out of lockstep.
        assert!(HistoryBuffer::from_states(&[]).is_err());
        let a = HistoryState { capacity: 4, samples: vec![1.0, 2.0], total: 2 };
        for b in [
            HistoryState { capacity: 5, ..a.clone() },
            HistoryState { samples: vec![1.0], total: 1, ..a.clone() },
            HistoryState { total: 3, ..a.clone() },
        ] {
            assert!(HistoryBuffer::from_states(&[a.clone(), b]).is_err());
        }
    }

    #[test]
    fn batch_matches_scalar_bit_for_bit_on_row_pushes() {
        let mut rng = Rng::seed_from_u64(11);
        let n = 6;
        let mut scalars: Vec<RollingStd> = (0..n).map(|_| RollingStd::new(10)).collect();
        let mut bank = RollingStdBatch::new(n, 10);
        let mut row = vec![0.0; n];
        // Long enough to cross the RECOMPUTE_EVERY boundary, with
        // occasional non-finite samples exercising the hold-last guard.
        for tick in 0..(RECOMPUTE_EVERY as usize + 200) {
            for slot in row.iter_mut() {
                *slot = rng.normal_with(-48.0, 2.5);
            }
            if tick % 97 == 13 {
                row[tick % n] = f64::NAN;
            }
            for (s, w) in scalars.iter_mut().enumerate() {
                w.push(row[s]);
            }
            bank.push_row(&row);
            for (s, w) in scalars.iter().enumerate() {
                assert_eq!(w.std_dev().to_bits(), bank.std_dev(s).to_bits(), "tick {tick} stream {s}");
                assert_eq!(w.mean().to_bits(), bank.mean(s).to_bits());
            }
        }
        for (s, w) in scalars.iter().enumerate() {
            assert_eq!(w.state(), bank.states()[s]);
        }
    }

    #[test]
    fn batch_masked_pushes_match_scalar() {
        let mut rng = Rng::seed_from_u64(12);
        let n = 4;
        let mut scalars: Vec<RollingStd> = (0..n).map(|_| RollingStd::new(7)).collect();
        let mut bank = RollingStdBatch::new(n, 7);
        for tick in 0..500 {
            for s in 0..n {
                // Irregular per-stream delivery pattern.
                if (tick + s) % (s + 2) != 0 {
                    let x = rng.normal_with(-50.0, 1.5);
                    scalars[s].push(x);
                    bank.push_one(s, x);
                }
            }
            for (s, w) in scalars.iter().enumerate() {
                assert_eq!(w.std_dev().to_bits(), bank.std_dev(s).to_bits(), "tick {tick} stream {s}");
            }
        }
    }

    #[test]
    fn batch_state_round_trips_through_scalar_states() {
        let mut rng = Rng::seed_from_u64(13);
        let mut bank = RollingStdBatch::new(3, 5);
        let mut row = vec![0.0; 3];
        for _ in 0..40 {
            for slot in row.iter_mut() {
                *slot = rng.normal_with(-48.0, 2.5);
            }
            bank.push_row(&row);
        }
        let restored = RollingStdBatch::from_states(&bank.states()).unwrap();
        assert_eq!(restored.states(), bank.states());
        let mut a = bank;
        let mut b = restored;
        for _ in 0..40 {
            for slot in row.iter_mut() {
                *slot = rng.normal_with(-48.0, 2.5);
            }
            a.push_row(&row);
            b.push_row(&row);
            for s in 0..3 {
                assert_eq!(a.std_dev(s).to_bits(), b.std_dev(s).to_bits());
            }
        }
    }

    #[test]
    fn batch_from_states_rejects_inconsistencies() {
        assert!(RollingStdBatch::from_states(&[]).is_err());
        let good = RollingStd::new(4).state();
        let other_cap = RollingStd::new(5).state();
        assert!(RollingStdBatch::from_states(&[good.clone(), other_cap]).is_err());
        let bad = RollingStdState { samples: vec![f64::NAN], pushes: 1, ..good.clone() };
        assert!(RollingStdBatch::from_states(&[good, bad]).is_err());
    }

    #[test]
    fn range_into_matches_range() {
        let mut h = HistoryBuffer::new(5);
        for i in 0..10 {
            h.push(i as f64);
        }
        let mut out = Vec::new();
        for (start, end) in [(5, 8), (9, 10), (4, 6), (9, 11), (7, 7), (0, 1)] {
            let ok = h.range_into(0, start, end, &mut out);
            match h.range(0, start, end) {
                Some(v) => {
                    assert!(ok);
                    assert_eq!(out, v);
                }
                None => {
                    assert!(!ok);
                    assert!(out.is_empty());
                }
            }
        }
    }

    #[test]
    fn history_exact_capacity() {
        let mut h = HistoryBuffer::new(3);
        h.push(1.0);
        h.push(2.0);
        h.push(3.0);
        assert_eq!(h.range(0, 0, 3), Some(vec![1.0, 2.0, 3.0]));
    }
}
