//! Watermark-based stream reassembly.
//!
//! Frames arrive out of order, duplicated, late or not at all. The
//! [`ReorderBuffer`] turns that mess back into a strictly in-order
//! sequence of per-tick bundles, using per-sender *frontiers* (highest
//! tick seen from each sender) and a configurable jitter bound:
//!
//! - tick `T` **closes** once every live sender has either delivered
//!   its frame for `T` or advanced its frontier to `T + jitter_ticks`
//!   (the transport's reordering guarantee: a frame can be at most
//!   `jitter_ticks` behind the sender's newest);
//! - a sender whose frontier lags the global frontier by more than
//!   `quarantine_after_ticks` is **quarantined**: the buffer stops
//!   waiting for it, so one dead sensor cannot stall the watermark. A
//!   fresh frame from a quarantined sender recovers it. The deadline
//!   defaults to the config value but can be tightened or loosened per
//!   sender ([`ReorderBuffer::set_sender_quarantine`]) — e.g. a slow
//!   ambient-light sensor tolerating more silence than an RSSI link.
//!
//! The buffer reports duplicates, late frames and sequence-number
//! regressions, plus the current watermark lag — everything the engine
//! surfaces in its runtime counters.
//!
//! # Anti-replay windows
//!
//! When the engine runs authenticated, a captured-and-replayed frame
//! carries a *valid* MAC — the replay defense is sequence-space, not
//! cryptographic. [`ReorderBuffer::set_anti_replay`] arms a classic
//! IPsec/DTLS-style sliding window per sender: a 64-bit bitmap over
//! the sequence numbers at and below the sender's high-water mark.
//! A frame whose seq was already accepted (or fell off the 64-seq
//! window) returns [`PushOutcome::Replayed`] and touches **nothing** —
//! not the frontier, not the quarantine state — so replayed captures
//! can neither advance the watermark nor resurrect a quarantined
//! sender. Like the per-sender quarantine deadline, the arm/disarm
//! flag is configuration (the engine reapplies it on restore); the
//! bitmaps themselves are state and checkpoint with the buffer.
//!
//! # Slots and polling
//!
//! Each pending tick is one boxed slot: a single `Vec<f32>` payload
//! holding every delivered sender's samples, plus a per-sender
//! `(start, len)` span into it, so the map's value stays one pointer
//! wide. Inside the crate, a poll is `begin_poll` followed by
//! `pop_closed` until it returns `None`; each `ClosedTick` hands its
//! slot to the engine, which reads the samples in place and gives the
//! tick back through `recycle`. A recycled slot is cleared and kept as
//! a spare for the next new tick, up to `jitter_ticks + 1` spares, so
//! a steady stream reuses the same few slots and a tick costs no heap
//! allocation; a burst of far-future ticks allocates fresh slots and
//! the excess is freed as they close. [`ReorderBuffer::push`],
//! [`ReorderBuffer::poll`] and [`ReorderBuffer::flush`] are thin
//! adapters over the same core that copy slots into owned
//! [`TickBundle`]s (and recycle them too).
//!
//! Polling is O(1) while nothing changes. The global frontier is cached
//! (advanced in `push`, recomputed on restore), a slot whose senders
//! have all delivered closes without the per-sender scan, and the
//! quarantine scan re-runs only after something that could trip a
//! deadline: the global frontier advanced, a sender recovered, or a
//! deadline changed. The recovery trigger matters: a sender that
//! recovers while still lagging past its deadline is quarantined again
//! by the very next poll.

use std::collections::BTreeMap;

/// Reassembly parameters.
#[derive(Debug, Clone, Copy)]
pub struct ReorderConfig {
    /// Number of senders (sensors) feeding the buffer.
    pub n_senders: usize,
    /// Maximum reordering the transport may introduce, in ticks: a
    /// frame for tick `T` arrives before any frame with tick
    /// `≥ T + jitter_ticks` from the same sender.
    pub jitter_ticks: u64,
    /// A sender lagging the global frontier by more than this many
    /// ticks is quarantined (the default for every sender; see
    /// [`ReorderBuffer::set_sender_quarantine`] for per-sender
    /// overrides).
    pub quarantine_after_ticks: u64,
}

/// One closed tick: per-sender payloads, `None` where a sender's frame
/// never arrived.
#[derive(Debug, Clone, PartialEq)]
pub struct TickBundle {
    /// The tick that closed.
    pub tick: u64,
    /// Payloads indexed by sender.
    pub reports: Vec<Option<Vec<f32>>>,
}

/// What [`ReorderBuffer::push`] did with a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Accepted and buffered.
    Buffered,
    /// A frame for this (sender, tick) was already buffered or emitted.
    Duplicate,
    /// The tick has already been emitted; the frame is dropped.
    Late,
    /// Anti-replay is armed and this sequence number was already
    /// accepted (or fell off the replay window); the frame is dropped
    /// without touching frontier or quarantine state.
    Replayed,
}

/// Sender liveness transitions, in occurrence order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderEvent {
    /// The sender went silent past the deadline.
    Quarantined {
        /// The affected sender.
        sender: usize,
        /// Global frontier when the decision was made.
        at_tick: u64,
    },
    /// A quarantined sender delivered a fresh frame.
    Recovered {
        /// The affected sender.
        sender: usize,
        /// The fresh frame's tick.
        at_tick: u64,
    },
}

/// The complete reassembly state for crash-safe checkpointing: the
/// watermark, per-sender frontiers/sequence highs/quarantine flags,
/// the cumulative counters, and every buffered-but-unemitted payload.
/// Pending liveness *events* are deliberately absent: capture only at
/// delivery boundaries, after [`ReorderBuffer::take_events`] has
/// drained them into the engine's log.
#[derive(Debug, Clone, PartialEq)]
pub struct ReorderState {
    /// Next tick to emit (the watermark).
    pub next_emit: u64,
    /// Highest tick seen per sender.
    pub frontier: Vec<Option<u64>>,
    /// Highest sequence number seen per sender.
    pub max_seq: Vec<Option<u32>>,
    /// Per-sender quarantine flags.
    pub quarantined: Vec<bool>,
    /// Cumulative duplicate frames.
    pub duplicates: u64,
    /// Cumulative late frames.
    pub late: u64,
    /// Cumulative sequence regressions.
    pub reordered: u64,
    /// Cumulative frames rejected by the anti-replay window.
    pub replayed: u64,
    /// Per-sender anti-replay bitmaps (bit `d` set ⇔ seq `max_seq − d`
    /// was accepted). All zeros while anti-replay is disarmed.
    pub replay_seen: Vec<u64>,
    /// Largest watermark lag ever observed.
    pub max_lag: u64,
    /// Buffered payloads, ticks strictly ascending, all `≥ next_emit`.
    pub pending: Vec<(u64, Vec<Option<Vec<f32>>>)>,
}

/// One pending tick: every delivered sender's samples packed into one
/// payload, with a per-sender span into it. Boxed in the pending map so
/// the map's values stay one pointer wide.
#[derive(Debug, Clone)]
struct Slot {
    /// Samples of the delivered senders, in arrival order.
    values: Vec<f32>,
    /// Per-sender `(start, len)` into `values`; `None` until delivered.
    spans: Vec<Option<(u32, u32)>>,
    /// Number of senders delivered so far.
    delivered: usize,
}

impl Slot {
    fn new(n_senders: usize, capacity: usize) -> Slot {
        Slot { values: Vec::with_capacity(capacity), spans: vec![None; n_senders], delivered: 0 }
    }

    /// Empties the slot for reuse, keeping its allocations.
    fn clear(&mut self) {
        self.values.clear();
        self.spans.fill(None);
        self.delivered = 0;
    }

    /// Stores `sender`'s samples; the caller has checked that it has
    /// not delivered yet.
    fn fill(&mut self, sender: usize, samples: impl IntoIterator<Item = f32>) {
        let start = self.values.len();
        self.values.extend(samples);
        let end = self.values.len();
        assert!(end <= u32::MAX as usize, "slot payload exceeds u32::MAX samples");
        self.spans[sender] = Some((start as u32, (end - start) as u32));
        self.delivered += 1;
    }

    fn report(&self, sender: usize) -> Option<&[f32]> {
        let (start, len) = self.spans[sender]?;
        Some(&self.values[start as usize..start as usize + len as usize])
    }

    /// The checkpoint form: one owned payload per sender.
    fn reports(&self) -> Vec<Option<Vec<f32>>> {
        (0..self.spans.len()).map(|s| self.report(s).map(<[f32]>::to_vec)).collect()
    }
}

/// A tick the watermark has closed, popped with its slot. The caller
/// reads each sender's samples in place, then hands it back through
/// `ReorderBuffer::recycle` (dropping it instead frees the slot).
#[derive(Debug)]
pub(crate) struct ClosedTick {
    /// The tick that closed.
    pub tick: u64,
    /// `None` when no sender delivered anything for the tick.
    slot: Option<Box<Slot>>,
}

impl ClosedTick {
    /// A closed tick no sender reported (end-of-stream padding).
    pub(crate) fn missing(tick: u64) -> ClosedTick {
        ClosedTick { tick, slot: None }
    }

    /// `sender`'s samples, or `None` where its frame never arrived.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is out of range for a tick that has a slot.
    pub(crate) fn report(&self, sender: usize) -> Option<&[f32]> {
        self.slot.as_ref()?.report(sender)
    }

    fn bundle(&self, n_senders: usize) -> TickBundle {
        let reports = match &self.slot {
            Some(slot) => slot.reports(),
            None => vec![None; n_senders],
        };
        TickBundle { tick: self.tick, reports }
    }
}

/// The reorder buffer. See the module docs for the watermark rules.
#[derive(Debug, Clone)]
pub struct ReorderBuffer {
    cfg: ReorderConfig,
    /// Buffered slots per tick (sparse; only ticks ≥ `next_emit`).
    pending: BTreeMap<u64, Box<Slot>>,
    /// Cleared slots of closed ticks, reused by the next new ticks; at
    /// most `jitter_ticks + 1` are kept. Not part of [`ReorderState`].
    /// Kept boxed so a spare moves into `pending` without allocating.
    #[allow(clippy::vec_box)]
    spare: Vec<Box<Slot>>,
    /// Next tick to emit.
    next_emit: u64,
    /// Highest tick seen per sender (`None` before its first frame).
    frontier: Vec<Option<u64>>,
    /// Highest tick seen from any sender: the running maximum of
    /// `frontier`, cached so a poll need not scan it.
    global: Option<u64>,
    /// Whether the next poll must re-run the quarantine scan: set when
    /// the global frontier advances, a sender recovers, or a deadline
    /// changes. Nothing else can make a sender newly overdue.
    rescan: bool,
    /// Payload capacity of a new slot: the largest slot payload seen so
    /// far, so a slot's payload is allocated once.
    slot_capacity: usize,
    /// Highest sequence number seen per sender.
    max_seq: Vec<Option<u32>>,
    quarantined: Vec<bool>,
    /// Per-sender quarantine deadlines; config-derived, not part of
    /// [`ReorderState`] (the engine reapplies overrides on restore).
    thresholds: Vec<u64>,
    /// Whether the sliding anti-replay window is armed; config-derived
    /// like `thresholds` (the engine reapplies it on restore).
    anti_replay: bool,
    /// Per-sender anti-replay bitmaps (state; see [`ReorderState`]).
    replay_seen: Vec<u64>,
    events: Vec<SenderEvent>,
    duplicates: u64,
    late: u64,
    reordered: u64,
    replayed: u64,
    max_lag: u64,
}

impl ReorderBuffer {
    /// Creates an empty buffer.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.n_senders == 0`.
    pub fn new(cfg: ReorderConfig) -> ReorderBuffer {
        assert!(cfg.n_senders > 0, "need at least one sender");
        ReorderBuffer {
            pending: BTreeMap::new(),
            spare: Vec::new(),
            next_emit: 0,
            frontier: vec![None; cfg.n_senders],
            global: None,
            rescan: false,
            slot_capacity: 0,
            max_seq: vec![None; cfg.n_senders],
            quarantined: vec![false; cfg.n_senders],
            thresholds: vec![cfg.quarantine_after_ticks; cfg.n_senders],
            anti_replay: false,
            replay_seen: vec![0; cfg.n_senders],
            events: Vec::new(),
            duplicates: 0,
            late: 0,
            reordered: 0,
            replayed: 0,
            max_lag: 0,
            cfg,
        }
    }

    /// Arms (or disarms) the sliding anti-replay window. Like the
    /// per-sender quarantine deadline this is configuration, not
    /// checkpointable state — the engine reapplies it on restore. The
    /// bitmaps keep accumulating across disarm/re-arm.
    pub fn set_anti_replay(&mut self, armed: bool) {
        self.anti_replay = armed;
    }

    /// Whether the anti-replay window is armed.
    pub fn anti_replay(&self) -> bool {
        self.anti_replay
    }

    /// Sliding-window replay check: returns `true` when `seq` was
    /// already accepted from `sender` (or is older than the 64-seq
    /// window); otherwise records it and returns `false`.
    fn is_replay(&mut self, sender: usize, seq: u32) -> bool {
        let bitmap = &mut self.replay_seen[sender];
        match self.max_seq[sender] {
            None => {
                *bitmap = 1;
                false
            }
            Some(m) if seq > m => {
                let shift = u64::from(seq - m);
                *bitmap = if shift >= 64 { 0 } else { *bitmap << shift };
                *bitmap |= 1;
                false
            }
            Some(m) => {
                let diff = u64::from(m - seq);
                if diff >= 64 {
                    return true;
                }
                let bit = 1u64 << diff;
                if *bitmap & bit != 0 {
                    return true;
                }
                *bitmap |= bit;
                false
            }
        }
    }

    /// Offers one decoded frame with an owned payload: an adapter over
    /// the slot core the engine feeds from wire views.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is out of range.
    pub fn push(&mut self, sender: usize, seq: u32, tick: u64, values: Vec<f32>) -> PushOutcome {
        self.push_samples(sender, seq, tick, values)
    }

    /// Offers one decoded frame, copying its samples into the tick's
    /// slot (a spare, or a new one, taken on the tick's first frame).
    ///
    /// # Panics
    ///
    /// Panics if `sender` is out of range.
    pub(crate) fn push_samples(
        &mut self,
        sender: usize,
        seq: u32,
        tick: u64,
        samples: impl IntoIterator<Item = f32>,
    ) -> PushOutcome {
        assert!(sender < self.cfg.n_senders, "sender out of range");
        if self.anti_replay && self.is_replay(sender, seq) {
            // Rejected before frontier/quarantine updates: a replayed
            // capture must not advance the watermark or recover a
            // quarantined sender.
            self.replayed += 1;
            return PushOutcome::Replayed;
        }
        match self.max_seq[sender] {
            Some(m) if seq < m => self.reordered += 1,
            _ => self.max_seq[sender] = Some(seq.max(self.max_seq[sender].unwrap_or(0))),
        }
        if self.frontier[sender].is_none_or(|f| tick > f) {
            self.frontier[sender] = Some(tick);
            if self.global.is_none_or(|g| tick > g) {
                self.global = Some(tick);
                self.rescan = true;
            }
        }
        if self.quarantined[sender] {
            self.quarantined[sender] = false;
            self.rescan = true;
            self.events.push(SenderEvent::Recovered { sender, at_tick: tick });
        }
        if tick < self.next_emit {
            self.late += 1;
            return PushOutcome::Late;
        }
        let (n_senders, capacity) = (self.cfg.n_senders, self.slot_capacity);
        let spare = &mut self.spare;
        let slot = self.pending.entry(tick).or_insert_with(|| {
            spare.pop().unwrap_or_else(|| Box::new(Slot::new(n_senders, capacity)))
        });
        if slot.spans[sender].is_some() {
            self.duplicates += 1;
            return PushOutcome::Duplicate;
        }
        slot.fill(sender, samples);
        self.slot_capacity = self.slot_capacity.max(slot.values.len());
        PushOutcome::Buffered
    }

    /// Highest tick seen from any sender.
    pub fn global_frontier(&self) -> Option<u64> {
        self.global
    }

    /// Ticks between the global frontier and the next emission — how
    /// far reassembly trails ingestion right now.
    pub fn watermark_lag(&self) -> u64 {
        self.global.map_or(0, |g| g.saturating_add(1).saturating_sub(self.next_emit))
    }

    /// Largest watermark lag ever observed by a poll.
    pub fn max_watermark_lag(&self) -> u64 {
        self.max_lag
    }

    fn refresh_quarantine(&mut self) {
        let Some(global) = self.global else { return };
        self.rescan = false;
        for sender in 0..self.cfg.n_senders {
            if self.quarantined[sender] {
                continue;
            }
            let lag = match self.frontier[sender] {
                Some(f) => global.saturating_sub(f),
                // Never heard from: lag measured from the stream start.
                None => global.saturating_add(1),
            };
            if lag > self.thresholds[sender] {
                self.quarantined[sender] = true;
                self.events.push(SenderEvent::Quarantined { sender, at_tick: global });
            }
        }
    }

    /// Whether `sender` is currently quarantined.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is out of range.
    pub fn is_quarantined(&self, sender: usize) -> bool {
        self.quarantined[sender]
    }

    /// Overrides one sender's quarantine deadline (ticks of silence
    /// tolerated past the global frontier). The override is part of
    /// the configuration, not the checkpointable state: a restored
    /// buffer starts from the config default and the engine reapplies
    /// per-channel overrides.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is out of range.
    pub fn set_sender_quarantine(&mut self, sender: usize, ticks: u64) {
        self.thresholds[sender] = ticks;
        self.rescan = true;
    }

    /// The quarantine deadline currently applied to `sender`.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is out of range.
    pub fn sender_quarantine(&self, sender: usize) -> u64 {
        self.thresholds[sender]
    }

    /// Drains liveness transitions recorded since the last call.
    pub fn take_events(&mut self) -> Vec<SenderEvent> {
        std::mem::take(&mut self.events)
    }

    /// Cumulative (duplicates, late frames, sequence regressions).
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.duplicates, self.late, self.reordered)
    }

    /// Cumulative frames rejected by the anti-replay window.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    fn closeable(&self, tick: u64) -> bool {
        let slot = self.pending.get(&tick);
        if slot.is_some_and(|s| s.delivered == self.cfg.n_senders) {
            return true;
        }
        let horizon = tick.saturating_add(self.cfg.jitter_ticks);
        (0..self.cfg.n_senders).all(|s| {
            self.quarantined[s]
                || slot.is_some_and(|b| b.spans[s].is_some())
                || self.frontier[s].is_some_and(|f| f >= horizon)
        })
    }

    /// Starts a poll: quarantines senders past their deadline and
    /// samples the watermark lag. Follow with `pop_closed` until it
    /// returns `None`; the liveness events this records come before any
    /// of those ticks.
    pub(crate) fn begin_poll(&mut self) {
        if self.rescan {
            self.refresh_quarantine();
        }
        self.max_lag = self.max_lag.max(self.watermark_lag());
    }

    /// Pops the next tick if the watermark has closed it.
    pub(crate) fn pop_closed(&mut self) -> Option<ClosedTick> {
        let global = self.global?;
        (self.next_emit <= global && self.closeable(self.next_emit)).then(|| self.pop_front())
    }

    /// The last tick [`ReorderBuffer::flush`] emits once the watermark
    /// has closed what it can: the newest buffered tick, or the global
    /// frontier when nothing is buffered.
    pub(crate) fn flush_horizon(&self) -> Option<u64> {
        self.pending.keys().next_back().copied().or(self.global)
    }

    /// Pops the next tick, closed or not, while it is at most `last`
    /// (end of stream; see `flush_horizon`).
    pub(crate) fn pop_through(&mut self, last: u64) -> Option<ClosedTick> {
        (self.next_emit <= last).then(|| self.pop_front())
    }

    fn pop_front(&mut self) -> ClosedTick {
        let tick = self.next_emit;
        let slot = self.pending.remove(&tick);
        self.next_emit += 1;
        ClosedTick { tick, slot }
    }

    /// Takes a popped tick back: its slot is cleared and kept as a
    /// spare while fewer than `jitter_ticks + 1` are, and freed
    /// otherwise.
    ///
    /// The cap is a measured trade-off. Raising it to
    /// `quarantine_after_ticks + jitter_ticks + 1` (every tick the
    /// watermark can hold pending) took perfbench `fleet_lossy` from
    /// 0.829 to 0.765 allocation calls per tick, but its
    /// `heap_peak_mb` from 2.9115 to 2.9582 (+1.6%, in every pass):
    /// the retained spares coexist with the checkpoint-snapshot and
    /// refit peaks.
    pub(crate) fn recycle(&mut self, closed: ClosedTick) {
        if let Some(mut slot) = closed.slot {
            if (self.spare.len() as u64) <= self.cfg.jitter_ticks {
                slot.clear();
                self.spare.push(slot);
            }
        }
    }

    /// Emits every tick the watermark has closed, in order: an adapter
    /// over `begin_poll` and `pop_closed`.
    pub fn poll(&mut self) -> Vec<TickBundle> {
        self.begin_poll();
        let mut out = Vec::new();
        while let Some(closed) = self.pop_closed() {
            out.push(closed.bundle(self.cfg.n_senders));
            self.recycle(closed);
        }
        out
    }

    /// Exports the full reassembly state for checkpointing. Call only
    /// after [`ReorderBuffer::take_events`] has drained pending
    /// liveness events — they are not part of the state (see
    /// [`ReorderState`]).
    pub fn state(&self) -> ReorderState {
        debug_assert!(self.events.is_empty(), "capture after take_events");
        ReorderState {
            next_emit: self.next_emit,
            frontier: self.frontier.clone(),
            max_seq: self.max_seq.clone(),
            quarantined: self.quarantined.clone(),
            duplicates: self.duplicates,
            late: self.late,
            reordered: self.reordered,
            replayed: self.replayed,
            replay_seen: self.replay_seen.clone(),
            max_lag: self.max_lag,
            pending: self.pending.iter().map(|(&t, slot)| (t, slot.reports())).collect(),
        }
    }

    /// Rebuilds a buffer from an exported state. Subsequent pushes and
    /// polls behave identically to the buffer the state was captured
    /// from.
    ///
    /// # Errors
    ///
    /// Returns a description when the state disagrees with `cfg`
    /// (per-sender vector lengths) or is internally inconsistent
    /// (pending ticks unsorted, behind the watermark, or with the wrong
    /// report width).
    pub fn from_state(cfg: ReorderConfig, state: &ReorderState) -> Result<ReorderBuffer, String> {
        if cfg.n_senders == 0 {
            return Err("need at least one sender".to_string());
        }
        for (name, len) in [
            ("frontier", state.frontier.len()),
            ("max_seq", state.max_seq.len()),
            ("quarantined", state.quarantined.len()),
            ("replay_seen", state.replay_seen.len()),
        ] {
            if len != cfg.n_senders {
                return Err(format!(
                    "{name} covers {len} senders but the layout has {}",
                    cfg.n_senders
                ));
            }
        }
        let mut pending = BTreeMap::new();
        let mut slot_capacity = 0;
        let mut prev: Option<u64> = None;
        for (tick, reports) in &state.pending {
            if prev.is_some_and(|p| *tick <= p) {
                return Err(format!("pending ticks not strictly ascending at {tick}"));
            }
            prev = Some(*tick);
            if *tick < state.next_emit {
                return Err(format!(
                    "pending tick {tick} is behind the watermark {}",
                    state.next_emit
                ));
            }
            if reports.len() != cfg.n_senders {
                return Err(format!(
                    "pending tick {tick} carries {} reports for {} senders",
                    reports.len(),
                    cfg.n_senders
                ));
            }
            let width = reports.iter().flatten().map(Vec::len).sum();
            let mut slot = Slot::new(cfg.n_senders, width);
            for (sender, values) in reports.iter().enumerate() {
                if let Some(values) = values {
                    slot.fill(sender, values.iter().copied());
                }
            }
            slot_capacity = slot_capacity.max(width);
            pending.insert(*tick, Box::new(slot));
        }
        Ok(ReorderBuffer {
            pending,
            spare: Vec::new(),
            next_emit: state.next_emit,
            frontier: state.frontier.clone(),
            global: state.frontier.iter().flatten().copied().max(),
            rescan: true,
            slot_capacity,
            max_seq: state.max_seq.clone(),
            quarantined: state.quarantined.clone(),
            thresholds: vec![cfg.quarantine_after_ticks; cfg.n_senders],
            anti_replay: false,
            replay_seen: state.replay_seen.clone(),
            events: Vec::new(),
            duplicates: state.duplicates,
            late: state.late,
            reordered: state.reordered,
            replayed: state.replayed,
            max_lag: state.max_lag,
            cfg,
        })
    }

    /// End-of-stream: emits everything still buffered, in order, with
    /// `None` for frames that never arrived.
    pub fn flush(&mut self) -> Vec<TickBundle> {
        let mut out = self.poll();
        if let Some(last) = self.flush_horizon() {
            while let Some(closed) = self.pop_through(last) {
                out.push(closed.bundle(self.cfg.n_senders));
                self.recycle(closed);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize, jitter: u64) -> ReorderConfig {
        ReorderConfig { n_senders: n, jitter_ticks: jitter, quarantine_after_ticks: 1000 }
    }

    fn payload(x: f32) -> Vec<f32> {
        vec![x]
    }

    #[test]
    fn in_order_frames_emit_with_zero_jitter() {
        let mut rb = ReorderBuffer::new(cfg(2, 0));
        assert_eq!(rb.push(0, 0, 0, payload(1.0)), PushOutcome::Buffered);
        assert!(rb.poll().is_empty(), "tick 0 must wait for sender 1");
        rb.push(1, 0, 0, payload(2.0));
        let out = rb.poll();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tick, 0);
        assert_eq!(out[0].reports, vec![Some(payload(1.0)), Some(payload(2.0))]);
    }

    #[test]
    fn jitter_bound_closes_missing_slots() {
        // Sender 1 skips tick 0 entirely; once its frontier reaches
        // jitter past 0, tick 0 closes with a hole.
        let mut rb = ReorderBuffer::new(cfg(2, 2));
        rb.push(0, 0, 0, payload(1.0));
        rb.push(1, 0, 1, payload(9.0));
        assert!(rb.poll().is_empty(), "frontier 1 < 0 + jitter");
        rb.push(1, 1, 2, payload(8.0));
        let out = rb.poll();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].reports, vec![Some(payload(1.0)), None]);
    }

    #[test]
    fn duplicates_and_late_frames_counted() {
        let mut rb = ReorderBuffer::new(cfg(1, 0));
        rb.push(0, 0, 0, payload(1.0));
        assert_eq!(rb.push(0, 1, 0, payload(1.0)), PushOutcome::Duplicate);
        assert_eq!(rb.poll().len(), 1);
        assert_eq!(rb.push(0, 2, 0, payload(1.0)), PushOutcome::Late);
        assert_eq!(rb.counters(), (1, 1, 0));
    }

    #[test]
    fn sequence_regression_counted_as_reordered() {
        let mut rb = ReorderBuffer::new(cfg(1, 4));
        rb.push(0, 5, 5, payload(1.0));
        rb.push(0, 3, 3, payload(1.0));
        assert_eq!(rb.counters(), (0, 0, 1));
    }

    #[test]
    fn silent_sender_quarantined_then_recovers() {
        let mut rb = ReorderBuffer::new(ReorderConfig {
            n_senders: 2,
            jitter_ticks: 0,
            quarantine_after_ticks: 3,
        });
        for t in 0..6 {
            rb.push(0, t as u32, t, payload(1.0));
        }
        let out = rb.poll();
        // Sender 1 was quarantined (lag 6 > 3), unblocking everything.
        assert_eq!(out.len(), 6);
        assert!(rb.is_quarantined(1));
        assert_eq!(
            rb.take_events(),
            vec![SenderEvent::Quarantined { sender: 1, at_tick: 5 }]
        );
        rb.push(1, 0, 6, payload(2.0));
        assert!(!rb.is_quarantined(1));
        assert_eq!(rb.take_events(), vec![SenderEvent::Recovered { sender: 1, at_tick: 6 }]);
    }

    #[test]
    fn per_sender_quarantine_overrides_the_config_default() {
        // Three senders; sender 1 gets a tight 2-tick deadline, sender
        // 2 a loose 20-tick one (e.g. a slow light sensor). Only the
        // tight one is quarantined when both go silent for 6 ticks.
        let c = ReorderConfig { n_senders: 3, jitter_ticks: 0, quarantine_after_ticks: 5 };
        let mut rb = ReorderBuffer::new(c);
        assert_eq!(rb.sender_quarantine(1), 5);
        rb.set_sender_quarantine(1, 2);
        rb.set_sender_quarantine(2, 20);
        for t in 0..7u64 {
            rb.push(0, t as u32, t, payload(t as f32));
        }
        rb.poll();
        assert!(rb.is_quarantined(1), "tight deadline must trip at lag 7");
        assert!(!rb.is_quarantined(2), "loose deadline must hold at lag 7");
        assert_eq!(
            rb.take_events(),
            vec![SenderEvent::Quarantined { sender: 1, at_tick: 6 }]
        );
        // The loose sender eventually trips too, at its own deadline.
        for t in 7..22u64 {
            rb.push(0, t as u32, t, payload(t as f32));
        }
        rb.poll();
        assert!(rb.is_quarantined(2));
    }

    #[test]
    fn flush_drains_everything_in_order() {
        let mut rb = ReorderBuffer::new(cfg(2, 5));
        rb.push(0, 0, 2, payload(1.0));
        rb.push(1, 0, 4, payload(2.0));
        let out = rb.flush();
        assert_eq!(out.iter().map(|b| b.tick).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(out[2].reports[0], Some(payload(1.0)));
        assert_eq!(out[4].reports[1], Some(payload(2.0)));
        // Idempotent once drained.
        assert!(rb.flush().is_empty());
    }

    #[test]
    fn frontier_arithmetic_saturates_at_the_last_tick() {
        // A frame-supplied tick is untrusted: the largest one must not
        // overflow the watermark arithmetic.
        let mut rb = ReorderBuffer::new(cfg(2, 3));
        assert_eq!(rb.push(0, 0, u64::MAX, payload(1.0)), PushOutcome::Buffered);
        assert_eq!(rb.global_frontier(), Some(u64::MAX));
        assert_eq!(rb.watermark_lag(), u64::MAX);
    }

    #[test]
    fn a_recovered_sender_still_lagging_is_quarantined_again() {
        // Sender 1 goes quiet, is quarantined, then delivers one stale
        // frame: that recovers it, but it still lags past its deadline
        // with the global frontier unmoved, so the next poll must trip
        // it again.
        let c = ReorderConfig { n_senders: 2, jitter_ticks: 0, quarantine_after_ticks: 3 };
        let mut rb = ReorderBuffer::new(c);
        for t in 0..8u64 {
            rb.push(0, t as u32, t, payload(1.0));
        }
        rb.poll();
        assert_eq!(rb.take_events(), vec![SenderEvent::Quarantined { sender: 1, at_tick: 7 }]);
        assert_eq!(rb.push(1, 0, 2, payload(2.0)), PushOutcome::Late);
        assert!(!rb.is_quarantined(1));
        rb.poll();
        assert!(rb.is_quarantined(1), "recovered-but-lagging sender must re-quarantine");
        assert_eq!(
            rb.take_events(),
            vec![
                SenderEvent::Recovered { sender: 1, at_tick: 2 },
                SenderEvent::Quarantined { sender: 1, at_tick: 7 },
            ]
        );
        // A deadline change alone also re-arms the scan.
        let mut rb = ReorderBuffer::new(c);
        rb.set_sender_quarantine(1, 100);
        for t in 0..8u64 {
            rb.push(0, t as u32, t, payload(1.0));
        }
        rb.poll();
        assert!(!rb.is_quarantined(1));
        rb.set_sender_quarantine(1, 2);
        rb.poll();
        assert!(rb.is_quarantined(1), "tightened deadline must apply without a new frame");
    }

    #[test]
    fn closed_ticks_read_each_senders_samples_in_place() {
        let mut rb = ReorderBuffer::new(cfg(3, 0));
        rb.push_samples(2, 0, 0, [7.0, 8.0]);
        rb.push_samples(0, 0, 0, [1.0]);
        rb.begin_poll();
        assert!(rb.pop_closed().is_none(), "sender 1 has not reported");
        rb.push_samples(1, 0, 0, []);
        rb.begin_poll();
        let closed = rb.pop_closed().expect("every sender delivered");
        assert_eq!(closed.tick, 0);
        assert_eq!(closed.report(0), Some(&[1.0][..]));
        assert_eq!(closed.report(1), Some(&[][..]));
        assert_eq!(closed.report(2), Some(&[7.0, 8.0][..]));
        assert!(rb.pop_closed().is_none());
        assert_eq!(ClosedTick::missing(5).report(0), None);
    }

    #[test]
    fn popped_slots_are_reused_cleared_and_capped() {
        // Ten ticks pending at once hold ten slots; once they close
        // only jitter + 1 = 3 stay as spares.
        let mut rb = ReorderBuffer::new(cfg(2, 2));
        for t in 0..10u64 {
            rb.push(0, t as u32, t, payload(t as f32));
            rb.push(1, t as u32, t, payload(-(t as f32)));
        }
        assert_eq!(rb.pending.len(), 10);
        assert_eq!(rb.poll().len(), 10);
        assert_eq!(rb.spare.len(), 3);
        // A reused slot starts empty: sender 1's span from the slot's
        // last tick must not leak into tick 10, which it never sent.
        rb.push(0, 10, 10, payload(5.0));
        assert_eq!(rb.spare.len(), 2);
        let out = rb.flush();
        assert_eq!(out, vec![TickBundle { tick: 10, reports: vec![Some(payload(5.0)), None] }]);
        assert_eq!(rb.spare.len(), 3);
        assert!(rb.spare.iter().all(|s| s.values.is_empty() && s.delivered == 0));
    }

    #[test]
    fn watermark_lag_tracks_frontier_distance() {
        let mut rb = ReorderBuffer::new(cfg(2, 0));
        rb.push(0, 0, 9, payload(1.0));
        assert_eq!(rb.watermark_lag(), 10);
        rb.poll();
        assert_eq!(rb.max_watermark_lag(), 10);
    }

    #[test]
    fn state_round_trip_continues_identically() {
        // Build up a messy mid-flight buffer: holes, a quarantined
        // sender, buffered future ticks.
        let c = ReorderConfig { n_senders: 3, jitter_ticks: 2, quarantine_after_ticks: 4 };
        let mut rb = ReorderBuffer::new(c);
        for t in 0..8u64 {
            rb.push(0, t as u32, t, payload(t as f32));
            if t % 2 == 0 {
                rb.push(1, t as u32, t, payload(10.0 + t as f32));
            }
            // Sender 2 silent: quarantined along the way.
        }
        rb.poll();
        rb.take_events();
        let state = rb.state();
        let mut restored = ReorderBuffer::from_state(c, &state).unwrap();
        assert_eq!(restored.state(), state, "round trip changed the state");
        // Continue both identically.
        for t in 8..14u64 {
            for s in 0..3 {
                assert_eq!(
                    rb.push(s, t as u32, t, payload(t as f32)),
                    restored.push(s, t as u32, t, payload(t as f32)),
                    "push diverged at tick {t} sender {s}"
                );
            }
            assert_eq!(rb.poll(), restored.poll(), "poll diverged at tick {t}");
            assert_eq!(rb.take_events(), restored.take_events());
        }
        assert_eq!(rb.flush(), restored.flush());
        assert_eq!(rb.counters(), restored.counters());
        assert_eq!(rb.max_watermark_lag(), restored.max_watermark_lag());
    }

    #[test]
    fn bad_states_rejected() {
        let c = cfg(2, 1);
        let mut rb = ReorderBuffer::new(c);
        rb.push(0, 0, 0, payload(1.0));
        let good = rb.state();
        assert!(ReorderBuffer::from_state(c, &good).is_ok());

        // Per-sender vectors disagreeing with the layout.
        let mut bad = good.clone();
        bad.frontier.pop();
        assert!(ReorderBuffer::from_state(c, &bad).is_err());
        let mut bad = good.clone();
        bad.quarantined.push(false);
        assert!(ReorderBuffer::from_state(c, &bad).is_err());
        let mut bad = good.clone();
        bad.replay_seen.pop();
        assert!(ReorderBuffer::from_state(c, &bad).is_err());
        // Pending tick behind the watermark.
        let mut bad = good.clone();
        bad.next_emit = 5;
        assert!(ReorderBuffer::from_state(c, &bad).is_err());
        // Unsorted pending ticks.
        let mut bad = good.clone();
        bad.pending = vec![(3, vec![None, None]), (2, vec![None, None])];
        assert!(ReorderBuffer::from_state(c, &bad).is_err());
        // Wrong report width.
        let mut bad = good.clone();
        bad.pending = vec![(0, vec![None])];
        assert!(ReorderBuffer::from_state(c, &bad).is_err());
    }

    #[test]
    fn replay_window_rejects_repeats_and_stale_seqs() {
        let mut rb = ReorderBuffer::new(cfg(1, 4));
        rb.set_anti_replay(true);
        assert!(rb.anti_replay());
        // Fresh seqs accept, including out-of-order within the window.
        assert_eq!(rb.push(0, 5, 5, payload(1.0)), PushOutcome::Buffered);
        assert_eq!(rb.push(0, 3, 3, payload(1.0)), PushOutcome::Buffered);
        // Exact repeats are replays, whether of the max or an in-window seq.
        assert_eq!(rb.push(0, 5, 5, payload(1.0)), PushOutcome::Replayed);
        assert_eq!(rb.push(0, 3, 3, payload(1.0)), PushOutcome::Replayed);
        // Advance far; everything ≥ 64 behind the new max is too old.
        assert_eq!(rb.push(0, 100, 100, payload(1.0)), PushOutcome::Buffered);
        assert_eq!(rb.push(0, 36, 36, payload(1.0)), PushOutcome::Replayed);
        assert_eq!(rb.push(0, 37, 37, payload(1.0)), PushOutcome::Buffered);
        assert_eq!(rb.replayed(), 3);
        // Duplicate/late accounting is untouched by replay rejections:
        // only the two genuine seq regressions (3 after 5, 37 after
        // 100) count as reordered; the three replays count nowhere else.
        assert_eq!(rb.counters(), (0, 0, 2), "replays must not leak into legacy counters");
    }

    #[test]
    fn replayed_frames_do_not_recover_quarantine_or_advance_the_frontier() {
        let c = ReorderConfig { n_senders: 2, jitter_ticks: 0, quarantine_after_ticks: 3 };
        let mut rb = ReorderBuffer::new(c);
        rb.set_anti_replay(true);
        rb.push(1, 0, 0, payload(9.0));
        for t in 0..6u64 {
            rb.push(0, t as u32, t, payload(1.0));
        }
        rb.poll();
        assert!(rb.is_quarantined(1));
        rb.take_events();
        let frontier_before = rb.global_frontier();
        // Replaying sender 1's captured frame must not resurrect it.
        assert_eq!(rb.push(1, 0, 0, payload(9.0)), PushOutcome::Replayed);
        assert!(rb.is_quarantined(1), "a replayed capture must not recover the sender");
        assert!(rb.take_events().is_empty());
        assert_eq!(rb.global_frontier(), frontier_before);
        // A genuinely fresh frame still recovers it.
        assert_eq!(rb.push(1, 1, 6, payload(9.5)), PushOutcome::Buffered);
        assert!(!rb.is_quarantined(1));
    }

    #[test]
    fn disarmed_buffer_is_byte_identical_to_the_legacy_behavior() {
        // With anti-replay off (the default), a replayed seq is just a
        // duplicate/late frame exactly as before the window landed.
        let mut rb = ReorderBuffer::new(cfg(1, 0));
        rb.push(0, 0, 0, payload(1.0));
        assert_eq!(rb.push(0, 0, 0, payload(1.0)), PushOutcome::Duplicate);
        assert_eq!(rb.replayed(), 0);
        assert!(rb.state().replay_seen.iter().all(|&b| b == 0));
    }

    #[test]
    fn replay_state_survives_checkpoint_round_trip() {
        let c = cfg(2, 2);
        let mut rb = ReorderBuffer::new(c);
        rb.set_anti_replay(true);
        for t in 0..10u64 {
            rb.push(0, t as u32, t, payload(t as f32));
            rb.push(1, (t * 2) as u32, t, payload(t as f32));
        }
        rb.push(0, 4, 4, payload(0.0)); // one replay on the books
        rb.poll();
        rb.take_events();
        let state = rb.state();
        assert_eq!(state.replayed, 1);
        let mut restored = ReorderBuffer::from_state(c, &state).unwrap();
        restored.set_anti_replay(true); // config reapplied, like quarantine overrides
        assert_eq!(restored.state(), state);
        // Both continue identically, including replay verdicts.
        for (seq, tick) in [(4u32, 4u64), (10, 10), (10, 10), (9, 9)] {
            assert_eq!(
                rb.push(0, seq, tick, payload(1.0)),
                restored.push(0, seq, tick, payload(1.0)),
                "diverged at seq {seq}"
            );
        }
        assert_eq!(rb.replayed(), restored.replayed());
    }

    #[test]
    fn sustained_duplicates_do_not_stall_the_watermark() {
        // Sender 1 wedges: it resends its tick-5 frame forever while
        // sender 0 keeps advancing. Every resend counts as a duplicate
        // (or a late frame once tick 5 is emitted) — and because *any*
        // frame from a quarantined sender recovers it, the wedged
        // sender churns through quarantine/recovery cycles. The
        // watermark must keep advancing regardless: sender 0's ticks
        // all close, with holes where sender 1 never delivered.
        let c = ReorderConfig { n_senders: 2, jitter_ticks: 1, quarantine_after_ticks: 8 };
        let mut rb = ReorderBuffer::new(c);
        let mut emitted = Vec::new();
        for t in 0..100u64 {
            rb.push(0, t as u32, t, payload(t as f32));
            if t >= 5 {
                rb.push(1, 5, 5, payload(55.0));
            }
            emitted.extend(rb.poll());
        }
        emitted.extend(rb.flush());
        let ticks: Vec<u64> = emitted.iter().map(|b| b.tick).collect();
        assert_eq!(ticks, (0..100).collect::<Vec<_>>(), "watermark stalled");
        // Sender 0's payloads all made it through.
        assert!(emitted.iter().all(|b| b.reports[0].is_some()));
        // Sender 1 contributed exactly its one wedged frame.
        let from_1 = emitted.iter().filter(|b| b.reports[1].is_some()).count();
        assert_eq!(from_1, 1);
        let (dup, late, _) = rb.counters();
        assert!(dup + late >= 90, "resends uncounted: dup {dup} late {late}");
        // The wedged sender cycled through quarantine at least once,
        // and each resend recovered it (documented churn behavior).
        let events = rb.take_events();
        let quarantines =
            events.iter().filter(|e| matches!(e, SenderEvent::Quarantined { sender: 1, .. }));
        assert!(quarantines.count() >= 1, "events: {events:?}");
    }
}
