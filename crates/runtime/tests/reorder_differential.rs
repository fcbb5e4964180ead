//! Differential property test of the reorder buffer against its
//! previous implementation.
//!
//! [`Oracle`] is the buffer as it was before pending ticks moved into
//! flat slots: one `Vec<Option<Vec<f32>>>` per pending tick, the global
//! frontier recomputed from every sender on each call, and the
//! quarantine scan re-run on every poll. Random schedules drive both
//! through the same operations — drops, duplicates, jitter, per-sender
//! widths, sequence regressions, anti-replay on and off, senders that
//! recover while still lagging, deadline changes mid-stream and
//! checkpoint cuts — and every observable must agree after every step.

use std::collections::BTreeMap;

use fadewich_runtime::reorder::{
    PushOutcome, ReorderBuffer, ReorderConfig, ReorderState, SenderEvent, TickBundle,
};
use fadewich_stats::rng::Rng;
use fadewich_testkit::prop::u64s;

/// The reorder buffer before flat slots, kept as the reference.
#[derive(Debug, Clone)]
struct Oracle {
    cfg: ReorderConfig,
    pending: BTreeMap<u64, Vec<Option<Vec<f32>>>>,
    next_emit: u64,
    frontier: Vec<Option<u64>>,
    max_seq: Vec<Option<u32>>,
    quarantined: Vec<bool>,
    thresholds: Vec<u64>,
    anti_replay: bool,
    replay_seen: Vec<u64>,
    events: Vec<SenderEvent>,
    duplicates: u64,
    late: u64,
    reordered: u64,
    replayed: u64,
    max_lag: u64,
}

impl Oracle {
    fn new(cfg: ReorderConfig) -> Oracle {
        Oracle {
            pending: BTreeMap::new(),
            next_emit: 0,
            frontier: vec![None; cfg.n_senders],
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

    fn push(&mut self, sender: usize, seq: u32, tick: u64, values: Vec<f32>) -> PushOutcome {
        if self.anti_replay && self.is_replay(sender, seq) {
            self.replayed += 1;
            return PushOutcome::Replayed;
        }
        match self.max_seq[sender] {
            Some(m) if seq < m => self.reordered += 1,
            _ => self.max_seq[sender] = Some(seq.max(self.max_seq[sender].unwrap_or(0))),
        }
        if self.frontier[sender].is_none_or(|f| tick > f) {
            self.frontier[sender] = Some(tick);
        }
        if self.quarantined[sender] {
            self.quarantined[sender] = false;
            self.events.push(SenderEvent::Recovered { sender, at_tick: tick });
        }
        if tick < self.next_emit {
            self.late += 1;
            return PushOutcome::Late;
        }
        let slot =
            &mut self.pending.entry(tick).or_insert_with(|| vec![None; self.cfg.n_senders])[sender];
        if slot.is_some() {
            self.duplicates += 1;
            return PushOutcome::Duplicate;
        }
        *slot = Some(values);
        PushOutcome::Buffered
    }

    fn global_frontier(&self) -> Option<u64> {
        self.frontier.iter().flatten().copied().max()
    }

    fn watermark_lag(&self) -> u64 {
        self.global_frontier().map_or(0, |g| (g + 1).saturating_sub(self.next_emit))
    }

    fn refresh_quarantine(&mut self) {
        let Some(global) = self.global_frontier() else { return };
        for sender in 0..self.cfg.n_senders {
            if self.quarantined[sender] {
                continue;
            }
            let lag = match self.frontier[sender] {
                Some(f) => global.saturating_sub(f),
                None => global + 1,
            };
            if lag > self.thresholds[sender] {
                self.quarantined[sender] = true;
                self.events.push(SenderEvent::Quarantined { sender, at_tick: global });
            }
        }
    }

    fn closeable(&self, tick: u64) -> bool {
        let bundle = self.pending.get(&tick);
        (0..self.cfg.n_senders).all(|s| {
            self.quarantined[s]
                || bundle.is_some_and(|b| b[s].is_some())
                || self.frontier[s].is_some_and(|f| f >= tick + self.cfg.jitter_ticks)
        })
    }

    fn poll(&mut self) -> Vec<TickBundle> {
        self.refresh_quarantine();
        self.max_lag = self.max_lag.max(self.watermark_lag());
        let mut out = Vec::new();
        let Some(global) = self.global_frontier() else { return out };
        while self.next_emit <= global && self.closeable(self.next_emit) {
            let reports = self
                .pending
                .remove(&self.next_emit)
                .unwrap_or_else(|| vec![None; self.cfg.n_senders]);
            out.push(TickBundle { tick: self.next_emit, reports });
            self.next_emit += 1;
        }
        out
    }

    fn flush(&mut self) -> Vec<TickBundle> {
        let mut out = self.poll();
        let Some(last) = self.pending.keys().next_back().copied().or(self.global_frontier()) else {
            return out;
        };
        while self.next_emit <= last {
            let reports = self
                .pending
                .remove(&self.next_emit)
                .unwrap_or_else(|| vec![None; self.cfg.n_senders]);
            out.push(TickBundle { tick: self.next_emit, reports });
            self.next_emit += 1;
        }
        out
    }

    fn state(&self) -> ReorderState {
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
            pending: self.pending.iter().map(|(&t, b)| (t, b.clone())).collect(),
        }
    }

    /// Restores from a state the buffer under test exported (already
    /// validated by `ReorderBuffer::from_state`).
    fn from_state(cfg: ReorderConfig, state: &ReorderState) -> Oracle {
        Oracle {
            pending: state.pending.iter().cloned().collect(),
            next_emit: state.next_emit,
            frontier: state.frontier.clone(),
            max_seq: state.max_seq.clone(),
            quarantined: state.quarantined.clone(),
            replay_seen: state.replay_seen.clone(),
            duplicates: state.duplicates,
            late: state.late,
            reordered: state.reordered,
            replayed: state.replayed,
            max_lag: state.max_lag,
            ..Oracle::new(cfg)
        }
    }
}

/// The configuration the engine would reapply after a restore.
#[derive(Debug, Clone)]
struct Overrides {
    thresholds: Vec<Option<u64>>,
    anti_replay: bool,
}

impl Overrides {
    fn apply(&self, rb: &mut ReorderBuffer, oracle: &mut Oracle) {
        for (sender, t) in self.thresholds.iter().enumerate() {
            if let Some(t) = *t {
                rb.set_sender_quarantine(sender, t);
                oracle.thresholds[sender] = t;
            }
        }
        rb.set_anti_replay(self.anti_replay);
        oracle.anti_replay = self.anti_replay;
    }
}

/// Every observable of the two buffers, compared after each step.
fn assert_agree(rb: &mut ReorderBuffer, oracle: &mut Oracle, step: usize) {
    assert_eq!(rb.take_events(), std::mem::take(&mut oracle.events), "events at step {step}");
    assert_eq!(
        rb.counters(),
        (oracle.duplicates, oracle.late, oracle.reordered),
        "counters at step {step}"
    );
    assert_eq!(rb.replayed(), oracle.replayed, "replayed at step {step}");
    assert_eq!(rb.max_watermark_lag(), oracle.max_lag, "max lag at step {step}");
    assert_eq!(rb.watermark_lag(), oracle.watermark_lag(), "lag at step {step}");
    assert_eq!(rb.global_frontier(), oracle.global_frontier(), "frontier at step {step}");
    for s in 0..oracle.cfg.n_senders {
        assert_eq!(rb.is_quarantined(s), oracle.quarantined[s], "sender {s} at step {step}");
    }
    assert_eq!(rb.state(), oracle.state(), "state at step {step}");
}

/// Runs one random schedule through both buffers.
fn run_schedule(seed: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    let n_senders = 1 + rng.below(5);
    let cfg = ReorderConfig {
        n_senders,
        jitter_ticks: rng.below(5) as u64,
        quarantine_after_ticks: 1 + rng.below(12) as u64,
    };
    let widths: Vec<usize> = (0..n_senders).map(|_| rng.below(5)).collect();
    let p_drop = [0.0, 0.05, 0.3][rng.below(3)];
    let p_dup = [0.0, 0.05, 0.2][rng.below(3)];
    let mut overrides =
        Overrides { thresholds: vec![None; n_senders], anti_replay: rng.bernoulli(0.5) };
    let mut rb = ReorderBuffer::new(cfg);
    let mut oracle = Oracle::new(cfg);
    overrides.apply(&mut rb, &mut oracle);

    let mut seq = vec![0u32; n_senders];
    // Sent frames, for duplicates and replays: (sender, seq, tick).
    let mut sent: Vec<(usize, u32, u64)> = Vec::new();
    // Per-sender silence: the sender sends nothing until this tick.
    let mut silent_until = vec![0u64; n_senders];
    // Frames in flight: (arrival, sender, seq, tick).
    let mut in_flight: Vec<(u64, usize, u32, u64)> = Vec::new();
    let n_ticks = 20 + rng.below(60) as u64;
    let mut step = 0usize;
    let payload = |sender: usize, tick: u64, width: usize| -> Vec<f32> {
        (0..width).map(|i| (sender * 1000 + i) as f32 + tick as f32 / 8.0).collect()
    };

    for now in 0..n_ticks + cfg.jitter_ticks + 2 {
        if now < n_ticks {
            for sender in 0..n_senders {
                if rng.bernoulli(0.03) {
                    // A dead stretch long enough to trip quarantine.
                    silent_until[sender] = now + 2 + rng.below(20) as u64;
                }
                if now < silent_until[sender] {
                    // A silent sender's stale frame straggles in: it
                    // recovers the sender while it still lags.
                    let last = sent.iter().rev().find(|f| f.0 == sender).copied();
                    if let Some((_, s, tick)) = last.filter(|_| rng.bernoulli(0.1)) {
                        in_flight.push((now, sender, s, tick));
                    }
                    continue;
                }
                if rng.bernoulli(p_drop) {
                    continue;
                }
                seq[sender] += 1;
                let delay = rng.below(cfg.jitter_ticks as usize + 1) as u64;
                in_flight.push((now + delay, sender, seq[sender], now));
                sent.push((sender, seq[sender], now));
            }
        }
        // Deliver everything due, shuffled within the arrival tick.
        let mut due: Vec<_> = in_flight.iter().copied().filter(|f| f.0 <= now).collect();
        in_flight.retain(|f| f.0 > now);
        rng.shuffle(&mut due);
        for (_, sender, s, tick) in due {
            let mut deliveries = vec![(sender, s, tick)];
            if rng.bernoulli(p_dup) && !sent.is_empty() {
                // A duplicate or replay of some earlier frame, or a
                // stale frame whose seq regressed.
                let (ds, dseq, dtick) = sent[rng.below(sent.len())];
                let dseq = if rng.bernoulli(0.3) { dseq.saturating_sub(1) } else { dseq };
                deliveries.push((ds, dseq, dtick));
            }
            for (sender, s, tick) in deliveries {
                let values = payload(sender, tick, widths[sender]);
                let got = rb.push(sender, s, tick, values.clone());
                let want = oracle.push(sender, s, tick, values);
                assert_eq!(got, want, "push outcome at step {step}");
                step += 1;
                if rng.bernoulli(0.6) {
                    assert_eq!(rb.poll(), oracle.poll(), "poll at step {step}");
                }
                assert_agree(&mut rb, &mut oracle, step);
            }
        }
        if rng.bernoulli(0.08) {
            // A deadline change mid-stream.
            let sender = rng.below(n_senders);
            let ticks = rng.below(15) as u64;
            overrides.thresholds[sender] = Some(ticks);
            rb.set_sender_quarantine(sender, ticks);
            oracle.thresholds[sender] = ticks;
        }
        if rng.bernoulli(0.05) {
            overrides.anti_replay = !overrides.anti_replay;
            rb.set_anti_replay(overrides.anti_replay);
            oracle.anti_replay = overrides.anti_replay;
        }
        if rng.bernoulli(0.1) {
            // Checkpoint cut: both continue from the exported state,
            // with the configuration reapplied like the engine does.
            let state = rb.state();
            rb = ReorderBuffer::from_state(cfg, &state).expect("exported state restores");
            oracle = Oracle::from_state(cfg, &state);
            overrides.apply(&mut rb, &mut oracle);
        }
        assert_eq!(rb.poll(), oracle.poll(), "poll at tick {now}");
        step += 1;
        assert_agree(&mut rb, &mut oracle, step);
    }
    assert_eq!(rb.flush(), oracle.flush(), "flush");
    assert_agree(&mut rb, &mut oracle, step + 1);
    assert!(rb.flush().is_empty() && oracle.flush().is_empty());
}

fadewich_testkit::property! {
    #[cases(512)]
    fn slot_buffer_matches_the_previous_buffer(seed in u64s(0..1 << 48)) {
        run_schedule(seed);
    }
}
