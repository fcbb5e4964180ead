//! Online streaming runtime — the live counterpart of the batch
//! pipeline.
//!
//! The paper's deployment is inherently online: nine wall sensors
//! stream RSSI to a central station that must deauthenticate within
//! seconds of a departure. This crate provides that station loop for
//! the reproduction:
//!
//! - [`wire`] — the compact binary frame codec (seq, sensor, tick,
//!   payload, CRC-32) sensors would speak, including the v4
//!   keyed-MAC authenticated framing;
//! - [`reorder`] — watermark-based reassembly tolerating out-of-order
//!   delivery, duplicates, jitter and bounded loss, with sensor
//!   quarantine/recovery;
//! - [`engine`] — the tick-at-a-time MD → RE → Controller advance with
//!   hold-last-value gap-fill, masked-stream degradation and
//!   structured events;
//! - [`counters`] — runtime counters plus per-stage latency
//!   histograms, printable and JSON-dumpable;
//! - [`link`] — a seeded lossy-link model for replays;
//! - [`replay`] — scenario-driven replay and the batch reference the
//!   parity test compares against;
//! - [`checkpoint`] — crash-safe, CRC-guarded engine snapshots with
//!   atomic writes, staleness enforcement and bounded retention;
//! - [`fault`] — seeded, reproducible disk-fault schedules (torn
//!   writes, bit flips, transient errors, crash ticks) that exercise
//!   the recovery paths deterministically;
//! - [`attack`] — seeded adversary models (forged/absent-MAC
//!   injection, byte-exact replay, deauth-storm floods) that the
//!   containment study splices into clean sensor streams.
//!
//! The load-bearing invariant: over a lossless link the engine's
//! decisions are **byte-identical** to the batch pipeline's
//! (`tests/parity.rs`); under loss it degrades gracefully and
//! observably instead of failing.
//!
//! # Examples
//!
//! ```
//! use fadewich_runtime::reorder::{ReorderBuffer, ReorderConfig};
//!
//! let mut rb = ReorderBuffer::new(ReorderConfig {
//!     n_senders: 2,
//!     jitter_ticks: 1,
//!     quarantine_after_ticks: 50,
//! });
//! // Frames arrive out of order; ticks still come out in order.
//! rb.push(0, 0, 1, vec![-51.0]);
//! rb.push(1, 0, 1, vec![-47.0]);
//! rb.push(0, 1, 0, vec![-50.0]);
//! rb.push(1, 1, 0, vec![-48.0]);
//! let ticks: Vec<u64> = rb.flush().iter().map(|b| b.tick).collect();
//! assert_eq!(ticks, vec![0, 1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod attack;
pub mod checkpoint;
pub mod counters;
pub mod daylog;
pub mod engine;
pub mod fault;
pub mod link;
pub mod reorder;
pub mod replay;
pub mod wire;

pub use attack::{AttackKind, AttackModel};
pub use checkpoint::{
    CheckpointError, CheckpointStore, Checkpointer, EngineSnapshot, LoadOutcome, RetryPolicy,
};
pub use counters::{LatencyHisto, RuntimeCounters};
pub use engine::{EngineAuth, EngineConfig, EngineEvent, SensorAuthState, StreamingEngine};
pub use fault::{FaultInjector, FaultLog, FaultPlan, WriteFault};
pub use link::LinkModel;
pub use reorder::{ReorderBuffer, ReorderConfig, ReorderState, TickBundle};
pub use wire::{Frame, FrameView, WireError};
