//! One office-day's decision stream and its checkpoint step.
//!
//! Every streaming driver commits the same lines — a day header, one
//! [`event_line`] per engine event, an end-of-day summary — to a
//! [`LineSink`], and checkpoints at delivery boundaries through
//! [`DayLog::step`]: [`DayRun`](crate::replay::DayRun) after each
//! delivery, the fleet after each control phase. The step commits the
//! new events before it snapshots, so an image's committed log mark
//! covers every line the restored engine will not re-emit; this is the
//! one place that ordering is written down.

use fadewich_telemetry::{Telemetry, Value};

use crate::checkpoint::{CheckpointStore, Checkpointer};
use crate::engine::{EngineEvent, StreamingEngine};

/// Renders one engine event exactly the way `fadewichd` prints it —
/// the line format the decision logs, and therefore the byte-identity
/// gates, are built on.
#[must_use]
pub fn event_line(ev: &EngineEvent) -> String {
    match ev {
        EngineEvent::Decision { tick, action } => {
            format!("tick {tick:>6}  t {:>8.1}s  {:?}", action.t, action.kind)
        }
        EngineEvent::SensorQuarantined { sensor, tick } => {
            format!("tick {tick:>6}  sensor {sensor} QUARANTINED")
        }
        EngineEvent::SensorRecovered { sensor, tick } => {
            format!("tick {tick:>6}  sensor {sensor} recovered")
        }
        EngineEvent::SensorAttackQuarantined { sensor, tick } => {
            format!("tick {tick:>6}  sensor {sensor} ATTACK-QUARANTINED")
        }
    }
}

/// Receives one office's decision stream — day header, event lines,
/// end-of-day summary — and answers the recovery layer's question.
pub trait LineSink {
    /// One decision-stream line.
    ///
    /// # Errors
    ///
    /// Propagated out of the driver as a decision-log I/O failure.
    fn emit(&mut self, line: &str) -> Result<(), String>;

    /// Committed log bytes so far — recorded into checkpoint images so
    /// a resume can truncate the uncommitted tail. Sinks without a
    /// durable log return 0.
    fn log_mark(&mut self) -> u64 {
        0
    }
}

/// Collects the lines in memory: the stream a file sink would hold.
impl LineSink for Vec<String> {
    fn emit(&mut self, line: &str) -> Result<(), String> {
        self.push(line.to_string());
        Ok(())
    }
}

/// One office-day's decision-log and checkpoint bookkeeping: how many
/// engine events are already committed to the line sink, and when the
/// next checkpoint falls due.
#[derive(Debug)]
pub struct DayLog {
    day: u32,
    committed: usize,
    cadence: Checkpointer,
    stamp_base: u64,
    telemetry: Telemetry,
}

impl DayLog {
    /// Bookkeeping for `engine`'s `day`, at its configured checkpoint
    /// cadence; a restored engine's processed ticks count as already
    /// checkpointed. Images are stamped `stamp_base` plus the day's
    /// processed ticks. `telemetry` counts each save
    /// (`checkpoint_saves`) and records a `checkpoint_saved` event; a
    /// disabled handle records neither.
    pub fn new(
        engine: &StreamingEngine<'_>,
        day: usize,
        stamp_base: u64,
        telemetry: Telemetry,
    ) -> DayLog {
        let mut cadence = Checkpointer::new(engine.config().checkpoint_every_ticks);
        cadence.advance(engine.counters().ticks_processed);
        DayLog { day: day as u32, committed: 0, cadence, stamp_base, telemetry }
    }

    /// Commits every engine event not yet committed to `lines`.
    ///
    /// # Errors
    ///
    /// Sink errors.
    pub fn flush(
        &mut self,
        engine: &StreamingEngine<'_>,
        lines: &mut dyn LineSink,
    ) -> Result<(), String> {
        for ev in &engine.events()[self.committed..] {
            lines.emit(&event_line(ev))?;
        }
        self.committed = engine.events().len();
        Ok(())
    }

    /// The step every driver takes at a delivery boundary: commit the
    /// new events to `lines`, then, given a store and a due checkpoint,
    /// snapshot the engine at `stream_pos` (deliveries fully ingested)
    /// with the sink's committed mark and save it. Events go first, so
    /// the image's mark covers every line the restored engine will not
    /// re-emit and a resume never loses one.
    ///
    /// # Errors
    ///
    /// Sink errors and checkpoint-save failures.
    pub fn step(
        &mut self,
        engine: &StreamingEngine<'_>,
        stream_pos: u64,
        lines: &mut dyn LineSink,
        store: Option<&mut CheckpointStore>,
    ) -> Result<(), String> {
        self.flush(engine, lines)?;
        let ticks = engine.counters().ticks_processed;
        let Some(store) = store.filter(|_| self.cadence.due(ticks)) else {
            return Ok(());
        };
        let stamp = self.stamp_base + ticks;
        let snap = engine.snapshot(self.day, stream_pos, lines.log_mark());
        store.save(stamp, &snap).map_err(|e| format!("checkpoint save failed: {e}"))?;
        self.telemetry.counter_add("checkpoint_saves", 1);
        self.telemetry.event(
            ticks,
            "checkpoint_saved",
            None,
            &[("stamp", Value::U64(stamp)), ("stream_pos", Value::U64(stream_pos))],
        );
        self.cadence.advance(ticks);
        Ok(())
    }
}
