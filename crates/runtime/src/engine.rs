//! The live deauthentication engine.
//!
//! [`StreamingEngine`] is the station-side loop: bytes in, decisions
//! out. It decodes wire frames, reassembles them through the
//! [`ReorderBuffer`](crate::reorder::ReorderBuffer), and — as the
//! watermark closes each tick — rebuilds a full per-stream sample row
//! to advance MD → RE → Controller by exactly one tick:
//!
//! - a stream whose sample is missing this tick is **gap-filled** with
//!   its last seen value, for at most `staleness_cap_ticks` ticks;
//! - past the cap (or before a stream's first sample) the stream is
//!   **masked** out of `s_t` via the core's masked-step API, so a dead
//!   sensor degrades detection sensitivity instead of poisoning it;
//! - sensor quarantine/recovery transitions and every controller
//!   action surface as structured [`EngineEvent`]s, with totals in
//!   [`RuntimeCounters`].
//!
//! With a lossless transport the rebuilt rows equal the recorded trace
//! bit-for-bit and every tick closes unmasked, so decisions match the
//! batch pipeline exactly — the parity test in `tests/parity.rs` holds
//! the two byte-identical.
//!
//! The ingest path copies each sample once. [`StreamingEngine::ingest_bytes`]
//! decodes a zero-copy [`FrameView`] with [`Frame::decode_borrowed`],
//! and after the auth gate its samples go straight from the wire bytes
//! into the reorder buffer's flat slot for the tick; no per-frame
//! `Vec` is built. Closed ticks are popped one at a time, the row is
//! assembled from the slot in place, and the tick advances the
//! controller through exactly one [`Controller::step`] —
//! [`Controller::step_masked`] when a stream is masked — plus
//! [`Controller::observe_light`] for a light suffix. The tick's slot
//! then goes back to the reorder buffer for reuse. The trusted
//! [`StreamingEngine::ingest_frame`] funnels into the same core. Past
//! warm-up a lossless tick makes no heap allocation except at
//! Algorithm-1 batch flushes, as `tests/alloc_ingest.rs` pins.
//!
//! The wall-time `decode` and `step` latency histograms are sampled
//! only while telemetry is enabled ([`StreamingEngine::set_telemetry`]):
//! `decode` times each frame's decode, and `step` takes one sample per
//! drain — per public call that closes ticks, from its first closed
//! tick to its return. With telemetry disabled the engine never reads
//! its clock, and both histograms stay empty.
//!
//! The engine has two **authentication modes**. By default it runs
//! legacy-unauthenticated: v1–v3 frames are accepted exactly as every
//! pre-auth deployment did (byte-identical decisions and stdout), and
//! v4 authenticated frames are rejected — a station without keys
//! cannot verify them. [`StreamingEngine::set_auth`] switches to
//! authenticated mode: only v4 frames whose keyed MAC verifies are
//! accepted, the reorder buffer's sequence-space anti-replay window is
//! armed, and every auth rejection is charged to the claimed sensor's
//! reject-budget window — a sensor flooded past its budget is
//! **attack-quarantined** ([`EngineEvent::SensorAttackQuarantined`], a
//! sticky observability flag that never drops valid frames, so a
//! contained attack leaves the decision stream untouched).
//!
//! The stream set is **channel-typed**: every sensor group carries a
//! [`ChannelKind`], RSSI streams occupy the row prefix handed to
//! MD/RE, and ambient-light streams occupy the suffix routed to the
//! controller's light-detector bank each tick. The historical untyped
//! constructors ([`StreamingEngine::new`] /
//! [`StreamingEngine::restore`]) lift to the all-RSSI special case,
//! which stays byte-identical to the pre-refactor engine; gap-fill
//! staleness and sender quarantine deadlines are per channel kind
//! (see [`EngineConfig::staleness_cap_ticks_for`]).

use std::sync::Arc;

use fadewich_core::auth::KeyTable;
use fadewich_core::config::FadewichParams;
use fadewich_core::controller::{Action, Controller};
use fadewich_core::fusion::FusionConfig;
use fadewich_core::kma::Kma;
use fadewich_core::re::RadioEnvironment;
use fadewich_core::stream::{rssi_groups, ChannelKind, SensorGroup, StreamSchema};
use fadewich_telemetry::{Clock, Telemetry, Value, WallClock};

use crate::checkpoint::EngineSnapshot;
use crate::counters::RuntimeCounters;
use crate::reorder::{ClosedTick, PushOutcome, ReorderBuffer, ReorderConfig, SenderEvent};
use crate::wire::{Frame, FrameView, WireError};

/// Streaming-engine knobs on top of the core pipeline parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Sampling rate of the sensor deployment.
    pub tick_hz: f64,
    /// Core pipeline parameters (MD/RE/controller).
    pub params: FadewichParams,
    /// Reordering bound the transport guarantees (see
    /// [`ReorderConfig::jitter_ticks`]).
    pub jitter_ticks: u64,
    /// Silence (in ticks behind the global frontier) after which a
    /// sensor is quarantined.
    pub quarantine_after_ticks: u64,
    /// How long a missing sample may be gap-filled before the stream
    /// is masked instead.
    pub staleness_cap_ticks: u64,
    /// How often `fadewichd serve` persists a crash-recovery
    /// checkpoint, in processed ticks.
    pub checkpoint_every_ticks: u64,
    /// Ambient-light override of [`EngineConfig::staleness_cap_ticks`]
    /// — light levels drift slowly, so a stale lux reading stays
    /// usable longer than a stale RSSI sample. `None` inherits the
    /// global cap.
    pub light_staleness_cap_ticks: Option<u64>,
    /// Ambient-light override of
    /// [`EngineConfig::quarantine_after_ticks`]. `None` inherits the
    /// global deadline.
    pub light_quarantine_after_ticks: Option<u64>,
}

impl EngineConfig {
    /// Defaults tuned for the paper's 5 Hz deployment: absorb up to
    /// 4 ticks of reorder, gap-fill up to 2 s, quarantine after 5 s of
    /// silence, checkpoint once a minute.
    pub fn new(tick_hz: f64, params: FadewichParams) -> EngineConfig {
        EngineConfig {
            tick_hz,
            params,
            jitter_ticks: 4,
            quarantine_after_ticks: (5.0 * tick_hz).round() as u64,
            staleness_cap_ticks: (2.0 * tick_hz).round() as u64,
            checkpoint_every_ticks: (60.0 * tick_hz) as u64,
            light_staleness_cap_ticks: None,
            light_quarantine_after_ticks: None,
        }
    }

    /// The gap-fill cap for one channel kind: the per-kind override
    /// when set, the global knob otherwise.
    pub fn staleness_cap_ticks_for(&self, kind: ChannelKind) -> u64 {
        match kind {
            ChannelKind::Rssi => self.staleness_cap_ticks,
            ChannelKind::AmbientLight => {
                self.light_staleness_cap_ticks.unwrap_or(self.staleness_cap_ticks)
            }
        }
    }

    /// The quarantine deadline for one channel kind: the per-kind
    /// override when set, the global knob otherwise.
    pub fn quarantine_after_ticks_for(&self, kind: ChannelKind) -> u64 {
        match kind {
            ChannelKind::Rssi => self.quarantine_after_ticks,
            ChannelKind::AmbientLight => {
                self.light_quarantine_after_ticks.unwrap_or(self.quarantine_after_ticks)
            }
        }
    }

    /// Rejects configurations that would wedge or silently disable the
    /// runtime: a zero/non-finite tick rate, degenerate streaming
    /// knobs (a zero jitter bound stalls the watermark on the first
    /// missing frame; a quarantine deadline inside the jitter bound
    /// quarantines healthy sensors; a zero checkpoint cadence would
    /// checkpoint never — or on integer wraparound, "always"), and any
    /// core-parameter violation via
    /// [`FadewichParams::validate`](fadewich_core::config::FadewichParams::validate).
    ///
    /// # Errors
    ///
    /// A description of the first offending knob.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.tick_hz.is_finite() && self.tick_hz > 0.0) {
            return Err(format!("tick_hz {} must be finite and positive", self.tick_hz));
        }
        self.params.validate()?;
        if self.jitter_ticks == 0 {
            return Err("jitter_ticks must be at least 1".to_string());
        }
        if self.staleness_cap_ticks == 0 {
            return Err("staleness_cap_ticks must be at least 1".to_string());
        }
        if self.quarantine_after_ticks <= self.jitter_ticks {
            return Err(format!(
                "quarantine_after_ticks {} must exceed jitter_ticks {} (healthy \
                 senders may legitimately lag by the jitter bound)",
                self.quarantine_after_ticks, self.jitter_ticks
            ));
        }
        if self.checkpoint_every_ticks == 0 {
            return Err("checkpoint_every_ticks must be at least 1".to_string());
        }
        if self.light_staleness_cap_ticks == Some(0) {
            return Err("light_staleness_cap_ticks must be at least 1".to_string());
        }
        if let Some(q) = self.light_quarantine_after_ticks {
            if q <= self.jitter_ticks {
                return Err(format!(
                    "light_quarantine_after_ticks {q} must exceed jitter_ticks {} (healthy \
                     senders may legitimately lag by the jitter bound)",
                    self.jitter_ticks
                ));
            }
        }
        Ok(())
    }
}

/// A structured record of something the engine observed or decided.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// The controller acted (deauth, alert, …) at a tick.
    Decision {
        /// Watermark tick the action was taken at.
        tick: u64,
        /// The controller action.
        action: Action,
    },
    /// A sensor went silent past the deadline; its streams are masked.
    SensorQuarantined {
        /// The sensor id.
        sensor: u16,
        /// Watermark tick of the decision.
        tick: u64,
    },
    /// A quarantined sensor resumed delivering frames.
    SensorRecovered {
        /// The sensor id.
        sensor: u16,
        /// Tick of the frame that revived it.
        tick: u64,
    },
    /// Authentication rejections charged to a sensor exceeded its
    /// reject budget — someone is actively spoofing, replaying or
    /// flooding under that identity. Distinct from
    /// [`EngineEvent::SensorQuarantined`] (staleness): the attack
    /// quarantine is a sticky observability flag and never drops the
    /// sensor's valid frames, so a contained attack cannot perturb
    /// decisions.
    SensorAttackQuarantined {
        /// The claimed sensor id the rejections were charged to.
        sensor: u16,
        /// Claimed tick of the rejection that tripped the budget.
        tick: u64,
    },
}

/// Per-sensor authentication/rate-limit state, checkpointed alongside
/// the reorder state so a restored engine resumes mid-attack with the
/// same budgets and quarantine flags. All-default for
/// legacy-unauthenticated engines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SensorAuthState {
    /// Start tick of the current reject-budget window (aligned to
    /// [`EngineAuth::window_ticks`] so bucketing is deterministic
    /// regardless of when the first rejection lands).
    pub window_start_tick: u64,
    /// Authentication rejections charged to this sensor inside the
    /// current window.
    pub rejected_in_window: u32,
    /// Sticky attack-quarantine flag — set once the budget is
    /// exceeded, never cleared for the rest of the day.
    pub quarantined: bool,
}

/// Authenticated-mode configuration: the per-sensor key table plus the
/// reject-budget knobs that bound how loudly an attacker can knock
/// before the engine flags the targeted identity.
///
/// Keys are keyed by **sensor id** alone (not `(kind, sensor)`): a
/// deployment where an RF and a light sensor share an id shares the
/// key between them, matching how
/// [`KeyTable::derive`](fadewich_core::auth::KeyTable::derive) covers
/// an id range.
#[derive(Debug, Clone)]
pub struct EngineAuth {
    /// Per-sensor MAC keys (usually
    /// [`ModelBundle::keys`](fadewich_core::artifact::ModelBundle)).
    pub keys: KeyTable,
    /// Width of the reject-budget window, in claimed-frame ticks.
    /// Windows are aligned (`start = tick / window * window`).
    pub window_ticks: u64,
    /// Auth rejections tolerated per sensor per window before the
    /// excess counts as rate-limited and the sensor is
    /// attack-quarantined.
    pub reject_budget: u32,
}

impl EngineAuth {
    /// Auth config with the default containment knobs: a 64-tick
    /// window (~13 s at 5 Hz) tolerating 16 rejections — far above
    /// benign corruption rates, far below any useful flood.
    pub fn new(keys: KeyTable) -> EngineAuth {
        EngineAuth { keys, window_ticks: 64, reject_budget: 16 }
    }
}

/// Validates a typed sensor layout and returns the stream schema it
/// spans: positions must partition `0..n`, `(kind, sensor)` ids must
/// be unique, and the RSSI streams must occupy the row prefix so the
/// engine can hand `row[..n_rssi]` to MD/RE untouched.
fn check_layout(groups: &[SensorGroup]) -> Result<StreamSchema, String> {
    let n_streams: usize = groups.iter().map(|g| g.positions.len()).sum();
    let mut seen = vec![false; n_streams];
    for &p in groups.iter().flat_map(|g| &g.positions) {
        if p >= n_streams || seen[p] {
            return Err("receiver groups must partition the stream set".to_string());
        }
        seen[p] = true;
    }
    if n_streams == 0 {
        return Err("engine needs at least one stream".to_string());
    }
    for (i, g) in groups.iter().enumerate() {
        if groups[..i].iter().any(|h| h.sensor == g.sensor && h.kind == g.kind) {
            return Err(format!("duplicate {} sensor id {}", g.kind, g.sensor));
        }
    }
    let schema = StreamSchema::from_groups(groups);
    if !schema.rssi_is_prefix() {
        return Err(
            "RSSI streams must occupy the row prefix (other kinds the suffix)".to_string()
        );
    }
    Ok(schema)
}

/// The station-side streaming engine. See the module docs.
#[derive(Debug)]
pub struct StreamingEngine<'a> {
    cfg: EngineConfig,
    controller: Controller<'a>,
    reorder: ReorderBuffer,
    /// The typed sensor layout — which streams each sensor fills and
    /// what channel they carry (`Trace::receiver_groups` lifts to the
    /// all-RSSI case, `Trace::fused_groups` builds mixed ones).
    groups: Vec<SensorGroup>,
    n_streams: usize,
    /// Width of the RSSI row prefix handed to MD/RE; positions
    /// `n_rssi..n_streams` are ambient-light streams routed to
    /// [`Controller::observe_light`]. Equal to `n_streams` for the
    /// all-RSSI layouts every pre-refactor deployment had.
    n_rssi: usize,
    last_value: Vec<f64>,
    last_seen: Vec<Option<u64>>,
    row: Vec<f64>,
    mask: Vec<bool>,
    counters: RuntimeCounters,
    events: Vec<EngineEvent>,
    /// Authenticated-mode configuration; `None` = legacy mode. Config,
    /// not state — [`StreamingEngine::set_auth`] must be reapplied
    /// after a restore, exactly like telemetry and the clock.
    auth: Option<EngineAuth>,
    /// Per-sensor reject budgets and attack-quarantine flags, indexed
    /// like `groups`. This *is* state and rides the checkpoint.
    auth_state: Vec<SensorAuthState>,
    /// Latency-stage time source. Wall clock by default; tests inject
    /// a [`fadewich_telemetry::ManualClock`] to make latency numbers
    /// deterministic. Read only while telemetry is enabled, and never
    /// consulted on any decision path.
    clock: Arc<dyn Clock>,
    telemetry: Telemetry,
    /// Clock reading at the first tick the current public call closed
    /// (with telemetry enabled); the call records one `step` sample from
    /// it before returning, so this is `None` between calls and never
    /// checkpointed.
    drain_t0: Option<u64>,
}

impl<'a> StreamingEngine<'a> {
    /// Builds an engine for an all-RSSI deployment described by the
    /// legacy `(sensor, positions)` layout (e.g. from
    /// `Trace::receiver_groups`), a trained RE classifier and the
    /// day's KMA source. Exactly
    /// [`StreamingEngine::with_layout`] over the lifted layout and an
    /// RSSI-only fusion configuration — the pre-refactor behavior is
    /// the all-RSSI special case of the typed path, and the parity
    /// suite holds it byte-identical.
    ///
    /// # Errors
    ///
    /// Rejects an empty/inconsistent layout and propagates controller
    /// construction errors.
    pub fn new(
        cfg: EngineConfig,
        groups: Vec<(u16, Vec<usize>)>,
        re: &'a RadioEnvironment,
        kma: Kma<'a>,
    ) -> Result<StreamingEngine<'a>, String> {
        StreamingEngine::with_layout(cfg, rssi_groups(groups), FusionConfig::rssi_only(), re, kma)
    }

    /// Builds an engine over a typed sensor layout: the RSSI prefix
    /// feeds MD/RE as always, ambient-light streams feed the
    /// controller's light-detector bank, and `fusion.mode` arbitrates
    /// who may deauthenticate.
    ///
    /// # Errors
    ///
    /// Rejects an empty/inconsistent layout, a layout whose RSSI
    /// streams are not the row prefix, a light-stream count
    /// disagreeing with `fusion.light_workstations`, and propagates
    /// config/controller construction errors.
    pub fn with_layout(
        cfg: EngineConfig,
        groups: Vec<SensorGroup>,
        fusion: FusionConfig,
        re: &'a RadioEnvironment,
        kma: Kma<'a>,
    ) -> Result<StreamingEngine<'a>, String> {
        cfg.validate()?;
        let schema = check_layout(&groups)?;
        let n_streams = schema.n_streams();
        let n_rssi = schema.count(ChannelKind::Rssi);
        let n_light = schema.count(ChannelKind::AmbientLight);
        if n_light != fusion.light_workstations.len() {
            return Err(format!(
                "layout has {n_light} light streams but the fusion config maps {}",
                fusion.light_workstations.len()
            ));
        }
        let controller = Controller::with_fusion(n_rssi, cfg.tick_hz, cfg.params, re, kma, fusion)?;
        let reorder = Self::build_reorder(&cfg, &groups);
        Ok(StreamingEngine {
            cfg,
            controller,
            reorder,
            n_streams,
            n_rssi,
            last_value: vec![0.0; n_streams],
            last_seen: vec![None; n_streams],
            row: vec![0.0; n_streams],
            mask: vec![false; n_streams],
            counters: RuntimeCounters::default(),
            events: Vec::new(),
            auth: None,
            auth_state: vec![SensorAuthState::default(); groups.len()],
            clock: Arc::new(WallClock),
            telemetry: Telemetry::disabled(),
            groups,
            drain_t0: None,
        })
    }

    /// A reorder buffer for this layout, with the per-kind quarantine
    /// overrides applied per sender. Thresholds are config, not state:
    /// restore rebuilds them through here too.
    fn build_reorder(cfg: &EngineConfig, groups: &[SensorGroup]) -> ReorderBuffer {
        let mut reorder = ReorderBuffer::new(ReorderConfig {
            n_senders: groups.len(),
            jitter_ticks: cfg.jitter_ticks,
            quarantine_after_ticks: cfg.quarantine_after_ticks,
        });
        for (sender, g) in groups.iter().enumerate() {
            reorder.set_sender_quarantine(sender, cfg.quarantine_after_ticks_for(g.kind));
        }
        reorder
    }

    /// Number of monitored streams (all channel kinds).
    pub fn n_streams(&self) -> usize {
        self.n_streams
    }

    /// Width of the RSSI row prefix MD/RE consume; the remaining
    /// `n_streams() - n_rssi_streams()` positions are ambient-light
    /// streams.
    pub fn n_rssi_streams(&self) -> usize {
        self.n_rssi
    }

    /// Attaches a telemetry handle. Spans and metrics flow through it
    /// from here on, cascaded into the controller and MD layers so the
    /// decision audit trail is causally linked end to end. A disabled
    /// handle (the default) keeps the engine bit-identical to the
    /// uninstrumented build.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.controller.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Replaces the latency time source (tests inject a manual clock).
    /// Latency histograms are observability only, sampled only while
    /// telemetry is enabled: with the default disabled handle the clock
    /// is never read, and it is never consulted on a decision path.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// Switches the engine into **authenticated mode**: from here on,
    /// [`StreamingEngine::ingest_bytes`] accepts only v4 frames whose
    /// keyed MAC verifies against `auth.keys`, the reorder buffer's
    /// per-sensor anti-replay window is armed, and auth rejections are
    /// charged against the claimed sensor's reject budget (see
    /// [`EngineAuth`]). Call before ingesting any frames. Auth is
    /// config, not state — reapply after
    /// [`StreamingEngine::restore_with_layout`], exactly like
    /// telemetry; the per-sensor budgets and quarantine flags
    /// themselves ride the checkpoint.
    ///
    /// # Panics
    ///
    /// If `auth.window_ticks` is zero (the budget window would never
    /// advance).
    pub fn set_auth(&mut self, auth: EngineAuth) {
        assert!(auth.window_ticks > 0, "auth window_ticks must be at least 1");
        self.reorder.set_anti_replay(true);
        self.auth = Some(auth);
    }

    /// Whether the engine is in authenticated mode.
    pub fn is_authenticated(&self) -> bool {
        self.auth.is_some()
    }

    /// Feeds raw wire bytes (one or more concatenated frames). Frames
    /// for unknown sensors are counted as corrupt and skipped; a
    /// decode error abandons the rest of the buffer (framing is lost).
    ///
    /// This is the **untrusted boundary**: in authenticated mode every
    /// frame's MAC is verified here and rejects never reach engine
    /// state ([`StreamingEngine::ingest_frame`] is the trusted,
    /// already-decoded path and bypasses verification).
    pub fn ingest_bytes(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            self.counters.bytes_in += bytes.len() as u64;
            let t0 = self.telemetry.is_enabled().then(|| self.clock.now_ns());
            let decoded = Frame::decode_borrowed(bytes);
            if let Some(t0) = t0 {
                self.counters.decode.record_ns(self.clock.now_ns().saturating_sub(t0));
            }
            match decoded {
                Ok((view, used)) => {
                    self.counters.bytes_in -= (bytes.len() - used) as u64;
                    bytes = &bytes[used..];
                    if self.authenticate(&view) {
                        let (channel, sensor, seq, tick) =
                            (view.channel, view.sensor, view.seq, view.tick);
                        self.ingest(channel, sensor, seq, tick, view.len(), view.values());
                    }
                }
                Err(WireError::BadChecksum { .. }) => {
                    self.counters.corrupt_crc += 1;
                    break;
                }
                Err(_) => {
                    // Truncated / BadMagic / BadLength: framing is lost.
                    self.counters.corrupt_framing += 1;
                    break;
                }
            }
        }
        self.record_drain();
    }

    /// Feeds one already-decoded frame. This is the **trusted** path —
    /// a [`Frame`] carries no MAC, so no verification happens here;
    /// untrusted wire input must come through
    /// [`StreamingEngine::ingest_bytes`].
    pub fn ingest_frame(&mut self, frame: Frame) {
        let n_values = frame.values.len();
        self.ingest(frame.channel, frame.sensor, frame.seq, frame.tick, n_values, frame.values);
        self.record_drain();
    }

    /// Authentication gate for one wire frame. Legacy mode: v1–v3 pass
    /// untouched (byte-identical to the pre-auth engine), v4 is
    /// rejected — no keys to verify with. Authenticated mode: only a
    /// v4 frame whose MAC verifies under the claimed sensor's key
    /// passes; legacy frames, unknown key ids and bad MACs are all
    /// mode/auth mismatches. Every rejection increments
    /// `frames_unauthenticated` and is charged to the claimed sensor's
    /// reject budget.
    fn authenticate(&mut self, view: &FrameView<'_>) -> bool {
        let ok = match &self.auth {
            None => !view.is_authenticated(),
            Some(auth) => {
                view.is_authenticated()
                    && auth.keys.get(view.sensor).is_some_and(|key| view.verify_mac(key))
            }
        };
        if !ok {
            self.counters.frames_unauthenticated += 1;
            self.auth_reject(view.channel, view.sensor, view.tick);
        }
        ok
    }

    /// Charges one authentication rejection (bad/missing MAC or
    /// replay) to the claimed `(channel, sensor)` identity. Rejections
    /// beyond the per-window budget count as rate-limited, and the
    /// first over-budget window trips the sticky attack quarantine.
    /// Unknown claimed identities are skipped — there is no budget row
    /// to charge (the rejection itself was already counted).
    ///
    /// All bookkeeping: rejected frames were dropped *before* this
    /// call, so the quarantine never suppresses valid frames and a
    /// contained attack leaves the decision stream bit-identical to a
    /// clean run.
    fn auth_reject(&mut self, channel: ChannelKind, sensor: u16, tick: u64) {
        let Some(auth) = &self.auth else {
            return;
        };
        let (window_ticks, budget) = (auth.window_ticks, auth.reject_budget);
        let Some(sender) =
            self.groups.iter().position(|g| g.sensor == sensor && g.kind == channel)
        else {
            return;
        };
        let mut st = self.auth_state[sender];
        let window_start = (tick / window_ticks) * window_ticks;
        if window_start != st.window_start_tick {
            st.window_start_tick = window_start;
            st.rejected_in_window = 0;
        }
        st.rejected_in_window = st.rejected_in_window.saturating_add(1);
        if st.rejected_in_window > budget {
            self.counters.frames_rate_limited += 1;
            if !st.quarantined {
                st.quarantined = true;
                self.counters.attack_quarantines += 1;
                let kind = self.groups[sender].kind;
                let mut attrs = vec![("sensor", Value::U64(u64::from(sensor)))];
                if kind != ChannelKind::Rssi {
                    attrs.push(("channel", Value::Str(kind.label().to_string())));
                }
                self.telemetry.event(tick, "sensor_attack_quarantined", None, &attrs);
                self.events.push(EngineEvent::SensorAttackQuarantined { sensor, tick });
            }
        }
        self.auth_state[sender] = st;
    }

    /// The one ingest core behind both entry points: validates the
    /// claimed sender and width, copies the samples into the reorder
    /// buffer's slot for `tick` and processes every tick that closes.
    fn ingest(
        &mut self,
        channel: ChannelKind,
        sensor: u16,
        seq: u32,
        tick: u64,
        n_values: usize,
        samples: impl IntoIterator<Item = f32>,
    ) {
        // Sensor ids are namespaced per channel kind, so the lookup
        // keys on the (kind, sensor) pair.
        let Some(sender) =
            self.groups.iter().position(|g| g.sensor == sensor && g.kind == channel)
        else {
            self.counters.corrupt_unknown_sensor += 1;
            return;
        };
        if n_values != self.groups[sender].positions.len() {
            self.counters.corrupt_unknown_sensor += 1;
            return;
        }
        self.counters.frames_in += 1;
        self.counters.channel_mut(channel).frames_in += 1;
        let outcome = self.reorder.push_samples(sender, seq, tick, samples);
        if outcome == PushOutcome::Replayed {
            // A byte-exact capture passes the MAC, so replay is the
            // anti-replay window's catch: charge it to the sensor's
            // reject budget like any other auth rejection.
            self.auth_reject(channel, sensor, tick);
        }
        self.process_closed();
    }

    /// Polls the reorder buffer: its liveness events enter the log
    /// first, then each closed tick is processed straight from its slot.
    fn process_closed(&mut self) {
        self.reorder.begin_poll();
        self.absorb_reorder_events();
        while let Some(closed) = self.reorder.pop_closed() {
            self.process_tick(closed);
        }
    }

    /// End-of-stream: drains the reorder buffer and, if the day is
    /// known to run to `expected_ticks`, advances the pipeline through
    /// any fully-lost tail ticks so tick indexing matches the batch
    /// run.
    pub fn finish(&mut self, expected_ticks: u64) {
        self.process_closed();
        if let Some(last) = self.reorder.flush_horizon() {
            while let Some(closed) = self.reorder.pop_through(last) {
                self.process_tick(closed);
            }
        }
        while self.counters.ticks_processed < expected_ticks {
            let tick = self.counters.ticks_processed;
            self.process_tick(ClosedTick::missing(tick));
        }
        self.record_drain();
    }

    /// Records the wall time since the first tick this call closed as
    /// one `step` sample. A call that closed no tick, or ran with
    /// telemetry off, reads no clock.
    fn record_drain(&mut self) {
        if let Some(t0) = self.drain_t0.take() {
            self.counters.step.record_ns(self.clock.now_ns().saturating_sub(t0));
        }
    }

    fn absorb_reorder_events(&mut self) {
        let (duplicates, late, reordered) = self.reorder.counters();
        self.counters.frames_duplicate = duplicates;
        self.counters.frames_late = late;
        self.counters.frames_reordered = reordered;
        self.counters.frames_replayed = self.reorder.replayed();
        for ev in self.reorder.take_events() {
            // Telemetry events name the channel only for non-RSSI
            // sensors, keeping all-RSSI traces byte-identical to the
            // pre-refactor engine's.
            match ev {
                SenderEvent::Quarantined { sender, at_tick } => {
                    self.counters.quarantines += 1;
                    let kind = self.groups[sender].kind;
                    self.counters.channel_mut(kind).quarantines += 1;
                    let sensor = self.groups[sender].sensor;
                    let mut attrs = vec![("sensor", Value::U64(u64::from(sensor)))];
                    if kind != ChannelKind::Rssi {
                        attrs.push(("channel", Value::Str(kind.label().to_string())));
                    }
                    self.telemetry.event(at_tick, "sensor_quarantined", None, &attrs);
                    self.events.push(EngineEvent::SensorQuarantined { sensor, tick: at_tick });
                }
                SenderEvent::Recovered { sender, at_tick } => {
                    self.counters.recoveries += 1;
                    let kind = self.groups[sender].kind;
                    self.counters.channel_mut(kind).recoveries += 1;
                    let sensor = self.groups[sender].sensor;
                    let mut attrs = vec![("sensor", Value::U64(u64::from(sensor)))];
                    if kind != ChannelKind::Rssi {
                        attrs.push(("channel", Value::Str(kind.label().to_string())));
                    }
                    self.telemetry.event(at_tick, "sensor_recovered", None, &attrs);
                    self.events.push(EngineEvent::SensorRecovered { sensor, tick: at_tick });
                }
            }
        }
    }

    /// Advances the pipeline by one closed tick, then hands the tick's
    /// slot back to the reorder buffer for reuse.
    fn process_tick(&mut self, closed: ClosedTick) {
        if self.drain_t0.is_none() && self.telemetry.is_enabled() {
            self.drain_t0 = Some(self.clock.now_ns());
        }
        let tick = closed.tick;
        let mut any_masked = false;
        for (sender, g) in self.groups.iter().enumerate() {
            match closed.report(sender) {
                Some(values) => {
                    for (&pos, &v) in g.positions.iter().zip(values) {
                        self.row[pos] = v as f64;
                        self.mask[pos] = false;
                        self.last_value[pos] = v as f64;
                        self.last_seen[pos] = Some(tick);
                    }
                }
                None => {
                    let cap = self.cfg.staleness_cap_ticks_for(g.kind);
                    for &pos in &g.positions {
                        let age = self.last_seen[pos].map(|seen| tick.saturating_sub(seen));
                        match age {
                            Some(age) if age <= cap => {
                                self.row[pos] = self.last_value[pos];
                                self.mask[pos] = false;
                                self.counters.gap_fills += 1;
                                self.counters.channel_mut(g.kind).gap_fills += 1;
                            }
                            _ => {
                                self.row[pos] = self.last_value[pos];
                                self.mask[pos] = true;
                                any_masked = true;
                                self.counters.masked_stream_ticks += 1;
                                self.counters.channel_mut(g.kind).masked_stream_ticks += 1;
                            }
                        }
                    }
                }
            }
        }
        self.counters.watermark_lag_max =
            self.counters.watermark_lag_max.max(self.reorder.max_watermark_lag());
        // The RSSI prefix steps MD/RE, then any light suffix feeds the
        // detector bank, so light observations interleave with RF
        // steps in tick order.
        let n = self.n_rssi;
        let mut n_new = if any_masked {
            self.controller.step_masked(tick as usize, &self.row[..n], &self.mask[..n])
        } else {
            self.controller.step(tick as usize, &self.row[..n])
        };
        if n < self.n_streams {
            n_new +=
                self.controller.observe_light(tick as usize, &self.row[n..], &self.mask[n..]);
        }
        self.counters.ticks_processed += 1;
        let actions = self.controller.actions();
        for action in &actions[actions.len() - n_new..] {
            self.events.push(EngineEvent::Decision { tick, action: *action });
        }
        self.reorder.recycle(closed);
    }

    /// Everything the controller has done so far.
    pub fn actions(&self) -> &[Action] {
        self.controller.actions()
    }

    /// The structured event log, in occurrence order.
    pub fn events(&self) -> &[EngineEvent] {
        &self.events
    }

    /// The runtime counters so far.
    pub fn counters(&self) -> &RuntimeCounters {
        &self.counters
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Captures the complete engine state for crash recovery. Call at
    /// a **delivery boundary** — after ingesting whole link
    /// deliveries, never between the frames of one — so `stream_pos`
    /// (deliveries fully ingested) exactly describes what the
    /// checkpoint contains. `log_mark` is the committed decision-log
    /// byte length; both are the driver's resume coordinates.
    ///
    /// The latency histograms are deliberately dropped: they are
    /// wall-clock measurements, not replayable state.
    pub fn snapshot(&self, day: u32, stream_pos: u64, log_mark: u64) -> EngineSnapshot {
        EngineSnapshot {
            day,
            stream_pos,
            log_mark,
            events_emitted: self.events.len() as u64,
            groups: self.groups.clone(),
            last_value: self.last_value.clone(),
            last_seen: self.last_seen.clone(),
            counters: RuntimeCounters {
                decode: Default::default(),
                step: Default::default(),
                ..self.counters.clone()
            },
            reorder: self.reorder.state(),
            auth_state: self.auth_state.clone(),
            controller: self.controller.runtime_state(),
            kma_clocks: self.controller.kma_clock_state(),
        }
    }

    /// Rebuilds an engine from a checkpoint so that feeding it the
    /// remaining deliveries of the day reproduces an uninterrupted
    /// run's decisions bit-for-bit. The all-RSSI counterpart of
    /// [`StreamingEngine::restore_with_layout`], exactly as
    /// [`StreamingEngine::new`] is of [`StreamingEngine::with_layout`].
    ///
    /// The restored event log starts **empty**: everything up to
    /// [`EngineSnapshot::events_emitted`] was already emitted before
    /// the crash, and the driver stitches the two logs together.
    ///
    /// # Errors
    ///
    /// Rejects a snapshot whose sensor layout does not match
    /// `groups`, whose KMA clock fingerprint does not match this
    /// scenario at the checkpointed time (resuming against the wrong
    /// trace would silently produce wrong decisions), or whose
    /// internal state fails any structural invariant.
    pub fn restore(
        cfg: EngineConfig,
        groups: Vec<(u16, Vec<usize>)>,
        re: &'a RadioEnvironment,
        kma: Kma<'a>,
        snap: &EngineSnapshot,
    ) -> Result<StreamingEngine<'a>, String> {
        StreamingEngine::restore_with_layout(
            cfg,
            rssi_groups(groups),
            FusionConfig::rssi_only(),
            re,
            kma,
            snap,
        )
    }

    /// [`StreamingEngine::restore`] over a typed layout and fusion
    /// configuration: the light-detector bank resumes bit-exactly from
    /// the snapshot alongside the RF state, so mixed-channel
    /// deployments crash-recover with the same byte-identical
    /// guarantee as all-RSSI ones.
    ///
    /// # Errors
    ///
    /// Everything [`StreamingEngine::restore`] rejects, plus a
    /// snapshot whose light-detector count disagrees with `fusion`.
    pub fn restore_with_layout(
        cfg: EngineConfig,
        groups: Vec<SensorGroup>,
        fusion: FusionConfig,
        re: &'a RadioEnvironment,
        kma: Kma<'a>,
        snap: &EngineSnapshot,
    ) -> Result<StreamingEngine<'a>, String> {
        cfg.validate()?;
        let schema = check_layout(&groups)?;
        let n_streams = schema.n_streams();
        let n_rssi = schema.count(ChannelKind::Rssi);
        let n_light = schema.count(ChannelKind::AmbientLight);
        if n_light != fusion.light_workstations.len() {
            return Err(format!(
                "layout has {n_light} light streams but the fusion config maps {}",
                fusion.light_workstations.len()
            ));
        }
        if snap.groups != groups {
            return Err("checkpoint sensor layout does not match this deployment".to_string());
        }
        let controller = Controller::from_runtime_state_fused(
            n_rssi,
            cfg.tick_hz,
            cfg.params,
            re,
            kma,
            fusion,
            &snap.controller,
        )?;
        // Compare the checkpointed KMA idle clocks against this
        // scenario's, bit-exactly: a mismatch means the checkpoint is
        // being resumed against a different input trace.
        let clocks = controller.kma_clock_state();
        let bits = |o: Option<f64>| o.map(f64::to_bits);
        if clocks.len() != snap.kma_clocks.len()
            || !clocks.iter().zip(&snap.kma_clocks).all(|(&a, &b)| bits(a) == bits(b))
        {
            return Err(
                "checkpoint KMA clocks do not match this scenario (wrong input trace?)"
                    .to_string(),
            );
        }
        let mut reorder = ReorderBuffer::from_state(
            ReorderConfig {
                n_senders: groups.len(),
                jitter_ticks: cfg.jitter_ticks,
                quarantine_after_ticks: cfg.quarantine_after_ticks,
            },
            &snap.reorder,
        )?;
        // Per-kind quarantine deadlines are config, not state — they
        // are reapplied here exactly as construction applies them.
        for (sender, g) in groups.iter().enumerate() {
            reorder.set_sender_quarantine(sender, cfg.quarantine_after_ticks_for(g.kind));
        }
        if snap.last_value.len() != n_streams || snap.last_seen.len() != n_streams {
            return Err(format!(
                "checkpoint gap-fill state covers {} streams, deployment has {n_streams}",
                snap.last_value.len()
            ));
        }
        if snap.last_value.iter().any(|v| !v.is_finite()) {
            return Err("checkpoint last-value state contains non-finite samples".to_string());
        }
        if snap.auth_state.len() != groups.len() {
            return Err(format!(
                "checkpoint auth state covers {} sensors, deployment has {}",
                snap.auth_state.len(),
                groups.len()
            ));
        }
        Ok(StreamingEngine {
            cfg,
            controller,
            reorder,
            n_streams,
            n_rssi,
            last_value: snap.last_value.clone(),
            last_seen: snap.last_seen.clone(),
            row: vec![0.0; n_streams],
            mask: vec![false; n_streams],
            counters: snap.counters.clone(),
            events: Vec::new(),
            auth: None,
            auth_state: snap.auth_state.clone(),
            clock: Arc::new(WallClock),
            telemetry: Telemetry::disabled(),
            groups,
            drain_t0: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fadewich_core::features::TrainingSample;
    use fadewich_officesim::InputTrace;
    use fadewich_stats::rng::Rng;

    /// A tiny trained classifier (the engine only needs *a* valid RE).
    fn tiny_re(n_streams: usize) -> RadioEnvironment {
        use fadewich_core::features::extract_features;
        use fadewich_officesim::DayTrace;
        let mut rng = Rng::seed_from_u64(1);
        let params = FadewichParams::default();
        let mut samples = Vec::new();
        for i in 0..20 {
            let sd = if i % 2 == 1 { 4.0 } else { 0.6 };
            let mut day = DayTrace::with_capacity(n_streams, 30);
            for _ in 0..30 {
                let row: Vec<f64> = (0..n_streams).map(|_| -50.0 + rng.normal() * sd).collect();
                day.push_row(&row);
            }
            let streams: Vec<usize> = (0..n_streams).collect();
            let features = extract_features(&day, &streams, 0, 5.0, &params);
            samples.push(TrainingSample { features, label: i % 2 });
        }
        RadioEnvironment::train(&samples, None, &mut rng).unwrap()
    }

    fn quiet_inputs() -> InputTrace {
        let busy: Vec<f64> = (0..600).step_by(3).map(|s| s as f64).collect();
        InputTrace::from_times(vec![busy.clone(), busy])
    }

    /// Two sensors × two streams each.
    fn groups() -> Vec<(u16, Vec<usize>)> {
        vec![(0u16, vec![0, 1]), (1u16, vec![2, 3])]
    }

    fn engine_cfg() -> EngineConfig {
        let params = FadewichParams { profile_init_s: 30.0, ..Default::default() };
        let mut cfg = EngineConfig::new(5.0, params);
        cfg.jitter_ticks = 2;
        cfg.quarantine_after_ticks = 10;
        cfg.staleness_cap_ticks = 3;
        cfg
    }

    /// Two RF sensors × two streams each, plus one light sensor on the
    /// suffix position — the smallest mixed-channel deployment.
    fn mixed_groups() -> Vec<SensorGroup> {
        vec![
            SensorGroup::rssi(0, vec![0, 1]),
            SensorGroup::rssi(1, vec![2, 3]),
            SensorGroup { sensor: 0, kind: ChannelKind::AmbientLight, positions: vec![4] },
        ]
    }

    fn fusion_cfg(mode: fadewich_core::fusion::DecisionMode) -> FusionConfig {
        FusionConfig { mode, light_workstations: vec![0], ..FusionConfig::rssi_only() }
    }

    /// One tick of frames for the mixed layout: RF rows plus a lux
    /// sample (`None` skips the light sensor).
    fn feed_mixed_tick(engine: &mut StreamingEngine<'_>, tick: u64, lux: Option<f64>) {
        let mut rng = Rng::task_stream(99, tick);
        for (sensor, positions) in groups() {
            let values: Vec<f32> =
                positions.iter().map(|_| -50.0 + rng.normal() as f32 * 0.6).collect();
            engine.ingest_frame(Frame::rssi(sensor, tick as u32, tick, values));
        }
        if let Some(lux) = lux {
            engine.ingest_frame(Frame {
                office: 0,
                channel: ChannelKind::AmbientLight,
                sensor: 0,
                seq: tick as u32,
                tick,
                values: vec![lux as f32],
            });
        }
    }

    fn feed_tick(engine: &mut StreamingEngine<'_>, tick: u64, skip_sensor: Option<u16>) {
        let mut rng = Rng::task_stream(99, tick);
        for (sensor, positions) in groups() {
            if Some(sensor) == skip_sensor {
                continue;
            }
            let values: Vec<f32> =
                positions.iter().map(|_| -50.0 + rng.normal() as f32 * 0.6).collect();
            engine.ingest_frame(Frame::rssi(sensor, tick as u32, tick, values));
        }
    }

    /// A clock that counts its reads (each read advances it 1 µs).
    #[derive(Debug, Default)]
    struct CountingClock(std::sync::atomic::AtomicU64);

    impl Clock for CountingClock {
        fn now_ns(&self) -> u64 {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed) * 1_000
        }
    }

    #[test]
    fn clock_is_read_only_with_telemetry_enabled() {
        let re = tiny_re(4);
        let inputs = quiet_inputs();
        // A lossless 60-tick day of v1 wire frames, one per call.
        let mut frames = Vec::new();
        for t in 0..60u64 {
            let mut rng = Rng::task_stream(99, t);
            for (sensor, positions) in groups() {
                let values = positions.iter().map(|_| -50.0 + rng.normal() as f32 * 0.6).collect();
                frames.push(Frame::rssi(sensor, t as u32, t, values).encode());
            }
        }
        // (clock reads, calls that closed a tick, counters, actions)
        let run = |telemetry: Telemetry| {
            let clock = Arc::new(CountingClock::default());
            let mut e =
                StreamingEngine::new(engine_cfg(), groups(), &re, Kma::new(&inputs)).unwrap();
            e.set_telemetry(telemetry);
            e.set_clock(clock.clone());
            let mut closing_calls = 0u64;
            for bytes in &frames {
                let before = e.counters().ticks_processed;
                e.ingest_bytes(bytes);
                closing_calls += u64::from(e.counters().ticks_processed > before);
            }
            let reads = clock.0.load(std::sync::atomic::Ordering::Relaxed);
            (reads, closing_calls, e.counters().clone(), e.actions().to_vec())
        };
        let (reads, _, off, off_actions) = run(Telemetry::disabled());
        assert_eq!(reads, 0, "telemetry off, yet the clock was read");
        assert_eq!((off.decode.count(), off.step.count()), (0, 0));
        assert_eq!(off.ticks_processed, 60);

        // Metrics on: two reads per decoded frame plus two per call
        // that closed a tick, one sample each.
        let (reads, closing_calls, on, on_actions) = run(Telemetry::metrics_only());
        assert_eq!(on.frames_in, 120);
        assert_eq!(closing_calls, 60);
        assert_eq!(reads, 2 * on.frames_in + 2 * closing_calls);
        assert_eq!((on.decode.count(), on.step.count()), (on.frames_in, closing_calls));
        assert_eq!(on.deterministic_summary(), off.deterministic_summary());
        assert_eq!(on_actions, off_actions);
    }

    #[test]
    fn rejects_bad_layouts() {
        let re = tiny_re(4);
        let inputs = quiet_inputs();
        let bad = vec![(0u16, vec![0, 1]), (1u16, vec![1, 2])];
        assert!(StreamingEngine::new(engine_cfg(), bad, &re, Kma::new(&inputs)).is_err());
        assert!(StreamingEngine::new(engine_cfg(), vec![], &re, Kma::new(&inputs)).is_err());
    }

    #[test]
    fn corrupt_bytes_are_counted_not_fatal() {
        let re = tiny_re(4);
        let inputs = quiet_inputs();
        let mut e = StreamingEngine::new(engine_cfg(), groups(), &re, Kma::new(&inputs)).unwrap();
        let mut bytes =
            Frame::rssi(0, 0, 0, vec![-50.0, -50.0]).encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        e.ingest_bytes(&bytes);
        assert_eq!(e.counters().frames_corrupt(), 1);
        assert_eq!(e.counters().corrupt_crc, 1);
        assert_eq!(e.counters().frames_in, 0);
    }

    #[test]
    fn corrupt_frames_are_counted_per_reason() {
        let re = tiny_re(4);
        let inputs = quiet_inputs();
        let mut e = StreamingEngine::new(engine_cfg(), groups(), &re, Kma::new(&inputs)).unwrap();
        // Bad CRC: flip a payload byte so the checksum disagrees.
        let mut crc = Frame::rssi(0, 0, 0, vec![-50.0, -50.0]).encode();
        let mid = crc.len() / 2;
        crc[mid] ^= 0xFF;
        e.ingest_bytes(&crc);
        // Bad framing: garbage that cannot even carry the magic.
        e.ingest_bytes(&[0u8; 6]);
        // Unknown sensor id, and a known sensor with the wrong payload
        // width — both rejected at the engine boundary.
        e.ingest_frame(Frame::rssi(77, 0, 0, vec![-50.0, -50.0]));
        e.ingest_frame(Frame::rssi(0, 0, 0, vec![-50.0]));
        let c = e.counters();
        assert_eq!(c.corrupt_crc, 1);
        assert_eq!(c.corrupt_framing, 1);
        assert_eq!(c.corrupt_unknown_sensor, 2);
        assert_eq!(c.frames_corrupt(), 4);
        assert_eq!(c.frames_in, 0);
    }

    #[test]
    fn short_gap_is_filled_long_gap_is_masked() {
        let re = tiny_re(4);
        let inputs = quiet_inputs();
        let mut e = StreamingEngine::new(engine_cfg(), groups(), &re, Kma::new(&inputs)).unwrap();
        // 20 clean ticks, then sensor 1 goes silent for good.
        for t in 0..20 {
            feed_tick(&mut e, t, None);
        }
        for t in 20..40 {
            feed_tick(&mut e, t, Some(1));
        }
        e.finish(40);
        let c = e.counters();
        assert_eq!(c.ticks_processed, 40);
        // First `staleness_cap` missing ticks gap-fill, the rest mask.
        assert!(c.gap_fills >= 2 * 3, "gap fills: {}", c.gap_fills);
        assert!(c.masked_stream_ticks > 0, "nothing was masked");
        assert_eq!(c.quarantines, 1);
        assert!(e
            .events()
            .iter()
            .any(|ev| matches!(ev, EngineEvent::SensorQuarantined { sensor: 1, .. })));
    }

    #[test]
    fn quarantined_sensor_recovers() {
        let re = tiny_re(4);
        let inputs = quiet_inputs();
        let mut e = StreamingEngine::new(engine_cfg(), groups(), &re, Kma::new(&inputs)).unwrap();
        for t in 0..15 {
            feed_tick(&mut e, t, None);
        }
        for t in 15..30 {
            feed_tick(&mut e, t, Some(1));
        }
        for t in 30..45 {
            feed_tick(&mut e, t, None);
        }
        e.finish(45);
        assert_eq!(e.counters().quarantines, 1);
        assert_eq!(e.counters().recoveries, 1);
        assert!(e
            .events()
            .iter()
            .any(|ev| matches!(ev, EngineEvent::SensorRecovered { sensor: 1, .. })));
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let re = tiny_re(4);
        let inputs = quiet_inputs();
        let cases: Vec<(&str, EngineConfig)> = vec![
            ("nan tick_hz", EngineConfig { tick_hz: f64::NAN, ..engine_cfg() }),
            ("zero tick_hz", EngineConfig { tick_hz: 0.0, ..engine_cfg() }),
            ("zero jitter", EngineConfig { jitter_ticks: 0, ..engine_cfg() }),
            ("zero staleness cap", EngineConfig { staleness_cap_ticks: 0, ..engine_cfg() }),
            (
                "quarantine inside jitter",
                EngineConfig { jitter_ticks: 10, quarantine_after_ticks: 10, ..engine_cfg() },
            ),
            ("zero checkpoint cadence", EngineConfig { checkpoint_every_ticks: 0, ..engine_cfg() }),
        ];
        for (what, cfg) in cases {
            assert!(cfg.validate().is_err(), "{what} should be rejected");
            assert!(
                StreamingEngine::new(cfg, groups(), &re, Kma::new(&inputs)).is_err(),
                "engine built with {what}"
            );
        }
        assert!(engine_cfg().validate().is_ok());
        assert!(EngineConfig::new(5.0, FadewichParams::default()).validate().is_ok());
    }

    #[test]
    fn permanently_dead_sensor_degrades_but_never_stalls() {
        // Satellite: a sensor that dies and never comes back. The
        // watermark must keep advancing on the survivor's frames alone,
        // the dead streams must transition gap-fill → masked, and the
        // counters must record the degradation.
        let re = tiny_re(4);
        let inputs = quiet_inputs();
        let mut e = StreamingEngine::new(engine_cfg(), groups(), &re, Kma::new(&inputs)).unwrap();
        for t in 0..20 {
            feed_tick(&mut e, t, None);
        }
        for t in 20..200 {
            feed_tick(&mut e, t, Some(1));
        }
        e.finish(200);
        let c = e.counters();
        assert_eq!(c.ticks_processed, 200, "watermark stalled behind the dead sensor");
        // Streams 2 and 3 gap-fill for the staleness cap (3 ticks each)
        // then mask for the remaining ~177 ticks of the day.
        assert_eq!(c.gap_fills, 2 * 3);
        assert_eq!(c.masked_stream_ticks, 2 * (180 - 3));
        assert_eq!(c.quarantines, 1, "the dead sensor should be quarantined exactly once");
        assert_eq!(c.recoveries, 0, "a dead sensor must not fake a recovery");
        assert!(e
            .events()
            .iter()
            .any(|ev| matches!(ev, EngineEvent::SensorQuarantined { sensor: 1, .. })));
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let re = tiny_re(4);
        let inputs = quiet_inputs();
        let mut full =
            StreamingEngine::new(engine_cfg(), groups(), &re, Kma::new(&inputs)).unwrap();
        let mut pre = StreamingEngine::new(engine_cfg(), groups(), &re, Kma::new(&inputs)).unwrap();
        // A day with a mid-run outage so the snapshot catches gap-fill,
        // mask and quarantine state in flight.
        let feed = |e: &mut StreamingEngine<'_>, t: u64| {
            let skip = if (40..60).contains(&t) { Some(1) } else { None };
            feed_tick(e, t, skip);
        };
        for t in 0..300 {
            feed(&mut full, t);
        }
        full.finish(300);

        let cut = 150u64;
        for t in 0..cut {
            feed(&mut pre, t);
        }
        let snap = pre.snapshot(0, cut, 0);
        let events_before = snap.events_emitted as usize;
        let mut post =
            StreamingEngine::restore(engine_cfg(), groups(), &re, Kma::new(&inputs), &snap)
                .unwrap();
        // The snapshot must round-trip through the restored engine —
        // modulo the stitching metadata, since restored logs start
        // empty by design.
        let mut roundtrip = post.snapshot(0, cut, 0);
        assert_eq!(roundtrip.events_emitted, 0);
        assert_eq!(roundtrip.controller.n_actions, 0);
        roundtrip.events_emitted = snap.events_emitted;
        roundtrip.controller.n_actions = snap.controller.n_actions;
        assert_eq!(roundtrip, snap);
        for t in cut..300 {
            feed(&mut post, t);
        }
        post.finish(300);

        let stitched_actions: Vec<_> = pre.actions()[..snap.controller.n_actions as usize]
            .iter()
            .chain(post.actions())
            .copied()
            .collect();
        assert_eq!(full.actions(), &stitched_actions[..]);
        let stitched: Vec<EngineEvent> = pre.events()[..events_before]
            .iter()
            .chain(post.events())
            .cloned()
            .collect();
        assert_eq!(full.events(), &stitched[..]);
        let (a, b) = (full.counters(), post.counters());
        assert_eq!(a.deterministic_summary(), b.deterministic_summary());
        assert_eq!(
            (a.gap_fills, a.masked_stream_ticks, a.quarantines, a.recoveries),
            (b.gap_fills, b.masked_stream_ticks, b.quarantines, b.recoveries)
        );
    }

    #[test]
    fn restore_rejects_mismatched_deployments() {
        let re = tiny_re(4);
        let inputs = quiet_inputs();
        let mut e = StreamingEngine::new(engine_cfg(), groups(), &re, Kma::new(&inputs)).unwrap();
        for t in 0..30 {
            feed_tick(&mut e, t, None);
        }
        let snap = e.snapshot(0, 30, 0);

        // Different sensor layout.
        let other = vec![(0u16, vec![0, 1, 2, 3])];
        assert!(
            StreamingEngine::restore(engine_cfg(), other, &re, Kma::new(&inputs), &snap).is_err()
        );
        // Same layout, different scenario: the KMA fingerprint differs.
        let other_inputs = InputTrace::from_times(vec![vec![1.0], vec![2.0]]);
        assert!(StreamingEngine::restore(
            engine_cfg(),
            groups(),
            &re,
            Kma::new(&other_inputs),
            &snap
        )
        .is_err());
        // Corrupted gap-fill state.
        let mut bad = snap.clone();
        bad.last_value[0] = f64::NAN;
        assert!(
            StreamingEngine::restore(engine_cfg(), groups(), &re, Kma::new(&inputs), &bad).is_err()
        );
    }

    #[test]
    fn out_of_order_within_jitter_is_transparent() {
        let re = tiny_re(4);
        let inputs = quiet_inputs();
        let mut a = StreamingEngine::new(engine_cfg(), groups(), &re, Kma::new(&inputs)).unwrap();
        let mut b = StreamingEngine::new(engine_cfg(), groups(), &re, Kma::new(&inputs)).unwrap();
        // Engine a: in order. Engine b: each sensor's frames swapped in
        // pairs (displacement 1 ≤ jitter 2).
        let mut frames = Vec::new();
        for t in 0..30u64 {
            let mut rng = Rng::task_stream(5, t);
            for (sensor, positions) in groups() {
                let values: Vec<f32> =
                    positions.iter().map(|_| -50.0 + rng.normal() as f32 * 0.6).collect();
                frames.push(Frame::rssi(sensor, t as u32, t, values));
            }
        }
        for f in &frames {
            a.ingest_frame(f.clone());
        }
        for pair in frames.chunks(4) {
            for f in pair.iter().rev() {
                b.ingest_frame(f.clone());
            }
        }
        a.finish(30);
        b.finish(30);
        assert_eq!(a.actions(), b.actions());
        assert_eq!(a.counters().gap_fills, 0);
        assert_eq!(b.counters().gap_fills, 0);
        assert!(b.counters().frames_reordered > 0);
    }

    #[test]
    fn mixed_layouts_are_validated() {
        use fadewich_core::fusion::DecisionMode;
        let re = tiny_re(4);
        let inputs = quiet_inputs();
        // A light stream inside the RSSI prefix is rejected.
        let interleaved = vec![
            SensorGroup { sensor: 0, kind: ChannelKind::AmbientLight, positions: vec![0] },
            SensorGroup::rssi(0, vec![1, 2]),
            SensorGroup::rssi(1, vec![3, 4]),
        ];
        let err = StreamingEngine::with_layout(
            engine_cfg(),
            interleaved,
            fusion_cfg(DecisionMode::RssiOnly),
            &re,
            Kma::new(&inputs),
        )
        .unwrap_err();
        assert!(err.contains("prefix"), "{err}");
        // Light-stream count must match the fusion mapping.
        let err = StreamingEngine::with_layout(
            engine_cfg(),
            mixed_groups(),
            FusionConfig::rssi_only(),
            &re,
            Kma::new(&inputs),
        )
        .unwrap_err();
        assert!(err.contains("light streams"), "{err}");
        // Sensor ids are namespaced per kind: RF 0 and light 0 coexist,
        // but two light sensors sharing an id are rejected.
        assert!(StreamingEngine::with_layout(
            engine_cfg(),
            mixed_groups(),
            fusion_cfg(DecisionMode::RssiOnly),
            &re,
            Kma::new(&inputs),
        )
        .is_ok());
        let dup = vec![
            SensorGroup::rssi(0, vec![0, 1, 2, 3]),
            SensorGroup { sensor: 5, kind: ChannelKind::AmbientLight, positions: vec![4] },
            SensorGroup { sensor: 5, kind: ChannelKind::AmbientLight, positions: vec![5] },
        ];
        let err = StreamingEngine::with_layout(
            engine_cfg(),
            dup,
            FusionConfig {
                mode: DecisionMode::RssiOnly,
                light_workstations: vec![0, 1],
                ..FusionConfig::rssi_only()
            },
            &re,
            Kma::new(&inputs),
        )
        .unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn per_channel_knobs_gap_fill_and_quarantine_independently() {
        // Satellite: staleness and quarantine deadlines are per channel
        // kind. The light sensor goes silent mid-day; its stream must
        // gap-fill for the *light* cap (6 ticks, not the RSSI 3) and
        // quarantine at the *light* deadline (20 ticks, not 10), while
        // the healthy RF sensors never trip either.
        use fadewich_core::fusion::DecisionMode;
        let re = tiny_re(4);
        let inputs = quiet_inputs();
        let mut cfg = engine_cfg();
        cfg.light_staleness_cap_ticks = Some(6);
        cfg.light_quarantine_after_ticks = Some(20);
        let mut e = StreamingEngine::with_layout(
            cfg,
            mixed_groups(),
            fusion_cfg(DecisionMode::Fused),
            &re,
            Kma::new(&inputs),
        )
        .unwrap();
        assert_eq!(e.n_streams(), 5);
        assert_eq!(e.n_rssi_streams(), 4);
        for t in 0..30 {
            feed_mixed_tick(&mut e, t, Some(420.0));
        }
        for t in 30..60 {
            feed_mixed_tick(&mut e, t, None);
        }
        e.finish(60);
        let c = e.counters();
        assert_eq!(c.ticks_processed, 60);
        let light = c.channel(ChannelKind::AmbientLight);
        let rssi = c.channel(ChannelKind::Rssi);
        assert_eq!(rssi.frames_in, 2 * 60);
        assert_eq!(light.frames_in, 30);
        // Last genuine lux sample at tick 29: ticks 30..=35 gap-fill
        // (age ≤ 6), ticks 36..59 mask.
        assert_eq!(light.gap_fills, 6);
        assert_eq!(light.masked_stream_ticks, 24);
        assert_eq!(rssi.gap_fills, 0);
        assert_eq!(rssi.masked_stream_ticks, 0);
        assert_eq!(light.quarantines, 1);
        assert_eq!(rssi.quarantines, 0);
        // The global totals aggregate the per-channel view.
        assert_eq!(c.gap_fills, 6);
        assert_eq!(c.masked_stream_ticks, 24);
        assert_eq!(c.quarantines, 1);
        assert!(e
            .events()
            .iter()
            .any(|ev| matches!(ev, EngineEvent::SensorQuarantined { sensor: 0, .. })));
    }

    #[test]
    fn fused_snapshot_restore_resumes_bit_identically() {
        // The mixed-channel analogue of
        // `snapshot_restore_resumes_bit_identically`: a light occlusion
        // spans the crash point, so the snapshot captures the detector
        // bank mid-dip, and the resumed run must replay the rest of the
        // day bit-for-bit.
        use fadewich_core::fusion::DecisionMode;
        let re = tiny_re(4);
        let inputs = quiet_inputs();
        let mut cfg = engine_cfg();
        cfg.light_staleness_cap_ticks = Some(6);
        cfg.light_quarantine_after_ticks = Some(20);
        let build = |re, inputs| {
            StreamingEngine::with_layout(
                cfg,
                mixed_groups(),
                fusion_cfg(DecisionMode::LightOnly),
                re,
                Kma::new(inputs),
            )
            .unwrap()
        };
        // Lux: occupied dip from tick 100 through 260, with a short
        // light-sensor outage at 130..140 so gap-fill state is also in
        // flight at the cut.
        let lux_at = |t: u64| {
            if (130..140).contains(&t) {
                None
            } else if (100..260).contains(&t) {
                Some(230.0)
            } else {
                Some(420.0)
            }
        };
        let mut full = build(&re, &inputs);
        for t in 0..300 {
            feed_mixed_tick(&mut full, t, lux_at(t));
        }
        full.finish(300);

        let cut = 150u64;
        let mut pre = build(&re, &inputs);
        for t in 0..cut {
            feed_mixed_tick(&mut pre, t, lux_at(t));
        }
        let snap = pre.snapshot(0, cut, 0);
        assert!(!snap.controller.lights.is_empty(), "light bank missing from snapshot");
        let events_before = snap.events_emitted as usize;
        let mut post = StreamingEngine::restore_with_layout(
            cfg,
            mixed_groups(),
            fusion_cfg(DecisionMode::LightOnly),
            &re,
            Kma::new(&inputs),
            &snap,
        )
        .unwrap();
        let mut roundtrip = post.snapshot(0, cut, 0);
        roundtrip.events_emitted = snap.events_emitted;
        roundtrip.controller.n_actions = snap.controller.n_actions;
        assert_eq!(roundtrip, snap);
        for t in cut..300 {
            feed_mixed_tick(&mut post, t, lux_at(t));
        }
        post.finish(300);

        let stitched_actions: Vec<_> = pre.actions()[..snap.controller.n_actions as usize]
            .iter()
            .chain(post.actions())
            .copied()
            .collect();
        assert_eq!(full.actions(), &stitched_actions[..]);
        let stitched: Vec<EngineEvent> = pre.events()[..events_before]
            .iter()
            .chain(post.events())
            .cloned()
            .collect();
        assert_eq!(full.events(), &stitched[..]);
        assert_eq!(
            full.counters().deterministic_summary(),
            post.counters().deterministic_summary()
        );
        // A restore under a different fusion mode is a different
        // deployment: the detector bank still loads (mode is config,
        // not state), but a mismatched light mapping is rejected.
        assert!(StreamingEngine::restore_with_layout(
            cfg,
            mixed_groups(),
            FusionConfig::rssi_only(),
            &re,
            Kma::new(&inputs),
            &snap,
        )
        .is_err());
    }

    /// Keys for the two-sensor test deployment.
    fn test_keys() -> KeyTable {
        KeyTable::derive(0xD3B, 2)
    }

    /// One tick of authenticated v4 wire frames for `groups()`.
    fn feed_tick_v4(engine: &mut StreamingEngine<'_>, tick: u64, keys: &KeyTable) {
        let mut rng = Rng::task_stream(99, tick);
        for (sensor, positions) in groups() {
            let values: Vec<f32> =
                positions.iter().map(|_| -50.0 + rng.normal() as f32 * 0.6).collect();
            let frame = Frame::rssi(sensor, tick as u32, tick, values);
            engine.ingest_bytes(&frame.encode_auth(keys.get(sensor).unwrap()));
        }
    }

    #[test]
    fn authenticated_engine_accepts_valid_v4_and_rejects_spoofs_and_replays() {
        use fadewich_core::auth::AuthKey;
        let re = tiny_re(4);
        let inputs = quiet_inputs();
        let keys = test_keys();
        let mut e = StreamingEngine::new(engine_cfg(), groups(), &re, Kma::new(&inputs)).unwrap();
        e.set_auth(EngineAuth::new(keys.clone()));
        assert!(e.is_authenticated());
        for t in 0..10 {
            feed_tick_v4(&mut e, t, &keys);
        }
        assert_eq!(e.counters().frames_in, 20, "valid v4 frames must flow");
        assert_eq!(e.counters().frames_unauthenticated, 0);

        // A legacy (unauthenticated) frame is a mode mismatch.
        e.ingest_bytes(&Frame::rssi(0, 10, 10, vec![-50.0, -50.0]).encode());
        // A v4 frame forged under the wrong key.
        let forged = Frame::rssi(1, 10, 10, vec![-50.0, -50.0]);
        e.ingest_bytes(&forged.encode_auth(&AuthKey::derive(0xBAD, 1)));
        // A v4 frame claiming a sensor id outside the key table.
        let unknown = Frame::rssi(7, 10, 10, vec![-50.0, -50.0]);
        e.ingest_bytes(&unknown.encode_auth(&AuthKey::derive(0xD3B, 7)));
        assert_eq!(e.counters().frames_unauthenticated, 3);
        assert_eq!(e.counters().frames_in, 20, "no rejected frame reached the engine");

        // A byte-exact replayed capture passes the MAC; the anti-replay
        // window armed by `set_auth` catches it.
        let capture =
            Frame::rssi(0, 10, 10, vec![-50.0, -50.0]).encode_auth(keys.get(0).unwrap());
        e.ingest_bytes(&capture);
        e.ingest_bytes(&capture);
        let c = e.counters();
        assert_eq!(c.frames_replayed, 1);
        assert_eq!(c.frames_unauthenticated, 3, "a replay is not a MAC failure");
        assert!(c.has_auth_activity());
        assert_eq!(c.frames_rate_limited, 0, "4 rejections sit well inside the budget");
    }

    #[test]
    fn legacy_engine_rejects_v4_frames_and_stays_byte_identical_otherwise() {
        let re = tiny_re(4);
        let inputs = quiet_inputs();
        let keys = test_keys();
        let mut e = StreamingEngine::new(engine_cfg(), groups(), &re, Kma::new(&inputs)).unwrap();
        assert!(!e.is_authenticated());
        // v4 frames are rejected without keys to verify them…
        let f = Frame::rssi(0, 0, 0, vec![-50.0, -50.0]);
        e.ingest_bytes(&f.encode_auth(keys.get(0).unwrap()));
        assert_eq!(e.counters().frames_unauthenticated, 1);
        assert_eq!(e.counters().frames_in, 0);
        // …and rejections charge no budget in legacy mode.
        assert_eq!(e.counters().frames_rate_limited, 0);
        assert_eq!(e.counters().attack_quarantines, 0);
        // Legacy frames flow exactly as before.
        e.ingest_bytes(&f.encode());
        assert_eq!(e.counters().frames_in, 1);
    }

    #[test]
    fn flood_is_contained_rate_limited_and_quarantined_without_decision_divergence() {
        use fadewich_core::auth::AuthKey;
        let re = tiny_re(4);
        let inputs = quiet_inputs();
        let keys = test_keys();
        let build = |re, inputs| {
            let mut e =
                StreamingEngine::new(engine_cfg(), groups(), re, Kma::new(inputs)).unwrap();
            e.set_auth(EngineAuth::new(keys.clone()));
            e
        };
        let mut clean = build(&re, &inputs);
        let mut attacked = build(&re, &inputs);
        let wrong_key = AuthKey::derive(0xBAD, 1);
        let mut injected = 0u64;
        for t in 0..60u64 {
            feed_tick_v4(&mut clean, t, &keys);
            feed_tick_v4(&mut attacked, t, &keys);
            if t == 5 {
                // Deauth-storm flood: 30 forged frames claiming sensor
                // 1, sweeping the sequence space.
                for i in 0..30u32 {
                    let forged = Frame::rssi(1, 1000 + i, t, vec![-30.0, -30.0]);
                    attacked.ingest_bytes(&forged.encode_auth(&wrong_key));
                    injected += 1;
                }
            }
        }
        clean.finish(60);
        attacked.finish(60);
        // Containment: every injected frame rejected, zero divergence.
        assert_eq!(clean.actions(), attacked.actions());
        let c = attacked.counters();
        assert_eq!(c.frames_unauthenticated, injected);
        assert_eq!(c.frames_in, clean.counters().frames_in);
        // Budget 16: rejections 17..=30 count as rate-limited, and the
        // first over-budget rejection trips the sticky quarantine once.
        assert_eq!(c.frames_rate_limited, injected - 16);
        assert_eq!(c.attack_quarantines, 1);
        assert_eq!(
            attacked
                .events()
                .iter()
                .filter(
                    |ev| matches!(ev, EngineEvent::SensorAttackQuarantined { sensor: 1, tick: 5 })
                )
                .count(),
            1
        );
        // The attack quarantine is observability, not suppression: the
        // decision stream already proved valid frames kept flowing.
        let decisions = |e: &StreamingEngine<'_>| {
            e.events()
                .iter()
                .filter(|ev| matches!(ev, EngineEvent::Decision { .. }))
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(decisions(&clean), decisions(&attacked));
    }

    #[test]
    fn auth_state_and_replay_windows_survive_checkpoint_restore() {
        use fadewich_core::auth::AuthKey;
        let re = tiny_re(4);
        let inputs = quiet_inputs();
        let keys = test_keys();
        let mut pre = StreamingEngine::new(engine_cfg(), groups(), &re, Kma::new(&inputs)).unwrap();
        pre.set_auth(EngineAuth::new(keys.clone()));
        for t in 0..20 {
            feed_tick_v4(&mut pre, t, &keys);
        }
        // Flood sensor 1 past the budget so the snapshot catches a
        // tripped quarantine and a part-spent window.
        let wrong_key = AuthKey::derive(0xBAD, 1);
        for i in 0..20u32 {
            let forged = Frame::rssi(1, 2000 + i, 19, vec![-30.0, -30.0]);
            pre.ingest_bytes(&forged.encode_auth(&wrong_key));
        }
        assert_eq!(pre.counters().attack_quarantines, 1);
        let replayable = Frame::rssi(0, 19, 19, vec![-50.0, -50.0]);
        let capture = replayable.encode_auth(keys.get(0).unwrap());

        let snap = pre.snapshot(0, 20, 0);
        let mut post =
            StreamingEngine::restore(engine_cfg(), groups(), &re, Kma::new(&inputs), &snap)
                .unwrap();
        // Auth is config: reapply after restore (state rode the snapshot).
        post.set_auth(EngineAuth::new(keys.clone()));
        // The replay window survived: a capture of a pre-crash frame is
        // still rejected after the restore.
        post.ingest_bytes(&capture);
        assert_eq!(post.counters().frames_replayed, pre.counters().frames_replayed + 1);
        // The quarantine flag is sticky across the crash: more flood
        // rejections keep counting as rate-limited but never re-trip it.
        for i in 0..4u32 {
            let forged = Frame::rssi(1, 3000 + i, 20, vec![-30.0, -30.0]);
            post.ingest_bytes(&forged.encode_auth(&wrong_key));
        }
        let c = post.counters();
        assert_eq!(c.attack_quarantines, 1);
        assert_eq!(c.frames_rate_limited, pre.counters().frames_rate_limited + 4);
        assert!(post.events().is_empty(), "a restored sticky flag must not re-emit its event");
        // A snapshot with a truncated auth-state table is rejected.
        let mut bad = snap.clone();
        bad.auth_state.pop();
        assert!(
            StreamingEngine::restore(engine_cfg(), groups(), &re, Kma::new(&inputs), &bad)
                .is_err()
        );
    }
}
