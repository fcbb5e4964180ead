//! The FADEWICH control automaton (paper §IV-F/G, Fig. 4, Table I).
//!
//! Two states drive the system. In **Quiet**, the controller waits for
//! the current variation window to reach `t∆`; at that instant it
//! applies **Rule 1**: query RE for the window's label `c_i` and
//! deauthenticate workstation `c_i` if it has been idle for the whole
//! window (`c_i ∈ S(t∆)` — the paper's table prints `∉`, an evident
//! typo, since deauthenticating a workstation whose user is actively
//! typing contradicts both the usability goal and the case-B analysis).
//! The controller then moves to **Noisy**, where — as long as the
//! window persists — **Rule 2** puts every workstation idle for ≥ 1 s
//! into *alert state*: a screen saver starts after `t_ID` seconds of
//! idleness and the session is deauthenticated `t_ss` seconds later
//! unless input arrives. When MD reports the window over, the system
//! returns to Quiet.
//!
//! A plain inactivity timeout `T` runs underneath, exactly as in the
//! paper's baseline comparison.

use fadewich_stats::rolling::{HistoryBuffer, HistoryState};
use fadewich_svm::PredictScratch;
use fadewich_telemetry::{SpanId, Telemetry, Value};

use crate::config::FadewichParams;
use crate::features::extract_features_from_histories_into;
use crate::fusion::{DecisionMode, FusionConfig, LightDetector, LightDetectorState, LightEvent};
use crate::kma::Kma;
use crate::md::{MdRuntimeState, MovementDetector};
use crate::re::RadioEnvironment;

/// The controller's top-level state (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemState {
    /// No significant variation window in progress.
    Quiet,
    /// A window of ≥ `t∆` is in progress; Rule 2 applies.
    Noisy,
}

/// Something the controller did to a workstation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Action {
    /// When it happened (seconds from day start).
    pub t: f64,
    /// What happened.
    pub kind: ActionKind,
}

/// The kinds of controller actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKind {
    /// Rule 1 deauthenticated the workstation (case A/B head).
    DeauthenticateRule1 {
        /// The workstation deauthenticated.
        workstation: usize,
    },
    /// The alert path deauthenticated the workstation (`t_ID + t_ss`).
    DeauthenticateAlert {
        /// The workstation deauthenticated.
        workstation: usize,
    },
    /// The baseline timeout `T` deauthenticated the workstation.
    DeauthenticateTimeout {
        /// The workstation deauthenticated.
        workstation: usize,
    },
    /// The ambient-light departure detector deauthenticated the
    /// workstation (light-only or fused decision mode).
    DeauthenticateLight {
        /// The workstation deauthenticated.
        workstation: usize,
    },
    /// A workstation entered alert state (Rule 2).
    AlertEntered {
        /// The workstation now in alert state.
        workstation: usize,
    },
    /// The screen saver started on an alerted workstation.
    ScreenSaverOn {
        /// The workstation whose screen saver started.
        workstation: usize,
    },
    /// Input cancelled an alert/screen saver.
    AlertCancelled {
        /// The workstation whose alert ended.
        workstation: usize,
    },
    /// Input after a deauthentication: the user re-authenticated.
    Reauthenticated {
        /// The workstation that logged back in.
        workstation: usize,
    },
}

impl ActionKind {
    /// The workstation this action concerns.
    pub fn workstation(&self) -> usize {
        match *self {
            ActionKind::DeauthenticateRule1 { workstation }
            | ActionKind::DeauthenticateAlert { workstation }
            | ActionKind::DeauthenticateTimeout { workstation }
            | ActionKind::DeauthenticateLight { workstation }
            | ActionKind::AlertEntered { workstation }
            | ActionKind::ScreenSaverOn { workstation }
            | ActionKind::AlertCancelled { workstation }
            | ActionKind::Reauthenticated { workstation } => workstation,
        }
    }

    /// Whether this is any flavor of deauthentication.
    pub fn is_deauth(&self) -> bool {
        matches!(
            self,
            ActionKind::DeauthenticateRule1 { .. }
                | ActionKind::DeauthenticateAlert { .. }
                | ActionKind::DeauthenticateTimeout { .. }
                | ActionKind::DeauthenticateLight { .. }
        )
    }
}

/// Per-workstation session bookkeeping.
#[derive(Debug, Clone, Copy)]
struct WsSession {
    logged_in: bool,
    in_alert: bool,
    screensaver_on: bool,
}

/// Exported per-workstation session flags (the public mirror of the
/// controller's internal bookkeeping, for checkpointing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionState {
    /// Whether the session is authenticated.
    pub logged_in: bool,
    /// Whether Rule 2 has put the workstation in alert state.
    pub in_alert: bool,
    /// Whether the alert escalated to a running screen saver.
    pub screensaver_on: bool,
}

/// The complete in-flight controller state for crash-safe
/// checkpointing: the FSM, every per-workstation session flag, the
/// feature-history ring buffers Rule 1 classifies from, and the full
/// MD runtime state. The borrowed collaborators (`RadioEnvironment`,
/// `Kma`) are *not* captured — they are reconstructed from the model
/// artifact and scenario on restore and validated against this state.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerState {
    /// Complete movement-detector state.
    pub md: MdRuntimeState,
    /// The Fig. 4 FSM state.
    pub system_state: SystemState,
    /// Per-workstation session flags, in workstation order.
    pub sessions: Vec<SessionState>,
    /// Per-stream RSSI feature histories, in stream order: the
    /// controller's one lockstep buffer split per stream, so every
    /// entry shares capacity, sample count and push count.
    pub histories: Vec<HistoryState>,
    /// Whether Rule 1 already fired for the current window.
    pub rule1_done: bool,
    /// Per-light-stream detector state, in light-stream order (empty
    /// for RSSI-only controllers).
    pub lights: Vec<LightDetectorState>,
    /// The most recent tick MD reported an open variation window —
    /// the fused mode's corroboration clock. Tracked in every mode
    /// (it is pure recording), so mode never changes its value.
    pub last_window_tick: Option<u64>,
    /// Time of the last processed tick (seconds from day start).
    pub prev_t: f64,
    /// How many actions the controller had emitted when captured. The
    /// restored controller starts with an *empty* action log; this
    /// count lets a caller stitch pre- and post-crash logs together.
    pub n_actions: u64,
}

impl WsSession {
    /// Day-start state: nobody is logged in overnight; the first input
    /// of the day authenticates the user.
    fn fresh() -> WsSession {
        WsSession { logged_in: false, in_alert: false, screensaver_on: false }
    }
}

/// The online FADEWICH controller for one day of operation.
#[derive(Debug)]
pub struct Controller<'a> {
    params: FadewichParams,
    tick_hz: f64,
    md: MovementDetector,
    re: &'a RadioEnvironment,
    kma: Kma<'a>,
    state: SystemState,
    sessions: Vec<WsSession>,
    /// Every RSSI stream's recent samples, one row per tick.
    history: HistoryBuffer,
    /// Rule 1 fires once per window.
    rule1_done: bool,
    actions: Vec<Action>,
    prev_t: f64,
    /// Observability only — deliberately absent from
    /// [`ControllerState`]; a restored controller starts disabled.
    telemetry: Telemetry,
    /// Scratch for Rule 1's hot path: the per-stream feature window.
    win_buf: Vec<f64>,
    /// Scratch for Rule 1's hot path: the assembled feature vector.
    feat_buf: Vec<f64>,
    /// Scratch for the SVM vote tally in the untraced classify.
    predict_scratch: PredictScratch,
    /// Fusion: decision arbitration mode (RSSI-only by default).
    mode: DecisionMode,
    /// Fusion: one detector per light stream.
    lights: Vec<LightDetector>,
    /// Fusion: workstation each light stream watches.
    light_ws: Vec<usize>,
    /// Fusion: corroboration window in ticks.
    corroborate_ticks: u64,
    /// Most recent tick MD reported an open window (see
    /// [`ControllerState::last_window_tick`]).
    last_window_tick: Option<u64>,
}

impl<'a> Controller<'a> {
    /// Builds a controller over `n_streams` RSSI streams, a trained RE
    /// classifier, and the day's KMA source.
    ///
    /// # Errors
    ///
    /// Propagates MD construction errors (invalid params or stream
    /// count).
    pub fn new(
        n_streams: usize,
        tick_hz: f64,
        params: FadewichParams,
        re: &'a RadioEnvironment,
        kma: Kma<'a>,
    ) -> Result<Controller<'a>, String> {
        Controller::with_fusion(n_streams, tick_hz, params, re, kma, FusionConfig::rssi_only())
    }

    /// Builds a controller that additionally consumes
    /// `fusion.light_workstations.len()` ambient-light streams (fed
    /// through [`Controller::observe_light`]) and arbitrates decisions
    /// per `fusion.mode`. With [`FusionConfig::rssi_only`] this is
    /// exactly [`Controller::new`].
    ///
    /// # Errors
    ///
    /// MD construction errors plus invalid fusion configurations.
    pub fn with_fusion(
        n_streams: usize,
        tick_hz: f64,
        params: FadewichParams,
        re: &'a RadioEnvironment,
        kma: Kma<'a>,
        fusion: FusionConfig,
    ) -> Result<Controller<'a>, String> {
        fusion.validate(kma.n_workstations()).map_err(|e| format!("fusion: {e}"))?;
        let md = MovementDetector::new(n_streams, tick_hz, params)?;
        let history_len = ((params.t_delta_s + params.window_hangover_s + 4.0) * tick_hz) as usize;
        let lights = fusion
            .light_workstations
            .iter()
            .map(|_| LightDetector::new(tick_hz, fusion.light))
            .collect();
        Ok(Controller {
            params,
            tick_hz,
            md,
            re,
            sessions: vec![WsSession::fresh(); kma.n_workstations()],
            kma,
            state: SystemState::Quiet,
            history: HistoryBuffer::with_width(n_streams, history_len.max(8)),
            rule1_done: false,
            actions: Vec::new(),
            prev_t: 0.0,
            telemetry: Telemetry::disabled(),
            win_buf: Vec::new(),
            feat_buf: Vec::new(),
            predict_scratch: PredictScratch::new(),
            mode: fusion.mode,
            lights,
            light_ws: fusion.light_workstations,
            corroborate_ticks: ((fusion.corroborate_s * tick_hz).round() as u64).max(1),
            last_window_tick: None,
        })
    }

    /// The decision arbitration mode this controller runs in.
    pub fn mode(&self) -> DecisionMode {
        self.mode
    }

    /// Number of ambient-light streams this controller consumes.
    pub fn n_light_streams(&self) -> usize {
        self.lights.len()
    }

    /// Installs a telemetry handle and cascades it to the movement
    /// detector, so Rule 1/Rule 2 audit spans parent onto MD's
    /// variation-window spans. The default handle is disabled; with it,
    /// decisions and actions are bit-identical to an uninstrumented
    /// controller.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.md.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The controller's current top-level state.
    pub fn state(&self) -> SystemState {
        self.state
    }

    /// Exports the complete in-flight state for crash-safe
    /// checkpointing. Capture between ticks (never mid-tick): every
    /// invariant [`Controller::from_runtime_state`] enforces holds at
    /// tick boundaries.
    pub fn runtime_state(&self) -> ControllerState {
        ControllerState {
            md: self.md.runtime_state(),
            system_state: self.state,
            sessions: self
                .sessions
                .iter()
                .map(|s| SessionState {
                    logged_in: s.logged_in,
                    in_alert: s.in_alert,
                    screensaver_on: s.screensaver_on,
                })
                .collect(),
            histories: self.history.states(),
            rule1_done: self.rule1_done,
            lights: self.lights.iter().map(LightDetector::state).collect(),
            last_window_tick: self.last_window_tick,
            prev_t: self.prev_t,
            n_actions: self.actions.len() as u64,
        }
    }

    /// The per-workstation KMA idle clocks as of the last processed
    /// tick — the input-trace fingerprint the checkpoint layer uses to
    /// detect a scenario mismatch on resume.
    pub fn kma_clock_state(&self) -> Vec<Option<f64>> {
        self.kma.clock_state(self.prev_t)
    }

    /// Rebuilds a controller mid-day from a
    /// [`Controller::runtime_state`] export plus freshly reconstructed
    /// collaborators (the artifact-loaded `re`, the scenario's `kma`)
    /// and the deployment's `fusion` configuration, which is config, not
    /// state ([`FusionConfig::rssi_only`] for an all-RSSI controller).
    /// The light detector bank is restored bit-exactly from the state,
    /// with its params from `fusion`, as the RSSI side reconstructs from
    /// the artifact. Subsequent steps emit actions bit-identical to the
    /// controller the state was captured from; the restored action log
    /// starts empty (see [`ControllerState::n_actions`]).
    ///
    /// # Errors
    ///
    /// [`Controller::with_fusion`] and
    /// [`MovementDetector::from_runtime_state`] errors, plus a
    /// description when the state disagrees with the collaborators
    /// (workstation, stream or light-stream counts, history capacity)
    /// or is internally inconsistent (non-finite `prev_t`, FSM and
    /// `rule1_done` out of sync, sessions logged out yet alerted,
    /// stream histories out of lockstep).
    pub fn from_runtime_state(
        n_streams: usize,
        tick_hz: f64,
        params: FadewichParams,
        re: &'a RadioEnvironment,
        kma: Kma<'a>,
        fusion: FusionConfig,
        state: &ControllerState,
    ) -> Result<Controller<'a>, String> {
        let mut ctl = Controller::with_fusion(n_streams, tick_hz, params, re, kma, fusion)?;
        if state.lights.len() != ctl.lights.len() {
            return Err(format!(
                "state carries {} light detectors for {} light streams",
                state.lights.len(),
                ctl.lights.len()
            ));
        }
        for (d, s) in ctl.lights.iter_mut().zip(&state.lights) {
            if !s.baseline.is_finite() {
                return Err(format!("light baseline {} is not finite", s.baseline));
            }
            d.restore(s);
        }
        ctl.last_window_tick = state.last_window_tick;
        let md = MovementDetector::from_runtime_state(n_streams, tick_hz, params, &state.md)
            .map_err(|e| format!("md: {e}"))?;
        if state.sessions.len() != ctl.sessions.len() {
            return Err(format!(
                "state carries {} sessions for {} workstations",
                state.sessions.len(),
                ctl.sessions.len()
            ));
        }
        for (ws, s) in state.sessions.iter().enumerate() {
            if !s.logged_in && (s.in_alert || s.screensaver_on) {
                return Err(format!("workstation {ws} is logged out yet alerted"));
            }
            if s.screensaver_on && !s.in_alert {
                return Err(format!("workstation {ws} has a screen saver outside alert"));
            }
        }
        if state.histories.len() != n_streams {
            return Err(format!(
                "state carries {} histories for {n_streams} streams",
                state.histories.len()
            ));
        }
        let expected_cap = ctl.history.capacity();
        if let Some((i, h)) =
            state.histories.iter().enumerate().find(|(_, h)| h.capacity != expected_cap)
        {
            return Err(format!(
                "stream {i} history capacity {} disagrees with params ({expected_cap})",
                h.capacity
            ));
        }
        let history =
            HistoryBuffer::from_states(&state.histories).map_err(|e| format!("history: {e}"))?;
        if !state.prev_t.is_finite() || state.prev_t < 0.0 {
            return Err(format!("prev_t {} is not a valid day time", state.prev_t));
        }
        if (state.system_state == SystemState::Noisy) != state.rule1_done {
            return Err(format!(
                "FSM {:?} disagrees with rule1_done = {}",
                state.system_state, state.rule1_done
            ));
        }
        ctl.md = md;
        ctl.state = state.system_state;
        ctl.sessions = state
            .sessions
            .iter()
            .map(|s| WsSession {
                logged_in: s.logged_in,
                in_alert: s.in_alert,
                screensaver_on: s.screensaver_on,
            })
            .collect();
        ctl.history = history;
        ctl.rule1_done = state.rule1_done;
        ctl.prev_t = state.prev_t;
        Ok(ctl)
    }

    /// Whether the session at `ws` is currently authenticated.
    ///
    /// # Panics
    ///
    /// Panics if `ws` is out of range.
    pub fn is_logged_in(&self, ws: usize) -> bool {
        self.sessions[ws].logged_in
    }

    /// Everything the controller has done so far.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Feeds one tick of RSSI samples; returns how many actions were
    /// emitted this tick (they are appended to [`Controller::actions`]).
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the stream count.
    pub fn step(&mut self, tick: usize, row: &[f64]) -> usize {
        self.step_inner(tick, row, None)
    }

    /// Feeds one tick in which some streams are masked out (see
    /// [`MovementDetector::step_masked`]). Histories still receive the
    /// supplied row for every stream — the caller (e.g. the streaming
    /// runtime) passes gap-filled values there — but MD excludes the
    /// masked streams from `s_t`. With an all-`false` mask this is
    /// exactly [`Controller::step`].
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` or `mask.len()` differs from the stream
    /// count.
    pub fn step_masked(&mut self, tick: usize, row: &[f64], mask: &[bool]) -> usize {
        self.step_inner(tick, row, Some(mask))
    }

    fn step_inner(&mut self, tick: usize, row: &[f64], mask: Option<&[bool]>) -> usize {
        let before = self.actions.len();
        let t = tick as f64 / self.tick_hz;
        self.history.push_row(row);
        match mask {
            None => self.md.step(tick, row),
            Some(m) => self.md.step_masked(tick, row, m),
        };
        let dwt = self.md.open_duration_ticks(tick);
        if dwt > 0 {
            // Corroboration clock for the fused light path — pure
            // recording, identical in every mode.
            self.last_window_tick = Some(tick as u64);
        }
        let t_delta_ticks = self.params.t_delta_ticks(self.tick_hz);
        match self.state {
            SystemState::Quiet => {
                if dwt >= t_delta_ticks && !self.rule1_done {
                    self.apply_rule1(tick, dwt, t);
                    self.rule1_done = true;
                    self.state = SystemState::Noisy;
                    self.fsm_event(tick, "noisy", dwt);
                }
            }
            SystemState::Noisy => {
                if dwt == 0 {
                    self.state = SystemState::Quiet;
                    self.rule1_done = false;
                    self.fsm_event(tick, "quiet", dwt);
                } else if dwt > t_delta_ticks {
                    self.apply_rule2(tick, t);
                }
            }
        }

        self.housekeeping(tick, t);
        self.prev_t = t;
        self.actions.len() - before
    }

    /// Feeds one tick of ambient-light samples (one per configured
    /// light stream, in [`FusionConfig::light_workstations`] order),
    /// after this tick's [`Controller::step`]. `mask[i]` marks a
    /// stream with no sample this tick (transport gap): its detector
    /// state is frozen, exactly like MD's masked streams. Returns how
    /// many actions were emitted.
    ///
    /// In [`DecisionMode::RssiOnly`] the detectors still run (their
    /// state is live for a later mode switch or checkpoint) but never
    /// act, so the decision stream is untouched.
    ///
    /// # Panics
    ///
    /// Panics if `lux.len()` or `mask.len()` differs from the
    /// configured light-stream count.
    pub fn observe_light(&mut self, tick: usize, lux: &[f64], mask: &[bool]) -> usize {
        assert_eq!(lux.len(), self.lights.len(), "light row width mismatch");
        assert_eq!(mask.len(), self.lights.len(), "light mask width mismatch");
        let before = self.actions.len();
        let t = tick as f64 / self.tick_hz;
        for i in 0..self.lights.len() {
            if mask[i] {
                self.lights[i].step_masked();
                continue;
            }
            match self.lights[i].step(lux[i]) {
                Some(LightEvent::Departure) => self.light_departure(tick, t, self.light_ws[i]),
                Some(LightEvent::Arrival) | None => {}
            }
        }
        self.actions.len() - before
    }

    /// A confirmed light release edge on `ws`'s desk: deauthenticate
    /// if the mode allows, the session is live, the user's input is
    /// idle, and (fused mode) RF movement corroborates.
    fn light_departure(&mut self, tick: usize, t: f64, ws: usize) {
        let (deauth, reason) = if self.mode == DecisionMode::RssiOnly {
            (false, "rssi_only_mode")
        } else if !self.sessions[ws].logged_in {
            (false, "not_logged_in")
        } else if !self.kma.is_idle(ws, self.params.alert_idle_s, t) {
            (false, "not_idle")
        } else if self.mode == DecisionMode::Fused
            && !self
                .last_window_tick
                .is_some_and(|w| tick as u64 <= w + self.corroborate_ticks)
        {
            (false, "no_rf_corroboration")
        } else {
            (true, "departure_confirmed")
        };
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                tick as u64,
                "light_departure",
                self.md.window_span(),
                &[
                    ("ws", Value::U64(ws as u64)),
                    ("deauth", Value::Bool(deauth)),
                    ("reason", Value::Str(reason.to_string())),
                ],
            );
            self.telemetry
                .counter_add(if deauth { "light_deauths" } else { "light_no_deauths" }, 1);
        }
        if deauth {
            self.sessions[ws].logged_in = false;
            self.sessions[ws].in_alert = false;
            self.sessions[ws].screensaver_on = false;
            let parent = self.md.window_span();
            self.act(tick, t, ActionKind::DeauthenticateLight { workstation: ws }, parent);
        }
    }

    /// Marks a Fig. 4 FSM transition in the trace.
    fn fsm_event(&mut self, tick: usize, to: &str, dwt: usize) {
        if self.telemetry.is_enabled() {
            self.telemetry.counter_add("controller_transitions", 1);
            self.telemetry.event(
                tick as u64,
                "fsm_transition",
                self.md.window_span(),
                &[("to", Value::Str(to.to_string())), ("dwt_ticks", Value::U64(dwt as u64))],
            );
        }
    }

    /// Appends an action and mirrors it into the trace/registry under
    /// a stable kind name.
    fn act(&mut self, tick: usize, t: f64, kind: ActionKind, parent: Option<SpanId>) {
        if self.telemetry.is_enabled() {
            let (name, counter) = match kind {
                ActionKind::DeauthenticateRule1 { .. } => ("deauth_rule1", "actions_deauth_rule1"),
                ActionKind::DeauthenticateAlert { .. } => ("deauth_alert", "actions_deauth_alert"),
                ActionKind::DeauthenticateTimeout { .. } => {
                    ("deauth_timeout", "actions_deauth_timeout")
                }
                ActionKind::DeauthenticateLight { .. } => ("deauth_light", "actions_deauth_light"),
                ActionKind::AlertEntered { .. } => ("alert_entered", "actions_alert_entered"),
                ActionKind::ScreenSaverOn { .. } => ("screensaver_on", "actions_screensaver_on"),
                ActionKind::AlertCancelled { .. } => ("alert_cancelled", "actions_alert_cancelled"),
                ActionKind::Reauthenticated { .. } => ("reauth", "actions_reauth"),
            };
            self.telemetry.counter_add(counter, 1);
            self.telemetry.event(
                tick as u64,
                name,
                parent,
                &[("ws", Value::U64(kind.workstation() as u64)), ("t", Value::F64(t))],
            );
        }
        self.actions.push(Action { t, kind });
    }

    /// The start tick Rule 1 should classify from. Normally MD still
    /// reports the open window; if it does not (the window closed on the
    /// very tick `dW_t` crossed `t∆`, e.g. when a watermark-driven
    /// runtime advances a tick late), the start is reconstructed from
    /// the watermark tick and the window duration instead of silently
    /// assuming the previous tick — `tick - 1` would hand RE a
    /// `t∆`-second feature window shifted almost entirely past the
    /// actual variation.
    fn rule1_window_start(open_start: Option<usize>, tick: usize, dwt: usize) -> usize {
        open_start.unwrap_or_else(|| (tick + 1).saturating_sub(dwt.max(1)))
    }

    /// Rule 1: classify the window's first `t∆` seconds and
    /// deauthenticate the predicted workstation if it is idle.
    ///
    /// With telemetry enabled, the whole evaluation is wrapped in a
    /// `rule1_eval` span parented onto MD's `md_window` span, carrying
    /// the RE feature vector, the per-class SVM votes/margins, the KMA
    /// idle set and the final verdict (deauth or the reason there was
    /// none) — the decision audit trail.
    fn apply_rule1(&mut self, tick: usize, dwt: usize, t: f64) {
        let start = Self::rule1_window_start(self.md.open_window_start(), tick, dwt);
        let audit = self.telemetry.span_open(
            tick as u64,
            "rule1_eval",
            self.md.window_span(),
            &[
                ("window_start_tick", Value::U64(start as u64)),
                ("dwt_ticks", Value::U64(dwt as u64)),
                ("t", Value::F64(t)),
            ],
        );
        // The window and feature scratch make an untraced evaluation
        // allocation-free at steady state.
        if !extract_features_from_histories_into(
            std::slice::from_ref(&self.history),
            start as u64,
            self.tick_hz,
            &self.params,
            &mut self.win_buf,
            &mut self.feat_buf,
        ) {
            // History evicted (cannot happen in practice).
            self.rule1_verdict(tick, audit, start, None, false, "no_features");
            return;
        }
        let label = if audit.is_some() {
            let p = self.re.classify_with_margins(&self.feat_buf);
            self.telemetry.event(
                tick as u64,
                "re_prediction",
                audit,
                &[
                    ("label", Value::U64(p.label as u64)),
                    (
                        "classes",
                        Value::U64s(self.re.classes().iter().map(|&c| c as u64).collect()),
                    ),
                    ("votes", Value::U64s(p.votes.iter().map(|&v| v as u64).collect())),
                    ("margins", Value::F64s(p.margins.clone())),
                    ("features", Value::F64s(self.feat_buf.clone())),
                ],
            );
            p.label
        } else {
            self.re.classify_into(&self.feat_buf, &mut self.predict_scratch)
        };
        if label == 0 {
            // w0: someone entered; nobody to deauthenticate.
            self.rule1_verdict(tick, audit, start, None, false, "w0_arrival");
            return;
        }
        let ws = label - 1;
        let (deauth, reason) = if self.mode == DecisionMode::LightOnly {
            // The ablation's light-only arm: RE still classifies (the
            // audit trail stays complete) but the RSSI rule never
            // deauthenticates.
            (false, "light_only_mode")
        } else if ws >= self.sessions.len() {
            (false, "ws_out_of_range")
        } else if !self.sessions[ws].logged_in {
            (false, "not_logged_in")
        } else if !self.kma.is_idle(ws, self.params.t_delta_s, t) {
            (false, "not_idle")
        } else {
            (true, "idle_and_predicted")
        };
        self.rule1_verdict(tick, audit, start, Some(ws), deauth, reason);
        if deauth {
            self.sessions[ws].logged_in = false;
            self.sessions[ws].in_alert = false;
            self.sessions[ws].screensaver_on = false;
            if self.telemetry.is_enabled() {
                self.telemetry
                    .histo_record("deauth_latency_ticks", (tick.saturating_sub(start)) as u64);
            }
            self.act(tick, t, ActionKind::DeauthenticateRule1 { workstation: ws }, audit);
        }
    }

    /// Emits the Rule 1 verdict event (and closes the audit span) —
    /// deauth or not, with the reason and the KMA idle-set membership
    /// at `t∆` the decision hinged on.
    fn rule1_verdict(
        &mut self,
        tick: usize,
        audit: Option<SpanId>,
        start: usize,
        ws: Option<usize>,
        deauth: bool,
        reason: &str,
    ) {
        if let Some(span) = audit {
            let idle_set: Vec<u64> = self
                .kma
                .idle_set(self.params.t_delta_s, tick as f64 / self.tick_hz)
                .iter()
                .map(|&w| w as u64)
                .collect();
            let mut attrs = vec![
                ("deauth", Value::Bool(deauth)),
                ("reason", Value::Str(reason.to_string())),
                ("window_start_tick", Value::U64(start as u64)),
                ("idle_set", Value::U64s(idle_set)),
            ];
            if let Some(ws) = ws {
                attrs.push(("ws", Value::U64(ws as u64)));
            }
            self.telemetry.event(tick as u64, "rule1_verdict", Some(span), &attrs);
            self.telemetry.span_close(tick as u64, span);
            self.telemetry.counter_add(
                if deauth { "rule1_deauths" } else { "rule1_no_deauths" },
                1,
            );
        }
    }

    /// Rule 2: every workstation idle ≥ 1 s enters alert state while
    /// the window persists.
    ///
    /// Runs every tick while a long window persists, so it queries
    /// [`Kma::is_idle`] per workstation instead of materializing
    /// [`Kma::idle_set`]'s `Vec` (which remains available for
    /// reporting); `benches/micro.rs` quantifies the difference.
    fn apply_rule2(&mut self, tick: usize, t: f64) {
        for ws in 0..self.sessions.len() {
            if !self.kma.is_idle(ws, self.params.alert_idle_s, t) {
                continue;
            }
            let session = &mut self.sessions[ws];
            if session.logged_in && !session.in_alert {
                session.in_alert = true;
                let parent = self.md.window_span();
                self.act(tick, t, ActionKind::AlertEntered { workstation: ws }, parent);
            }
        }
    }

    /// Per-tick session housekeeping: input cancellation, alert
    /// escalation, baseline timeout, re-authentication.
    fn housekeeping(&mut self, tick: usize, t: f64) {
        let parent = self.md.window_span();
        for ws in 0..self.sessions.len() {
            let had_input = self.kma.any_input_in(ws, self.prev_t, t + 1e-9);
            let session = &mut self.sessions[ws];
            if session.logged_in {
                if had_input && session.in_alert {
                    session.in_alert = false;
                    session.screensaver_on = false;
                    self.act(tick, t, ActionKind::AlertCancelled { workstation: ws }, parent);
                }
                let idle = self.kma.idle_time(ws, t);
                let session = &mut self.sessions[ws];
                if session.in_alert {
                    if !session.screensaver_on && idle >= self.params.t_id_s {
                        session.screensaver_on = true;
                        self.act(tick, t, ActionKind::ScreenSaverOn { workstation: ws }, parent);
                    }
                    let session = &mut self.sessions[ws];
                    if session.screensaver_on && idle >= self.params.t_id_s + self.params.t_ss_s {
                        session.logged_in = false;
                        session.in_alert = false;
                        session.screensaver_on = false;
                        self.act(
                            tick,
                            t,
                            ActionKind::DeauthenticateAlert { workstation: ws },
                            parent,
                        );
                        continue;
                    }
                }
                let session = &mut self.sessions[ws];
                if session.logged_in && idle >= self.params.timeout_s {
                    session.logged_in = false;
                    session.in_alert = false;
                    session.screensaver_on = false;
                    self.act(
                        tick,
                        t,
                        ActionKind::DeauthenticateTimeout { workstation: ws },
                        parent,
                    );
                }
            } else if had_input {
                session.logged_in = true;
                self.act(tick, t, ActionKind::Reauthenticated { workstation: ws }, parent);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::TrainingSample;
    use fadewich_officesim::InputTrace;
    use fadewich_stats::rng::Rng;

    /// A classifier trained on features drawn from the same synthetic
    /// distributions the controller tests generate: quiet windows
    /// (noise sd 0.6) are class 0 ("entered"), burst windows (sd 4.0)
    /// are class 1 ("left w1"). Training from the true generating
    /// process makes Rule 1's prediction deterministic in these tests.
    fn fixed_re(n_streams: usize) -> RadioEnvironment {
        use crate::features::extract_features;
        use fadewich_officesim::DayTrace;
        let mut rng = Rng::seed_from_u64(1);
        let params = FadewichParams::default();
        let mut samples = Vec::new();
        for i in 0..30 {
            let hot = i % 2 == 1;
            let sd = if hot { 4.0 } else { 0.6 };
            let mut day = DayTrace::with_capacity(n_streams, 30);
            for _ in 0..30 {
                let row: Vec<f64> =
                    (0..n_streams).map(|_| -50.0 + rng.normal() * sd).collect();
                day.push_row(&row);
            }
            let streams: Vec<usize> = (0..n_streams).collect();
            let features = extract_features(&day, &streams, 0, 5.0, &params);
            samples.push(TrainingSample { features, label: usize::from(hot) });
        }
        RadioEnvironment::train(&samples, None, &mut rng).unwrap()
    }

    /// Runs the controller over synthetic streams: quiet noise, then a
    /// strong fluctuation burst on every stream starting at `burst_at`.
    fn run_controller(
        inputs: &InputTrace,
        burst: Option<(usize, usize)>,
        n_ticks: usize,
    ) -> Vec<Action> {
        let n_streams = 4;
        let re = fixed_re(n_streams);
        let kma = Kma::new(inputs);
        let params = FadewichParams { profile_init_s: 30.0, ..Default::default() };
        let mut ctl = Controller::new(n_streams, 5.0, params, &re, kma).unwrap();
        let mut rng = Rng::seed_from_u64(7);
        for tick in 0..n_ticks {
            let noisy = burst.is_some_and(|(a, b)| tick >= a && tick < b);
            let sd = if noisy { 4.0 } else { 0.6 };
            let row: Vec<f64> = (0..n_streams).map(|_| -50.0 + rng.normal() * sd).collect();
            ctl.step(tick, &row);
        }
        ctl.actions().to_vec()
    }

    /// Input trace: w1's user types until 120 s then leaves; w2 and w3
    /// keep typing all day.
    fn departure_inputs(n_seconds: usize) -> InputTrace {
        let busy: Vec<f64> = (0..n_seconds).step_by(3).map(|s| s as f64).collect();
        let w1: Vec<f64> = busy.iter().copied().filter(|&s| s <= 120.0).collect();
        InputTrace::from_times(vec![w1, busy.clone(), busy])
    }

    #[test]
    fn departing_user_deauthenticated_by_rule1() {
        let inputs = departure_inputs(400);
        // Burst starts at tick 600 (t = 120 s, the departure moment).
        let actions = run_controller(&inputs, Some((600, 640)), 1200);
        let deauth: Vec<&Action> = actions
            .iter()
            .filter(|a| matches!(a.kind, ActionKind::DeauthenticateRule1 { workstation: 0 }))
            .collect();
        assert_eq!(deauth.len(), 1, "actions: {actions:?}");
        // Rule 1 fires when the window reaches t_delta (~4.6 s after 120).
        let dt = deauth[0].t - 120.0;
        assert!((3.0..=7.0).contains(&dt), "deauth after {dt} s");
    }

    #[test]
    fn quiet_day_no_deauth_of_active_users() {
        let inputs = departure_inputs(400);
        let actions = run_controller(&inputs, None, 1200);
        // w2/w3 type constantly: never deauthenticated.
        assert!(
            !actions.iter().any(|a| a.kind.is_deauth() && a.kind.workstation() != 0),
            "actions: {actions:?}"
        );
    }

    #[test]
    fn idle_user_hits_baseline_timeout() {
        // w1 stops typing at 120 s; without any detected window the
        // timeout T = 300 s must fire at ~420 s.
        let inputs = departure_inputs(3000);
        let actions = run_controller(&inputs, None, 2400);
        let timeout: Vec<&Action> = actions
            .iter()
            .filter(|a| matches!(a.kind, ActionKind::DeauthenticateTimeout { workstation: 0 }))
            .collect();
        assert_eq!(timeout.len(), 1);
        assert!((timeout[0].t - 420.0).abs() < 2.0, "timeout at {}", timeout[0].t);
    }

    #[test]
    fn reauthentication_on_return() {
        // w1 leaves at 120, returns and types at 300.
        let mut w1: Vec<f64> = (0..=120).step_by(3).map(f64::from).collect();
        w1.push(300.0);
        w1.push(303.0);
        let busy: Vec<f64> = (0..500).step_by(3).map(|s| s as f64).collect();
        let inputs = InputTrace::from_times(vec![w1, busy.clone(), busy]);
        let actions = run_controller(&inputs, Some((600, 640)), 1600);
        // Skip the day-start login (sessions begin logged out); the
        // return from the break is the reauth of interest.
        let reauth = actions
            .iter()
            .find(|a| {
                matches!(a.kind, ActionKind::Reauthenticated { workstation: 0 }) && a.t > 150.0
            });
        let reauth = reauth.expect("user should re-authenticate on return");
        assert!((reauth.t - 300.0).abs() < 1.0, "reauth at {}", reauth.t);
    }

    #[test]
    fn rule2_alerts_idle_workstations_in_long_windows() {
        // Long burst (12 s): the departed w1 is already handled by
        // Rule 1; the *other* workstations pass through alert whenever
        // their users' typing pauses exceed 1 s, and are released by
        // the next input without ever being deauthenticated.
        let inputs = departure_inputs(400);
        let actions = run_controller(&inputs, Some((600, 660)), 1200);
        assert!(
            actions
                .iter()
                .any(|a| matches!(a.kind, ActionKind::AlertEntered { workstation: 1 | 2 })),
            "actions: {actions:?}"
        );
        assert!(
            actions
                .iter()
                .any(|a| matches!(a.kind, ActionKind::AlertCancelled { workstation: 1 | 2 })),
            "actions: {actions:?}"
        );
        assert!(!actions.iter().any(|a| a.kind.is_deauth() && a.kind.workstation() != 0));
    }

    #[test]
    fn rule1_fallback_uses_window_duration_not_previous_tick() {
        // MD reports the open window: use it verbatim.
        assert_eq!(Controller::rule1_window_start(Some(500), 523, 23), 500);
        // No open window: reconstruct the start from the watermark tick
        // and dW_t. The window covering ticks [501, 523] has dwt = 23.
        assert_eq!(Controller::rule1_window_start(None, 523, 23), 501);
        // The old fallback assumed `tick - 1` regardless of duration.
        assert_ne!(Controller::rule1_window_start(None, 523, 23), 522);
        // Degenerate durations stay in range.
        assert_eq!(Controller::rule1_window_start(None, 10, 0), 10);
        assert_eq!(Controller::rule1_window_start(None, 0, 50), 0);
    }

    #[test]
    fn masked_step_with_all_false_mask_matches_step() {
        let inputs = departure_inputs(400);
        let n_streams = 4;
        let re = fixed_re(n_streams);
        let params = FadewichParams { profile_init_s: 30.0, ..Default::default() };
        let mut plain = Controller::new(n_streams, 5.0, params, &re, Kma::new(&inputs)).unwrap();
        let mut masked = Controller::new(n_streams, 5.0, params, &re, Kma::new(&inputs)).unwrap();
        let mask = vec![false; n_streams];
        let mut rng = Rng::seed_from_u64(7);
        for tick in 0..1200 {
            let noisy = (600..640).contains(&tick);
            let sd = if noisy { 4.0 } else { 0.6 };
            let row: Vec<f64> = (0..n_streams).map(|_| -50.0 + rng.normal() * sd).collect();
            plain.step(tick, &row);
            masked.step_masked(tick, &row, &mask);
        }
        assert_eq!(plain.actions(), masked.actions());
    }

    #[test]
    fn runtime_state_restore_continues_bit_identically() {
        // Run a full day in one controller; run the same day in a
        // second controller that is checkpointed and rebuilt mid-burst
        // (Noisy state, sessions in flight). The stitched action logs
        // must match the uninterrupted run exactly.
        let inputs = departure_inputs(400);
        let n_streams = 4;
        let re = fixed_re(n_streams);
        let params = FadewichParams { profile_init_s: 30.0, ..Default::default() };
        let mut full =
            Controller::new(n_streams, 5.0, params, &re, Kma::new(&inputs)).unwrap();
        let mut pre = Controller::new(n_streams, 5.0, params, &re, Kma::new(&inputs)).unwrap();
        let mut rng_full = Rng::seed_from_u64(7);
        let mut rng_split = Rng::seed_from_u64(7);
        let row_at = |rng: &mut Rng, tick: usize| -> Vec<f64> {
            let sd = if (600..660).contains(&tick) { 4.0 } else { 0.6 };
            (0..n_streams).map(|_| -50.0 + rng.normal() * sd).collect()
        };
        // Cut at tick 640: mid-window, Rule 1 already fired, Rule 2
        // alerts in flight.
        let cut = 640;
        for tick in 0..1200 {
            full.step(tick, &row_at(&mut rng_full, tick));
        }
        for tick in 0..cut {
            pre.step(tick, &row_at(&mut rng_split, tick));
        }
        let state = pre.runtime_state();
        assert_eq!(state.system_state, SystemState::Noisy, "cut should land mid-window");
        let mut post = Controller::from_runtime_state(
            n_streams,
            5.0,
            params,
            &re,
            Kma::new(&inputs),
            FusionConfig::rssi_only(),
            &state,
        )
        .unwrap();
        let roundtrip = post.runtime_state();
        assert_eq!(roundtrip.n_actions, 0, "restored action log starts empty");
        assert_eq!(
            ControllerState { n_actions: state.n_actions, ..roundtrip },
            state,
            "round trip changed the state"
        );
        for tick in cut..1200 {
            post.step(tick, &row_at(&mut rng_split, tick));
        }
        let mut stitched = pre.actions()[..state.n_actions as usize].to_vec();
        stitched.extend_from_slice(post.actions());
        assert_eq!(stitched, full.actions());
    }

    #[test]
    fn bad_controller_states_rejected() {
        let inputs = departure_inputs(400);
        let n_streams = 4;
        let re = fixed_re(n_streams);
        let params = FadewichParams { profile_init_s: 30.0, ..Default::default() };
        let mut ctl = Controller::new(n_streams, 5.0, params, &re, Kma::new(&inputs)).unwrap();
        let mut rng = Rng::seed_from_u64(7);
        for tick in 0..700 {
            let row: Vec<f64> = (0..n_streams).map(|_| -50.0 + rng.normal() * 0.6).collect();
            ctl.step(tick, &row);
        }
        let good = ctl.runtime_state();
        let rebuild = |s: &ControllerState| {
            let rssi = FusionConfig::rssi_only();
            Controller::from_runtime_state(n_streams, 5.0, params, &re, Kma::new(&inputs), rssi, s)
        };
        assert!(rebuild(&good).is_ok());

        // Wrong workstation count.
        let mut bad = good.clone();
        bad.sessions.pop();
        assert!(rebuild(&bad).is_err());
        // Logged-out session claiming an alert.
        let mut bad = good.clone();
        bad.sessions[0] =
            SessionState { logged_in: false, in_alert: true, screensaver_on: false };
        assert!(rebuild(&bad).is_err());
        // Screen saver outside alert state.
        let mut bad = good.clone();
        bad.sessions[0] =
            SessionState { logged_in: true, in_alert: false, screensaver_on: true };
        assert!(rebuild(&bad).is_err());
        // Wrong stream count.
        let mut bad = good.clone();
        bad.histories.pop();
        assert!(rebuild(&bad).is_err());
        // History capacity disagreeing with params.
        let mut bad = good.clone();
        bad.histories[0].capacity += 1;
        assert!(rebuild(&bad).is_err());
        // Per-stream histories out of lockstep: one stream pushed once
        // more, or retaining one sample fewer, than the others.
        let mut bad = good.clone();
        bad.histories[1].total += 1;
        assert!(rebuild(&bad).unwrap_err().contains("lockstep"));
        let mut bad = good.clone();
        bad.histories[3].samples.pop();
        assert!(rebuild(&bad).unwrap_err().contains("lockstep"));
        // Non-finite prev_t.
        let mut bad = good.clone();
        bad.prev_t = f64::NAN;
        assert!(rebuild(&bad).is_err());
        // FSM and rule1_done out of sync.
        let mut bad = good.clone();
        bad.rule1_done = true;
        assert!(rebuild(&bad).is_err());
    }

    #[test]
    fn rule1_deauth_emits_causally_linked_audit_chain() {
        use fadewich_telemetry::{RecordKind, Telemetry, Value};

        let inputs = departure_inputs(400);
        let n_streams = 4;
        let re = fixed_re(n_streams);
        let params = FadewichParams { profile_init_s: 30.0, ..Default::default() };
        let telemetry = Telemetry::buffering();
        let mut ctl =
            Controller::new(n_streams, 5.0, params, &re, Kma::new(&inputs)).unwrap();
        ctl.set_telemetry(telemetry.clone());
        let mut rng = Rng::seed_from_u64(7);
        for tick in 0..1200 {
            let sd = if (600..640).contains(&tick) { 4.0 } else { 0.6 };
            let row: Vec<f64> = (0..n_streams).map(|_| -50.0 + rng.normal() * sd).collect();
            ctl.step(tick, &row);
        }
        assert!(
            ctl.actions()
                .iter()
                .any(|a| matches!(a.kind, ActionKind::DeauthenticateRule1 { workstation: 0 })),
            "scenario should produce a Rule 1 deauth: {:?}",
            ctl.actions()
        );

        let records = telemetry.records();
        // The deauth action event is parented on the rule1_eval span...
        let deauth = records
            .iter()
            .find(|r| r.kind == RecordKind::Event && r.name == "deauth_rule1")
            .expect("deauth event in trace");
        let audit_span = deauth.parent.expect("deauth parented on the audit span");
        let audit_open = records
            .iter()
            .find(|r| r.kind == RecordKind::Open && r.span == Some(audit_span))
            .expect("audit span open record");
        assert_eq!(audit_open.name, "rule1_eval");
        // ...which names the window-open tick and is itself parented on
        // the md_window span that opened at the s_t crossing.
        let start = match audit_open.attr("window_start_tick") {
            Some(Value::U64(s)) => *s,
            other => panic!("window_start_tick missing: {other:?}"),
        };
        let window_span = audit_open.parent.expect("audit span parented on md_window");
        let window_open = records
            .iter()
            .find(|r| r.kind == RecordKind::Open && r.span == Some(window_span))
            .expect("md_window open record");
        assert_eq!(window_open.name, "md_window");
        assert_eq!(window_open.attr("start_tick"), Some(&Value::U64(start)));
        // The RE prediction under the audit span carries the margins.
        let prediction = records
            .iter()
            .find(|r| r.name == "re_prediction" && r.parent == Some(audit_span))
            .expect("re_prediction under the audit span");
        match prediction.attr("margins") {
            Some(Value::F64s(m)) => assert_eq!(m.len(), re.classes().len()),
            other => panic!("margins missing: {other:?}"),
        }
        // The verdict names the rule and the idle-set membership.
        let verdict = records
            .iter()
            .find(|r| r.name == "rule1_verdict" && r.parent == Some(audit_span))
            .expect("rule1_verdict under the audit span");
        assert_eq!(verdict.attr("deauth"), Some(&Value::Bool(true)));
        assert_eq!(verdict.attr("reason"), Some(&Value::Str("idle_and_predicted".into())));
        match verdict.attr("idle_set") {
            Some(Value::U64s(set)) => assert!(set.contains(&0), "ws 0 should be idle: {set:?}"),
            other => panic!("idle_set missing: {other:?}"),
        }
        // Metrics side: the deauth latency histogram saw the decision.
        assert_eq!(
            telemetry.with_registry(|r| r.histogram("deauth_latency_ticks").map(|h| h.count())),
            Some(Some(1))
        );

        // And the instrumented run's actions are identical to an
        // uninstrumented controller's over the same inputs.
        let mut plain =
            Controller::new(n_streams, 5.0, params, &re, Kma::new(&inputs)).unwrap();
        let mut rng = Rng::seed_from_u64(7);
        for tick in 0..1200 {
            let sd = if (600..640).contains(&tick) { 4.0 } else { 0.6 };
            let row: Vec<f64> = (0..n_streams).map(|_| -50.0 + rng.normal() * sd).collect();
            plain.step(tick, &row);
        }
        assert_eq!(plain.actions(), ctl.actions());
    }

    /// Fusion harness: w1's user types until 120 s then leaves. The
    /// desk's light stream dips while they sit (ticks 10..dip_end) and
    /// recovers afterwards; an optional RSSI burst simulates the RF
    /// movement of the departure.
    fn run_fused(
        mode: DecisionMode,
        burst: Option<(usize, usize)>,
        dip_end: usize,
    ) -> Vec<Action> {
        let inputs = departure_inputs(400);
        let n_streams = 4;
        let re = fixed_re(n_streams);
        let params = FadewichParams { profile_init_s: 30.0, ..Default::default() };
        let fusion = FusionConfig {
            mode,
            light_workstations: vec![0, 1, 2],
            ..FusionConfig::rssi_only()
        };
        let mut ctl =
            Controller::with_fusion(n_streams, 5.0, params, &re, Kma::new(&inputs), fusion)
                .unwrap();
        let mut rng = Rng::seed_from_u64(7);
        let mask = vec![false; 3];
        for tick in 0..1200 {
            let noisy = burst.is_some_and(|(a, b)| tick >= a && tick < b);
            let sd = if noisy { 4.0 } else { 0.6 };
            let row: Vec<f64> = (0..n_streams).map(|_| -50.0 + rng.normal() * sd).collect();
            ctl.step(tick, &row);
            let w0_lux = if (10..dip_end).contains(&tick) { 280.0 } else { 400.0 };
            ctl.observe_light(tick, &[w0_lux, 400.0, 400.0], &mask);
        }
        ctl.actions().to_vec()
    }

    #[test]
    fn light_only_mode_deauthenticates_on_release_and_suppresses_rule1() {
        // Dip ends at tick 600 (t = 120 s, the departure moment);
        // release hysteresis is 1.5 s, so the light deauth lands ~121.6
        // — ahead of the Rule 2 alert chain (~128 s), which finds the
        // session already closed.
        let actions = run_fused(DecisionMode::LightOnly, Some((600, 640)), 600);
        let light: Vec<&Action> = actions
            .iter()
            .filter(|a| matches!(a.kind, ActionKind::DeauthenticateLight { workstation: 0 }))
            .collect();
        assert_eq!(light.len(), 1, "actions: {actions:?}");
        assert!((121.0..124.0).contains(&light[0].t), "light deauth at {}", light[0].t);
        // The RSSI rule is suppressed in this mode.
        assert!(
            !actions.iter().any(|a| matches!(a.kind, ActionKind::DeauthenticateRule1 { .. })),
            "rule 1 must not fire in light-only mode: {actions:?}"
        );
    }

    #[test]
    fn rssi_only_mode_never_acts_on_light() {
        let actions = run_fused(DecisionMode::RssiOnly, Some((600, 640)), 640);
        assert!(
            !actions.iter().any(|a| matches!(a.kind, ActionKind::DeauthenticateLight { .. })),
            "light must not act in rssi-only mode: {actions:?}"
        );
        // Rule 1 still handles the departure.
        assert!(actions
            .iter()
            .any(|a| matches!(a.kind, ActionKind::DeauthenticateRule1 { workstation: 0 })));
    }

    #[test]
    fn fused_mode_light_wins_with_corroboration_and_defers_without() {
        // Dip ends at 600 — the same moment the RF burst starts, so the
        // light release (~608) is corroborated by the open MD window
        // and beats Rule 1 (~623) to the deauthentication.
        let actions = run_fused(DecisionMode::Fused, Some((600, 660)), 600);
        let light: Vec<&Action> = actions
            .iter()
            .filter(|a| matches!(a.kind, ActionKind::DeauthenticateLight { workstation: 0 }))
            .collect();
        assert_eq!(light.len(), 1, "actions: {actions:?}");
        assert!(
            !actions.iter().any(
                |a| matches!(a.kind, ActionKind::DeauthenticateRule1 { workstation: 0 })
            ),
            "light already logged w1 out: {actions:?}"
        );
        // Without any RF movement, the same release is refused.
        let no_rf = run_fused(DecisionMode::Fused, None, 600);
        assert!(
            !no_rf.iter().any(|a| matches!(a.kind, ActionKind::DeauthenticateLight { .. })),
            "uncorroborated release must not deauth in fused mode: {no_rf:?}"
        );
    }

    #[test]
    fn fused_runtime_state_restores_bit_identically() {
        let inputs = departure_inputs(400);
        let n_streams = 4;
        let re = fixed_re(n_streams);
        let params = FadewichParams { profile_init_s: 30.0, ..Default::default() };
        let fusion = FusionConfig {
            mode: DecisionMode::Fused,
            light_workstations: vec![0, 1, 2],
            ..FusionConfig::rssi_only()
        };
        let build = || {
            Controller::with_fusion(
                n_streams,
                5.0,
                params,
                &re,
                Kma::new(&inputs),
                fusion.clone(),
            )
            .unwrap()
        };
        let mut full = build();
        let mut pre = build();
        let row_at = |rng: &mut Rng, tick: usize| -> Vec<f64> {
            let sd = if (600..660).contains(&tick) { 4.0 } else { 0.6 };
            (0..n_streams).map(|_| -50.0 + rng.normal() * sd).collect()
        };
        let lux_at = |tick: usize| -> [f64; 3] {
            [if (10..600).contains(&tick) { 280.0 } else { 400.0 }, 400.0, 400.0]
        };
        let mask = [false; 3];
        let mut rng_full = Rng::seed_from_u64(7);
        let mut rng_split = Rng::seed_from_u64(7);
        // Cut at 604: detector armed, dip released, run-lengths mid-count.
        let cut = 604;
        for tick in 0..1200 {
            full.step(tick, &row_at(&mut rng_full, tick));
            full.observe_light(tick, &lux_at(tick), &mask);
        }
        for tick in 0..cut {
            pre.step(tick, &row_at(&mut rng_split, tick));
            pre.observe_light(tick, &lux_at(tick), &mask);
        }
        let state = pre.runtime_state();
        assert!(state.lights[0].armed, "cut should land with the detector armed");
        let mut post = Controller::from_runtime_state(
            n_streams,
            5.0,
            params,
            &re,
            Kma::new(&inputs),
            fusion.clone(),
            &state,
        )
        .unwrap();
        assert_eq!(
            ControllerState { n_actions: state.n_actions, ..post.runtime_state() },
            state
        );
        for tick in cut..1200 {
            post.step(tick, &row_at(&mut rng_split, tick));
            post.observe_light(tick, &lux_at(tick), &mask);
        }
        let mut stitched = pre.actions()[..state.n_actions as usize].to_vec();
        stitched.extend_from_slice(post.actions());
        assert_eq!(stitched, full.actions());
        assert!(
            full.actions()
                .iter()
                .any(|a| matches!(a.kind, ActionKind::DeauthenticateLight { .. })),
            "day should exercise the light path: {:?}",
            full.actions()
        );
        // A state with the wrong light-stream count is rejected.
        let mut bad = state.clone();
        bad.lights.pop();
        assert!(Controller::from_runtime_state(
            n_streams,
            5.0,
            params,
            &re,
            Kma::new(&inputs),
            fusion,
            &bad
        )
        .is_err());
    }

    #[test]
    fn active_user_not_deauthenticated_even_when_misclassified() {
        // Everyone keeps typing; even with a detected burst, Rule 1's
        // S(t_delta) check protects the active workstations.
        let busy: Vec<f64> = (0..400).step_by(3).map(|s| s as f64).collect();
        let inputs = InputTrace::from_times(vec![busy.clone(), busy.clone(), busy]);
        let actions = run_controller(&inputs, Some((600, 640)), 1200);
        assert!(
            !actions.iter().any(|a| a.kind.is_deauth()),
            "no one left; no deauth should occur: {actions:?}"
        );
    }
}
