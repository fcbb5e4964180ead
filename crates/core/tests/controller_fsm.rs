//! FSM tests for the FADEWICH controller (paper §IV-F/G, Fig. 4).
//!
//! These exercise the control automaton through its public API:
//!
//! - **Rule 1** uses the *corrected* idle-set membership `c_i ∈ S(t∆)`
//!   (the paper's Table I prints `∉`, an evident typo — see DESIGN.md):
//!   the predicted workstation is deauthenticated only if its user has
//!   been idle for the whole window.
//! - **Rule 2** applies per tick while the automaton is Noisy, placing
//!   idle workstations into alert state, escalating to screen saver
//!   and delayed deauthentication.
//! - The controller **never deauthenticates an active workstation**,
//!   no matter how the classifier labels the window.

use fadewich_core::config::FadewichParams;
use fadewich_core::controller::{Action, ActionKind, Controller, SystemState};
use fadewich_core::features::{extract_features, TrainingSample};
use fadewich_core::kma::Kma;
use fadewich_core::re::RadioEnvironment;
use fadewich_officesim::{DayTrace, InputTrace};
use fadewich_stats::rng::Rng;

const N_STREAMS: usize = 4;
const TICK_HZ: f64 = 5.0;

/// A classifier trained on the same synthetic distributions the tests
/// generate: quiet windows (noise sd 0.6) are class 0 ("entered"),
/// burst windows (sd 4.0) are class 1 ("left w1"). Training from the
/// true generating process makes Rule 1's prediction deterministic.
fn fixed_re() -> RadioEnvironment {
    let mut rng = Rng::seed_from_u64(1);
    let params = FadewichParams::default();
    let mut samples = Vec::new();
    for i in 0..30 {
        let hot = i % 2 == 1;
        let sd = if hot { 4.0 } else { 0.6 };
        let mut day = DayTrace::with_capacity(N_STREAMS, 30);
        for _ in 0..30 {
            let row: Vec<f64> = (0..N_STREAMS).map(|_| -50.0 + rng.normal() * sd).collect();
            day.push_row(&row);
        }
        let streams: Vec<usize> = (0..N_STREAMS).collect();
        let features = extract_features(&day, &streams, 0, TICK_HZ, &params);
        samples.push(TrainingSample { features, label: usize::from(hot) });
    }
    RadioEnvironment::train(&samples, None, &mut rng).unwrap()
}

fn test_params() -> FadewichParams {
    FadewichParams { profile_init_s: 30.0, ..Default::default() }
}

/// Runs the controller over synthetic streams: quiet noise, with a
/// strong fluctuation burst on every stream for ticks in
/// `burst.0..burst.1`. Returns the action log and the per-tick state.
fn run_ctl(
    inputs: &InputTrace,
    burst: Option<(usize, usize)>,
    n_ticks: usize,
) -> (Vec<Action>, Vec<SystemState>) {
    let re = fixed_re();
    let kma = Kma::new(inputs);
    let mut ctl = Controller::new(N_STREAMS, TICK_HZ, test_params(), &re, kma).unwrap();
    let mut rng = Rng::seed_from_u64(7);
    let mut states = Vec::with_capacity(n_ticks);
    for tick in 0..n_ticks {
        let noisy = burst.is_some_and(|(a, b)| tick >= a && tick < b);
        let sd = if noisy { 4.0 } else { 0.6 };
        let row: Vec<f64> = (0..N_STREAMS).map(|_| -50.0 + rng.normal() * sd).collect();
        ctl.step(tick, &row);
        states.push(ctl.state());
    }
    (ctl.actions().to_vec(), states)
}

/// All-day typing for one workstation: one input every 3 s.
fn busy(n_seconds: usize) -> Vec<f64> {
    (0..n_seconds).step_by(3).map(|s| s as f64).collect()
}

/// w1's user types until 120 s and then leaves; w2/w3 type all day.
fn departure_inputs(n_seconds: usize) -> InputTrace {
    let all = busy(n_seconds);
    let w1: Vec<f64> = all.iter().copied().filter(|&s| s <= 120.0).collect();
    InputTrace::from_times(vec![w1, all.clone(), all])
}

#[test]
fn rule1_requires_idle_set_membership() {
    // Identical RF evidence — a burst the classifier labels "left w1" —
    // under two KMA histories. Only the history where w1's user is
    // actually idle for the whole window may produce a Rule 1 deauth:
    // the corrected condition is c_i ∈ S(t∆), not ∉.
    let burst = Some((600, 640));

    let idle = departure_inputs(400);
    let (actions_idle, _) = run_ctl(&idle, burst, 800);
    assert!(
        actions_idle
            .iter()
            .any(|a| matches!(a.kind, ActionKind::DeauthenticateRule1 { workstation: 0 })),
        "idle w1 must be deauthenticated by Rule 1: {actions_idle:?}"
    );

    let all = busy(400);
    let active = InputTrace::from_times(vec![all.clone(), all.clone(), all]);
    let (actions_active, _) = run_ctl(&active, burst, 800);
    assert!(
        !actions_active.iter().any(|a| a.kind.is_deauth()),
        "w1's user kept typing: c_1 ∉ S(t∆), so Rule 1 must not fire: {actions_active:?}"
    );
}

#[test]
fn rule1_fires_at_most_once_per_window() {
    // A long window (20 s). Rule 1 triggers exactly when dW_t reaches
    // t∆ and is latched until the window closes — not re-applied on
    // every subsequent Noisy tick.
    let inputs = departure_inputs(400);
    let (actions, _) = run_ctl(&inputs, Some((600, 700)), 900);
    let rule1: Vec<&Action> = actions
        .iter()
        .filter(|a| matches!(a.kind, ActionKind::DeauthenticateRule1 { .. }))
        .collect();
    assert_eq!(rule1.len(), 1, "Rule 1 must fire once per window: {actions:?}");
    // And it fires ~t∆ after the window opens, not at its end.
    let dt = rule1[0].t - 120.0;
    assert!((3.0..=7.0).contains(&dt), "Rule 1 at +{dt} s, expected ≈ t∆");
}

#[test]
fn fsm_walks_quiet_noisy_quiet() {
    let inputs = departure_inputs(400);
    let burst = (600, 660);
    let (_, states) = run_ctl(&inputs, Some(burst), 900);

    // Before the burst there is no variation window: always Quiet.
    assert!(
        states[..burst.0].iter().all(|&s| s == SystemState::Quiet),
        "controller left Quiet before any window"
    );
    // The window must carry the FSM into Noisy once it reaches t∆.
    assert!(
        states[burst.0..burst.1].contains(&SystemState::Noisy),
        "long burst never reached Noisy"
    );
    // After the burst ends (plus rolling-std decay and hangover) the
    // window closes and the FSM returns to Quiet — and stays there.
    let slack = burst.1 + 40;
    assert!(
        states[slack..].iter().all(|&s| s == SystemState::Quiet),
        "controller failed to return to Quiet after the window closed"
    );
}

#[test]
fn rule2_alerts_only_in_noisy_state() {
    let inputs = departure_inputs(400);
    let (actions, states) = run_ctl(&inputs, Some((600, 660)), 900);
    let alerts: Vec<&Action> = actions
        .iter()
        .filter(|a| matches!(a.kind, ActionKind::AlertEntered { .. }))
        .collect();
    assert!(!alerts.is_empty(), "a 12 s window must alert idle workstations");
    for a in &alerts {
        let tick = (a.t * TICK_HZ).round() as usize;
        assert_eq!(
            states[tick],
            SystemState::Noisy,
            "AlertEntered at t={} outside Noisy state",
            a.t
        );
    }
}

#[test]
fn rule2_escalates_alert_to_screensaver_then_deauth() {
    // w2's user stops typing at 118 s and never returns; w1/w3 keep
    // typing. The burst window (120..140 s) alerts w2; with nobody at
    // the keyboard the alert escalates: screen saver after t_ID idle,
    // deauthentication t_ss later — all well before the 300 s timeout.
    let all = busy(400);
    let w2: Vec<f64> = all.iter().copied().filter(|&s| s <= 118.0).collect();
    let inputs = InputTrace::from_times(vec![all.clone(), w2, all]);
    let (actions, _) = run_ctl(&inputs, Some((600, 700)), 900);

    let find = |pred: fn(&ActionKind) -> bool| -> Option<f64> {
        actions.iter().find(|a| pred(&a.kind)).map(|a| a.t)
    };
    let alert = find(|k| matches!(k, ActionKind::AlertEntered { workstation: 1 }))
        .expect("idle w2 must enter alert state");
    let saver = find(|k| matches!(k, ActionKind::ScreenSaverOn { workstation: 1 }))
        .expect("unattended alert must start the screen saver");
    let deauth = find(|k| matches!(k, ActionKind::DeauthenticateAlert { workstation: 1 }))
        .expect("unattended screen saver must deauthenticate");
    assert!(alert <= saver && saver <= deauth, "alert path out of order");
    let p = test_params();
    // The whole path completes within the alert budget (t_ID + t_ss)
    // of the moment the user went idle — far below the timeout T.
    assert!(
        deauth <= 118.0 + p.t_id_s + p.t_ss_s + 2.0,
        "alert deauth at {deauth}, expected ≈ 118 + t_ID + t_ss"
    );
    assert!(deauth < 118.0 + p.timeout_s, "alert path must beat the baseline timeout");
}

#[test]
fn input_cancels_alert_before_escalation() {
    // w2/w3 type constantly; their sub-second pauses put them in and
    // out of alert during a long window but never further.
    let inputs = departure_inputs(400);
    let (actions, _) = run_ctl(&inputs, Some((600, 660)), 900);
    assert!(actions
        .iter()
        .any(|a| matches!(a.kind, ActionKind::AlertCancelled { workstation: 1 | 2 })));
    assert!(
        !actions
            .iter()
            .any(|a| matches!(a.kind, ActionKind::ScreenSaverOn { workstation: 1 | 2 })),
        "active users' alerts must be cancelled by input, not escalate: {actions:?}"
    );
}

#[test]
fn never_deauthenticates_an_active_workstation() {
    // The global invariant behind both rules: at the moment of any
    // deauthentication the workstation's user had been idle at least
    // t∆ (Rule 1), t_ID + t_ss (alert path) or T (timeout) — never
    // actively typing. Checked against KMA on several window shapes.
    let p = test_params();
    let inputs = departure_inputs(2000);
    let kma = Kma::new(&inputs);
    for burst in [None, Some((600, 640)), Some((600, 700)), Some((900, 1100))] {
        let (actions, _) = run_ctl(&inputs, burst, 2400);
        for a in actions.iter().filter(|a| a.kind.is_deauth()) {
            let idle = kma.idle_time(a.kind.workstation(), a.t);
            assert!(
                idle >= p.t_delta_s - 0.2,
                "burst {burst:?}: deauthenticated w{} at t={} with only {idle:.1} s idle",
                a.kind.workstation() + 1,
                a.t
            );
        }
    }
}
