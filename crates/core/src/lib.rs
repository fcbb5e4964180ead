//! FADEWICH: Fast Deauthentication over the Wireless Channel.
//!
//! A faithful reimplementation of the system from Conti, Lovisotto,
//! Martinovic & Tsudik (ICDCS 2017): automatic deauthentication of
//! users who walk away from their workstations, sensed purely through
//! the effect of their bodies on the RSSI of wireless links between
//! cheap office sensors.
//!
//! # Architecture (paper Fig. 1)
//!
//! - [`kma`] — Keyboard/Mouse Activity: per-workstation idle times and
//!   the `S(s)_t` idle-set query;
//! - [`md`] — Movement Detection: rolling per-stream standard
//!   deviations summed into `s_t`, compared against a KDE-estimated
//!   normal profile (Algorithm 1), producing *variation windows*
//!   ([`windows`]);
//! - [`features`]/[`re`] — Radio Environment: per-stream
//!   variance/entropy/autocorrelation features over a window's first
//!   `t∆` seconds, classified by an SVM into "user entered" (`w0`) or
//!   "user left workstation i" (`wi`), with KMA-driven automatic
//!   training labels;
//! - [`controller`] — the Quiet/Noisy automaton applying Rule 1
//!   (classify & deauthenticate) and Rule 2 (alert state, screen saver,
//!   delayed deauthentication);
//! - [`security`] — the decision-tree timing model (cases A/B/C),
//!   attack-opportunity and vulnerable-time analyses;
//! - [`usability`] — the user-cost simulation behind Table IV;
//! - [`guard`] — a channel-integrity detector operationalizing the
//!   §V-C claim that signal-suppression attacks are detectable;
//! - [`artifact`] — the versioned, CRC-guarded model bundle that
//!   carries a trained MD profile + RE classifier from a training run
//!   to a serving process;
//! - [`auth`] — per-sensor frame-authentication keys ([`auth::AuthKey`],
//!   [`auth::KeyTable`]) carried by artifact v3 and verified by the
//!   wire v4 codec;
//! - [`stream`] — the channel-typed sensor-stream descriptors
//!   ([`stream::ChannelKind`], [`stream::StreamSchema`]) that
//!   generalize the pipeline beyond the RSSI link matrix;
//! - [`fusion`] — the per-workstation ambient-light detector and the
//!   RSSI-only / light-only / fused decision modes.
//!
//! # Examples
//!
//! End-to-end detection on a recorded trace:
//!
//! ```
//! use fadewich_core::{config::FadewichParams, md};
//! use fadewich_officesim::{Scenario, ScenarioConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = Scenario::generate(ScenarioConfig::small())?;
//! let trace = scenario.simulate()?;
//! let params = FadewichParams::default();
//! let streams: Vec<usize> = (0..trace.n_streams()).collect();
//! let run = md::run_md_over_day(&trace.days()[0], &streams, trace.tick_hz(), params)?;
//! let significant = run.significant_windows(params.t_delta_ticks(trace.tick_hz()));
//! println!("{} significant variation windows", significant.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod auth;
pub mod config;
pub mod controller;
pub mod features;
pub mod fusion;
pub mod guard;
pub mod kma;
pub mod md;
pub mod re;
pub mod security;
pub mod stream;
pub mod usability;
pub mod windows;

pub use artifact::{ArtifactError, FeatureSchema, ModelBundle};
pub use auth::{AuthKey, KeyTable};
pub use config::FadewichParams;
pub use controller::{Action, ActionKind, Controller, SystemState};
pub use features::TrainingSample;
pub use fusion::{
    DecisionMode, FusionConfig, LightDetector, LightDetectorState, LightEvent, LightParams,
};
pub use guard::{GuardParams, IntegrityAlarm, IntegrityGuard};
pub use kma::Kma;
pub use md::{MdRun, MdSnapshot, MovementDetector};
pub use re::{auto_label, AutoLabelParams, RadioEnvironment};
pub use security::{AttackAnalysis, DeauthCase, DeauthOutcome, DetectionOutcome};
pub use stream::{rssi_groups, ChannelKind, SensorGroup, StreamSchema};
pub use usability::{DayUsability, UsabilityParams};
pub use windows::VariationWindow;
