//! # mpwifi-simcore
//!
//! Discrete-event simulation core for the `mpwifi` workspace: simulated
//! time ([`Time`], [`Dur`]), a deterministic event queue ([`EventQueue`]),
//! a seeded random-number generator with the distributions the study needs
//! ([`DetRng`]) beside the workspace's only seed-derivation helpers
//! ([`splitmix64`], [`Fnv1a`], [`derive_seed`]), time-series helpers
//! ([`series`]), the one fan-out engine every parallel batch runs on
//! ([`fan_out`]), and the one flat-JSON line codec ([`json`]).
//!
//! Everything in the workspace runs on *simulated* time — there is no wall
//! clock anywhere — so a given `(seed, scenario)` pair always produces
//! byte-identical results. That determinism is what makes the paper's
//! figures reproducible and the protocol stacks property-testable.

pub mod events;
pub mod fanout;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod series;
pub mod supervise;
pub mod time;

pub use events::{EventId, EventQueue};
pub use fanout::{fan_out, StealQueue};
pub use metrics::RunMetrics;
pub use rng::{derive_seed, norm_quantile, splitmix64, DetRng, Fnv1a};
pub use series::{RateSeries, TimeSeries};
pub use supervise::{arm_scoped, Armed, Breach, BreachReport, RunFailure, WatchdogConfig};
pub use time::{Dur, Time};
