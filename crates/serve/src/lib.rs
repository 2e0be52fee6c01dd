//! mpwifi-serve: the campaign server engine.
//!
//! Turns the batch-shaped reproduction pipeline into a long-running service:
//! jsonl requests in, streamed jsonl responses out, with the *request* as the
//! failure domain. The crate owns everything about robustness —
//!
//! - [`proto`]: the wire protocol (request and response types over
//!   `simcore`'s flat-JSON line codec; [`proto::RequestStatus`] carries
//!   `simcore`'s `RunFailure`, as `repro`'s `RunRecord` does);
//! - [`queue`]: the bounded admission queue with typed shedding and drain;
//! - [`exec`]: the [`exec::Executor`] engine interface and the deterministic
//!   jittered backoff schedule;
//! - [`pool`]: the poison-recovering worker pool (retry loop, quarantine
//!   accounting, crashed-worker replacement);
//! - [`server`]: the serve loop gluing them together;
//! - [`signal`]: SIGINT/SIGTERM → graceful-drain flag (FFI, no signal
//!   crate), threaded into [`server::serve_with_stop`].
//!
//! It knows nothing about simulations: `mpwifi-repro` plugs its registry and
//! supervision layer in through [`exec::Executor`] and hosts the
//! `repro serve` CLI. That direction keeps the dependency graph acyclic and
//! the robustness machinery testable with scripted mock engines.

pub mod exec;
pub mod pool;
pub mod proto;
pub mod queue;
pub mod server;
pub mod signal;

pub use exec::{backoff_ms, Executor};
pub use pool::{Gauge, Pool, Sink};
pub use proto::{Request, RequestStatus, Response, RunKind, RunRequest, ServeStats};
pub use queue::{AdmissionQueue, Admit};
pub use server::{serve, serve_with_stop, ServeConfig};
pub use signal::install_drain_handler;
