//! # mpwifi-netem
//!
//! Mahimahi-style network emulation as pollable link paths.
//!
//! The paper ran its app-replay experiments inside Mahimahi link shells:
//! a drop-tail queue feeding either a fixed-rate link or a *trace-driven*
//! link (a cyclic list of packet delivery opportunities), followed by a
//! propagation delay, optionally a loss decision per packet. This crate
//! reproduces those semantics, and keeps the three kinds of thing apart:
//!
//! * [`LinkQueue`] — drop-tail queue + service process
//!   ([`Service::FixedRate`] or [`Service::Trace`]);
//! * [`DelayStage`] — constant propagation delay;
//! * [`Filter`] — a decision on a frame the instant it passes, holding
//!   nothing: [`LossFilter`] (Bernoulli loss) and the episode-gated
//!   [`GilbertElliottFilter`] and [`CorruptFilter`];
//! * [`Stage`] — anything that holds frames until an exit time: the
//!   queue, the delay, and [`ReorderStage`];
//! * [`Pipeline`] — one direction of a link: queue → delay → a tail of
//!   filters and stages, with an up/down gate (the gate models
//!   physically unplugging an interface mid-flow, as in the paper's
//!   Figure 15g/h);
//! * [`faults`] — deterministic fault injection: [`FaultPlan`]
//!   timelines (blackouts, burst loss, delay spikes, rate crushes,
//!   corruption) plus the two episode filters.
//!
//! Pipelines are *polled*, not callback-driven: each reports the next
//! instant at which a frame can exit a holder ([`Pipeline::next_ready`])
//! and the simulation driver advances the global clock to the minimum
//! over all components. This keeps the whole simulator single-threaded,
//! allocation-light and deterministic.

pub mod faults;
pub mod frame;
pub mod pipeline;
pub mod reorder;
pub mod stage;
pub mod trace;

pub use faults::{
    CorruptFilter, FaultEvent, FaultKind, FaultPlan, GilbertElliott, GilbertElliottFilter,
};
pub use frame::{Addr, Frame};
pub use pipeline::{Pipeline, PipelineStats};
pub use reorder::ReorderStage;
pub use stage::{DelayStage, Filter, LinkQueue, LossFilter, Service, Stage};
pub use trace::DeliveryTrace;

/// Maximum transmission unit used throughout the workspace (bytes on the
/// wire per frame). Mahimahi's trace format assumes 1500-byte delivery
/// opportunities; we match it.
pub const MTU: usize = 1500;
