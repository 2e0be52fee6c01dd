//! # mpwifi-mptcp
//!
//! Multipath TCP (RFC 6824 semantics, Linux MPTCP v0.88 behaviour) built
//! on top of `mpwifi-tcp` subflows. This is the protocol the paper
//! measures in Sections 3 and 5.
//!
//! Implemented mechanisms, each mapped to a paper finding:
//!
//! * **Primary subflow selection** — the first subflow is initiated on the
//!   configured default-route interface; the second joins via MP_JOIN
//!   *after* the primary completes its handshake, reproducing the startup
//!   stagger behind Figures 8–12.
//! * **Coupled (LIA RFC 6356, OLIA RFC 6356-bis draft, BALIA) vs
//!   decoupled (per-subflow Reno/Cubic) congestion control** — the knob
//!   behind Figures 13 and 14, grown into a zoo for the scheduler/CC
//!   head-to-head experiments. All five are growth rules of the one
//!   congestion window in `mpwifi_tcp::cc`; [`coupled`] holds the three
//!   that share state across subflows.
//! * **Full-MPTCP vs Backup mode** — backup subflows complete SYN and FIN
//!   exchanges but carry no data until the primary path dies
//!   (Figure 15), which is exactly what makes their LTE tail energy cost
//!   surprising (Figure 16).
//! * **Failure handling** — explicit interface-down notifications
//!   (`multipath off` in iproute) propagate a REMOVE_ADDR and trigger
//!   immediate reinjection onto surviving subflows; silent black-holing
//!   (USB unplug) is only recovered if RTO-count-based activation is
//!   enabled, reproducing both the failover and the observed stall of
//!   Figure 15e–h.
//!
//! Two halves: [`path`] is the control plane — which paths should have a
//! subflow now, with which flags, and when one counts as dead — and
//! [`conn`] the data plane (DSN maps, scheduling, DSS, reinjection,
//! teardown) that consults it.
//!
//! Wire format: MPTCP options travel in TCP option kind 30 with the real
//! subtype structure. Two documented simplifications (see DESIGN.md):
//! token derivation uses FNV-1a instead of HMAC-SHA1, and DSS mappings use
//! 64-bit DSNs with the subflow position taken from the carrying
//! segment's sequence number.

pub mod conn;
pub mod coupled;
pub mod endpoint;
pub mod options;
pub mod path;
pub mod sched;

pub use conn::{MptcpConfig, MptcpConnection, SchedProgress, SubflowStats};
pub use coupled::{CcKind, CoupledCc, CoupledGroup};
pub use endpoint::{ClientEndpoint, ServerEndpoint};
pub use options::{token_from_key, MpOption};
pub use path::{BackupActivation, Mode};
pub use sched::SchedKind;
