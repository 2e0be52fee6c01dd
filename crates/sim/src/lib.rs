//! # mpwifi-sim
//!
//! The measurement testbed in software: a multi-homed client and a
//! single-homed server, connected by one emulated access link per client
//! interface (two one-direction `mpwifi-netem` pipelines each), driven
//! by a deterministic event loop.
//!
//! This crate replaces the paper's physical setup (Figure 5: a laptop
//! tethered to two phones, talking to a server at MIT) and its Mahimahi
//! shells:
//!
//! * [`LinkSpec`] / [`PathPair`] — one emulated access link (uplink +
//!   downlink pipelines with rate or delivery-trace service, propagation
//!   delay, drop-tail queue, optional random loss);
//! * [`endpoint::Endpoint`] — the transport glue: single-path TCP hosts
//!   (over `mpwifi-tcp`) and the MPTCP hosts, which are `mpwifi-mptcp`'s
//!   two endpoints themselves;
//! * [`Sim`] — the event loop over the interface table [`Sim::ifaces`],
//!   one [`Iface`] row per client interface (the paper's testbed is
//!   WiFi, then LTE; the driver names neither and walks the rows in
//!   index order): advances simulated time to the next frame exit or
//!   retransmission timer, routes frames by interface address, applies
//!   scripted failure events, and keeps each row's packet log (the
//!   `tcpdump` substitute behind Figure 15);
//! * [`socket`] — the app-facing seam: one [`Socket`] operation list
//!   for both stacks' connections, id lookup on all four hosts;
//! * [`apps`] — the workload drivers: [`apps::bulk`], the one bulk
//!   transfer loop over that seam, its fresh-world wrappers, and pings;
//! * [`SimArena`] — crowd-campaign reuse: one built world re-armed per
//!   run via [`Sim::reset`] / [`CampaignRun`]; the scratch vectors and
//!   payloads stay warm, the links are rebuilt.

pub mod apps;
pub mod arena;
pub mod check;
pub mod endpoint;
pub mod link;
pub mod log;
pub mod socket;
pub mod world;

pub use apps::{measure_ping, BulkResult, FlowDir};
pub use arena::{CampaignRun, SimArena};
pub use check::{SimObserver, TxHost};
pub use endpoint::{
    Endpoint, MptcpClientHost, MptcpServerHost, ResetEndpoint, TcpClientHost, TcpServerHost,
};
pub use link::{LinkSpec, PathPair, ServiceSpec};
pub use log::{PacketDir, PacketEvent, PacketLog};
pub use socket::{Accept, Socket, SocketHost};
pub use world::{
    Iface, IfaceSnapshot, RunUntil, ScriptEvent, Sim, SimBuilder, StallSnapshot,
    STALL_CLASSIFY_WINDOW,
};

use mpwifi_netem::Addr;
use std::borrow::Cow;

/// The client's WiFi interface address.
pub const WIFI_ADDR: Addr = Addr(1);
/// The client's LTE interface address.
pub const LTE_ADDR: Addr = Addr(2);
/// The server's interface address.
pub const SERVER_ADDR: Addr = Addr(10);
/// The server's listening port for measurement transfers.
pub const SERVER_PORT: u16 = 443;

/// Human name of an address in the paper's testbed, for forensic
/// reports; an interface outside it is named by its address.
pub fn iface_name(addr: Addr) -> Cow<'static, str> {
    match addr {
        WIFI_ADDR => "wifi".into(),
        LTE_ADDR => "lte".into(),
        SERVER_ADDR => "server".into(),
        Addr(n) => format!("iface {n}").into(),
    }
}
