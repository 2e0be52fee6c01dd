//! # mpwifi-sim
//!
//! The measurement testbed in software: a multi-homed client (WiFi + LTE
//! interfaces) and a single-homed server, connected by four one-direction
//! `mpwifi-netem` pipelines, driven by a deterministic event loop.
//!
//! This crate replaces the paper's physical setup (Figure 5: a laptop
//! tethered to two phones, talking to a server at MIT) and its Mahimahi
//! shells:
//!
//! * [`LinkSpec`] / [`PathPair`] — one emulated access link (uplink +
//!   downlink pipelines with rate or delivery-trace service, propagation
//!   delay, drop-tail queue, optional random loss);
//! * [`endpoint::Endpoint`] — the transport glue: single-path TCP hosts
//!   (over `mpwifi-tcp`) and MPTCP hosts (over `mpwifi-mptcp`);
//! * [`Sim`] — the event loop: advances simulated time to the next frame
//!   exit or retransmission timer, routes frames by interface address,
//!   applies scripted failure events, and keeps per-interface packet
//!   logs (the `tcpdump` substitute behind Figure 15);
//! * [`socket`] — the app-facing seam: one [`Socket`] operation list
//!   for both stacks' connections, id lookup on all four hosts;
//! * [`apps`] — the workload drivers: [`apps::bulk`], the one bulk
//!   transfer loop over that seam, its fresh-world wrappers, and pings;
//! * [`SimArena`] — crowd-campaign reuse: one built world re-armed per
//!   run via [`Sim::reset`] / [`CampaignRun`]; the segment-buffer pool,
//!   scratch vectors and payloads stay warm, the links are rebuilt.

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
pub use world::{RunUntil, ScriptEvent, Sim, SimBuilder, StallSnapshot, STALL_CLASSIFY_WINDOW};

use mpwifi_netem::Addr;

/// The client's WiFi interface address.
pub const WIFI_ADDR: Addr = Addr(1);
/// The client's LTE interface address.
pub const LTE_ADDR: Addr = Addr(2);
/// The server's interface address.
pub const SERVER_ADDR: Addr = Addr(10);
/// The server's listening port for measurement transfers.
pub const SERVER_PORT: u16 = 443;

/// Human name of a client interface address, for forensic reports.
pub fn iface_name(addr: Addr) -> &'static str {
    if addr == WIFI_ADDR {
        "wifi"
    } else if addr == LTE_ADDR {
        "lte"
    } else if addr == SERVER_ADDR {
        "server"
    } else {
        "unknown"
    }
}
