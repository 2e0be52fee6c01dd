//! # mpwifi-tcp
//!
//! A from-scratch TCP implementation running over the `mpwifi-netem`
//! emulated links. This is the workhorse under both the paper's
//! "single-path TCP" measurements and (via `mpwifi-mptcp`) each MPTCP
//! subflow.
//!
//! What is implemented, mirroring the Linux 3.11-era stack the paper used
//! where it matters to the results:
//!
//! * segments and their real wire encoding ([`segment`], defined in
//!   `mpwifi-netem` because a frame carries its segment typed): 20-byte
//!   header, MSS / window-scale / timestamp options, ones'-complement
//!   checksum, and pass-through "raw" options (kind 30 carries MPTCP);
//! * the full connection state machine ([`conn`]): three-way handshake,
//!   simultaneous data/ACK processing, FIN teardown with TIME_WAIT;
//! * reliability: cumulative ACKs, out-of-order reassembly with RFC 2018
//!   SACK blocks (newest arrival first), RFC 6298 RTO with Karn's rule
//!   via timestamps, exponential backoff, and RFC 6675 loss recovery: a
//!   SACK scoreboard says what is presumed lost, and one send loop puts
//!   repairs, then new data, into whatever room `pipe` leaves under the
//!   congestion window — after three duplicate ACKs or a timeout alike;
//! * congestion control ([`cc`]): one window ([`Cwnd`]: slow start and
//!   the two loss responses; it never inflates) and a growth rule per
//!   controller ([`Growth`]): AIMD [`Reno`] (the paper's "decoupled"
//!   per-subflow algorithm) and [`Cubic`] here, the coupled laws in
//!   `mpwifi-mptcp`;
//! * flow control: advertised windows with window scaling;
//! * a port-demultiplexing stack ([`stack`]) so one host can carry many
//!   concurrent connections (the app-replay workloads need dozens).

pub mod buffer;
pub mod cc;
pub mod conn;
pub mod pool;
pub mod rtt;
pub mod stack;

pub use buffer::{RecvBuffer, SendBuffer};
pub use cc::{CcKind, Cubic, Cwnd, Growth, Loss, Reno};
pub use conn::{ConnStats, TcpConfig, TcpConnection, TcpState};
pub use mpwifi_netem::segment;
pub use pool::SegmentBufPool;
pub use rtt::RttEstimator;
pub use segment::{Flags, Segment, TcpOption};
pub use stack::{SocketId, TcpStack};

/// Default maximum segment size (payload bytes per segment). 1500-byte
/// MTU minus 40 bytes of IP+TCP header minus 12 bytes of timestamp option
/// rounds to 1448 on Linux; we use 1400 to leave room for MPTCP options.
pub const DEFAULT_MSS: usize = 1400;

/// The window-scale shift every connection offers in its SYN.
pub const WSCALE: u8 = 8;

/// How long a delayed ACK waits for a second segment.
pub const DELACK_TIMEOUT: mpwifi_simcore::Dur = mpwifi_simcore::Dur::from_millis(40);
