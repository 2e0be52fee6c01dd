//! Transport endpoints as seen by the simulation loop.
//!
//! An [`Endpoint`] consumes arriving segments and produces addressed
//! segments. Four implementations cover the paper's six transport
//! configurations: single-path TCP client/server hosts (WiFi-TCP and
//! LTE-TCP, differing only in the interface the client binds) and MPTCP
//! client/server hosts (the four MPTCP variants, configured via
//! [`mpwifi_mptcp::MptcpConfig`]).

use mpwifi_mptcp::MptcpConnection;
use mpwifi_netem::Addr;
use mpwifi_simcore::Time;
use mpwifi_tcp::conn::TcpConfig;
use mpwifi_tcp::segment::Segment;
use mpwifi_tcp::stack::{SocketId, TcpStack};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One host's transport layer, driven by [`crate::Sim`].
///
/// The `'static` bound exists for the [`crate::check::SimObserver`]
/// hook: `Sim` stores the observer as `Box<dyn SimObserver<C, S>>`,
/// whose well-formedness requires the endpoint types to own their data
/// (every host here does).
pub trait Endpoint: 'static {
    /// A segment arrived (`src`/`dst` are interface addresses).
    fn on_segment(&mut self, now: Time, seg: &Segment, src: Addr, dst: Addr);

    /// Drain outgoing segments as `(source interface, destination,
    /// segment)`, appending to a caller-provided buffer: the sim driver
    /// calls this twice per step with a reused scratch, so the hot loop
    /// never allocates a segment `Vec`.
    fn take_tx_into(&mut self, now: Time, out: &mut Vec<(Addr, Addr, Segment)>);

    /// Earliest pending timer.
    fn next_timer(&self) -> Option<Time>;

    /// Fire timers due at `now`.
    fn on_timers(&mut self, now: Time);

    /// Local notification that an interface went down (iproute-style).
    fn notify_iface_down(&mut self, _now: Time, _iface: Addr) {}

    /// Local notification that a previously-downed interface came back
    /// (iproute-style restore). Multipath endpoints use this to rejoin
    /// the restored path; single-path hosts ignore it.
    fn notify_iface_up(&mut self, _now: Time, _iface: Addr) {}

    /// Multi-line transport-health report for stall forensics: one line
    /// per connection (and per subflow for multipath hosts) naming the
    /// interface and progress counters. Default: empty (no report).
    fn health(&self) -> String {
        String::new()
    }
}

/// Endpoints that can be re-armed in place for a new campaign run.
///
/// [`crate::Sim::reset`] requires both hosts to implement this: after
/// `reset_run(seed)` the endpoint must be indistinguishable from a
/// freshly constructed one for the same run, so reset-reuse stays
/// bit-identical to a fresh build. The initial-sequence-number seeds
/// mirror the workload drivers in [`crate::apps`]: clients derive
/// `run_seed as u32 | 1`, servers `(run_seed as u32) ^ 0xBEEF`.
pub trait ResetEndpoint: Endpoint {
    /// Drop all connection state and re-seed for the given run.
    fn reset_run(&mut self, run_seed: u64);
}

/// The sink a TCP host hands its stack: each drained segment is stamped
/// with `(source, destination)` by `route` on its way into the driver's
/// buffer, or dropped when `route` has nowhere to send it.
struct Addressed<'a, F> {
    out: &'a mut Vec<(Addr, Addr, Segment)>,
    route: F,
}

impl<F: FnMut(&Segment) -> Option<(Addr, Addr)>> Extend<Segment> for Addressed<'_, F> {
    fn extend<I: IntoIterator<Item = Segment>>(&mut self, segs: I) {
        let Addressed { out, route } = self;
        out.extend(
            segs.into_iter()
                .filter_map(|seg| route(&seg).map(|(src, dst)| (src, dst, seg))),
        );
    }
}

/// Render one `TcpStack` as health lines (shared by both TCP hosts).
fn tcp_stack_health(stack: &TcpStack) -> String {
    let mut out = String::new();
    for id in stack.socket_ids() {
        let Some(conn) = stack.conn(id) else { continue };
        let _ = writeln!(
            out,
            "tcp {}:{} — {}acked {} B, delivered {} B",
            id.0,
            id.1,
            if conn.is_closed() { "closed, " } else { "" },
            conn.acked_bytes(),
            conn.delivered_bytes(),
        );
    }
    out
}

/// Single-path TCP client: a `TcpStack` bound to one interface.
#[derive(Debug)]
pub struct TcpClientHost {
    /// The interface all connections use (WiFi or LTE — the paper's
    /// single-path configurations).
    pub iface: Addr,
    server_addr: Addr,
    /// The underlying connection stack (public for workload drivers).
    pub stack: TcpStack,
}

impl TcpClientHost {
    /// Create a client bound to `iface`, talking to `server_addr`.
    pub fn new(iface: Addr, server_addr: Addr, iss_seed: u32) -> TcpClientHost {
        TcpClientHost {
            iface,
            server_addr,
            stack: TcpStack::new(iss_seed),
        }
    }

    /// Open a connection to the server.
    pub fn connect(&mut self, now: Time, cfg: TcpConfig, remote_port: u16) -> SocketId {
        self.stack.connect(now, cfg, remote_port)
    }
}

impl Endpoint for TcpClientHost {
    fn on_segment(&mut self, now: Time, seg: &Segment, _src: Addr, _dst: Addr) {
        self.stack.on_segment(now, seg);
    }

    fn take_tx_into(&mut self, now: Time, out: &mut Vec<(Addr, Addr, Segment)>) {
        let route = Some((self.iface, self.server_addr));
        self.stack.take_tx_into(
            now,
            &mut Addressed {
                out,
                route: |_: &Segment| route,
            },
        );
    }

    fn next_timer(&self) -> Option<Time> {
        self.stack.next_timer()
    }

    fn on_timers(&mut self, now: Time) {
        self.stack.on_timers(now);
    }

    fn health(&self) -> String {
        format!(
            "bound to {}\n{}",
            crate::iface_name(self.iface),
            tcp_stack_health(&self.stack)
        )
    }
}

impl ResetEndpoint for TcpClientHost {
    fn reset_run(&mut self, run_seed: u64) {
        self.stack = TcpStack::new(run_seed as u32 | 1);
    }
}

/// Single-path TCP server: a `TcpStack` plus a peer-address table so
/// replies leave toward the interface each connection arrived from.
#[derive(Debug)]
pub struct TcpServerHost {
    local_addr: Addr,
    /// The underlying connection stack (public for workload drivers).
    pub stack: TcpStack,
    peer_addr: HashMap<SocketId, Addr>,
    /// Every `(port, cfg)` ever listened on, replayed by
    /// [`ResetEndpoint::reset_run`] so a re-armed server accepts on the
    /// same ports a fresh one would.
    listens: Vec<(u16, TcpConfig)>,
}

impl TcpServerHost {
    /// Create a server at `local_addr` listening on `listen_port`.
    pub fn new(local_addr: Addr, listen_port: u16, cfg: TcpConfig, iss_seed: u32) -> TcpServerHost {
        let mut stack = TcpStack::new(iss_seed);
        stack.listen(listen_port, cfg.clone());
        TcpServerHost {
            local_addr,
            stack,
            peer_addr: HashMap::new(),
            listens: vec![(listen_port, cfg)],
        }
    }

    /// Listen on an additional port.
    pub fn listen(&mut self, port: u16, cfg: TcpConfig) {
        self.stack.listen(port, cfg.clone());
        self.listens.push((port, cfg));
    }
}

impl Endpoint for TcpServerHost {
    fn on_segment(&mut self, now: Time, seg: &Segment, src: Addr, _dst: Addr) {
        self.peer_addr.insert((seg.dst_port, seg.src_port), src);
        self.stack.on_segment(now, seg);
    }

    fn take_tx_into(&mut self, now: Time, out: &mut Vec<(Addr, Addr, Segment)>) {
        let local = self.local_addr;
        let peer_addr = &self.peer_addr;
        // A reply whose peer interface was never learned (the
        // connection's only inbound segment was corrupted away, say)
        // has nowhere to go: drop it rather than panic. The
        // connection's own retransmit timer recovers.
        let route = |seg: &Segment| {
            let dst = peer_addr.get(&(seg.src_port, seg.dst_port)).copied()?;
            Some((local, dst))
        };
        self.stack.take_tx_into(now, &mut Addressed { out, route });
    }

    fn next_timer(&self) -> Option<Time> {
        self.stack.next_timer()
    }

    fn on_timers(&mut self, now: Time) {
        self.stack.on_timers(now);
    }

    fn health(&self) -> String {
        tcp_stack_health(&self.stack)
    }
}

impl ResetEndpoint for TcpServerHost {
    fn reset_run(&mut self, run_seed: u64) {
        self.stack = TcpStack::new((run_seed as u32) ^ 0xBEEF);
        for (port, cfg) in &self.listens {
            self.stack.listen(*port, cfg.clone());
        }
        self.peer_addr.clear();
    }
}

/// The MPTCP hosts are `mpwifi-mptcp`'s two endpoints themselves, under
/// the names the drivers know them by; [`Endpoint`] is implemented on
/// them below and the socket seam in [`crate::socket`].
pub use mpwifi_mptcp::{ClientEndpoint as MptcpClientHost, ServerEndpoint as MptcpServerHost};

/// Render an MPTCP host's connections, and each one's subflows, as
/// health lines. This is where a stalled run's forensics name the dead
/// subflow.
fn mptcp_health<'a>(conns: impl Iterator<Item = &'a MptcpConnection>) -> String {
    let mut out = String::new();
    for (id, conn) in conns.enumerate() {
        let _ = writeln!(
            out,
            "mptcp conn {id} — {}delivered {} B, {} subflows",
            if conn.is_closed() { "closed, " } else { "" },
            conn.delivered_bytes(),
            conn.subflow_count(),
        );
        for s in conn.subflow_stats_iter() {
            let _ = writeln!(
                out,
                "  subflow {} (id {}){}{}: {}, acked {} B, delivered {} B{}",
                crate::iface_name(s.iface),
                s.addr_id,
                if s.is_backup { " [backup]" } else { "" },
                if s.dead { " [DEAD]" } else { "" },
                match s.established_at {
                    Some(t) => format!("established at {t}"),
                    None => "never established".to_string(),
                },
                s.bytes_acked,
                s.bytes_delivered,
                match s.srtt {
                    Some(rtt) => format!(", srtt {rtt}"),
                    None => String::new(),
                },
            );
        }
    }
    out
}

// In both impls a body's `Host::method(self, ..)` is the endpoint's
// inherent method of that name, which path resolution prefers to the
// trait's: a plain call, not recursion.
impl Endpoint for MptcpClientHost {
    fn on_segment(&mut self, now: Time, seg: &Segment, _src: Addr, _dst: Addr) {
        MptcpClientHost::on_segment(self, now, seg);
    }

    fn take_tx_into(&mut self, now: Time, out: &mut Vec<(Addr, Addr, Segment)>) {
        MptcpClientHost::take_tx_into(self, now, out);
    }

    fn next_timer(&self) -> Option<Time> {
        MptcpClientHost::next_timer(self)
    }

    fn on_timers(&mut self, now: Time) {
        MptcpClientHost::on_timers(self, now);
    }

    fn notify_iface_down(&mut self, now: Time, iface: Addr) {
        MptcpClientHost::notify_iface_down(self, now, iface);
    }

    fn notify_iface_up(&mut self, now: Time, iface: Addr) {
        MptcpClientHost::notify_iface_up(self, now, iface);
    }

    fn health(&self) -> String {
        mptcp_health((0..self.len()).map(|id| self.conn(id)))
    }
}

impl Endpoint for MptcpServerHost {
    fn on_segment(&mut self, now: Time, seg: &Segment, src: Addr, _dst: Addr) {
        MptcpServerHost::on_segment(self, now, seg, src);
    }

    fn take_tx_into(&mut self, now: Time, out: &mut Vec<(Addr, Addr, Segment)>) {
        MptcpServerHost::take_tx_into(self, now, out);
    }

    fn next_timer(&self) -> Option<Time> {
        MptcpServerHost::next_timer(self)
    }

    fn on_timers(&mut self, now: Time) {
        MptcpServerHost::on_timers(self, now);
    }

    fn health(&self) -> String {
        mptcp_health((0..self.len()).map(|id| self.conn(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpwifi_mptcp::MptcpConfig;
    use mpwifi_tcp::segment::Flags;

    fn take_tx(host: &mut impl Endpoint) -> Vec<(Addr, Addr, Segment)> {
        let mut out = Vec::new();
        host.take_tx_into(Time::ZERO, &mut out);
        out
    }

    #[test]
    fn tcp_client_stamps_its_interface() {
        let mut c = TcpClientHost::new(Addr(2), Addr(10), 1);
        c.connect(Time::ZERO, TcpConfig::default(), 443);
        let tx = take_tx(&mut c);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].0, Addr(2));
        assert_eq!(tx[0].1, Addr(10));
        assert!(tx[0].2.flags.syn);
    }

    #[test]
    fn tcp_server_replies_toward_arrival_interface() {
        let mut s = TcpServerHost::new(Addr(10), 443, TcpConfig::default(), 7);
        let syn = {
            let mut seg = Segment::control(50_000, 443, 100, 0, Flags::SYN);
            seg.options = vec![mpwifi_tcp::segment::TcpOption::Mss(1400)];
            seg
        };
        s.on_segment(Time::ZERO, &syn, Addr(2), Addr(10));
        let tx = take_tx(&mut s);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].0, Addr(10));
        assert_eq!(tx[0].1, Addr(2), "SYN-ACK routed back to the LTE iface");
        assert!(tx[0].2.flags.syn && tx[0].2.flags.ack);
    }

    #[test]
    fn mptcp_client_primary_iface_selected() {
        let mut c = MptcpClientHost::new(Addr(10), [Addr(1), Addr(2)], 3);
        c.open(Time::ZERO, MptcpConfig::default(), Addr(2), 443);
        let tx = take_tx(&mut c);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].0, Addr(2), "primary SYN leaves on LTE");
    }
}
