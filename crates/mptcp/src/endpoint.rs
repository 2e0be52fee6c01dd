//! MPTCP endpoints: connection managers for a multi-homed client and a
//! single-homed server.
//!
//! These speak `(interface, remote address, Segment)` triples; they are
//! the `mpwifi-sim` crate's MPTCP hosts as they stand (it implements its
//! `Endpoint` on them and turns the triples into frames). The server
//! endpoint demultiplexes by port pair, spawns connections for
//! MP_CAPABLE SYNs, and attaches MP_JOIN SYNs to existing connections by
//! token — the same dispatch the Linux implementation performs.

use crate::conn::{MptcpConfig, MptcpConnection};
use crate::options::{mp_options, MpOption};
use crate::path::PathManager;
use mpwifi_netem::Addr;
use mpwifi_simcore::{DetRng, Time};
use mpwifi_tcp::segment::Segment;
use mpwifi_tcp::touched::{Ready, Touched};

/// What both endpoints are built on: connections by id, the key
/// source, and dispatch by port pair.
///
/// Beside the connections is [`Touched`]: those something touched since
/// the last drain — a routed segment, an open, an accept or a join, a
/// timer that came due, an interface notification, a `conn_mut` borrow
/// — and every other one's timer horizon as of its last drain. The
/// drain walks the touched ones in id order, the order the whole table
/// would go in; `next_timer` and `on_timers` read the others' stored
/// horizons. Every connection off the list was drained and is settled
/// since, so visiting it would hand over nothing and its timers have
/// not moved (debug builds check each one).
#[derive(Debug)]
struct ConnTable {
    conns: Vec<MptcpConnection>,
    touched: Touched,
    /// `(local port, remote port)` → `(connection, subflow)` for every
    /// subflow a segment has been routed to, sorted by port pair: what
    /// [`ConnTable::route`] searches before it scans.
    routes: Vec<((u16, u16), (usize, usize))>,
    key_rng: DetRng,
    /// Connections a segment reached since the last `take_ready`.
    ready: Ready<usize>,
}

impl ConnTable {
    fn new(key_seed: u64) -> ConnTable {
        ConnTable {
            conns: Vec::new(),
            touched: Touched::new(),
            routes: Vec::new(),
            key_rng: DetRng::seed_from_u64(key_seed),
            ready: Ready::default(),
        }
    }

    fn mark_ready(&mut self, id: usize) {
        self.ready.mark(id, self.conns.len());
    }

    fn next_key(&mut self) -> u64 {
        self.key_rng.next_u64()
    }

    /// Add a connection, touched; returns its id.
    fn push(&mut self, conn: MptcpConnection) -> usize {
        self.conns.push(conn);
        self.touched.push();
        self.conns.len() - 1
    }

    /// Put connection `id` on the touched list and lend it.
    fn touch(&mut self, id: usize) -> &mut MptcpConnection {
        self.touched.touch(id);
        &mut self.conns[id]
    }

    fn next_timer(&self) -> Option<Time> {
        self.touched.next_timer(|id| self.conns[id].next_timer())
    }

    /// Fire due timers. A touched connection is asked whatever its
    /// horizon: an unsettled one runs its timer pass regardless.
    fn on_timers(&mut self, now: Time) {
        let conns = &mut self.conns;
        self.touched.on_timers(now, |id| conns[id].on_timers(now));
    }

    /// Drain the touched connections in id order. One the drain left
    /// unsettled (the abort teardown) stays touched.
    fn take_tx_into(&mut self, now: Time, out: &mut Vec<(Addr, Addr, Segment)>) {
        let conns = &mut self.conns;
        let settled = |c: &MptcpConnection| c.is_settled().then(|| c.next_timer());
        self.touched.check(|id| settled(&conns[id]));
        self.touched.drain(|id| {
            conns[id].take_tx_into(now, out);
            settled(&conns[id])
        });
    }

    /// The `(connection, subflow)` a port pair names: found in `routes`,
    /// or else by asking every connection, which happens once per
    /// subflow (its first segment) and for a segment no subflow owns.
    fn find_route(&mut self, ports: (u16, u16)) -> Option<(usize, usize)> {
        let scan = |conns: &[MptcpConnection]| {
            let mut conns = conns.iter().enumerate();
            conns.find_map(|(id, c)| Some((id, c.route_ports(ports.0, ports.1)?)))
        };
        match self.routes.binary_search_by_key(&ports, |&(p, _)| p) {
            Ok(at) => {
                let found = self.routes[at].1;
                debug_assert_eq!(Some(found), scan(&self.conns), "stale route {ports:?}");
                Some(found)
            }
            Err(at) => {
                let found = scan(&self.conns)?;
                self.routes.insert(at, (ports, found));
                Some(found)
            }
        }
    }

    /// Hand a decoded segment to the connection that owns its port
    /// pair; false when none does.
    fn route(&mut self, now: Time, seg: &Segment) -> bool {
        let Some((id, sf)) = self.find_route((seg.dst_port, seg.src_port)) else {
            return false;
        };
        self.touch(id).on_segment(now, sf, seg);
        self.mark_ready(id);
        true
    }
}

/// The accessors and per-step polls both endpoints offer, written once
/// over their `table`.
macro_rules! conn_table_api {
    ($endpoint:ty) => {
        impl $endpoint {
            /// Borrow a connection.
            pub fn conn(&self, id: usize) -> &MptcpConnection {
                &self.table.conns[id]
            }

            /// Mutably borrow a connection. The borrow is a touch: the
            /// next drain visits it, whatever the caller did.
            pub fn conn_mut(&mut self, id: usize) -> &mut MptcpConnection {
                self.table.touch(id)
            }

            /// Append to `out` the connections a segment reached (an
            /// accept or a join included) since the last call: each
            /// once, in id order. An application that reads only these
            /// after a step reads everything a segment could have
            /// changed.
            pub fn take_ready(&mut self, out: &mut Vec<usize>) {
                self.table.ready.take(out);
            }

            /// Number of connections opened or accepted.
            pub fn len(&self) -> usize {
                self.table.conns.len()
            }

            /// True when no connections exist.
            pub fn is_empty(&self) -> bool {
                self.table.conns.is_empty()
            }

            /// Earliest timer across connections.
            pub fn next_timer(&self) -> Option<Time> {
                self.table.next_timer()
            }

            /// Fire due timers.
            pub fn on_timers(&mut self, now: Time) {
                self.table.on_timers(now);
            }

            /// Drain outgoing segments — `(local interface, remote
            /// address, segment)` — into a caller-provided buffer (the
            /// per-step driver path), from the connections something
            /// touched since the last drain.
            pub fn take_tx_into(&mut self, now: Time, out: &mut Vec<(Addr, Addr, Segment)>) {
                self.table.take_tx_into(now, out);
            }
        }
    };
}
conn_table_api!(ClientEndpoint);
conn_table_api!(ServerEndpoint);

/// Multi-homed client endpoint: owns MPTCP connections whose primary
/// subflow starts on a chosen interface.
#[derive(Debug)]
pub struct ClientEndpoint {
    table: ConnTable,
    server_addr: Addr,
    /// `(interface address, MPTCP addr id)` for each local interface.
    ifaces: Vec<(Addr, u8)>,
    next_port: u16,
}

impl ClientEndpoint {
    /// Create a client with the given local interfaces (order is only a
    /// default; each `open` chooses its primary explicitly). An
    /// interface's address byte is its MPTCP address id.
    pub fn new(
        server_addr: Addr,
        ifaces: impl IntoIterator<Item = Addr>,
        key_seed: u64,
    ) -> ClientEndpoint {
        let ifaces: Vec<(Addr, u8)> = ifaces.into_iter().map(|a| (a, a.0)).collect();
        assert!(!ifaces.is_empty(), "client needs at least one interface");
        ClientEndpoint {
            table: ConnTable::new(key_seed),
            server_addr,
            ifaces,
            next_port: 40_000,
        }
    }

    /// Open an MPTCP connection with the primary subflow on
    /// `primary_iface`. Returns the connection id.
    pub fn open(
        &mut self,
        now: Time,
        cfg: MptcpConfig,
        primary_iface: Addr,
        remote_port: u16,
    ) -> usize {
        let paths = PathManager::client(&cfg, &self.ifaces, primary_iface, &mut self.next_port);
        let key = self.table.next_key();
        let mut conn = MptcpConnection::new(cfg, paths, self.server_addr, remote_port, key);
        conn.connect(now);
        self.table.push(conn)
    }

    /// Route one decoded segment (arriving on any interface).
    pub fn on_segment(&mut self, now: Time, seg: &Segment) {
        self.table.route(now, seg);
    }

    /// Local notification that an interface was disabled (`multipath
    /// off`): propagate to every connection.
    pub fn notify_iface_down(&mut self, now: Time, iface: Addr) {
        for id in 0..self.table.conns.len() {
            self.table.touch(id).notify_iface_down(now, iface);
        }
    }

    /// Local notification that a downed interface came back: every
    /// connection whose path manager wants a subflow on `iface` again
    /// rejoins it with a fresh MP_JOIN on a newly allocated ephemeral
    /// port.
    pub fn notify_iface_up(&mut self, now: Time, iface: Addr) {
        for id in 0..self.table.conns.len() {
            (self.table.touch(id)).notify_iface_up(now, iface, &mut self.next_port);
        }
    }
}

/// Single-homed MPTCP server endpoint.
#[derive(Debug)]
pub struct ServerEndpoint {
    table: ConnTable,
    local_addr: Addr,
    listen_port: u16,
    cfg: MptcpConfig,
    accepted: Vec<usize>,
}

impl ServerEndpoint {
    /// Listen on `listen_port`, configuring accepted connections with
    /// `cfg` (the experiment harness keeps it consistent with the
    /// client's, as the paper did by installing matching kernels).
    pub fn new(
        local_addr: Addr,
        listen_port: u16,
        cfg: MptcpConfig,
        key_seed: u64,
    ) -> ServerEndpoint {
        ServerEndpoint {
            table: ConnTable::new(key_seed ^ 0xA24B_AED4_963E_E407),
            local_addr,
            listen_port,
            cfg,
            accepted: Vec::new(),
        }
    }

    /// Connections accepted since the last call.
    pub fn take_accepted(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.accepted)
    }

    /// Route one decoded segment that arrived from `src_addr`.
    pub fn on_segment(&mut self, now: Time, seg: &Segment, src_addr: Addr) {
        // Existing subflow?
        if self.table.route(now, seg) {
            return;
        }
        // New subflow: must be a SYN to the listening port.
        if !(seg.flags.syn && !seg.flags.ack && seg.dst_port == self.listen_port) {
            return;
        }
        for opt in mp_options(seg) {
            match opt {
                MpOption::MpCapable { key } => {
                    let local_key = self.table.next_key();
                    let paths = PathManager::server(&self.cfg);
                    let cfg = self.cfg.clone();
                    let mut conn = MptcpConnection::new(cfg, paths, self.local_addr, 0, local_key);
                    conn.accept_primary(now, seg, src_addr, key);
                    let id = self.table.push(conn);
                    self.accepted.push(id);
                    self.table.mark_ready(id);
                    return;
                }
                MpOption::MpJoin {
                    token,
                    addr_id,
                    backup,
                } => {
                    let mut conns = self.table.conns.iter();
                    if let Some(id) = conns.position(|c| c.local_token() == token) {
                        let conn = self.table.touch(id);
                        conn.accept_join(now, seg, src_addr, addr_id, backup);
                        self.table.mark_ready(id);
                    }
                    return;
                }
                _ => {}
            }
        }
        // Plain TCP SYN without MPTCP options: this endpoint is
        // MPTCP-only; the sim crate uses a TcpStack endpoint for
        // single-path runs.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coupled::CcKind;
    use crate::path::{BackupActivation, Mode};
    use crate::sched::SchedKind;
    use bytes::Bytes;
    use mpwifi_simcore::Dur;

    const WIFI: Addr = Addr(1);
    const LTE: Addr = Addr(2);
    const SRV: Addr = Addr(10);

    /// Two-path loopback: per-interface constant delays, optional
    /// per-interface cut (silent black-holing).
    struct MpLoopback {
        client: ClientEndpoint,
        server: ServerEndpoint,
        wifi_delay: Dur,
        lte_delay: Dur,
        wifi_up: bool,
        lte_up: bool,
        /// (deliver_at, to_server, via_iface, segment)
        in_flight: Vec<(Time, bool, Addr, Segment)>,
        now: Time,
    }

    impl MpLoopback {
        fn new(cfg: MptcpConfig, wifi_delay_ms: u64, lte_delay_ms: u64) -> MpLoopback {
            MpLoopback {
                client: ClientEndpoint::new(SRV, [WIFI, LTE], 7),
                server: ServerEndpoint::new(SRV, 80, cfg, 13),
                wifi_delay: Dur::from_millis(wifi_delay_ms),
                lte_delay: Dur::from_millis(lte_delay_ms),
                wifi_up: true,
                lte_up: true,
                in_flight: Vec::new(),
                now: Time::ZERO,
            }
        }

        fn iface_up(&self, iface: Addr) -> bool {
            if iface == WIFI {
                self.wifi_up
            } else {
                self.lte_up
            }
        }

        fn delay(&self, iface: Addr) -> Dur {
            if iface == WIFI {
                self.wifi_delay
            } else {
                self.lte_delay
            }
        }

        fn pump(&mut self) {
            let mut tx = Vec::new();
            self.client.take_tx_into(self.now, &mut tx);
            for (iface, _remote, seg) in tx.drain(..) {
                if self.iface_up(iface) {
                    self.in_flight
                        .push((self.now + self.delay(iface), true, iface, seg));
                }
            }
            self.server.take_tx_into(self.now, &mut tx);
            for (_local, remote, seg) in tx {
                // Replies route back via the client interface address.
                if self.iface_up(remote) {
                    self.in_flight
                        .push((self.now + self.delay(remote), false, remote, seg));
                }
            }
        }

        fn step(&mut self) -> bool {
            self.pump();
            let next_del = self.in_flight.iter().map(|&(t, ..)| t).min();
            let next_tmr = [self.client.next_timer(), self.server.next_timer()]
                .into_iter()
                .flatten()
                .min();
            let next = match (next_del, next_tmr) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => return false,
            };
            self.now = next;
            let mut due = Vec::new();
            self.in_flight.retain(|(t, to_srv, iface, seg)| {
                if *t <= next {
                    due.push((*to_srv, *iface, seg.clone()));
                    false
                } else {
                    true
                }
            });
            for (to_srv, iface, seg) in due {
                let decoded = Segment::decode(&seg.encode()).expect("codec round trip");
                // A segment delivered over a now-dead interface is lost.
                if !self.iface_up(iface) {
                    continue;
                }
                if to_srv {
                    self.server.on_segment(self.now, &decoded, iface);
                } else {
                    self.client.on_segment(self.now, &decoded);
                }
            }
            self.client.on_timers(self.now);
            self.server.on_timers(self.now);
            self.pump();
            true
        }

        fn run_until<F: Fn(&MpLoopback) -> bool>(&mut self, pred: F, max_steps: usize) {
            for _ in 0..max_steps {
                if pred(self) {
                    return;
                }
                if !self.step() {
                    break;
                }
            }
            assert!(pred(self), "condition not reached within {max_steps} steps");
        }
    }

    fn cfg(cc: CcKind, mode: Mode) -> MptcpConfig {
        MptcpConfig {
            cc,
            mode,
            sched: SchedKind::MinRtt,
            backup_activation: BackupActivation::OnNotify,
            ..MptcpConfig::default()
        }
    }

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 239) as u8).collect()
    }

    #[test]
    fn mp_capable_handshake_establishes_primary() {
        let mut lb = MpLoopback::new(cfg(CcKind::Lia, Mode::Full), 10, 30);
        let c = lb
            .client
            .open(Time::ZERO, cfg(CcKind::Lia, Mode::Full), WIFI, 80);
        lb.run_until(|lb| lb.client.conn(c).established_at().is_some(), 100);
        // Primary over WiFi (10 ms one way): established at 20 ms.
        assert_eq!(
            lb.client.conn(c).established_at().unwrap(),
            Time::from_millis(20)
        );
        assert_eq!(lb.server.len(), 1);
    }

    #[test]
    fn secondary_joins_after_primary() {
        let mut lb = MpLoopback::new(cfg(CcKind::Lia, Mode::Full), 10, 30);
        let c = lb
            .client
            .open(Time::ZERO, cfg(CcKind::Lia, Mode::Full), WIFI, 80);
        lb.run_until(
            |lb| {
                lb.client.conn(c).subflow_count() == 2
                    && lb.client.conn(c).subflow_stats()[1]
                        .established_at
                        .is_some()
            },
            500,
        );
        let stats = lb.client.conn(c).subflow_stats();
        // Primary established at 20 ms; join SYN leaves then, LTE RTT is
        // 60 ms, so the join completes at 80 ms.
        assert_eq!(stats[0].established_at.unwrap(), Time::from_millis(20));
        assert_eq!(stats[1].established_at.unwrap(), Time::from_millis(80));
        assert_eq!(stats[1].iface, LTE);
        // Server sees two subflows on the same connection.
        assert_eq!(lb.server.len(), 1);
        assert_eq!(lb.server.conn(0).subflow_count(), 2);
    }

    #[test]
    fn download_uses_both_subflows_and_is_intact() {
        let mut lb = MpLoopback::new(cfg(CcKind::Reno, Mode::Full), 10, 15);
        let c = lb
            .client
            .open(Time::ZERO, cfg(CcKind::Reno, Mode::Full), WIFI, 80);
        let data = pattern(500_000);
        // Server sends on accept.
        lb.run_until(|lb| !lb.server.is_empty(), 100);
        let sid = 0;
        lb.server.conn_mut(sid).send(Bytes::from(data.clone()));
        lb.server.conn_mut(sid).close(Time::ZERO);
        lb.run_until(|lb| lb.client.conn(c).delivered_bytes() == 500_000, 100_000);
        let got: Vec<u8> = lb.client.conn_mut(c).take_delivered().concat();
        assert_eq!(got, data, "connection-level stream must be intact");
        // Both subflows carried data.
        let srv_stats = lb.server.conn(sid).subflow_stats();
        assert!(srv_stats[0].bytes_acked > 0, "primary carried data");
        assert!(srv_stats[1].bytes_acked > 0, "secondary carried data");
    }

    #[test]
    fn upload_direction_works_too() {
        let mut lb = MpLoopback::new(cfg(CcKind::Lia, Mode::Full), 10, 15);
        let c = lb
            .client
            .open(Time::ZERO, cfg(CcKind::Lia, Mode::Full), LTE, 80);
        let data = pattern(200_000);
        lb.client.conn_mut(c).send(Bytes::from(data.clone()));
        lb.client.conn_mut(c).close(Time::ZERO);
        lb.run_until(
            |lb| !lb.server.is_empty() && lb.server.conn(0).delivered_bytes() == 200_000,
            100_000,
        );
        let got: Vec<u8> = lb.server.conn_mut(0).take_delivered().concat();
        assert_eq!(got, data);
        // Primary is LTE this time.
        assert_eq!(lb.client.conn(c).subflow_stats()[0].iface, LTE);
    }

    #[test]
    fn backup_mode_keeps_data_off_backup_subflow() {
        let mut lb = MpLoopback::new(cfg(CcKind::Lia, Mode::Backup), 10, 15);
        let c = lb
            .client
            .open(Time::ZERO, cfg(CcKind::Lia, Mode::Backup), WIFI, 80);
        lb.run_until(|lb| !lb.server.is_empty(), 100);
        let data = pattern(300_000);
        lb.server.conn_mut(0).send(Bytes::from(data.clone()));
        lb.server.conn_mut(0).close(Time::ZERO);
        lb.run_until(|lb| lb.client.conn(c).delivered_bytes() == 300_000, 100_000);
        let srv_stats = lb.server.conn(0).subflow_stats();
        // The backup (LTE) subflow established but carried zero payload.
        assert!(srv_stats[1].is_backup);
        assert_eq!(
            srv_stats[1].bytes_acked, 0,
            "backup subflow must carry no data while primary lives"
        );
        assert!(
            srv_stats[1].established_at.is_some(),
            "but it did handshake"
        );
        let got: Vec<u8> = lb.client.conn_mut(c).take_delivered().concat();
        assert_eq!(got, data);
    }

    #[test]
    fn iproute_down_fails_over_to_backup() {
        // Download over primary WiFi with LTE backup; at 300 ms the WiFi
        // interface is disabled via notification (multipath off). The
        // transfer must complete over LTE.
        let mut lb = MpLoopback::new(cfg(CcKind::Lia, Mode::Backup), 10, 15);
        let c = lb
            .client
            .open(Time::ZERO, cfg(CcKind::Lia, Mode::Backup), WIFI, 80);
        lb.run_until(|lb| !lb.server.is_empty(), 100);
        let data = pattern(400_000);
        lb.server.conn_mut(0).send(Bytes::from(data.clone()));
        lb.server.conn_mut(0).close(Time::ZERO);
        // Cut WiFi early in the transfer (the loopback has no rate
        // limit, so a time-based cut would miss the window).
        lb.run_until(|lb| lb.client.conn(c).delivered_bytes() > 20_000, 100_000);
        lb.wifi_up = false;
        let t_down = lb.now;
        lb.client.notify_iface_down(t_down, WIFI);
        lb.run_until(|lb| lb.client.conn(c).delivered_bytes() == 400_000, 200_000);
        let got: Vec<u8> = lb.client.conn_mut(c).take_delivered().concat();
        assert_eq!(got, data, "failover must not corrupt the stream");
        let srv_stats = lb.server.conn(0).subflow_stats();
        assert!(
            srv_stats[1].bytes_acked > 0,
            "backup subflow must take over after the notification"
        );
    }

    #[test]
    fn silent_blackhole_stalls_without_rto_activation() {
        // Figure 15g: LTE primary unplugged (silent), WiFi backup,
        // activation OnNotify -> the transfer stalls.
        let mut cfg_b = cfg(CcKind::Lia, Mode::Backup);
        cfg_b.backup_activation = BackupActivation::OnNotify;
        let mut lb = MpLoopback::new(cfg_b.clone(), 10, 15);
        let c = lb.client.open(Time::ZERO, cfg_b, LTE, 80);
        lb.run_until(|lb| !lb.server.is_empty(), 100);
        lb.server.conn_mut(0).send(Bytes::from(pattern(2_000_000)));
        lb.server.conn_mut(0).close(Time::ZERO);
        lb.run_until(|lb| lb.client.conn(c).delivered_bytes() > 50_000, 100_000);
        // Silent unplug of LTE.
        lb.lte_up = false;
        let before = lb.client.conn(c).delivered_bytes();
        // Run 30 simulated seconds further.
        let deadline = lb.now + Dur::from_secs(30);
        while lb.now < deadline && lb.step() {}
        let after = lb.client.conn(c).delivered_bytes();
        assert!(
            after < 2_000_000,
            "transfer must NOT complete after a silent primary death"
        );
        // Only retransmission dribble may arrive (nothing new beyond what
        // was already in flight on WiFi... which is nothing in backup mode).
        assert_eq!(before, after, "stalled: no progress without notification");
    }

    #[test]
    fn silent_blackhole_recovers_with_rto_activation() {
        // Figure 15h analogue: same silent failure, but RTO-count
        // activation lets the sender declare the subflow dead and
        // reinject onto the backup.
        let mut cfg_b = cfg(CcKind::Lia, Mode::Backup);
        cfg_b.backup_activation = BackupActivation::OnRtoCount(2);
        let mut lb = MpLoopback::new(cfg_b.clone(), 10, 15);
        let c = lb.client.open(Time::ZERO, cfg_b, LTE, 80);
        lb.run_until(|lb| !lb.server.is_empty(), 100);
        let data = pattern(400_000);
        lb.server.conn_mut(0).send(Bytes::from(data.clone()));
        lb.server.conn_mut(0).close(Time::ZERO);
        lb.run_until(|lb| lb.client.conn(c).delivered_bytes() > 50_000, 100_000);
        lb.lte_up = false;
        lb.run_until(|lb| lb.client.conn(c).delivered_bytes() == 400_000, 400_000);
        let got: Vec<u8> = lb.client.conn_mut(c).take_delivered().concat();
        assert_eq!(got, data, "reinjected stream must be intact");
    }

    #[test]
    fn subflow_whose_tcp_gave_up_is_dead_and_its_path_rejoinable() {
        // Default activation (OnNotify) and a silent WiFi black hole under
        // an upload: the client's WiFi subflow retransmits until its TCP
        // gives up and closes. That is a local, explicit signal, so the
        // subflow must be declared dead (its chunks reinjected onto LTE)
        // and must no longer count as WiFi's live subflow when the
        // interface comes back.
        let mut c = cfg(CcKind::Lia, Mode::Full);
        c.tcp.max_retries = 2;
        let mut lb = MpLoopback::new(c.clone(), 10, 15);
        let conn = lb.client.open(Time::ZERO, c, WIFI, 80);
        let data = pattern(400_000);
        lb.client.conn_mut(conn).send(Bytes::from(data.clone()));
        lb.client.conn_mut(conn).close(Time::ZERO);
        lb.run_until(
            |lb| !lb.server.is_empty() && lb.server.conn(0).delivered_bytes() > 20_000,
            100_000,
        );
        lb.wifi_up = false;
        let deadline = lb.now + Dur::from_secs(30);
        while lb.now < deadline && lb.step() {}
        lb.wifi_up = true;
        let now = lb.now;
        lb.client.notify_iface_up(now, WIFI);
        lb.run_until(
            |lb| {
                lb.server.conn(0).delivered_bytes() == 400_000
                    && lb.client.conn(conn).subflow_stats().len() == 3
                    && lb.client.conn(conn).subflow_stats()[2]
                        .established_at
                        .is_some()
            },
            400_000,
        );
        let got = lb.server.conn_mut(0).take_delivered().concat();
        assert_eq!(got, data, "stranded chunks must be reinjected intact");
        let stats = lb.client.conn(conn).subflow_stats();
        assert!(stats[0].dead, "the subflow that gave up is declared dead");
        assert_eq!(stats[2].iface, WIFI, "and its interface is rejoined");
    }

    #[test]
    fn full_teardown_closes_all_subflows() {
        let mut lb = MpLoopback::new(cfg(CcKind::Lia, Mode::Full), 10, 15);
        let c = lb
            .client
            .open(Time::ZERO, cfg(CcKind::Lia, Mode::Full), WIFI, 80);
        lb.run_until(|lb| !lb.server.is_empty(), 100);
        lb.server.conn_mut(0).send(Bytes::from(pattern(50_000)));
        lb.server.conn_mut(0).close(Time::ZERO);
        lb.run_until(|lb| lb.client.conn(c).delivered_bytes() == 50_000, 50_000);
        lb.client.conn_mut(c).close(lb.now);
        lb.run_until(
            |lb| lb.client.conn(c).is_closed() && lb.server.conn(0).is_closed(),
            100_000,
        );
    }

    #[test]
    fn concurrent_mptcp_connections() {
        let mut lb = MpLoopback::new(cfg(CcKind::Reno, Mode::Full), 10, 15);
        let c0 = lb
            .client
            .open(Time::ZERO, cfg(CcKind::Reno, Mode::Full), WIFI, 80);
        let c1 = lb
            .client
            .open(Time::ZERO, cfg(CcKind::Reno, Mode::Full), LTE, 80);
        lb.run_until(|lb| lb.server.len() == 2, 1000);
        let d0 = pattern(80_000);
        let d1: Vec<u8> = (0..60_000).map(|i| (i % 13) as u8).collect();
        lb.server.conn_mut(0).send(Bytes::from(d0.clone()));
        lb.server.conn_mut(0).close(Time::ZERO);
        lb.server.conn_mut(1).send(Bytes::from(d1.clone()));
        lb.server.conn_mut(1).close(Time::ZERO);
        lb.run_until(
            |lb| {
                lb.client.conn(c0).delivered_bytes() == 80_000
                    && lb.client.conn(c1).delivered_bytes() == 60_000
            },
            100_000,
        );
        assert_eq!(lb.client.conn_mut(c0).take_delivered().concat(), d0);
        assert_eq!(lb.client.conn_mut(c1).take_delivered().concat(), d1);
    }

    #[test]
    fn single_path_mode_opens_no_secondary_while_healthy() {
        let c = cfg(CcKind::Lia, Mode::SinglePath);
        let mut lb = MpLoopback::new(c.clone(), 10, 15);
        let conn = lb.client.open(Time::ZERO, c, WIFI, 80);
        lb.run_until(|lb| !lb.server.is_empty(), 100);
        let data = pattern(200_000);
        lb.server.conn_mut(0).send(Bytes::from(data.clone()));
        lb.server.conn_mut(0).close(Time::ZERO);
        lb.run_until(
            |lb| lb.client.conn(conn).delivered_bytes() == 200_000,
            100_000,
        );
        // Exactly one subflow ever existed; the LTE radio never woke up.
        assert_eq!(lb.client.conn(conn).subflow_count(), 1);
        assert_eq!(lb.client.conn_mut(conn).take_delivered().concat(), data);
    }

    #[test]
    fn single_path_mode_breaks_then_makes_on_notified_failure() {
        let c = cfg(CcKind::Lia, Mode::SinglePath);
        let mut lb = MpLoopback::new(c.clone(), 10, 15);
        let conn = lb.client.open(Time::ZERO, c, WIFI, 80);
        lb.run_until(|lb| !lb.server.is_empty(), 100);
        let data = pattern(400_000);
        lb.server.conn_mut(0).send(Bytes::from(data.clone()));
        lb.server.conn_mut(0).close(Time::ZERO);
        lb.run_until(
            |lb| lb.client.conn(conn).delivered_bytes() > 20_000,
            100_000,
        );
        // WiFi dies with a notification: the LTE subflow is created only
        // now (break-before-make) and the transfer completes on it.
        lb.wifi_up = false;
        let t = lb.now;
        lb.client.notify_iface_down(t, WIFI);
        assert_eq!(
            lb.client.conn(conn).subflow_count(),
            2,
            "replacement subflow created at failure time"
        );
        lb.run_until(
            |lb| lb.client.conn(conn).delivered_bytes() == 400_000,
            400_000,
        );
        let got = lb.client.conn_mut(conn).take_delivered().concat();
        assert_eq!(got, data, "stream must survive break-before-make handover");
        let stats = lb.client.conn(conn).subflow_stats();
        assert!(
            stats[1].established_at.unwrap() > t,
            "secondary joined after the failure"
        );
    }

    #[test]
    fn single_path_primary_killed_mid_handshake_still_gets_its_standby() {
        // WiFi is notified down 5 ms into the primary's handshake, with
        // its SYN still in the air: the peer's key is unknown, so no
        // MP_JOIN can be built yet. The SYN-ACK arrives all the same
        // (20 ms) and brings the key; the join rule is level-triggered,
        // so that event finds the standby path wanting a subflow — none
        // is alive — and opens it. The upload completes over LTE.
        let c = cfg(CcKind::Lia, Mode::SinglePath);
        let mut lb = MpLoopback::new(c.clone(), 10, 15);
        let conn = lb.client.open(Time::ZERO, c, WIFI, 80);
        let data = pattern(100_000);
        lb.client.conn_mut(conn).send(Bytes::from(data.clone()));
        lb.pump();
        lb.client.notify_iface_down(Time::from_millis(5), WIFI);
        assert_eq!(lb.client.conn(conn).subflow_count(), 1, "no key, no join");
        lb.run_until(
            |lb| !lb.server.is_empty() && lb.server.conn(0).delivered_bytes() == 100_000,
            100_000,
        );
        assert_eq!(lb.server.conn_mut(0).take_delivered().concat(), data);
        let stats = lb.client.conn(conn).subflow_stats();
        assert_eq!(stats.len(), 2);
        assert!(stats[0].dead && stats[0].bytes_acked == 0);
        assert_eq!(stats[1].iface, LTE);
        assert!(stats[1].established_at.unwrap() > Time::from_millis(20));
    }

    #[test]
    fn failover_intact_across_many_cut_offsets() {
        // Kill the primary at several different progress points; every
        // variant must reinject cleanly — including chunks that straddle
        // the cumulative data-ACK at the moment of death.
        for cut_at in [5_000u64, 33_333, 70_001, 140_000, 260_000] {
            let c = cfg(CcKind::Reno, Mode::Full);
            let mut lb = MpLoopback::new(c.clone(), 10, 15);
            let conn = lb.client.open(Time::ZERO, c, WIFI, 80);
            lb.run_until(|lb| !lb.server.is_empty(), 100);
            let data = pattern(400_000);
            lb.server.conn_mut(0).send(Bytes::from(data.clone()));
            lb.server.conn_mut(0).close(Time::ZERO);
            lb.run_until(
                |lb| lb.client.conn(conn).delivered_bytes() >= cut_at,
                200_000,
            );
            lb.wifi_up = false;
            let now = lb.now;
            lb.client.notify_iface_down(now, WIFI);
            lb.run_until(
                |lb| lb.client.conn(conn).delivered_bytes() == 400_000,
                400_000,
            );
            let got = lb.client.conn_mut(conn).take_delivered().concat();
            assert_eq!(got, data, "corruption with cut at {cut_at}");
        }
    }

    #[test]
    fn fastclose_aborts_both_sides() {
        let c = cfg(CcKind::Lia, Mode::Full);
        let mut lb = MpLoopback::new(c.clone(), 10, 15);
        let conn = lb.client.open(Time::ZERO, c, WIFI, 80);
        lb.run_until(|lb| !lb.server.is_empty(), 100);
        lb.server.conn_mut(0).send(Bytes::from(pattern(500_000)));
        lb.run_until(
            |lb| lb.client.conn(conn).delivered_bytes() > 20_000,
            100_000,
        );
        // Client aborts mid-transfer.
        let now = lb.now;
        lb.client.conn_mut(conn).abort(now);
        lb.run_until(
            |lb| lb.client.conn(conn).is_aborted() && lb.server.conn(0).is_aborted(),
            50_000,
        );
        assert!(lb.client.conn(conn).is_closed());
        assert!(
            lb.client.conn(conn).delivered_bytes() < 500_000,
            "abort stops the transfer"
        );
    }

    #[test]
    fn primary_choice_changes_first_established_iface() {
        for (primary, expect) in [(WIFI, WIFI), (LTE, LTE)] {
            let mut lb = MpLoopback::new(cfg(CcKind::Lia, Mode::Full), 10, 30);
            let c = lb
                .client
                .open(Time::ZERO, cfg(CcKind::Lia, Mode::Full), primary, 80);
            lb.run_until(|lb| lb.client.conn(c).established_at().is_some(), 200);
            assert_eq!(lb.client.conn(c).subflow_stats()[0].iface, expect);
        }
    }
}
