//! Port-level demultiplexing: many connections on one host.
//!
//! [`TcpStack`] owns every [`TcpConnection`] of one endpoint, routes
//! decoded segments by `(local_port, remote_port)`, spawns server
//! connections for SYNs arriving on listening ports, and aggregates
//! timer deadlines and outgoing segments. The app-replay workloads open
//! dozens of concurrent connections through this and a host never drops
//! one, so the drain visits only the connections something touched
//! since the last one: the rest are settled (see
//! [`TcpConnection::poll_output`]) and would hand over nothing.

use crate::conn::{TcpConfig, TcpConnection};
use crate::segment::Segment;
use crate::touched::{Ready, Touched};
use mpwifi_simcore::Time;
use std::collections::HashMap;

/// Connection key: `(local_port, remote_port)`.
pub type SocketId = (u16, u16);

/// A set of TCP connections sharing one interface/endpoint.
///
/// The connections are one sorted table: `ids` ascending, searched by
/// binary search, and `conns[i]` the connection `ids[i]` names. Every
/// aggregate walk (timers, outgoing segments) goes in index order, which
/// is sorted socket-id order, and allocates nothing.
///
/// Beside the table is [`Touched`]: the rows something touched since
/// the last [`TcpStack::take_tx_into`] — a routed segment, an open or
/// an accept, a timer that fired, a [`TcpStack::conn_mut`] borrow — and
/// every other row's timer horizon as of its last drain. The drain
/// walks the touched rows, sorted, so it visits connections in the
/// order the whole table would go in; `next_timer` and `on_timers` read
/// the others' stored horizons. Every row off the list was drained and
/// is settled since, so visiting it would hand over nothing and its
/// timers have not moved (debug builds check each one).
#[derive(Debug)]
pub struct TcpStack {
    ids: Vec<SocketId>,
    conns: Vec<TcpConnection>,
    touched: Touched,
    listeners: HashMap<u16, TcpConfig>,
    next_ephemeral: u16,
    iss_counter: u32,
    accepted: Vec<SocketId>,
    /// Connections a segment reached or an accept created since the
    /// last [`TcpStack::take_ready`].
    ready: Ready<SocketId>,
}

impl TcpStack {
    /// Create an empty stack. `iss_seed` makes initial sequence numbers
    /// deterministic yet distinct across hosts.
    pub fn new(iss_seed: u32) -> TcpStack {
        TcpStack {
            ids: Vec::new(),
            conns: Vec::new(),
            touched: Touched::new(),
            listeners: HashMap::new(),
            next_ephemeral: 49_152,
            iss_counter: iss_seed,
            accepted: Vec::new(),
            ready: Ready::default(),
        }
    }

    fn next_iss(&mut self) -> u32 {
        // Spaced so concurrent connections never share sequence ranges.
        self.iss_counter = self.iss_counter.wrapping_add(0x0001_0000).wrapping_add(7);
        self.iss_counter
    }

    /// Accept connections on `port`, configuring accepted connections
    /// with `cfg`.
    pub fn listen(&mut self, port: u16, cfg: TcpConfig) {
        self.listeners.insert(port, cfg);
    }

    /// Open a client connection to `remote_port`; returns its id.
    pub fn connect(&mut self, now: Time, cfg: TcpConfig, remote_port: u16) -> SocketId {
        let local_port = self.alloc_ephemeral(remote_port);
        let iss = self.next_iss();
        let mut conn = TcpConnection::client(cfg, local_port, remote_port, iss);
        conn.open(now);
        let id = (local_port, remote_port);
        self.insert(id, conn);
        id
    }

    fn alloc_ephemeral(&mut self, remote_port: u16) -> u16 {
        for _ in 0..=u16::MAX {
            let p = self.next_ephemeral;
            self.next_ephemeral = if self.next_ephemeral == u16::MAX {
                49_152
            } else {
                self.next_ephemeral + 1
            };
            if self.ids.binary_search(&(p, remote_port)).is_err()
                && !self.listeners.contains_key(&p)
            {
                return p;
            }
        }
        panic!("ephemeral ports exhausted");
    }

    /// Add a connection, touched, at its sorted row (both callers have
    /// found `id` absent). The rows after it move down one.
    fn insert(&mut self, id: SocketId, conn: TcpConnection) {
        let at = self.ids.partition_point(|&row| row < id);
        self.ids.insert(at, id);
        self.conns.insert(at, conn);
        self.touched.insert(at);
    }

    /// Put row `i` on the touched list and lend its connection.
    fn touch(&mut self, i: usize) -> &mut TcpConnection {
        self.touched.touch(i);
        &mut self.conns[i]
    }

    /// Borrow a connection.
    pub fn conn(&self, id: SocketId) -> Option<&TcpConnection> {
        self.ids.binary_search(&id).ok().map(|i| &self.conns[i])
    }

    /// Mutably borrow a connection. The borrow is a touch: the next
    /// [`TcpStack::take_tx_into`] visits it, whatever the caller did.
    pub fn conn_mut(&mut self, id: SocketId) -> Option<&mut TcpConnection> {
        let i = self.ids.binary_search(&id).ok()?;
        Some(self.touch(i))
    }

    /// All connection ids (stable order: sorted, for determinism).
    pub fn socket_ids(&self) -> Vec<SocketId> {
        self.ids.clone()
    }

    /// Number of live connections.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no connections exist.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Route one decoded segment. SYNs to listening ports spawn server
    /// connections (reported via [`TcpStack::take_accepted`]); segments
    /// for unknown sockets are dropped.
    pub fn on_segment(&mut self, now: Time, seg: &Segment) {
        let id = (seg.dst_port, seg.src_port);
        if let Ok(i) = self.ids.binary_search(&id) {
            self.touch(i).on_segment(now, seg);
            self.ready.mark(id, self.ids.len());
            return;
        }
        if seg.flags.syn && !seg.flags.ack {
            if let Some(cfg) = self.listeners.get(&seg.dst_port).cloned() {
                let iss = self.next_iss();
                let mut conn = TcpConnection::server(cfg, seg.dst_port, seg.src_port, iss);
                conn.on_segment(now, seg);
                self.insert(id, conn);
                self.accepted.push(id);
                self.ready.mark(id, self.ids.len());
            }
        }
    }

    /// Server connections created since the last call.
    pub fn take_accepted(&mut self) -> Vec<SocketId> {
        std::mem::take(&mut self.accepted)
    }

    /// Append to `out` the connections a segment reached, or an accept
    /// created, since the last call: each once, in socket-id order. An
    /// application that reads only these after a step reads everything
    /// a segment could have changed.
    pub fn take_ready(&mut self, out: &mut Vec<SocketId>) {
        self.ready.take(out);
    }

    /// Earliest timer deadline across all connections.
    pub fn next_timer(&self) -> Option<Time> {
        self.touched.next_timer(|i| self.conns[i].next_timer())
    }

    /// Fire timers due at `now` (sorted socket-id order,
    /// allocation-free); a connection whose timer comes due is touched.
    pub fn on_timers(&mut self, now: Time) {
        let conns = &mut self.conns;
        self.touched.on_timers(now, |i| conns[i].on_timers(now));
    }

    /// Drain outgoing segments from every touched connection into a
    /// caller-provided sink (see [`TcpConnection::take_tx_into`]), in
    /// deterministic (sorted socket id) order, and store each one's
    /// timer horizon.
    pub fn take_tx_into<E: Extend<Segment>>(&mut self, now: Time, out: &mut E) {
        let conns = &mut self.conns;
        self.touched
            .check(|i| conns[i].is_settled().then(|| conns[i].next_timer()));
        self.touched.drain(|i| {
            conns[i].take_tx_into(now, out);
            Some(conns[i].next_timer())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::TcpState;
    use crate::segment::Flags;
    use bytes::Bytes;
    use mpwifi_simcore::Dur;

    /// Decides, per segment, whether the loopback loses it.
    type DropFn = Box<dyn FnMut(&Segment) -> bool>;

    /// Two stacks wired back-to-back with a constant one-way delay and an
    /// optional deterministic drop predicate. This exercises the full TCP
    /// machine without the netem crate (the sim crate does the realistic
    /// wiring).
    struct Loopback {
        a: TcpStack,
        b: TcpStack,
        delay: Dur,
        /// (time, to_b, segment)
        in_flight: Vec<(Time, bool, Segment)>,
        now: Time,
        drop_fn: Option<DropFn>,
    }

    impl Loopback {
        fn new(delay_ms: u64) -> Loopback {
            Loopback {
                a: TcpStack::new(1),
                b: TcpStack::new(1_000_000),
                delay: Dur::from_millis(delay_ms),
                in_flight: Vec::new(),
                now: Time::ZERO,
                drop_fn: None,
            }
        }

        fn pump(&mut self) {
            // Collect outgoing segments from both sides.
            let mut tx = Vec::new();
            self.a.take_tx_into(self.now, &mut tx);
            for seg in tx.drain(..) {
                let dropped = self.drop_fn.as_mut().is_some_and(|f| f(&seg));
                if !dropped {
                    self.in_flight.push((self.now + self.delay, true, seg));
                }
            }
            self.b.take_tx_into(self.now, &mut tx);
            for seg in tx {
                self.in_flight.push((self.now + self.delay, false, seg));
            }
        }

        /// Advance to the next event (delivery or timer).
        fn step(&mut self) -> bool {
            self.pump();
            let next_delivery = self.in_flight.iter().map(|&(t, _, _)| t).min();
            let next_timer = [self.a.next_timer(), self.b.next_timer()]
                .into_iter()
                .flatten()
                .min();
            let next = match (next_delivery, next_timer) {
                (Some(d), Some(t)) => d.min(t),
                (Some(d), None) => d,
                (None, Some(t)) => t,
                (None, None) => return false,
            };
            self.now = next;
            // Deliver due segments (stable order).
            let mut due: Vec<(Time, bool, Segment)> = Vec::new();
            self.in_flight.retain(|(t, to_b, seg)| {
                if *t <= next {
                    due.push((*t, *to_b, seg.clone()));
                    false
                } else {
                    true
                }
            });
            for (_, to_b, seg) in due {
                // Encode/decode round trip on every delivery: the codec is
                // always on the path, like a real wire.
                let decoded = Segment::decode(&seg.encode()).expect("codec round trip");
                if to_b {
                    self.b.on_segment(self.now, &decoded);
                } else {
                    self.a.on_segment(self.now, &decoded);
                }
            }
            self.a.on_timers(self.now);
            self.b.on_timers(self.now);
            self.pump();
            true
        }

        fn run_until<F: FnMut(&mut Loopback) -> bool>(&mut self, mut pred: F, max_steps: usize) {
            for _ in 0..max_steps {
                if pred(self) {
                    return;
                }
                if !self.step() {
                    break;
                }
            }
            assert!(pred(self), "condition not reached in {max_steps} steps");
        }
    }

    #[test]
    fn three_way_handshake() {
        let mut lb = Loopback::new(10);
        lb.b.listen(80, TcpConfig::default());
        let ca = lb.a.connect(Time::ZERO, TcpConfig::default(), 80);
        lb.run_until(
            |lb| {
                let accepted = lb.b.socket_ids();
                !accepted.is_empty()
                    && lb.b.conn(accepted[0]).unwrap().is_established()
                    && lb.a.conn(ca).unwrap().is_established()
            },
            100,
        );
        // Client established exactly one RTT after opening (SYN out +
        // SYN-ACK back = 20 ms).
        let est = lb.a.conn(ca).unwrap().stats().established_at.unwrap();
        assert_eq!(est, Time::from_millis(20));
        // Server established at 30 ms (third ACK).
        let cb = lb.b.socket_ids()[0];
        let est_b = lb.b.conn(cb).unwrap().stats().established_at.unwrap();
        assert_eq!(est_b, Time::from_millis(30));
    }

    #[test]
    fn bulk_transfer_delivers_exact_bytes() {
        let mut lb = Loopback::new(5);
        lb.b.listen(80, TcpConfig::default());
        let ca = lb.a.connect(Time::ZERO, TcpConfig::default(), 80);
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        lb.a.conn_mut(ca)
            .unwrap()
            .send(Bytes::from(payload.clone()));
        lb.run_until(
            |lb| {
                lb.b.socket_ids()
                    .first()
                    .and_then(|id| lb.b.conn(*id))
                    .is_some_and(|c| c.delivered_bytes() == 100_000)
            },
            10_000,
        );
        let cb = lb.b.socket_ids()[0];
        let got: Vec<u8> = lb.b.conn_mut(cb).unwrap().take_delivered().concat();
        assert_eq!(got, payload);
    }

    #[test]
    fn full_teardown_reaches_closed_both_sides() {
        let mut lb = Loopback::new(5);
        lb.b.listen(80, TcpConfig::default());
        let ca = lb.a.connect(Time::ZERO, TcpConfig::default(), 80);
        lb.a.conn_mut(ca).unwrap().send(Bytes::from_static(b"hi"));
        lb.a.conn_mut(ca).unwrap().close(Time::ZERO);
        lb.run_until(
            |lb| {
                !lb.b.socket_ids().is_empty()
                    && lb.b.conn(lb.b.socket_ids()[0]).unwrap().peer_fin_received()
            },
            1000,
        );
        let cb = lb.b.socket_ids()[0];
        // Server reads, then closes its side.
        let got = lb.b.conn_mut(cb).unwrap().take_delivered().concat();
        assert_eq!(got, b"hi".to_vec());
        lb.b.conn_mut(cb).unwrap().close(lb.now);
        lb.run_until(
            |lb| lb.a.conn(ca).unwrap().is_closed() && lb.b.conn(cb).unwrap().is_closed(),
            1000,
        );
        assert!(lb.a.conn(ca).unwrap().error().is_none());
        assert!(lb.b.conn(cb).unwrap().error().is_none());
    }

    #[test]
    fn loss_recovered_by_fast_retransmit() {
        let mut lb = Loopback::new(5);
        lb.b.listen(80, TcpConfig::default());
        let ca = lb.a.connect(Time::ZERO, TcpConfig::default(), 80);
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 127) as u8).collect();
        lb.a.conn_mut(ca)
            .unwrap()
            .send(Bytes::from(payload.clone()));
        // Drop the 20th data segment once.
        let mut data_count = 0;
        let mut dropped = false;
        lb.drop_fn = Some(Box::new(move |seg| {
            if !seg.payload.is_empty() {
                data_count += 1;
                if data_count == 20 && !dropped {
                    dropped = true;
                    return true;
                }
            }
            false
        }));
        lb.run_until(
            |lb| {
                lb.b.socket_ids()
                    .first()
                    .and_then(|id| lb.b.conn(*id))
                    .is_some_and(|c| c.delivered_bytes() == 200_000)
            },
            50_000,
        );
        let st = lb.a.conn(ca).unwrap().stats();
        assert!(st.fast_retransmits >= 1, "expected a fast retransmit");
        assert_eq!(st.rtos, 0, "loss should be repaired without an RTO");
        let cb = lb.b.socket_ids()[0];
        let got = lb.b.conn_mut(cb).unwrap().take_delivered().concat();
        assert_eq!(got, payload);
    }

    #[test]
    fn burst_loss_recovers_without_rto_spiral() {
        // Drop 10 consecutive data segments once. SACK-driven repair
        // (including the post-RTO ack-clocked path) must finish the
        // transfer with at most a couple of RTOs, not one per segment.
        let mut lb = Loopback::new(5);
        lb.b.listen(80, TcpConfig::default());
        let ca = lb.a.connect(Time::ZERO, TcpConfig::default(), 80);
        let payload: Vec<u8> = (0..300_000u32).map(|i| (i % 241) as u8).collect();
        lb.a.conn_mut(ca)
            .unwrap()
            .send(Bytes::from(payload.clone()));
        let mut data_count = 0;
        lb.drop_fn = Some(Box::new(move |seg| {
            if !seg.payload.is_empty() {
                data_count += 1;
                return (30..40).contains(&data_count);
            }
            false
        }));
        lb.run_until(
            |lb| {
                lb.b.socket_ids()
                    .first()
                    .and_then(|id| lb.b.conn(*id))
                    .is_some_and(|c| c.delivered_bytes() == 300_000)
            },
            100_000,
        );
        let st = *lb.a.conn(ca).unwrap().stats();
        assert!(
            st.rtos <= 2,
            "burst loss must not cost one RTO per segment: {} RTOs",
            st.rtos
        );
        assert!(
            lb.now < Time::from_secs(10),
            "no backoff spiral: {}",
            lb.now
        );
        let cb = lb.b.socket_ids()[0];
        assert_eq!(
            lb.b.conn_mut(cb).unwrap().take_delivered().concat(),
            payload
        );
    }

    #[test]
    fn heavy_random_loss_still_completes() {
        use mpwifi_simcore::DetRng;
        let mut lb = Loopback::new(5);
        lb.b.listen(80, TcpConfig::default());
        let ca = lb.a.connect(Time::ZERO, TcpConfig::default(), 80);
        let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 11) as u8).collect();
        lb.a.conn_mut(ca)
            .unwrap()
            .send(Bytes::from(payload.clone()));
        let mut rng = DetRng::seed_from_u64(99);
        lb.drop_fn = Some(Box::new(move |_| rng.chance(0.05)));
        lb.run_until(
            |lb| {
                lb.b.socket_ids()
                    .first()
                    .and_then(|id| lb.b.conn(*id))
                    .is_some_and(|c| c.delivered_bytes() == 50_000)
            },
            100_000,
        );
        let cb = lb.b.socket_ids()[0];
        let got = lb.b.conn_mut(cb).unwrap().take_delivered().concat();
        assert_eq!(got, payload, "stream must survive 5% random loss intact");
    }

    #[test]
    fn rto_fires_when_all_acks_lost() {
        let mut lb = Loopback::new(5);
        lb.b.listen(80, TcpConfig::default());
        let ca = lb.a.connect(Time::ZERO, TcpConfig::default(), 80);
        lb.run_until(|lb| lb.a.conn(ca).unwrap().is_established(), 100);
        // Now drop ALL client data segments for a while: the client must
        // hit an RTO, back off, and eventually deliver when we stop
        // dropping.
        lb.a.conn_mut(ca)
            .unwrap()
            .send(Bytes::from(vec![7u8; 5000]));
        let mut drops_left = 8;
        lb.drop_fn = Some(Box::new(move |seg| {
            if !seg.payload.is_empty() && drops_left > 0 {
                drops_left -= 1;
                return true;
            }
            false
        }));
        lb.run_until(
            |lb| {
                lb.b.socket_ids()
                    .first()
                    .and_then(|id| lb.b.conn(*id))
                    .is_some_and(|c| c.delivered_bytes() == 5000)
            },
            10_000,
        );
        assert!(lb.a.conn(ca).unwrap().stats().rtos >= 1);
    }

    #[test]
    fn server_ignores_non_syn_to_unknown_socket() {
        let mut stack = TcpStack::new(5);
        stack.listen(80, TcpConfig::default());
        let stray = Segment::control(1234, 80, 9, 9, Flags::ACK);
        stack.on_segment(Time::ZERO, &stray);
        assert!(stack.is_empty());
        assert!(stack.take_accepted().is_empty());
    }

    #[test]
    fn syn_to_non_listening_port_dropped() {
        let mut stack = TcpStack::new(5);
        let syn = Segment::control(1234, 81, 0, 0, Flags::SYN);
        stack.on_segment(Time::ZERO, &syn);
        assert!(stack.is_empty());
    }

    #[test]
    fn concurrent_connections_do_not_interfere() {
        let mut lb = Loopback::new(5);
        lb.b.listen(80, TcpConfig::default());
        let ids: Vec<SocketId> = (0..10)
            .map(|_| lb.a.connect(Time::ZERO, TcpConfig::default(), 80))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            lb.a.conn_mut(*id)
                .unwrap()
                .send(Bytes::from(vec![i as u8; 5000 + i * 100]));
        }
        lb.run_until(
            |lb| {
                lb.b.socket_ids().len() == 10
                    && lb
                        .b
                        .socket_ids()
                        .iter()
                        .all(|id| lb.b.conn(*id).unwrap().delivered_bytes() > 0)
                    && {
                        let total: u64 =
                            lb.b.socket_ids()
                                .iter()
                                .map(|id| lb.b.conn(*id).unwrap().delivered_bytes())
                                .sum();
                        total == (0..10).map(|i| 5000 + i * 100).sum::<usize>() as u64
                    }
            },
            100_000,
        );
        // Each server conn received exactly its client's bytes.
        for id in lb.b.socket_ids() {
            let got = lb.b.conn_mut(id).unwrap().take_delivered().concat();
            assert!(!got.is_empty());
            let first = got[0];
            assert!(got.iter().all(|&b| b == first), "streams must not mix");
            assert_eq!(got.len(), 5000 + first as usize * 100);
        }
    }

    #[test]
    fn ephemeral_ports_unique() {
        let mut stack = TcpStack::new(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let id = stack.connect(Time::ZERO, TcpConfig::default(), 80);
            assert!(seen.insert(id.0), "ephemeral port reused");
        }
    }

    #[test]
    fn delayed_ack_defers_the_ack_for_a_lone_segment() {
        // One small segment: with delayed ACKs the acknowledgment waits
        // for the 40 ms timer; without, it returns after one RTT.
        let ack_time = |delayed: bool| {
            let mut lb = Loopback::new(10); // 20 ms RTT
            lb.b.listen(
                80,
                TcpConfig {
                    delayed_ack: delayed,
                    ..TcpConfig::default()
                },
            );
            let ca = lb.a.connect(Time::ZERO, TcpConfig::default(), 80);
            lb.run_until(|lb| lb.a.conn(ca).unwrap().is_established(), 100);
            let sent_at = lb.now;
            lb.a.conn_mut(ca)
                .unwrap()
                .send(Bytes::from_static(&[9u8; 100]));
            lb.run_until(|lb| lb.a.conn(ca).unwrap().acked_bytes() == 100, 1000);
            lb.now - sent_at
        };
        let with = ack_time(true);
        let without = ack_time(false);
        // Without: ~1 RTT (20 ms). With: RTT + ~40 ms delack timer.
        assert!(without < Dur::from_millis(25), "quick ack took {without}");
        assert!(
            with > without + Dur::from_millis(30),
            "delayed ack should add the timer: {with} vs {without}"
        );
    }

    #[test]
    fn slow_reader_closes_window_and_reading_reopens_it() {
        let mut lb = Loopback::new(5);
        // Tiny server receive buffer: 8 kB.
        lb.b.listen(
            80,
            TcpConfig {
                recv_buf: 8 * 1024,
                ..TcpConfig::default()
            },
        );
        let ca = lb.a.connect(Time::ZERO, TcpConfig::default(), 80);
        lb.a.conn_mut(ca)
            .unwrap()
            .send(Bytes::from(vec![9u8; 100_000]));
        // Run a while WITHOUT the server app reading: the sender must
        // stall near the 8 kB window, not blast the whole 100 kB.
        for _ in 0..400 {
            if !lb.step() {
                break;
            }
            if lb.now > Time::from_secs(3) {
                break;
            }
        }
        let cb = lb.b.socket_ids()[0];
        let buffered = lb.b.conn(cb).unwrap().delivered_bytes();
        assert!(
            buffered <= 16 * 1024,
            "sender must respect the closed window, got {buffered}"
        );
        // Now the app drains the socket in a read loop: transfer finishes.
        let mut got: Vec<u8> = Vec::new();
        lb.run_until(
            |lb| {
                if let Some(c) = lb.b.conn_mut(cb) {
                    got.extend(c.take_delivered().concat());
                }
                got.len() == 100_000
            },
            200_000,
        );
        assert!(got.iter().all(|&b| b == 9));
    }

    /// A client and a server, both ends established and every segment
    /// drained: nothing is left to do until a timer or the app.
    fn quiet_pair() -> (Loopback, SocketId, SocketId) {
        let mut lb = Loopback::new(5);
        lb.b.listen(80, TcpConfig::default());
        let ca = lb.a.connect(Time::ZERO, TcpConfig::default(), 80);
        lb.run_until(
            |lb| {
                let sb = lb.b.socket_ids();
                lb.a.conn(ca).unwrap().is_established()
                    && sb.len() == 1
                    && lb.b.conn(sb[0]).unwrap().is_established()
            },
            100,
        );
        let cb = lb.b.socket_ids()[0];
        (lb, ca, cb)
    }

    fn drain(stack: &mut TcpStack, now: Time) -> Vec<Segment> {
        let mut tx = Vec::new();
        stack.take_tx_into(now, &mut tx);
        tx
    }

    #[test]
    fn a_send_after_the_walk_leaves_at_the_next_walk() {
        // Two settled client connections; the app reaches one of them
        // only through `conn_mut`. The next walk must carry its data and
        // nothing from the other.
        let (mut lb, ca, _) = quiet_pair();
        let other = lb.a.connect(lb.now, TcpConfig::default(), 80);
        lb.run_until(|lb| lb.a.conn(other).unwrap().is_established(), 100);
        let now = lb.now;
        assert!(drain(&mut lb.a, now).is_empty(), "the pair is not quiet");
        lb.a.conn_mut(ca).unwrap().send(Bytes::from_static(b"late"));
        let tx = drain(&mut lb.a, now);
        assert_eq!(tx.len(), 1);
        assert_eq!((tx[0].src_port, tx[0].dst_port), ca);
        assert_eq!(&tx[0].payload[..], b"late");
        assert!(drain(&mut lb.a, now).is_empty());
    }

    #[test]
    fn a_drain_hands_over_only_the_one_touched_connection_among_many() {
        let mut lb = Loopback::new(5);
        lb.b.listen(80, TcpConfig::default());
        let ids: Vec<SocketId> = (0..12)
            .map(|_| lb.a.connect(Time::ZERO, TcpConfig::default(), 80))
            .collect();
        lb.run_until(
            |lb| {
                let server = lb.b.socket_ids();
                let established = |s: &TcpStack, id| s.conn(id).unwrap().is_established();
                ids.iter().all(|&id| established(&lb.a, id))
                    && server.len() == ids.len()
                    && server.iter().all(|&id| established(&lb.b, id))
            },
            1000,
        );
        let now = lb.now;
        assert!(
            drain(&mut lb.a, now).is_empty(),
            "the clients are not quiet"
        );
        let horizon = lb.a.next_timer();
        // A borrow that changes nothing hands over nothing.
        lb.a.conn_mut(ids[3]).unwrap().discard_delivered();
        assert!(drain(&mut lb.a, now).is_empty());
        lb.a.conn_mut(ids[7])
            .unwrap()
            .send(Bytes::from_static(b"seven"));
        let tx = drain(&mut lb.a, now);
        assert_eq!(tx.len(), 1, "one segment, from the one touched connection");
        assert_eq!((tx[0].src_port, tx[0].dst_port), ids[7]);
        assert_eq!(&tx[0].payload[..], b"seven");
        assert!(drain(&mut lb.a, now).is_empty());
        // The eleven untouched connections kept their horizons, and the
        // one that sent adds its RTO.
        let rto = now + TcpConfig::default().min_rto;
        assert_eq!(lb.a.next_timer(), Time::earlier(horizon, Some(rto)));
    }

    #[test]
    fn an_untouched_connections_delayed_ack_fires_at_its_instant() {
        let (mut lb, ca, cb) = quiet_pair();
        lb.a.conn_mut(ca)
            .unwrap()
            .send(Bytes::from_static(&[3u8; 100]));
        lb.run_until(|lb| lb.b.conn(cb).unwrap().delivered_bytes() == 100, 100);
        // The server saw one small segment and owes a delayed ACK;
        // nothing reaches it again but the stack's own walks.
        let due = lb.now + crate::DELACK_TIMEOUT;
        assert_eq!(lb.b.next_timer(), Some(due));
        let early = due - Dur::from_nanos(1);
        lb.b.on_timers(early);
        assert!(drain(&mut lb.b, early).is_empty(), "ACK before its instant");
        assert_eq!(lb.b.next_timer(), Some(due));
        lb.b.on_timers(due);
        let tx = drain(&mut lb.b, due);
        assert_eq!(tx.len(), 1, "one delayed ACK at its instant");
        assert!(tx[0].flags.ack && tx[0].payload.is_empty());
        assert_eq!(lb.b.next_timer(), None);
    }

    #[test]
    fn an_untouched_connections_rto_fires_at_its_instant() {
        let (mut lb, ca, _) = quiet_pair();
        let sent_at = lb.now;
        lb.a.conn_mut(ca)
            .unwrap()
            .send(Bytes::from_static(&[5u8; 100]));
        let first = drain(&mut lb.a, sent_at);
        assert_eq!(first.len(), 1);
        // The segment is lost: nothing reaches the client again but the
        // stack's own walks. A 10 ms RTT leaves the RTO at its floor.
        let due = sent_at + TcpConfig::default().min_rto;
        assert_eq!(lb.a.next_timer(), Some(due));
        let early = due - Dur::from_nanos(1);
        lb.a.on_timers(early);
        assert!(drain(&mut lb.a, early).is_empty(), "RTO before its instant");
        assert_eq!(lb.a.conn(ca).unwrap().stats().rtos, 0);
        lb.a.on_timers(due);
        let tx = drain(&mut lb.a, due);
        assert_eq!(lb.a.conn(ca).unwrap().stats().rtos, 1);
        assert_eq!(tx.len(), 1, "one retransmission at its instant");
        assert_eq!(
            (tx[0].seq, &tx[0].payload),
            (first[0].seq, &first[0].payload)
        );
        assert!(lb.a.next_timer().is_some_and(|t| t > due), "backed off");
    }

    #[test]
    fn accepts_out_of_port_order_drain_in_socket_id_order() {
        // SYN loss reorders accepts: the stack's walks still go in
        // sorted socket-id order, whatever order connections arrived in.
        let mut stack = TcpStack::new(5);
        stack.listen(80, TcpConfig::default());
        for port in [50_002, 50_000, 50_001] {
            let syn = Segment::control(port, 80, u32::from(port), 0, Flags::SYN);
            stack.on_segment(Time::ZERO, &syn);
        }
        let accepted = stack.take_accepted();
        assert_eq!(accepted, vec![(80, 50_002), (80, 50_000), (80, 50_001)]);
        let sorted = vec![(80, 50_000), (80, 50_001), (80, 50_002)];
        assert_eq!(stack.socket_ids(), sorted);
        let order = |tx: &[Segment]| -> Vec<SocketId> {
            tx.iter().map(|s| (s.src_port, s.dst_port)).collect()
        };
        let syn_acks = drain(&mut stack, Time::ZERO);
        assert!(syn_acks.iter().all(|s| s.flags.syn && s.flags.ack));
        assert_eq!(order(&syn_acks), sorted);
        // Touched in reverse order, then all three SYN-ACKs time out at
        // once: still sorted.
        for &id in accepted.iter().rev() {
            stack.conn_mut(id).unwrap().discard_delivered();
        }
        let rto = stack.next_timer().expect("SYN-ACK retransmit timer");
        stack.on_timers(rto);
        let again = drain(&mut stack, rto);
        assert_eq!(order(&again), sorted);
    }

    #[test]
    fn handshake_state_progression() {
        let mut lb = Loopback::new(10);
        lb.b.listen(80, TcpConfig::default());
        let ca = lb.a.connect(Time::ZERO, TcpConfig::default(), 80);
        assert_eq!(lb.a.conn(ca).unwrap().state(), TcpState::SynSent);
        lb.step(); // SYN arrives at server
        let cb = lb.b.socket_ids()[0];
        assert_eq!(lb.b.conn(cb).unwrap().state(), TcpState::SynRcvd);
        lb.step(); // SYN-ACK arrives at client
        assert_eq!(lb.a.conn(ca).unwrap().state(), TcpState::Established);
        lb.step(); // final ACK arrives at server
        assert_eq!(lb.b.conn(cb).unwrap().state(), TcpState::Established);
    }
}
