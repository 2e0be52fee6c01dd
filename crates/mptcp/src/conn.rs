//! The MPTCP connection: subflows, data-sequence mapping, scheduling,
//! reinjection, and failure handling.
//!
//! An [`MptcpConnection`] owns its subflows (each wrapping a
//! `mpwifi-tcp` [`TcpConnection`]) and a connection-level byte stream.
//! Outgoing data is chunked by the scheduler onto subflows, each chunk
//! recorded as a DSN↔subflow-offset mapping and announced on the wire in
//! a DSS option; incoming subflow bytes are translated back through
//! received mappings and reassembled in DSN space.
//!
//! This file is the data plane. Which subflows should exist, with which
//! flags, and when one counts as dead is the [`crate::path`] module's
//! business; the connection calls its `PathManager` at the policy
//! events and opens what it answers.
//!
//! The *primary subflow* is subflow 0 — initiated on the configured
//! default-route interface, exactly the knob the paper turns in
//! Section 3.4. The secondary subflow joins (MP_JOIN) only after the
//! primary completes its handshake, which is what delays MPTCP's use of
//! the second path by at least one handshake RTT.

use crate::coupled::{CcKind, CoupledCc, CoupledGroup};
use crate::options::{mp_options, token_from_key, DssMap, MpOption};
use crate::path::{BackupActivation, Mode, PathManager, SubflowSpec};
use crate::sched::{min_rtt_pick, SchedKind, Scheduler, SubflowView};
use bytes::Bytes;
use mpwifi_netem::Addr;
use mpwifi_simcore::{metrics, Dur, Time};
use mpwifi_tcp::buffer::{RecvBuffer, SendBuffer};
use mpwifi_tcp::cc::{Cubic, Cwnd, Growth, Reno};
use mpwifi_tcp::conn::{TcpConfig, TcpConnection, TcpState};
use mpwifi_tcp::segment::{Flags, Segment, TcpOption};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// MPTCP connection configuration.
#[derive(Debug, Clone)]
pub struct MptcpConfig {
    /// Per-subflow TCP tuning (its `cc` field is overridden by `cc`).
    pub tcp: TcpConfig,
    /// Congestion control: a coupled family member (LIA/OLIA/BALIA,
    /// shared state across subflows) or per-subflow Reno/Cubic.
    pub cc: CcKind,
    /// Packet scheduler.
    pub sched: SchedKind,
    /// Full-MPTCP or Backup mode.
    pub mode: Mode,
    /// Silent-failure policy.
    pub backup_activation: BackupActivation,
}

impl Default for MptcpConfig {
    fn default() -> Self {
        MptcpConfig {
            tcp: TcpConfig::default(),
            cc: CcKind::Lia,
            sched: SchedKind::MinRtt,
            mode: Mode::Full,
            backup_activation: BackupActivation::OnNotify,
        }
    }
}

/// A DSN↔subflow-offset mapping record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MapEntry {
    sf_off: u64,
    dsn: u64,
    len: u64,
}

impl MapEntry {
    fn sf_end(&self) -> u64 {
        self.sf_off + self.len
    }

    /// Does `next` carry on where this entry stops, in both the subflow
    /// and the data sequence space (so the two are one mapping)?
    fn continues_into(&self, next: &MapEntry) -> bool {
        self.sf_end() == next.sf_off && self.dsn + self.len == next.dsn
    }
}

/// Find the entry of a sorted, non-overlapping map covering subflow
/// offset `off`.
fn map_at(maps: &[MapEntry], off: u64) -> Option<&MapEntry> {
    maps.binary_search_by(|e| {
        if off < e.sf_off {
            std::cmp::Ordering::Greater
        } else if off >= e.sf_end() {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Equal
        }
    })
    .ok()
    .map(|i| &maps[i])
}

/// One entry of the assigned-chunk log: `len` connection-level bytes at
/// `dsn`, last handed to subflow `sf` for (re)transmission.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    dsn: u64,
    len: u64,
    sf: usize,
}

impl Chunk {
    fn end(&self) -> u64 {
        self.dsn + self.len
    }
}

/// Observable per-subflow state for harnesses and figures.
#[derive(Debug, Clone, Copy)]
pub struct SubflowStats {
    /// Local interface the subflow is pinned to.
    pub iface: Addr,
    /// MPTCP address id.
    pub addr_id: u8,
    /// Subflow handshake completion time.
    pub established_at: Option<Time>,
    /// Subflow-level bytes cumulatively ACKed (sender side).
    pub bytes_acked: u64,
    /// Subflow-level bytes delivered in order (receiver side).
    pub bytes_delivered: u64,
    /// Smoothed RTT.
    pub srtt: Option<Dur>,
    /// Marked as backup.
    pub is_backup: bool,
    /// Declared dead.
    pub dead: bool,
}

/// Scheduler-progress observability (see
/// [`MptcpConnection::sched_progress`]): the conformance oracles use it
/// to detect a wedged scheduler — fresh data queued, an eligible subflow
/// with room, yet assignment not advancing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedProgress {
    /// Connection-level bytes assigned to subflows so far (next DSN).
    pub assigned: u64,
    /// Connection-level bytes queued by the application.
    pub queued: u64,
    /// Eligible (alive, established, not backup-excluded) subflows.
    pub eligible: usize,
    /// Eligible subflows with at least one MSS of window room.
    pub eligible_with_room: usize,
    /// Bytes in flight or still queued inside eligible subflows. Zero
    /// means no future transmission or ACK will ever re-invoke the
    /// scheduler, so a blocked state is permanent rather than a bounded
    /// deferral.
    pub in_flight: u64,
}

#[derive(Debug)]
struct Subflow {
    iface: Addr,
    remote_addr: Addr,
    addr_id: u8,
    conn: TcpConnection,
    is_backup: bool,
    /// Declared dead (see [`MptcpConnection::kill_subflow`]).
    dead: bool,
    /// Bytes pushed into the subflow's send stream so far.
    tx_pushed: u64,
    tx_maps: Vec<MapEntry>,
    rx_maps: Vec<MapEntry>,
    /// Subflow receive-stream offset already translated to DSN space.
    rx_cursor: u64,
    /// Index of this subflow's coupled-CC registration, when coupled.
    coupled_idx: Option<usize>,
    /// Redundant mode: next DSN this subflow will consider replaying
    /// from the assigned-chunk log (see `pump_redundant_replay`).
    /// Unused by every other scheduler.
    red_cursor: u64,
    /// REMOVE_ADDR announcements waiting to ride the next segment out.
    pending_remove_addr: Vec<u8>,
    /// An MP_FASTCLOSE waiting to ride the next segment out.
    pending_fastclose: bool,
}

impl Subflow {
    fn new(
        spec: SubflowSpec,
        remote_addr: Addr,
        conn: TcpConnection,
        coupled_idx: Option<usize>,
    ) -> Subflow {
        Subflow {
            iface: spec.iface,
            remote_addr,
            addr_id: spec.addr_id,
            conn,
            is_backup: spec.backup,
            dead: false,
            tx_pushed: 0,
            tx_maps: Vec::new(),
            rx_maps: Vec::new(),
            rx_cursor: 0,
            coupled_idx,
            red_cursor: 0,
            pending_remove_addr: Vec::new(),
            pending_fastclose: false,
        }
    }

    /// Can still carry a segment: not declared dead, TCP not closed.
    fn alive(&self) -> bool {
        !self.dead && !self.conn.is_closed()
    }

    fn stats(&self) -> SubflowStats {
        SubflowStats {
            iface: self.iface,
            addr_id: self.addr_id,
            established_at: self.conn.stats().established_at,
            bytes_acked: self.conn.acked_bytes(),
            bytes_delivered: self.conn.delivered_bytes(),
            srtt: self.conn.srtt(),
            is_backup: self.is_backup,
            dead: self.dead,
        }
    }

    fn push_tx_map(&mut self, entry: MapEntry) {
        match self.tx_maps.last_mut() {
            Some(last) if last.continues_into(&entry) => last.len += entry.len,
            _ => self.tx_maps.push(entry),
        }
    }

    /// Insert a received mapping, keeping `rx_maps` sorted and
    /// non-overlapping. Mappings repeat and partially overlap across
    /// retransmissions (a retransmitted segment re-announces the part of
    /// the mapping it carries), but never conflict: the sender's DSN
    /// assignment for a subflow offset is immutable. Only the uncovered
    /// pieces of the incoming entry are inserted, and a piece that carries
    /// on from its predecessor extends it (as `push_tx_map` does), so an
    /// in-order stream keeps one growing entry rather than one per
    /// segment.
    fn push_rx_map(&mut self, entry: MapEntry) {
        let mut start = entry.sf_off;
        let end = entry.sf_end();
        while start < end {
            // The first entry ending past `start` either covers it or is
            // where the uncovered piece must stop.
            let pos = self.rx_maps.partition_point(|e| e.sf_end() <= start);
            let piece_end = match self.rx_maps.get(pos) {
                Some(e) if e.sf_off <= start => {
                    start = e.sf_end();
                    continue;
                }
                Some(e) => e.sf_off.min(end),
                None => end,
            };
            let piece = MapEntry {
                sf_off: start,
                dsn: entry.dsn + (start - entry.sf_off),
                len: piece_end - start,
            };
            match pos.checked_sub(1).map(|prev| &mut self.rx_maps[prev]) {
                Some(prev) if prev.continues_into(&piece) => prev.len += piece.len,
                _ => self.rx_maps.insert(pos, piece),
            }
            start = piece_end;
        }
    }

    /// Drop mappings fully below the given cursors (bookkeeping only).
    fn prune_maps(&mut self, rx_cursor: u64, tx_acked: u64) {
        self.rx_maps.retain(|e| e.sf_end() > rx_cursor);
        self.tx_maps.retain(|e| e.sf_end() > tx_acked);
    }
}

/// An endpoint's half of one MPTCP connection.
#[derive(Debug)]
pub struct MptcpConnection {
    cfg: MptcpConfig,
    /// The control plane: subflow policy and the death rule.
    paths: PathManager,
    key_local: u64,
    key_peer: Option<u64>,
    /// The server's address: every client subflow's remote, every server
    /// subflow's local interface.
    server_addr: Addr,
    /// The server's port (client side; a server learns ports from SYNs).
    remote_port: u16,
    iss_base: u32,

    subflows: Vec<Subflow>,
    scheduler: Scheduler,
    coupled: Rc<RefCell<CoupledGroup>>,

    // ---- send side ----
    snd_buf: SendBuffer,
    dsn_next: u64,
    /// Chunks assigned to subflows and not yet fully data-acked, sorted
    /// by DSN (for reinjection and redundant replay). Fresh chunks are
    /// appended; a reinjected suffix shares its original's end, so chunk
    /// ends never decrease along the log and the fully-acked chunks are
    /// always a prefix.
    assigned: VecDeque<Chunk>,
    /// Peer's cumulative connection-level ACK.
    data_ack_in: u64,
    fin_queued: bool,

    // ---- receive side ----
    rcv_buf: RecvBuffer,
    peer_data_fin: Option<u64>,
    peer_fin_consumed: bool,

    stats_established_at: Option<Time>,
    subflows_closed: bool,
    /// Re-announce DATA_FIN (on a forced ACK) until it is data-acked.
    fin_announce_deadline: Option<Time>,
    /// A BLEST/ECF deferral is pending: the scheduler declined a subflow
    /// with room, and at this instant that subflow is picked regardless —
    /// one smoothed RTT of it (the horizon BLEST's estimate assumes) after
    /// the first [`MptcpConnection::pump_send`] to end that way. A pass
    /// that ends any other way leaves `None`.
    defer_deadline: Option<Time>,
    /// Chunks awaiting reinjection because no live subflow existed when
    /// their carrier died (Single-Path mode's break-before-make window).
    pending_reinject: Vec<(u64, u64)>,
    /// Recovery-time clock: set when a subflow is declared dead,
    /// cleared (and reported to the run metrics) when connection-level
    /// delivery or the peer's data-ACK next advances past the recorded
    /// `(receive cursor, data-ACK)` watermarks.
    recovery_started: Option<(Time, u64, u64)>,
    /// `abort()` called; reset subflows after the FASTCLOSE leaves.
    aborting: bool,
    aborted: bool,
    /// Test-only fault injection: when nonzero, every Nth outgoing DSS
    /// mapping is re-pointed at the preceding DSN range (a "double-sent
    /// mapping"). Exists solely so the conformance oracles can prove
    /// they catch data-level corruption; zero in all real runs.
    test_dss_double_every: u64,
    /// Test-only fault: stop assigning fresh data once `dsn_next`
    /// reaches this threshold, wedging the scheduler while eligible
    /// subflows still have room (proves `mptcp-sched-wedged` fires).
    /// `0` disables (the default).
    test_sched_stall_after: u64,
    /// Test-only fault: Redundant mode skips its duplication step
    /// (proves `mptcp-redundant-no-dup` fires). Never set in real runs.
    test_redundant_suppress: bool,
    /// Count of data DSS mappings emitted (drives the knob above).
    dss_maps_emitted: u64,
    /// Reused scheduler snapshot for [`MptcpConnection::pump_send`].
    views_scratch: Vec<SubflowView>,
    /// Reused chunk list for [`MptcpConnection::pump_receive`].
    rx_scratch: Vec<Bytes>,
    /// Nothing has touched this connection since a
    /// [`MptcpConnection::take_tx_into`]. Until the next touch or due
    /// timer every poll (`take_tx_into`, `on_timers`, `next_timer`)
    /// repeats one that already ran to completion, and returns at once —
    /// which is what lets an endpoint skip its idle, window-limited and
    /// closed connections (`mpwifi_tcp::touched`). It is
    /// `TcpConnection`'s `settled` rule one level up; that field's doc
    /// lists what clears it and why a new entry point must.
    settled: bool,
    /// [`MptcpConnection::next_timer`] as of settling.
    settled_timer: Option<Time>,
}

impl MptcpConnection {
    /// One end of a connection, before its first subflow: a client
    /// ([`PathManager::client`]) then calls [`MptcpConnection::connect`],
    /// a server ([`PathManager::server`])
    /// [`MptcpConnection::accept_primary`] with the SYN that caused it.
    /// `server_addr` is the server's interface address at either end;
    /// `remote_port` its port (unused by the server end). Every
    /// subflow's ISS derives from `key_local`.
    pub(crate) fn new(
        cfg: MptcpConfig,
        paths: PathManager,
        server_addr: Addr,
        remote_port: u16,
        key_local: u64,
    ) -> MptcpConnection {
        // The connection-level reassembly buffer has no flow-control
        // advertisement of its own (we signal only DATA_ACK, not a
        // connection-level window), so it must never silently trim:
        // subflow-level windows bound the in-flight data, and the
        // application owns consumption. Effectively unbounded.
        let recv_buf = usize::MAX / 4;
        MptcpConnection {
            scheduler: Scheduler::new(cfg.sched),
            coupled: CoupledGroup::shared(),
            cfg,
            paths,
            key_local,
            key_peer: None,
            server_addr,
            remote_port,
            iss_base: (key_local >> 32) as u32 ^ (key_local as u32),
            subflows: Vec::new(),
            snd_buf: SendBuffer::new(),
            dsn_next: 0,
            assigned: VecDeque::new(),
            data_ack_in: 0,
            fin_queued: false,
            rcv_buf: RecvBuffer::new(recv_buf),
            peer_data_fin: None,
            peer_fin_consumed: false,
            stats_established_at: None,
            subflows_closed: false,
            fin_announce_deadline: None,
            defer_deadline: None,
            pending_reinject: Vec::new(),
            recovery_started: None,
            aborting: false,
            aborted: false,
            test_dss_double_every: 0,
            test_sched_stall_after: 0,
            test_redundant_suppress: false,
            dss_maps_emitted: 0,
            views_scratch: Vec::new(),
            rx_scratch: Vec::new(),
            settled: false,
            settled_timer: None,
        }
    }

    /// Test-only fault: re-map every `every`th outgoing DSS mapping onto
    /// the DSN range *preceding* its true one, emulating a broken
    /// scheduler that double-sends a mapping. The wire bytes then claim
    /// to carry data-sequence bytes they do not, which a live
    /// conformance oracle must flag. `0` disables the fault (the
    /// default); nothing in the workspace sets it outside checker
    /// self-tests.
    #[doc(hidden)]
    pub fn set_test_dss_double_send(&mut self, every: u64) {
        self.settled = false;
        self.test_dss_double_every = every;
    }

    /// Test-only fault: wedge the scheduler — stop assigning fresh data
    /// once the next DSN reaches `threshold`, while the application keeps
    /// queueing and eligible subflows keep window room. A live
    /// scheduler-progress oracle must flag the stall. `0` disables (the
    /// default); nothing in the workspace sets it outside checker
    /// self-tests.
    #[doc(hidden)]
    pub fn set_test_sched_stall_after(&mut self, threshold: u64) {
        self.settled = false;
        self.test_sched_stall_after = threshold;
    }

    /// Test-only fault: make [`SchedKind::Redundant`] skip its chunk
    /// duplication, so a redundancy-liveness oracle can prove it fires.
    /// Never set in real runs.
    #[doc(hidden)]
    pub fn set_test_redundant_suppress(&mut self, suppress: bool) {
        self.settled = false;
        self.test_redundant_suppress = suppress;
    }

    /// Our connection token (what the peer puts in MP_JOIN).
    pub fn local_token(&self) -> u32 {
        token_from_key(self.key_local)
    }

    /// One more subflow's congestion window and, under a coupled law,
    /// its registration index in the group.
    fn build_cc(&self) -> (Cwnd, Option<usize>) {
        let (rule, idx): (Box<dyn Growth>, _) =
            match CoupledCc::new(self.coupled.clone(), self.cfg.cc) {
                Some(cc) => (Box::new(cc), Some(self.coupled.borrow().len() - 1)),
                None if self.cfg.cc == CcKind::Cubic => (Box::new(Cubic::default()), None),
                None => (Box::new(Reno::default()), None),
            };
        let tcp = &self.cfg.tcp;
        (Cwnd::new(tcp.mss, tcp.init_cwnd_segs, rule), idx)
    }

    /// The one way a subflow comes to exist: build its TCP connection
    /// (ISS `iss_base + iss_off`, our congestion control, `hs` on its
    /// SYN or SYN-ACK), start it, attach it. `syn` is the SYN it answers
    /// and the client interface that sent it; `None` opens toward the
    /// server instead.
    fn add_subflow(
        &mut self,
        now: Time,
        spec: SubflowSpec,
        iss_off: u32,
        hs: Option<MpOption>,
        syn: Option<(&Segment, Addr)>,
    ) {
        self.settled = false;
        let (cc, coupled_idx) = self.build_cc();
        let iss = self.iss_base.wrapping_add(iss_off);
        let (state, remote_port, remote_addr) = match syn {
            None => (TcpState::Closed, self.remote_port, self.server_addr),
            Some((seg, from)) => (TcpState::Listen, seg.src_port, from),
        };
        let tcp_cfg = self.cfg.tcp.clone();
        let mut conn = TcpConnection::new(tcp_cfg, state, spec.local_port, remote_port, iss, cc);
        if let Some(hs) = hs {
            conn.set_handshake_options(vec![hs.to_tcp_option()]);
        }
        match syn {
            None => conn.open(now),
            Some((seg, _)) => conn.on_segment(now, seg),
        }
        self.subflows
            .push(Subflow::new(spec, remote_addr, conn, coupled_idx));
    }

    /// Start the connection: open the primary subflow with MP_CAPABLE.
    pub(crate) fn connect(&mut self, now: Time) {
        assert!(self.subflows.is_empty(), "connect() called twice");
        let spec = self.paths.primary();
        let hs = MpOption::MpCapable {
            key: self.key_local,
        };
        self.add_subflow(now, spec, 0, Some(hs), None);
    }

    /// What the SYN `seg` dictates for the server subflow answering it.
    fn accepted_spec(&self, seg: &Segment, addr_id: u8, backup: bool) -> SubflowSpec {
        SubflowSpec {
            iface: self.server_addr,
            addr_id,
            local_port: seg.dst_port,
            backup,
        }
    }

    /// Server side: accept the primary subflow from its SYN (which must
    /// carry MP_CAPABLE — the caller checked). `remote_addr` is the
    /// client interface it arrived from.
    pub(crate) fn accept_primary(
        &mut self,
        now: Time,
        seg: &Segment,
        remote_addr: Addr,
        key_peer: u64,
    ) {
        self.key_peer = Some(key_peer);
        let hs = MpOption::MpCapable {
            key: self.key_local,
        };
        let spec = self.accepted_spec(seg, 0, false);
        self.add_subflow(now, spec, 0, Some(hs), Some((seg, remote_addr)));
    }

    /// Server side: attach a joining subflow from its MP_JOIN SYN.
    pub(crate) fn accept_join(
        &mut self,
        now: Time,
        seg: &Segment,
        remote_addr: Addr,
        addr_id: u8,
        backup: bool,
    ) {
        let spec = self.accepted_spec(seg, addr_id, backup);
        self.add_subflow(now, spec, 0x2000_0000, None, Some((seg, remote_addr)));
    }

    // ------------------------------------------------------------------
    // Application interface
    // ------------------------------------------------------------------

    /// Queue connection-level data.
    pub fn send(&mut self, data: Bytes) {
        assert!(!self.fin_queued, "send() after close()");
        self.settled = false;
        self.snd_buf.append(data);
    }

    /// Close our direction (DATA_FIN after all data).
    pub fn close(&mut self, _now: Time) {
        self.settled = false;
        self.fin_queued = true;
    }

    /// Abort the whole MPTCP connection: an MP_FASTCLOSE rides out on a
    /// live subflow, then every subflow is reset locally.
    pub fn abort(&mut self, _now: Time) {
        self.settled = false;
        if let Some(live) = self.usable_subflow() {
            self.subflows[live].pending_fastclose = true;
            self.subflows[live].conn.request_ack();
        }
        self.aborting = true;
    }

    /// True once `abort` was called or the peer fast-closed us.
    pub fn is_aborted(&self) -> bool {
        self.aborted
    }

    /// Nothing has touched the connection since its last drain, so
    /// another would hand over nothing and arm nothing. A drain that
    /// ends in the abort teardown leaves it unsettled: the next one has
    /// work.
    pub fn is_settled(&self) -> bool {
        self.settled
    }

    fn finish_abort(&mut self, now: Time) {
        self.settled = false;
        for sf in &mut self.subflows {
            if !sf.conn.is_closed() {
                sf.conn.abort(now);
            }
            sf.dead = true;
        }
        self.aborted = true;
    }

    /// Drain connection-level in-order data.
    pub fn take_delivered(&mut self) -> Vec<Bytes> {
        self.rcv_buf.take_delivered()
    }

    /// Read and drop everything delivered so far (an application that
    /// only counts bytes). Like [`MptcpConnection::take_delivered`] it
    /// reaches no subflow — the connection-level buffer advertises no
    /// window — so a read is not a touch.
    pub fn discard_delivered(&mut self) {
        self.rcv_buf.discard_delivered();
    }

    /// Connection-level bytes delivered in order to the application.
    pub fn delivered_bytes(&self) -> u64 {
        self.rcv_buf.delivered_bytes()
    }

    /// Connection-level bytes the peer has cumulatively acknowledged.
    pub fn data_acked(&self) -> u64 {
        self.data_ack_in.min(self.snd_buf.end())
    }

    /// Total connection-level bytes queued by the application.
    pub fn bytes_queued(&self) -> u64 {
        self.snd_buf.end()
    }

    /// A subflow that can still carry control traffic.
    fn usable_subflow(&self) -> Option<usize> {
        self.subflows.iter().position(Subflow::alive)
    }

    /// The subflow-eligibility rule, evaluated for one pass over the
    /// subflows: alive, established, and — for a backup — only while no
    /// regular subflow is alive and established.
    fn eligibility(&self) -> impl Fn(&Subflow) -> bool {
        let any_regular_alive = self
            .subflows
            .iter()
            .any(|s| !s.dead && !s.is_backup && s.conn.is_established());
        move |s| !s.dead && s.conn.is_established() && (!s.is_backup || !any_regular_alive)
    }

    /// Primary-subflow establishment time (the connection counts as
    /// established once subflow 0 completes its handshake, like the
    /// paper's throughput-vs-time measurements).
    pub fn established_at(&self) -> Option<Time> {
        self.stats_established_at
    }

    /// All subflows fully closed (or dead).
    pub fn is_closed(&self) -> bool {
        !self.subflows.is_empty() && !self.subflows.iter().any(Subflow::alive)
    }

    /// Per-subflow observability.
    pub fn subflow_stats(&self) -> Vec<SubflowStats> {
        self.subflow_stats_iter().collect()
    }

    /// [`MptcpConnection::subflow_stats`] without the `Vec`: what a
    /// per-step probe walks.
    pub fn subflow_stats_iter(&self) -> impl Iterator<Item = SubflowStats> + '_ {
        self.subflows.iter().map(|s| s.stats())
    }

    /// Scheduler-progress snapshot for harnesses and the conformance
    /// oracles: how far assignment has advanced versus what the
    /// application queued, and whether the scheduler currently has
    /// somewhere to put data.
    pub fn sched_progress(&self) -> SchedProgress {
        let mss = self.cfg.tcp.mss as u64;
        let is_eligible = self.eligibility();
        let mut eligible = 0;
        let mut eligible_with_room = 0;
        let mut in_flight = 0u64;
        for s in self.subflows.iter().filter(|s| is_eligible(s)) {
            eligible += 1;
            let window = s.conn.cwnd().min(s.conn.send_window());
            let unsent = s.conn.bytes_unsent();
            in_flight += s.conn.in_flight() + unsent;
            // Room as the scheduler sees it (`fill_views`).
            if window.saturating_sub(s.conn.pipe() + unsent) >= mss {
                eligible_with_room += 1;
            }
        }
        SchedProgress {
            assigned: self.dsn_next,
            queued: self.snd_buf.end(),
            eligible,
            eligible_with_room,
            in_flight,
        }
    }

    /// Number of subflows created so far.
    pub fn subflow_count(&self) -> usize {
        self.subflows.len()
    }

    /// Local port of the primary subflow (used by harnesses to match
    /// client and server connection objects).
    pub fn primary_local_port(&self) -> Option<u16> {
        self.subflows.first().map(|s| s.conn.local_port())
    }

    /// Remote port of the primary subflow.
    pub fn primary_remote_port(&self) -> Option<u16> {
        self.subflows.first().map(|s| s.conn.remote_port())
    }

    /// Does one of our subflows use this (local_port, remote_port) pair?
    /// The endpoints ask once per pair, at its first segment, and keep
    /// the answer in a sorted table (`ConnTable::route`).
    pub fn route_ports(&self, local_port: u16, remote_port: u16) -> Option<usize> {
        self.subflows
            .iter()
            .position(|s| s.conn.local_port() == local_port && s.conn.remote_port() == remote_port)
    }

    // ------------------------------------------------------------------
    // Failure handling
    // ------------------------------------------------------------------

    /// Local notification that an interface went down (`multipath off`).
    /// Kills subflows on that interface and tells the peer via
    /// REMOVE_ADDR on a surviving subflow.
    pub fn notify_iface_down(&mut self, now: Time, iface: Addr) {
        self.settled = false;
        for idx in 0..self.subflows.len() {
            let s = &self.subflows[idx];
            if s.iface != iface || s.dead {
                continue;
            }
            let addr_id = s.addr_id;
            self.kill_subflow(now, idx);
            // Tell the peer on the first live subflow: the REMOVE_ADDR
            // rides the next outgoing segment there (a forced ACK if the
            // subflow is otherwise quiet).
            if let Some(live) = self.usable_subflow() {
                let sf = &mut self.subflows[live];
                sf.pending_remove_addr.push(addr_id);
                sf.conn.request_ack();
            }
        }
        self.pump_send(now);
    }

    /// Local notification that a downed interface came back. Only an
    /// established, not-yet-closing connection rejoins; the join takes a
    /// fresh port from `next_port`, the client endpoint's counter.
    pub(crate) fn notify_iface_up(&mut self, now: Time, iface: Addr, next_port: &mut u16) {
        let open = !(self.aborting || self.aborted || self.subflows_closed);
        if open
            && self.stats_established_at.is_some()
            && self.reconcile(now, Some((iface, next_port)))
        {
            self.pump_send(now);
        }
    }

    /// A policy event happened — the primary came up, a subflow died, or
    /// an interface was notified up (`fresh`): open every join the path
    /// manager now wants. Returns whether there was one.
    fn reconcile(&mut self, now: Time, fresh: Option<(Addr, &mut u16)>) -> bool {
        // Peer never proved MPTCP capability (its MP_CAPABLE may have
        // been corrupted away): stay single-path rather than panic.
        let Some(key_peer) = self.key_peer else {
            return false;
        };
        let subflows = &self.subflows;
        let joins = self.paths.joins(
            self.stats_established_at.is_some(),
            |iface| subflows.iter().any(|s| s.iface == iface && s.alive()),
            fresh,
        );
        for &spec in &joins {
            let hs = MpOption::MpJoin {
                token: token_from_key(key_peer),
                addr_id: spec.addr_id,
                backup: spec.backup,
            };
            // Distinct ISS per join (rejoins open third, fourth, ...
            // subflows on fresh ports); the first join keeps the
            // historical constant.
            let iss_off = 0x4000_0000u32.wrapping_mul(self.subflows.len() as u32);
            self.add_subflow(now, spec, iss_off, Some(hs), None);
        }
        !joins.is_empty()
    }

    /// Peer told us an address is gone: kill subflows with that addr id.
    /// The primary subflow predates any MP_JOIN, so the server never
    /// learned its addr id explicitly — match on the remote interface
    /// address too (clients use the interface address as the id).
    fn on_remove_addr(&mut self, now: Time, addr_id: u8) {
        let by_id = self
            .subflows
            .iter()
            .any(|s| !s.dead && s.addr_id == addr_id);
        for idx in 0..self.subflows.len() {
            let s = &self.subflows[idx];
            let named = if by_id {
                s.addr_id == addr_id
            } else {
                s.remote_addr.0 == addr_id
            };
            if named {
                self.kill_subflow(now, idx);
            }
        }
    }

    fn kill_subflow(&mut self, now: Time, idx: usize) {
        if self.subflows[idx].dead {
            return;
        }
        self.subflows[idx].dead = true;
        metrics::record_subflow_declared_dead();
        if self.recovery_started.is_none() && !self.subflows_closed && !self.aborting {
            self.recovery_started = Some((now, self.rcv_buf.next_expected(), self.data_ack_in));
        }
        if let Some(ci) = self.subflows[idx].coupled_idx {
            self.coupled.borrow_mut().mark_dead_by_index(ci);
        }
        self.reinject_from(idx);
        // Break-before-make: a standby path's subflow is created only
        // now, after the working one died.
        self.reconcile(now, None);
    }

    /// Re-schedule every not-yet-data-acked chunk assigned to `dead_idx`
    /// onto surviving subflows: park them, then flush (behind anything an
    /// earlier death parked). A chunk whose DSN starts below the
    /// cumulative data-ACK but extends past it still has a live tail, so
    /// the scan must not start at `data_ack_in` — it walks all assigned
    /// chunks.
    fn reinject_from(&mut self, dead_idx: usize) {
        let acked = self.data_ack_in;
        self.pending_reinject.extend(
            self.assigned
                .iter()
                .filter(|c| c.sf == dead_idx && c.end() > acked)
                .map(|c| (c.dsn, c.len)),
        );
        self.flush_pending_reinjects();
    }

    /// Reinject the parked chunks onto the first eligible subflow. With
    /// none yet (Single-Path mode's handshake window) they stay parked
    /// for the next send round.
    fn flush_pending_reinjects(&mut self) {
        if self.pending_reinject.is_empty() {
            return;
        }
        let Some(target) = self.pick_any_live_subflow() else {
            return;
        };
        for (dsn, len) in std::mem::take(&mut self.pending_reinject) {
            // The prefix (or all of it) may have been data-acked, and
            // released from the send buffer, while parked; reinject only
            // the live suffix.
            let start = dsn.max(self.data_ack_in);
            if start < dsn + len {
                self.push_chunk_to_subflow(target, start, dsn + len - start);
                metrics::record_reinjection();
            }
        }
    }

    fn pick_any_live_subflow(&self) -> Option<usize> {
        self.subflows.iter().position(self.eligibility())
    }

    // ------------------------------------------------------------------
    // Segment processing
    // ------------------------------------------------------------------

    /// Feed a decoded segment belonging to subflow `sf_idx`.
    pub fn on_segment(&mut self, now: Time, sf_idx: usize, seg: &Segment) {
        if sf_idx >= self.subflows.len() {
            // Callers route by port pair, so this cannot happen from the
            // endpoint demux; a hand-driven harness passing a stale index
            // gets a counted drop, not a panic.
            metrics::record_segment_dropped_unroutable();
            return;
        }
        self.settled = false;
        // 1. MPTCP option processing.
        for opt in mp_options(seg) {
            match opt {
                MpOption::MpCapable { key } => {
                    if self.key_peer.is_none() {
                        self.key_peer = Some(key);
                    }
                }
                MpOption::Dss {
                    data_ack,
                    map,
                    fin,
                    fin_dsn,
                } => {
                    if data_ack > self.data_ack_in {
                        self.data_ack_in = data_ack;
                        let release = self.data_ack_in.min(self.snd_buf.end());
                        self.snd_buf.advance_to(release);
                        // Prune fully-acked assignments: a prefix of
                        // the log (see `assigned`).
                        while self
                            .assigned
                            .front()
                            .is_some_and(|c| c.end() <= self.data_ack_in)
                        {
                            self.assigned.pop_front();
                        }
                    }
                    if let Some(m) = map {
                        // The mapping's subflow position is the carrying
                        // segment's own payload position.
                        let sf_off = self.subflows[sf_idx].conn.recv_stream_off_of_seq(seg.seq);
                        self.subflows[sf_idx].push_rx_map(MapEntry {
                            sf_off,
                            dsn: m.dsn,
                            len: u64::from(m.len),
                        });
                    }
                    if fin && self.peer_data_fin.is_none() {
                        self.peer_data_fin = Some(fin_dsn);
                    }
                }
                MpOption::RemoveAddr { addr_id } => {
                    self.on_remove_addr(now, addr_id);
                }
                MpOption::MpPrio { backup } => {
                    self.subflows[sf_idx].is_backup = backup;
                }
                MpOption::MpJoin { .. } => {}
                MpOption::MpFastclose => {
                    // Peer aborted the connection: reset everything.
                    self.finish_abort(now);
                    return;
                }
            }
        }

        // 2. Subflow TCP processing.
        self.subflows[sf_idx].conn.on_segment(now, seg);

        // 3. Translate newly in-order subflow bytes to DSN space.
        self.pump_receive(now, sf_idx);

        // 4. Establishment side-effects.
        self.handle_establishment(now);

        // 5. Scheduling.
        self.detect_silent_death(now);
        self.pump_send(now);

        // 6. Recovery bookkeeping.
        self.check_recovery_progress(now);
    }

    /// Close out the recovery-time clock once connection-level progress
    /// resumes after a subflow death.
    fn check_recovery_progress(&mut self, now: Time) {
        if let Some((t0, rcv0, ack0)) = self.recovery_started {
            if self.rcv_buf.next_expected() > rcv0 || self.data_ack_in > ack0 {
                metrics::record_recovery_time_us((now - t0).as_micros());
                self.recovery_started = None;
            }
        }
    }

    fn pump_receive(&mut self, now: Time, sf_idx: usize) {
        let mut chunks = std::mem::take(&mut self.rx_scratch);
        self.subflows[sf_idx].conn.take_delivered_into(&mut chunks);
        let mut violated = false;
        'chunks: for chunk in chunks.drain(..) {
            let mut off = self.subflows[sf_idx].rx_cursor;
            let mut rest = chunk;
            while !rest.is_empty() {
                let Some(entry) = map_at(&self.subflows[sf_idx].rx_maps, off) else {
                    // In-order subflow bytes with no DSS mapping: our
                    // sender always ships the mapping with the first
                    // transmission, so this peer is violating the
                    // protocol. The subflow's stream can no longer be
                    // translated to DSN space — declare it dead (a
                    // counted drop; reinjection recovers anything we had
                    // assigned to it) instead of panicking.
                    violated = true;
                    break 'chunks;
                };
                let entry = *entry;
                let within = off - entry.sf_off;
                let take = ((entry.len - within) as usize).min(rest.len());
                let piece = rest.slice(..take);
                rest = rest.slice(take..);
                let dsn_start = entry.dsn + within;
                // Redundant copies (and reinjection races) arrive for
                // DSNs already delivered; count the dropped overlap.
                let already = self.rcv_buf.next_expected();
                if dsn_start < already {
                    metrics::record_dup_bytes_dropped((already - dsn_start).min(take as u64));
                }
                self.rcv_buf.insert(dsn_start, piece);
                off += take as u64;
            }
            self.subflows[sf_idx].rx_cursor = off;
        }
        self.rx_scratch = chunks;
        if violated {
            self.kill_subflow(now, sf_idx);
        }
        // Bounded map bookkeeping.
        if self.subflows[sf_idx].rx_maps.len() > 64 || self.subflows[sf_idx].tx_maps.len() > 64 {
            let rx_cursor = self.subflows[sf_idx].rx_cursor;
            let tx_acked = self.subflows[sf_idx].conn.acked_bytes();
            self.subflows[sf_idx].prune_maps(rx_cursor, tx_acked);
        }
        // DATA_FIN consumption.
        if let Some(fin_dsn) = self.peer_data_fin {
            if !self.peer_fin_consumed && self.rcv_buf.next_expected() >= fin_dsn {
                self.peer_fin_consumed = true;
                // Ack the DATA_FIN promptly.
                if let Some(live) = self.usable_subflow() {
                    self.subflows[live].conn.request_ack();
                }
            }
        }
    }

    /// Primary establishment: record it, and let the path manager
    /// launch the joins that were waiting for it.
    fn handle_establishment(&mut self, now: Time) {
        if self.stats_established_at.is_none()
            && self
                .subflows
                .first()
                .is_some_and(|s| s.conn.is_established())
        {
            self.stats_established_at = self.subflows[0].conn.stats().established_at;
            self.reconcile(now, None);
        }
    }

    /// Apply the path manager's death rule to every subflow.
    fn detect_silent_death(&mut self, now: Time) {
        // Killing one subflow moves data onto others (or opens a fresh
        // one) but never makes another a victim, so one pass in index
        // order is the collect-then-kill it replaces.
        for idx in 0..self.subflows.len() {
            let tcp = &self.subflows[idx].conn;
            let gave_up = tcp.is_closed() && tcp.error().is_some();
            if self.paths.declares_dead(tcp.consecutive_retries(), gave_up) {
                self.kill_subflow(now, idx);
            }
        }
    }

    // ------------------------------------------------------------------
    // Scheduling & transmission
    // ------------------------------------------------------------------

    /// Snapshot every subflow's schedulability into `views` (cleared
    /// first): the scheduler's input, rebuilt before each decision into a
    /// buffer the connection keeps.
    fn fill_views(&self, views: &mut Vec<SubflowView>) {
        let is_eligible = self.eligibility();
        views.clear();
        views.extend(self.subflows.iter().enumerate().map(|(idx, s)| {
            let eligible = is_eligible(s);
            let cwnd = s.conn.cwnd();
            // What the subflow's own send loop counts against `cwnd`.
            let used = s.conn.pipe() + s.conn.bytes_unsent();
            SubflowView {
                idx,
                eligible,
                room: cwnd.min(s.conn.send_window()).saturating_sub(used),
                cwnd,
                srtt: s.conn.srtt(),
            }
        }));
    }

    /// Queue `len` bytes at `dsn` on a subflow and record the mapping.
    /// On its own this is a redundant copy: `assigned` is untouched, so
    /// the chunk's first carrier keeps ownership for reinjection, and
    /// the receiver dedups by DSN.
    fn push_to_subflow(&mut self, sf_idx: usize, dsn: u64, len: u64) {
        let data = self.snd_buf.slice(dsn, len as usize);
        let sf = &mut self.subflows[sf_idx];
        sf.conn.send(data);
        sf.push_tx_map(MapEntry {
            sf_off: sf.tx_pushed,
            dsn,
            len,
        });
        sf.tx_pushed += len;
    }

    /// [`MptcpConnection::push_to_subflow`], and the subflow becomes the
    /// chunk's owner in the assigned log.
    fn push_chunk_to_subflow(&mut self, sf_idx: usize, dsn: u64, len: u64) {
        self.push_to_subflow(sf_idx, dsn, len);
        // Record the chunk, or re-home it when a reinjection starts at
        // the same DSN. Fresh data always lands at the back.
        let chunk = Chunk {
            dsn,
            len,
            sf: sf_idx,
        };
        if self.assigned.back().is_none_or(|last| last.dsn < dsn) {
            self.assigned.push_back(chunk);
            return;
        }
        let pos = self.assigned.partition_point(|c| c.dsn < dsn);
        match self.assigned.get_mut(pos) {
            Some(slot) if slot.dsn == dsn => *slot = chunk,
            _ => self.assigned.insert(pos, chunk),
        }
    }

    /// Redundant mode: every eligible subflow replays, in DSN order, the
    /// still-unacked chunks first carried by *other* subflows, so each
    /// chunk eventually rides every live path — not just chunks minted
    /// at an instant when two windows happened to be open at once.
    /// `assigned` is pruned as data-ACKs advance, so the per-subflow
    /// cursor walk naturally skips acknowledged data; the receiver
    /// dedups by DSN and counts the losers in `dup_bytes_dropped`.
    fn pump_redundant_replay(&mut self, views: &[SubflowView]) {
        for v in views {
            if !v.eligible {
                continue;
            }
            let mut room = v.room;
            // Replaying never edits the log, so one search finds the
            // cursor and the walk is by index from there.
            let cur = self.subflows[v.idx].red_cursor;
            let mut next = self.assigned.partition_point(|c| c.dsn < cur);
            while let Some(&chunk) = self.assigned.get(next) {
                next += 1;
                if chunk.dsn < self.subflows[v.idx].red_cursor {
                    // A reinjected suffix of the chunk just passed.
                    continue;
                }
                if chunk.sf != v.idx {
                    if room < chunk.len {
                        break;
                    }
                    self.push_to_subflow(v.idx, chunk.dsn, chunk.len);
                    metrics::record_reinjection();
                    metrics::record_redundant_dup();
                    room -= chunk.len;
                }
                // Replayed, or this subflow already carries the chunk.
                self.subflows[v.idx].red_cursor = chunk.end();
            }
        }
    }

    /// Assign fresh data, replay, announce DATA_FIN, tear down.
    /// Idempotent at a fixed `now`: a deferral may cost one slow-path RTT
    /// of simulated time, however often the connection is polled.
    fn pump_send(&mut self, now: Time) {
        self.flush_pending_reinjects();
        let mss = self.cfg.tcp.mss as u64;
        let mut views = std::mem::take(&mut self.views_scratch);
        // The deferral the last pass ended in; an assignment closes it.
        let mut deferred = self.defer_deadline.take();
        // Assign fresh data.
        while self.dsn_next < self.snd_buf.end() {
            if self.test_sched_stall_after != 0 && self.dsn_next >= self.test_sched_stall_after {
                // Planted fault: wedge the scheduler (see
                // `set_test_sched_stall_after`).
                break;
            }
            self.fill_views(&mut views);
            let remaining = self.snd_buf.end() - self.dsn_next;
            let pick = match self.scheduler.pick(&views, remaining) {
                Some(pick) => pick,
                None => {
                    // With room on offer this is a deferral, and the
                    // subflow declined is min-RTT's pick.
                    let Some(declined) = min_rtt_pick(&views) else {
                        break;
                    };
                    let due = deferred.unwrap_or(now + declined.srtt.unwrap_or(Dur::ZERO));
                    if due > now {
                        self.defer_deadline = Some(due);
                        break;
                    }
                    declined.idx
                }
            };
            // A scheduler must answer with one of the views it was
            // offered; the built-ins always do, but `Scheduler` is
            // replaceable, so an out-of-range pick is a counted rejection
            // (the send round is skipped) rather than a panic.
            let Some(room) = views.iter().find(|v| v.idx == pick).map(|v| v.room) else {
                metrics::record_sched_pick_rejected();
                break;
            };
            let len = (self.snd_buf.end() - self.dsn_next).min(mss).min(room);
            if len == 0 {
                break;
            }
            let dsn = self.dsn_next;
            self.dsn_next += len;
            self.push_chunk_to_subflow(pick, dsn, len);
            deferred = None;
        }
        if self.scheduler.kind() == SchedKind::Redundant && !self.test_redundant_suppress {
            self.fill_views(&mut views);
            self.pump_redundant_replay(&views);
        }
        self.views_scratch = views;
        // DATA_FIN announcement: once the stream end is known and all
        // data is assigned, keep nudging a live subflow to emit a DSS
        // carrying the FIN until the peer data-acks it (the DSS itself
        // rides unreliable pure ACKs, so we retry on a timer).
        if self.data_fin_ready() && self.data_ack_in <= self.snd_buf.end() {
            if self.fin_announce_deadline.is_none_or(|t| t <= now) {
                if let Some(live) = self.usable_subflow() {
                    self.subflows[live].conn.request_ack();
                }
                self.fin_announce_deadline = Some(now + Dur::from_millis(500));
            }
        } else {
            self.fin_announce_deadline = None;
        }
        // Teardown: close subflows once both directions are finished.
        if !self.subflows_closed && self.teardown_ready() {
            self.subflows_closed = true;
            for sf in &mut self.subflows {
                if !sf.conn.is_closed() {
                    sf.conn.close(now);
                }
            }
        }
    }

    fn teardown_ready(&self) -> bool {
        let ours_done = self.fin_queued
            && self.dsn_next == self.snd_buf.end()
            && self.data_ack_in > self.snd_buf.end();
        let theirs_done = self.peer_fin_consumed;
        ours_done && theirs_done
    }

    // ------------------------------------------------------------------
    // Output: decorate subflow segments with DSS
    // ------------------------------------------------------------------

    /// Our current outgoing connection-level cumulative ACK.
    fn data_ack_out(&self) -> u64 {
        let mut v = self.rcv_buf.next_expected();
        if self.peer_fin_consumed {
            v += 1;
        }
        v
    }

    /// True once our DATA_FIN should be announced: stream closed and all
    /// data assigned to subflows.
    fn data_fin_ready(&self) -> bool {
        self.fin_queued && self.dsn_next == self.snd_buf.end()
    }

    /// Earliest timer across subflows (plus the DATA_FIN re-announce
    /// and deferral deadlines).
    pub fn next_timer(&self) -> Option<Time> {
        if self.settled {
            return self.settled_timer;
        }
        self.scan_timers()
    }

    fn scan_timers(&self) -> Option<Time> {
        self.subflows.iter().filter(|s| !s.dead).fold(
            Time::earlier(self.fin_announce_deadline, self.defer_deadline),
            |next, s| Time::earlier(next, s.conn.next_timer()),
        )
    }

    /// Fire due subflow timers.
    pub fn on_timers(&mut self, now: Time) {
        if self.settled && self.settled_timer.is_none_or(|t| t > now) {
            return;
        }
        self.settled = false;
        for sf in &mut self.subflows {
            if !sf.dead {
                sf.conn.on_timers(now);
            }
        }
        self.detect_silent_death(now);
        self.pump_send(now);
    }

    /// Drain decorated outgoing segments — `(local iface, remote addr,
    /// segment)` — into a caller-provided buffer. Each segment is popped
    /// off its subflow's queue, decorated in place and pushed: there is
    /// no intermediate list.
    pub fn take_tx_into(&mut self, now: Time, out: &mut Vec<(Addr, Addr, Segment)>) {
        if self.settled {
            if cfg!(debug_assertions) {
                // Debug builds re-run the drain to hold the claim that
                // it has nothing left to do.
                let before = (out.len(), self.settled_timer);
                self.drain_tx(now, out);
                let after = (out.len(), self.scan_timers());
                assert_eq!(after, before, "a settled connection had output");
            }
            return;
        }
        self.drain_tx(now, out);
    }

    fn drain_tx(&mut self, now: Time, out: &mut Vec<(Addr, Addr, Segment)>) {
        self.pump_send(now);
        let data_ack = self.data_ack_out();
        let fin_ready = self.data_fin_ready();
        let fin_dsn = self.snd_buf.end();
        for idx in 0..self.subflows.len() {
            self.subflows[idx].conn.poll_output(now);
            while let Some(seg) = self.subflows[idx].conn.pop_tx() {
                self.decorate_into(idx, seg, data_ack, fin_ready, fin_dsn, out);
            }
        }
        // Everything above is idempotent at a fixed `now`, so the
        // connection is settled (the teardown below, when it fires, is a
        // touch).
        self.settled = true;
        self.settled_timer = self.scan_timers();
        // Once the FASTCLOSE has left, tear the subflows down locally.
        if self.aborting && !self.aborted && self.subflows.iter().all(|s| !s.pending_fastclose) {
            self.finish_abort(now);
        }
    }

    /// Attach DSS (and pending REMOVE_ADDR / MP_FASTCLOSE) to an outgoing
    /// subflow segment and push it to `out`. A data segment whose payload
    /// one mapping covers — nearly all of them — leaves as the segment it
    /// came in as; only a payload spanning a mapping boundary is split.
    fn decorate_into(
        &mut self,
        sf_idx: usize,
        mut seg: Segment,
        data_ack: u64,
        fin_ready: bool,
        fin_dsn: u64,
        out: &mut Vec<(Addr, Addr, Segment)>,
    ) {
        let (iface, remote) = {
            let sf = &self.subflows[sf_idx];
            (sf.iface, sf.remote_addr)
        };
        // SYN segments carry only handshake options, never DSS.
        if seg.flags.syn {
            out.push((iface, remote, seg));
            return;
        }

        if seg.payload.is_empty() {
            // Option budget: timestamp (10) + up to 2 SACK ranges (18)
            // may already be present; a DSS with DATA_FIN (20) would
            // overflow 40. Degrade gracefully: try the full DSS, then
            // without FIN (it re-announces on the next segment), then
            // shed the advisory SACK blocks.
            let full = MpOption::Dss {
                data_ack,
                map: None,
                fin: fin_ready,
                fin_dsn,
            };
            let mut fin_deferred = false;
            push_if_room(&mut seg, full, || fin_deferred = true);
            if fin_deferred {
                let no_fin = MpOption::Dss {
                    data_ack,
                    map: None,
                    fin: false,
                    fin_dsn: 0,
                };
                let mut still_full = false;
                push_if_room(&mut seg, no_fin.clone(), || still_full = true);
                if still_full {
                    seg.options.retain(|o| !matches!(o, TcpOption::Sack(_)));
                    seg.options.push(no_fin.to_tcp_option());
                }
            }
            self.attach_control(sf_idx, &mut seg);
            out.push((iface, remote, seg));
            return;
        }

        // Data segment: one DSS per mapping the payload touches.
        let base_off = self.subflows[sf_idx].conn.send_stream_off_of_seq(seg.seq);
        let total = seg.payload.len();
        let Some(&entry) = map_at(&self.subflows[sf_idx].tx_maps, base_off) else {
            // A retransmission queued earlier can be overtaken by an
            // ACK (and map pruning) arriving later in the same event
            // batch; the bytes are already acknowledged, so the stale
            // segment is simply dropped.
            return;
        };
        let within = base_off - entry.sf_off;
        if entry.len - within >= total as u64 {
            let dss = self.mint_dss(data_ack, entry.dsn + within, total);
            seg.options.push(dss);
            self.attach_control(sf_idx, &mut seg);
            out.push((iface, remote, seg));
            return;
        }
        // The payload runs past the mapping: split along the boundaries.
        let mut consumed = 0usize;
        while consumed < total {
            let off = base_off + consumed as u64;
            let Some(&entry) = map_at(&self.subflows[sf_idx].tx_maps, off) else {
                break; // stale tail, as above
            };
            let within = off - entry.sf_off;
            let take = ((entry.len - within) as usize).min(total - consumed);
            let last = consumed + take == total;
            let mut piece = Segment {
                payload: seg.payload.slice(consumed..consumed + take),
                seq: seg.seq.wrapping_add(consumed as u32),
                options: seg.options.clone(),
                // PSH and the subflow-level FIN only on the final piece.
                flags: Flags {
                    psh: seg.flags.psh && last,
                    fin: seg.flags.fin && last,
                    ..seg.flags
                },
                ..seg
            };
            let dss = self.mint_dss(data_ack, entry.dsn + within, take);
            piece.options.push(dss);
            if consumed == 0 {
                self.attach_control(sf_idx, &mut piece);
            }
            out.push((iface, remote, piece));
            consumed += take;
        }
    }

    /// The DSS option mapping `len` payload bytes to `dsn`, counted for
    /// (and, when armed, bent by) the double-send fault knob.
    fn mint_dss(&mut self, data_ack: u64, mut dsn: u64, len: usize) -> TcpOption {
        self.dss_maps_emitted += 1;
        if self.test_dss_double_every != 0
            && self
                .dss_maps_emitted
                .is_multiple_of(self.test_dss_double_every)
        {
            // Deliberate fault (see `set_test_dss_double_send`):
            // point the mapping at the range just before its true
            // one, so the payload claims DSNs it does not carry.
            dsn = dsn.saturating_sub(len as u64);
        }
        MpOption::Dss {
            data_ack,
            map: Some(DssMap {
                dsn,
                len: len as u16,
            }),
            fin: false,
            fin_dsn: 0,
        }
        .to_tcp_option()
    }

    /// Let the subflow's pending REMOVE_ADDRs and MP_FASTCLOSE ride out
    /// on `seg`; what does not fit the option budget stays queued, in
    /// order, for the next segment.
    fn attach_control(&mut self, sf_idx: usize, seg: &mut Segment) {
        let sf = &mut self.subflows[sf_idx];
        for addr_id in std::mem::take(&mut sf.pending_remove_addr) {
            push_if_room(seg, MpOption::RemoveAddr { addr_id }, || {
                sf.pending_remove_addr.push(addr_id);
            });
        }
        if sf.pending_fastclose {
            let mut deferred = false;
            push_if_room(seg, MpOption::MpFastclose, || deferred = true);
            sf.pending_fastclose = deferred;
        }
    }
}

/// Append an MPTCP option to a segment only if the 40-byte TCP option
/// budget allows; otherwise run `defer` so the caller re-queues it for
/// the next segment.
fn push_if_room(seg: &mut Segment, opt: MpOption, defer: impl FnOnce()) {
    let tcp_opt = opt.to_tcp_option();
    seg.options.push(tcp_opt);
    let opt_len: usize = seg.wire_len()
        - mpwifi_tcp::segment::IP_OVERHEAD
        - mpwifi_tcp::segment::HEADER_LEN
        - seg.payload.len();
    if opt_len > 40 {
        seg.options.pop();
        defer();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpwifi_tcp::conn::TcpConfig;
    use mpwifi_tcp::segment::SackBlocks;

    fn subflow() -> Subflow {
        let spec = SubflowSpec {
            iface: Addr(1),
            addr_id: 1,
            local_port: 1,
            backup: false,
        };
        let conn = TcpConnection::client(TcpConfig::default(), 1, 2, 0);
        Subflow::new(spec, Addr(10), conn, None)
    }

    fn entry(sf_off: u64, dsn: u64, len: u64) -> MapEntry {
        MapEntry { sf_off, dsn, len }
    }

    #[test]
    fn rx_map_insert_and_lookup() {
        let mut sf = subflow();
        sf.push_rx_map(entry(0, 1000, 1400));
        sf.push_rx_map(entry(1400, 5000, 1400));
        assert_eq!(map_at(&sf.rx_maps, 0).unwrap().dsn, 1000);
        assert_eq!(map_at(&sf.rx_maps, 1399).unwrap().dsn, 1000);
        assert_eq!(map_at(&sf.rx_maps, 1400).unwrap().dsn, 5000);
        assert!(map_at(&sf.rx_maps, 2800).is_none());
    }

    #[test]
    fn rx_map_exact_duplicate_is_noop() {
        let mut sf = subflow();
        sf.push_rx_map(entry(0, 1000, 1400));
        sf.push_rx_map(entry(0, 1000, 1400));
        assert_eq!(sf.rx_maps.len(), 1);
    }

    #[test]
    fn rx_map_partial_overlap_keeps_coverage_consistent() {
        // A retransmitted segment re-announces [700, 2100) after
        // [0, 1400) and [1400, 2800) are already known.
        let mut sf = subflow();
        sf.push_rx_map(entry(0, 1000, 1400));
        sf.push_rx_map(entry(1400, 9000, 1400));
        sf.push_rx_map(entry(700, 1700, 1400)); // 1000+700 .. consistent dsn
                                                // Every offset must resolve, to the original (consistent) dsn.
        for off in [0u64, 699, 700, 1399, 1400, 2799] {
            let e = map_at(&sf.rx_maps, off).unwrap();
            let dsn = e.dsn + (off - e.sf_off);
            let expect = if off < 1400 {
                1000 + off
            } else {
                9000 + (off - 1400)
            };
            assert_eq!(dsn, expect, "offset {off}");
        }
        // And the map stays sorted + non-overlapping.
        for w in sf.rx_maps.windows(2) {
            assert!(w[0].sf_end() <= w[1].sf_off, "overlap: {:?}", sf.rx_maps);
        }
    }

    #[test]
    fn rx_map_fills_gap_between_existing_entries() {
        let mut sf = subflow();
        sf.push_rx_map(entry(0, 100, 500));
        sf.push_rx_map(entry(1000, 2000, 500));
        // Announce a mapping spanning the hole and both neighbours.
        sf.push_rx_map(entry(0, 100, 1500));
        for off in 0..1500u64 {
            assert!(map_at(&sf.rx_maps, off).is_some(), "offset {off} uncovered");
        }
    }

    #[test]
    fn tx_map_coalesces_contiguous_chunks() {
        let mut sf = subflow();
        sf.push_tx_map(entry(0, 0, 1400));
        sf.push_tx_map(entry(1400, 1400, 1400));
        assert_eq!(sf.tx_maps.len(), 1, "contiguous chunks merge");
        sf.push_tx_map(entry(2800, 9000, 1400)); // DSN jump: no merge
        assert_eq!(sf.tx_maps.len(), 2);
        assert_eq!(map_at(&sf.tx_maps, 2000).unwrap().dsn, 0);
        assert_eq!(map_at(&sf.tx_maps, 3000).unwrap().dsn, 9000);
    }

    #[test]
    fn dropped_stale_retransmission_leaves_remove_addr_for_the_next_segment() {
        let cfg = MptcpConfig::default();
        let paths = PathManager::client(&cfg, &[(Addr(1), 1)], Addr(1), &mut 1);
        let mut conn = MptcpConnection::new(cfg, paths, Addr(10), 2, 7);
        conn.subflows.push(subflow());
        conn.subflows[0].pending_remove_addr.push(2);
        let ack = || Segment::control(1, 2, 1, 0, Flags::ACK);
        let mut out = Vec::new();
        // A retransmission whose bytes no mapping covers any more (acked
        // and pruned in the same event batch) is dropped...
        let stale = Segment {
            payload: Bytes::from(vec![0u8; 100]),
            ..ack()
        };
        conn.decorate_into(0, stale, 0, false, 0, &mut out);
        assert!(out.is_empty());
        assert_eq!(conn.subflows[0].pending_remove_addr, [2]);
        // ...and the announcement rides the next segment that does leave.
        conn.decorate_into(0, ack(), 0, false, 0, &mut out);
        assert_eq!(out.len(), 1);
        assert!(mp_options(&out[0].2).any(|o| o == MpOption::RemoveAddr { addr_id: 2 }));
        assert!(conn.subflows[0].pending_remove_addr.is_empty());
    }

    #[test]
    fn a_full_sack_option_and_the_data_ack_share_the_forty_option_bytes() {
        let cfg = MptcpConfig::default();
        let paths = PathManager::client(&cfg, &[(Addr(1), 1)], Addr(1), &mut 1);
        let mut conn = MptcpConnection::new(cfg, paths, Addr(10), 2, 7);
        conn.subflows.push(subflow());
        // The duplicate ACK of a subflow with two holes: the timestamp
        // and as many SACK blocks as its receive buffer reports.
        let blocks: Vec<(u32, u32)> = (1..=mpwifi_tcp::buffer::MAX_SACK_BLOCKS as u32)
            .map(|i| (i * 2800, i * 2800 + 1400))
            .collect();
        let blocks = SackBlocks::from_slice(&blocks).unwrap();
        let ack = Segment {
            options: vec![
                TcpOption::Timestamp { val: 1, ecr: 2 },
                TcpOption::Sack(blocks),
            ],
            ..Segment::control(1, 2, 1, 0, Flags::ACK)
        };
        let mut out = Vec::new();
        conn.decorate_into(0, ack, 5_000, false, 0, &mut out);
        let seg = &out[0].2;
        let option_bytes =
            seg.wire_len() - mpwifi_tcp::segment::IP_OVERHEAD - mpwifi_tcp::segment::HEADER_LEN;
        assert!(option_bytes <= 40, "{option_bytes} option bytes");
        assert!(
            seg.options.contains(&TcpOption::Sack(blocks)),
            "the SACK blocks were shed: {:?}",
            seg.options
        );
        assert!(mp_options(seg).any(|o| matches!(
            o,
            MpOption::Dss {
                data_ack: 5_000,
                ..
            }
        )));
    }

    /// One BLEST deferral episode, run to its deadline, with the client
    /// polled `polls` times per simulated instant: the fast path (10 ms
    /// one way) goes silent as 40 kB are queued, so its window fills,
    /// the scheduler declines the slow path (50 ms one way) and only the
    /// deadline sends there. Returns every `(instant, interface, DSN)`
    /// the client mapped, and the deadline `next_timer` named meanwhile.
    fn deferral_episode(polls: usize) -> (Vec<(Time, Addr, u64)>, Time) {
        use crate::endpoint::{ClientEndpoint, ServerEndpoint};
        const FAST: Addr = Addr(1);
        const SLOW: Addr = Addr(2);
        const SRV: Addr = Addr(10);
        let one_way = |iface| Dur::from_millis(if iface == FAST { 10 } else { 50 });
        let cfg = MptcpConfig {
            sched: SchedKind::Blest,
            ..MptcpConfig::default()
        };
        let mut client = ClientEndpoint::new(SRV, [FAST, SLOW], 7);
        let mut server = ServerEndpoint::new(SRV, 80, cfg.clone(), 13);
        let id = client.open(Time::ZERO, cfg, FAST, 80);
        let (mut now, mut fast_up) = (Time::ZERO, true);
        let mut wire: Vec<(Time, bool, Addr, Segment)> = Vec::new();
        let mut mapped = Vec::new();
        let mut deadline = None;
        let mut tx = Vec::new();
        for _ in 0..200 {
            for _ in 0..polls {
                client.take_tx_into(now, &mut tx);
            }
            for (iface, _, seg) in tx.drain(..) {
                for opt in mp_options(&seg) {
                    if let MpOption::Dss { map: Some(m), .. } = opt {
                        mapped.push((now, iface, m.dsn));
                    }
                }
                wire.push((now + one_way(iface), true, iface, seg));
            }
            server.take_tx_into(now, &mut tx);
            for (_, iface, seg) in tx.drain(..) {
                wire.push((now + one_way(iface), false, iface, seg));
            }
            let conn = client.conn_mut(id);
            if let Some(t) = conn.defer_deadline {
                assert_eq!(conn.next_timer(), Some(t), "the deadline is a timer");
                deadline.get_or_insert(t);
            }
            let measured = conn.subflows.len() == 2 && conn.subflows[1].conn.srtt().is_some();
            if fast_up && measured {
                fast_up = false;
                conn.send(Bytes::from(vec![7u8; 40_000]));
            }
            if mapped.iter().any(|&(_, iface, _)| iface == SLOW) {
                break;
            }
            let arrivals = wire.iter().map(|&(t, ..)| t).min();
            let timers = Time::earlier(client.next_timer(), server.next_timer());
            now = Time::earlier(arrivals, timers).expect("something is pending");
            let (due, rest) = wire.drain(..).partition(|&(t, ..)| t <= now);
            wire = rest;
            for (_, to_server, iface, seg) in due {
                if iface == FAST && !fast_up {
                    continue;
                }
                if to_server {
                    server.on_segment(now, &seg, iface);
                } else {
                    client.on_segment(now, &seg);
                }
            }
            client.on_timers(now);
            server.on_timers(now);
        }
        (mapped, deadline.expect("the scheduler deferred"))
    }

    #[test]
    fn a_deferral_ends_at_its_deadline_however_often_the_connection_is_polled() {
        let (mapped, deadline) = deferral_episode(1);
        // The fast window's worth at one instant, then nothing until the
        // deadline hands the next DSN to the slow path.
        let &(sent_at, iface, dsn) = mapped.last().unwrap();
        assert_eq!((sent_at, iface, dsn), (deadline, Addr(2), 14_000));
        assert!(mapped[..mapped.len() - 1].iter().all(|m| m.1 == Addr(1)));
        for polls in [10, 100] {
            assert_eq!(
                deferral_episode(polls),
                (mapped.clone(), deadline),
                "{polls} polls"
            );
        }
    }

    #[test]
    fn prune_maps_keeps_live_ranges() {
        let mut sf = subflow();
        sf.push_rx_map(entry(0, 0, 1000));
        sf.push_rx_map(entry(1000, 1000, 1000));
        sf.push_tx_map(entry(0, 0, 1000));
        sf.push_tx_map(entry(1000, 5000, 1000));
        sf.prune_maps(1500, 1500);
        assert_eq!(sf.rx_maps.len(), 1);
        assert_eq!(sf.tx_maps.len(), 1);
        assert!(
            map_at(&sf.rx_maps, 1600).is_some(),
            "live range survives pruning"
        );
    }
}
