//! Invariant oracles: in-sim observers that witness every transmitted
//! segment and every completed step.
//!
//! Both checkers share a [`ViolationLog`] with the harness (the sim owns
//! the observer; the harness keeps a handle to read verdicts afterward).
//! Checks are designed to be *sound* against the driver's step
//! structure: segments are generated during frame delivery and timer
//! processing but witnessed at drain time, so any watermark a check
//! compares against is taken from the *previous* step's settled state —
//! a fresh ACK arriving in the same step can never turn legitimate
//! output into a false positive.

use mpwifi_mptcp::options::{mp_options, MpOption};
use mpwifi_mptcp::{SchedKind, SchedProgress};
use mpwifi_netem::Addr;
use mpwifi_sim::{
    Endpoint, MptcpClientHost, MptcpServerHost, Sim, SimObserver, TcpClientHost, TcpServerHost,
    TxHost,
};
use mpwifi_simcore::Time;
use mpwifi_tcp::segment::{Segment, HEADER_LEN, IP_OVERHEAD, MAX_OPTIONS_LEN};
use mpwifi_tcp::stack::SocketId;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

/// Deterministic payload byte at stream offset `off` for a pattern
/// `salt`. Modulus 251 (prime, coprime to every power of two) makes any
/// offset shift detectable: `pattern_byte(s, off + k) !=
/// pattern_byte(s, off)` unless `k` is a multiple of 251.
pub fn pattern_byte(salt: u64, off: u64) -> u8 {
    (((off % 251) * 131 + salt) % 251) as u8
}

/// The first `len` bytes of pattern `salt` (workload payloads).
pub fn pattern_bytes(salt: u64, len: u64) -> Vec<u8> {
    (0..len).map(|off| pattern_byte(salt, off)).collect()
}

/// One invariant violation: when, which invariant, and the evidence.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Simulated time of the observation.
    pub at: Time,
    /// Stable invariant identifier (`tcp-rtx-acked`, `mptcp-dsn-gap`,
    /// `netem-conservation`, ...). Shrinking keys on this.
    pub category: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

/// Cap on stored violations; beyond it only the total is counted. A
/// genuinely broken run can violate on every segment — storing a bounded
/// prefix keeps campaigns cheap while `total` preserves the magnitude.
const LOG_CAP: usize = 40;

#[derive(Debug, Default)]
struct LogInner {
    stored: Vec<Violation>,
    total: u64,
}

/// Shared violation sink: the harness holds one handle, the observer a
/// clone. Single-threaded by construction (one sim per case).
#[derive(Debug, Clone, Default)]
pub struct ViolationLog {
    inner: Rc<RefCell<LogInner>>,
}

impl ViolationLog {
    /// An empty log.
    pub fn new() -> ViolationLog {
        ViolationLog::default()
    }

    /// Record one violation.
    pub fn report(&self, at: Time, category: &'static str, detail: String) {
        let mut inner = self.inner.borrow_mut();
        inner.total += 1;
        if inner.stored.len() < LOG_CAP {
            inner.stored.push(Violation {
                at,
                category,
                detail,
            });
        }
    }

    /// Total violations recorded (including those beyond the cap).
    pub fn total(&self) -> u64 {
        self.inner.borrow().total
    }

    /// True when no violation has been recorded.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }

    /// Copy of the stored violations, in record order.
    pub fn snapshot(&self) -> Vec<Violation> {
        self.inner.borrow().stored.clone()
    }
}

/// Netem conservation: every frame ever offered to a pipeline is
/// accounted for — delivered, dropped by a stage, dropped while the
/// link was down (including the carrier-drop flush), or still inside.
fn check_link_conservation<C: Endpoint, S: Endpoint>(log: &ViolationLog, sim: &Sim<C, S>) {
    for p in (sim.ifaces.iter()).flat_map(|row| [&row.link.up, &row.link.down]) {
        let name = p.label();
        let s = p.stats();
        let settled = s.delivered + s.dropped_in_stages + s.dropped_down + p.backlog() as u64;
        if s.pushed != settled {
            log.report(
                sim.now,
                "netem-conservation",
                format!(
                    "{name}: pushed {} != delivered {} + stage drops {} + down drops {} + backlog {}",
                    s.pushed,
                    s.delivered,
                    s.dropped_in_stages,
                    s.dropped_down,
                    p.backlog()
                ),
            );
        }
    }
}

/// Wire round trip: a frame carries its segment typed and the receiver
/// takes it as sent, so every transmitted segment must be one its own
/// wire image strictly decodes back to — what the receiver would have
/// seen had the bytes been on the path. Also catches an option list too
/// long for the header, which the encoder refuses.
fn check_wire_round_trip(log: &ViolationLog, now: Time, host: TxHost, seg: &Segment) {
    let options = seg.wire_len() - IP_OVERHEAD - HEADER_LEN - seg.payload.len();
    let detail = if options > MAX_OPTIONS_LEN {
        format!("{options} bytes of options do not fit the header")
    } else if Segment::decode(&seg.encode()).as_ref() != Some(seg) {
        "the wire image does not decode to the segment sent".to_string()
    } else {
        return;
    };
    log.report(
        now,
        "wire-round-trip",
        format!(
            "{host:?} {}->{} seq {}: {detail}",
            seg.src_port, seg.dst_port, seg.seq
        ),
    );
}

/// Verify a payload slice against a pattern starting at `off`; report at
/// most one violation per call.
fn check_payload_pattern(
    log: &ViolationLog,
    now: Time,
    category: &'static str,
    salt: u64,
    off: u64,
    payload: &[u8],
    context: &str,
) {
    for (i, &b) in payload.iter().enumerate() {
        let want = pattern_byte(salt, off + i as u64);
        if b != want {
            log.report(
                now,
                category,
                format!(
                    "{context}: byte at stream offset {} is {b:#04x}, pattern says {want:#04x}",
                    off + i as u64
                ),
            );
            return;
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct TcpWatermarks {
    acked: u64,
    sent: u64,
    delivered: u64,
}

/// Sequence-space and conservation oracle for single-path TCP runs.
///
/// Per transmitted payload segment: the carried range must lie within
/// the bytes the sender has marked sent, must not be entirely inside the
/// previous step's cumulative ACK (retransmits carry at least one
/// then-unacked byte), and — when the direction carries a seeded
/// workload — every byte must match the pattern at its stream offset.
/// Per step: clock monotonicity, netem conservation, `snd_una <=
/// snd_nxt`, and monotone acked/sent/delivered watermarks, plus the
/// cross-host bound that no receiver delivers bytes its peer never
/// queued.
#[derive(Debug)]
pub struct TcpConformance {
    log: ViolationLog,
    /// Pattern salt of client-to-server payload (uploads), if seeded.
    up_salt: Option<u64>,
    /// Pattern salt of server-to-client payload (downloads), if seeded.
    down_salt: Option<u64>,
    prev_now: Time,
    /// Previous step's settled counters, keyed by (is_client, socket).
    prev: HashMap<(bool, SocketId), TcpWatermarks>,
}

impl TcpConformance {
    /// Create a checker feeding `log`. Salts enable payload-pattern
    /// verification for the matching direction.
    pub fn new(log: ViolationLog, up_salt: Option<u64>, down_salt: Option<u64>) -> TcpConformance {
        TcpConformance {
            log,
            up_salt,
            down_salt,
            prev_now: Time::ZERO,
            prev: HashMap::new(),
        }
    }
}

impl SimObserver<TcpClientHost, TcpServerHost> for TcpConformance {
    fn on_transmit(
        &mut self,
        now: Time,
        host: TxHost,
        _iface: Addr,
        seg: &Segment,
        sim: &Sim<TcpClientHost, TcpServerHost>,
    ) {
        check_wire_round_trip(&self.log, now, host, seg);
        if seg.payload.is_empty() || seg.flags.syn {
            return;
        }
        let is_client = host == TxHost::Client;
        let id: SocketId = (seg.src_port, seg.dst_port);
        let conn = if is_client {
            sim.client.stack.conn(id)
        } else {
            sim.server.stack.conn(id)
        };
        let Some(conn) = conn else { return };
        let off = conn.send_stream_off_of_seq(seg.seq);
        let len = seg.payload.len() as u64;
        if off + len > conn.sent_bytes() {
            self.log.report(
                now,
                "tcp-tx-beyond",
                format!(
                    "{host:?} {id:?}: transmits [{off}, {}) beyond snd_nxt {}",
                    off + len,
                    conn.sent_bytes()
                ),
            );
        }
        // Compare against the PREVIOUS step's cumulative ACK: any
        // segment generated this step saw snd_una >= that floor, so a
        // range entirely below it can only mean a retransmit of
        // already-acknowledged data.
        let ack_floor = self.prev.get(&(is_client, id)).map_or(0, |w| w.acked);
        if off + len <= ack_floor {
            self.log.report(
                now,
                "tcp-rtx-acked",
                format!(
                    "{host:?} {id:?}: retransmits [{off}, {}) entirely below the acked floor {ack_floor}",
                    off + len
                ),
            );
        }
        let salt = if is_client {
            self.up_salt
        } else {
            self.down_salt
        };
        if let Some(salt) = salt {
            check_payload_pattern(
                &self.log,
                now,
                "tcp-payload",
                salt,
                off,
                &seg.payload,
                &format!("{host:?} {id:?}"),
            );
        }
    }

    fn after_step(&mut self, sim: &Sim<TcpClientHost, TcpServerHost>) {
        let now = sim.now;
        if now < self.prev_now {
            self.log.report(
                now,
                "clock-regress",
                format!("step ended at {now} after {}", self.prev_now),
            );
        }
        self.prev_now = now;
        check_link_conservation(&self.log, sim);
        for (is_client, stack) in [(true, &sim.client.stack), (false, &sim.server.stack)] {
            for id in stack.socket_ids() {
                let Some(conn) = stack.conn(id) else { continue };
                let cur = TcpWatermarks {
                    acked: conn.acked_bytes(),
                    sent: conn.sent_bytes(),
                    delivered: conn.delivered_bytes(),
                };
                if cur.acked > cur.sent {
                    self.log.report(
                        now,
                        "tcp-seq-order",
                        format!("conn {id:?}: snd_una {} > snd_nxt {}", cur.acked, cur.sent),
                    );
                }
                let prev = self.prev.entry((is_client, id)).or_default();
                if cur.acked < prev.acked || cur.sent < prev.sent || cur.delivered < prev.delivered
                {
                    self.log.report(
                        now,
                        "tcp-watermark-regress",
                        format!("conn {id:?}: {prev:?} -> {cur:?}"),
                    );
                }
                *prev = cur;
            }
        }
        // Cross-host: delivered in-order bytes never exceed what the
        // peer's send stream contains (exactly-once, no invention).
        for id in sim.client.stack.socket_ids() {
            let (Some(c), Some(s)) = (
                sim.client.stack.conn(id),
                sim.server.stack.conn((id.1, id.0)),
            ) else {
                continue;
            };
            let server_stream_end = s.sent_bytes() + s.bytes_unsent();
            if c.delivered_bytes() > server_stream_end {
                self.log.report(
                    now,
                    "tcp-deliver-overrun",
                    format!(
                        "client {id:?} delivered {} > server stream end {server_stream_end}",
                        c.delivered_bytes()
                    ),
                );
            }
            let client_stream_end = c.sent_bytes() + c.bytes_unsent();
            if s.delivered_bytes() > client_stream_end {
                self.log.report(
                    now,
                    "tcp-deliver-overrun",
                    format!(
                        "server {:?} delivered {} > client stream end {client_stream_end}",
                        (id.1, id.0),
                        s.delivered_bytes()
                    ),
                );
            }
        }
    }
}

/// Simulated time a scheduler may sit blocked (data queued, an eligible
/// subflow with window room, zero assignment progress) before the
/// `mptcp-sched-wedged` oracle fires. Far above any legitimate pause: a
/// BLEST/ECF deferral ends within one smoothed RTT of the subflow the
/// scheduler declined (`MptcpConnection::pump_send` holds that bound),
/// and generated fault episodes last under three seconds.
const WEDGE_WINDOW_US: u64 = 10_000_000;

/// Bytes a Redundant-scheduler sender must assign while two subflows
/// are eligible before the `mptcp-redundant-no-dup` oracle demands at
/// least one duplicated chunk.
const REDUNDANT_DUP_FLOOR: u64 = 64 * 1024;

/// Per-direction wedge detector state (see `mptcp-sched-wedged`).
#[derive(Debug, Default)]
struct WedgeState {
    last_assigned: u64,
    /// Settled step time at which the current blocked streak began.
    stalled_since: Option<Time>,
    flagged: bool,
}

#[derive(Debug)]
struct SchedWitnessInner {
    sched: SchedKind,
    /// Whether a mapping start was ever seen on a second subflow
    /// (per direction; 0 = client sends).
    saw_dup: [bool; 2],
    /// Bytes assigned while at least two subflows were eligible at the
    /// preceding settled step — the opportunity window in which a
    /// Redundant sender is obliged to duplicate.
    dual_live_assigned: [u64; 2],
    last_assigned: [u64; 2],
    prev_dual_live: [bool; 2],
    /// Final [`SchedProgress`] per direction, refreshed every step.
    last_progress: [Option<SchedProgress>; 2],
}

/// Shared scheduler-oracle state: the harness holds one handle, the
/// MPTCP checker a clone. Per-step evidence accumulates inside the
/// observer; after the run the harness calls [`SchedWitness::finalize`]
/// for the end-of-run obligations (a Redundant sender that never
/// duplicated, a scheduler left permanently blocked).
#[derive(Debug, Clone)]
pub struct SchedWitness {
    inner: Rc<RefCell<SchedWitnessInner>>,
}

impl SchedWitness {
    /// Fresh witness for a run under scheduler `sched`.
    pub fn new(sched: SchedKind) -> SchedWitness {
        SchedWitness {
            inner: Rc::new(RefCell::new(SchedWitnessInner {
                sched,
                saw_dup: [false; 2],
                dual_live_assigned: [0; 2],
                last_assigned: [0; 2],
                prev_dual_live: [false; 2],
                last_progress: [None; 2],
            })),
        }
    }

    /// End-of-run scheduler obligations. Call after the sim loop exits
    /// (deadline or event-queue exhaustion), with the log the checker
    /// fed.
    ///
    /// * `mptcp-redundant-no-dup` — a Redundant sender assigned more
    ///   than `REDUNDANT_DUP_FLOOR` bytes while two subflows were
    ///   eligible, yet no connection-level chunk ever appeared on a
    ///   second subflow.
    /// * `mptcp-sched-wedged` — the run ended with data queued, an
    ///   eligible subflow with room, and nothing in flight anywhere:
    ///   with no future ACK or transmission to re-invoke it, the
    ///   scheduler is blocked forever, not deferring. (The in-flight
    ///   guard keeps a deadline that lands mid-deferral legal.)
    pub fn finalize(&self, log: &ViolationLog, now: Time) {
        let w = self.inner.borrow();
        for (d, name) in [(0usize, "client->server"), (1, "server->client")] {
            if w.sched == SchedKind::Redundant
                && w.dual_live_assigned[d] > REDUNDANT_DUP_FLOOR
                && !w.saw_dup[d]
            {
                log.report(
                    now,
                    "mptcp-redundant-no-dup",
                    format!(
                        "{name}: Redundant scheduler assigned {} bytes while two subflows \
                         were eligible, yet never duplicated a chunk onto a second subflow",
                        w.dual_live_assigned[d]
                    ),
                );
            }
            if let Some(p) = w.last_progress[d] {
                if p.queued > p.assigned && p.eligible_with_room >= 1 && p.in_flight == 0 {
                    log.report(
                        now,
                        "mptcp-sched-wedged",
                        format!(
                            "{name}: run ended with {} of {} bytes assigned, {} eligible \
                             subflow(s) with room, and nothing in flight — the scheduler \
                             is permanently blocked",
                            p.assigned, p.queued, p.eligible_with_room
                        ),
                    );
                }
            }
        }
    }
}

/// Per-direction DSS bookkeeping (0 = client sends, 1 = server sends).
#[derive(Debug, Default)]
struct DirState {
    /// Highest DSN ever covered by a mapping.
    max_dsn_end: u64,
    /// Merged DSN intervals ever covered by a mapping (start → end).
    /// At every settled step the union must be one hole-free interval
    /// starting at 0: a deferral scheduler (BLEST/ECF) may legally mint
    /// chunks to two subflows in one pump and have them drain in
    /// subflow-index order rather than DSN order, so contiguity is a
    /// *step-end* obligation, not a per-transmission one.
    covered: BTreeMap<u64, u64>,
    /// A DSN hole was already reported (report once, not per step).
    gap_flagged: bool,
    /// Highest connection-level data-ACK seen for this direction.
    max_data_ack: u64,
    /// `data_acked()` watermark from two steps ago (promoted through
    /// `ack_floor_next` each step).
    ack_floor: u64,
    ack_floor_next: u64,
    /// `ack_floor` frozen at the first subflow death on this sender's
    /// side. Reinjections are judged against THIS floor, not the live
    /// one: a reinjected chunk is filtered against `data_ack` when the
    /// kill queues it, but it then sits in the target subflow's TCP
    /// send buffer (it already has subflow sequence numbers and cannot
    /// be pulled back) and may drain long after the data-ACK passed it.
    /// Only data acked *before the kill itself* proves the sender's
    /// reinjection filter is broken.
    kill_floor: Option<u64>,
    /// First subflow (port pair) each mapping start was sent on.
    first_sender: HashMap<u64, (u16, u16)>,
    /// Mapping starts seen per subflow (port pair).
    seen_on: HashSet<(u16, u16, u64)>,
}

impl DirState {
    /// Merge `[start, end)` into the covered-interval set.
    fn cover(&mut self, start: u64, end: u64) {
        let (mut s, mut e) = (start, end);
        // Absorb every interval that overlaps or touches [s, e).
        while let Some((&ps, &pe)) = self.covered.range(..=e).next_back() {
            if pe < s {
                break;
            }
            s = s.min(ps);
            e = e.max(pe);
            self.covered.remove(&ps);
        }
        self.covered.insert(s, e);
    }

    /// First DSN hole below the coverage high-water mark, if any.
    /// Touching intervals are merged on insert, so a hole exists exactly
    /// when there is more than one interval or the first starts above 0.
    fn first_hole(&self) -> Option<(u64, u64)> {
        let mut iter = self.covered.iter();
        let (&s0, &e0) = iter.next()?;
        if s0 > 0 {
            return Some((0, s0));
        }
        iter.next().map(|(&s1, _)| (e0, s1))
    }
}

/// Data-sequence-level oracle for MPTCP runs.
///
/// Per transmitted DSS mapping: the mapped length must equal the carried
/// payload, the payload must match the seeded pattern *at its claimed
/// DSN* (the check that catches any mapping that lies about where its
/// bytes belong), the mapped DSN intervals must be hole-free at every
/// settled step, connection-level data-ACKs must be monotone, subflows
/// declared dead must not source new mappings, and reinjections must
/// carry bytes that were still unacknowledged at the subflow death that
/// triggered them. Per step: clock monotonicity,
/// netem conservation, monotone delivered/data-ACK watermarks, and the
/// cross-host bound that delivery never exceeds the peer's queued
/// stream.
#[derive(Debug)]
pub struct MptcpConformance {
    log: ViolationLog,
    up_salt: Option<u64>,
    down_salt: Option<u64>,
    witness: SchedWitness,
    wedge: [WedgeState; 2],
    prev_now: Time,
    dir: [DirState; 2],
    /// Subflows dead as of the previous step's end, keyed by
    /// (is_client, conn index, subflow index). The one-step grace
    /// matters: a kill and the drain of already-queued output happen
    /// within the same step, and that drain is legitimate.
    prev_dead: HashSet<(bool, usize, usize)>,
    /// Previous (delivered, data_acked) per (is_client, conn index).
    prev_conn: HashMap<(bool, usize), (u64, u64)>,
}

impl MptcpConformance {
    /// Create a checker feeding `log`. Salts enable DSS payload-pattern
    /// verification for the matching direction; `witness` (shared with
    /// the harness) accumulates scheduler-obligation evidence for
    /// [`SchedWitness::finalize`].
    pub fn new(
        log: ViolationLog,
        up_salt: Option<u64>,
        down_salt: Option<u64>,
        witness: SchedWitness,
    ) -> MptcpConformance {
        MptcpConformance {
            log,
            up_salt,
            down_salt,
            witness,
            wedge: [WedgeState::default(), WedgeState::default()],
            prev_now: Time::ZERO,
            dir: [DirState::default(), DirState::default()],
            prev_dead: HashSet::new(),
            prev_conn: HashMap::new(),
        }
    }

    /// Locate the (conn index, subflow index) a segment belongs to.
    fn route(
        sim: &Sim<MptcpClientHost, MptcpServerHost>,
        is_client: bool,
        seg: &Segment,
    ) -> Option<(usize, usize)> {
        let n = if is_client {
            sim.client.len()
        } else {
            sim.server.len()
        };
        for cid in 0..n {
            let sf = if is_client {
                sim.client.conn(cid).route_ports(seg.src_port, seg.dst_port)
            } else {
                sim.server.conn(cid).route_ports(seg.src_port, seg.dst_port)
            };
            if let Some(sf) = sf {
                return Some((cid, sf));
            }
        }
        None
    }
}

impl SimObserver<MptcpClientHost, MptcpServerHost> for MptcpConformance {
    fn on_transmit(
        &mut self,
        now: Time,
        host: TxHost,
        _iface: Addr,
        seg: &Segment,
        sim: &Sim<MptcpClientHost, MptcpServerHost>,
    ) {
        check_wire_round_trip(&self.log, now, host, seg);
        let is_client = host == TxHost::Client;
        let d = if is_client { 0 } else { 1 };
        let Some((cid, sf)) = Self::route(sim, is_client, seg) else {
            return;
        };
        for opt in mp_options(seg) {
            let MpOption::Dss { data_ack, map, .. } = opt else {
                continue;
            };
            // The data-ACK acknowledges the PEER's stream.
            let ack_dir = 1 - d;
            if data_ack < self.dir[ack_dir].max_data_ack {
                self.log.report(
                    now,
                    "mptcp-data-ack-regress",
                    format!(
                        "{host:?} data_ack {data_ack} < previously announced {}",
                        self.dir[ack_dir].max_data_ack
                    ),
                );
            }
            self.dir[ack_dir].max_data_ack = self.dir[ack_dir].max_data_ack.max(data_ack);
            let Some(m) = map else { continue };
            let dsn_end = m.dsn + u64::from(m.len);
            if usize::from(m.len) != seg.payload.len() {
                self.log.report(
                    now,
                    "mptcp-dss-len",
                    format!(
                        "{host:?}: mapping length {} != payload length {}",
                        m.len,
                        seg.payload.len()
                    ),
                );
            }
            let salt = if is_client {
                self.up_salt
            } else {
                self.down_salt
            };
            if let Some(salt) = salt {
                check_payload_pattern(
                    &self.log,
                    now,
                    "mptcp-dss-payload",
                    salt,
                    m.dsn,
                    &seg.payload,
                    &format!("{host:?} subflow {sf} DSS mapping"),
                );
            }
            let st = &mut self.dir[d];
            st.cover(m.dsn, dsn_end);
            st.max_dsn_end = st.max_dsn_end.max(dsn_end);
            let ports = (seg.src_port, seg.dst_port);
            let new_on_subflow = st.seen_on.insert((ports.0, ports.1, m.dsn));
            if new_on_subflow && self.prev_dead.contains(&(is_client, cid, sf)) {
                self.log.report(
                    now,
                    "mptcp-dead-send",
                    format!(
                        "{host:?} subflow {sf} (declared dead) sources new mapping at DSN {}",
                        m.dsn
                    ),
                );
            }
            match st.first_sender.get(&m.dsn) {
                None => {
                    st.first_sender.insert(m.dsn, ports);
                }
                Some(&first) if first != ports => {
                    // Dup or reinjection either way — the Redundant
                    // obligation (some chunk appears on a second
                    // subflow) is met.
                    self.witness.inner.borrow_mut().saw_dup[d] = true;
                    // A reinjection: the same connection-level bytes on a
                    // different subflow. It must carry at least one byte
                    // that was unacknowledged when the subflow death that
                    // triggered reinjection happened (a `None` floor means
                    // the kill and this drain share a step — trivially
                    // legal). A Redundant sender is exempt: it duplicates
                    // every chunk by design, so a copy queued while the
                    // chunk was unacked may legally drain after both an
                    // intervening data-ACK and a later subflow death —
                    // the wire cannot distinguish that copy from a broken
                    // reinjection filter.
                    let redundant = self.witness.inner.borrow().sched == SchedKind::Redundant;
                    if let Some(kf) = st.kill_floor.filter(|_| !redundant) {
                        if dsn_end <= kf {
                            self.log.report(
                                now,
                                "mptcp-reinject-acked",
                                format!(
                                    "{host:?}: reinjects [{}, {dsn_end}) entirely below the \
                                     data-ACK floor {kf} recorded at subflow death",
                                    m.dsn
                                ),
                            );
                        }
                    }
                }
                Some(_) => {} // subflow-level retransmit: always legal
            }
        }
    }

    fn after_step(&mut self, sim: &Sim<MptcpClientHost, MptcpServerHost>) {
        let now = sim.now;
        if now < self.prev_now {
            self.log.report(
                now,
                "clock-regress",
                format!("step ended at {now} after {}", self.prev_now),
            );
        }
        self.prev_now = now;
        check_link_conservation(&self.log, sim);
        // DSN coverage: a chunk minted to a second subflow in the same
        // pump may drain after a higher-DSN chunk within one step, but a
        // hole that survives to a settled step means the sender skipped
        // data-sequence space for good.
        for (d, name) in [(0usize, "client->server"), (1, "server->client")] {
            let st = &mut self.dir[d];
            if !st.gap_flagged {
                if let Some((hs, he)) = st.first_hole() {
                    st.gap_flagged = true;
                    self.log.report(
                        now,
                        "mptcp-dsn-gap",
                        format!(
                            "{name}: DSN range [{hs}, {he}) was never mapped although \
                             transmissions reached {}",
                            st.max_dsn_end
                        ),
                    );
                }
            }
        }
        for (is_client, n) in [(true, sim.client.len()), (false, sim.server.len())] {
            for cid in 0..n {
                let conn = if is_client {
                    sim.client.conn(cid)
                } else {
                    sim.server.conn(cid)
                };
                let cur = (conn.delivered_bytes(), conn.data_acked());
                let prev = self.prev_conn.entry((is_client, cid)).or_default();
                if cur.0 < prev.0 || cur.1 < prev.1 {
                    self.log.report(
                        now,
                        "mptcp-watermark-regress",
                        format!(
                            "{} conn {cid}: (delivered, data_acked) {prev:?} -> {cur:?}",
                            if is_client { "client" } else { "server" }
                        ),
                    );
                }
                *prev = cur;
            }
        }
        // Cross-host delivery bounds (connections pair up in accept
        // order; conformance scenarios open exactly one).
        for cid in 0..sim.client.len().min(sim.server.len()) {
            let c = sim.client.conn(cid);
            let s = sim.server.conn(cid);
            if c.delivered_bytes() > s.bytes_queued() {
                self.log.report(
                    now,
                    "mptcp-deliver-overrun",
                    format!(
                        "client conn {cid} delivered {} > server queued {}",
                        c.delivered_bytes(),
                        s.bytes_queued()
                    ),
                );
            }
            if s.delivered_bytes() > c.bytes_queued() {
                self.log.report(
                    now,
                    "mptcp-deliver-overrun",
                    format!(
                        "server conn {cid} delivered {} > client queued {}",
                        s.delivered_bytes(),
                        c.bytes_queued()
                    ),
                );
            }
        }
        // Scheduler-progress tracking: feed the shared witness (dup
        // opportunity accounting, final progress snapshot) and run the
        // in-flight wedge detector. Direction 0 is the client's send
        // side; conformance scenarios open exactly one connection.
        for d in 0..2usize {
            let prog = if d == 0 {
                (!sim.client.is_empty()).then(|| sim.client.conn(0).sched_progress())
            } else {
                (!sim.server.is_empty()).then(|| sim.server.conn(0).sched_progress())
            };
            let Some(prog) = prog else { continue };
            {
                let mut w = self.witness.inner.borrow_mut();
                if w.prev_dual_live[d] {
                    let delta = prog.assigned.saturating_sub(w.last_assigned[d]);
                    w.dual_live_assigned[d] += delta;
                }
                w.last_assigned[d] = prog.assigned;
                // Two *eligible* subflows — established, alive, not
                // backup-suppressed — are the duplication opportunity.
                // (Not `eligible_with_room`: pump_send drains window
                // room to zero within the very step that opens it, so
                // at settled steps a busy sender never shows two open
                // windows — that predicate would never arm.)
                w.prev_dual_live[d] = prog.eligible >= 2;
                w.last_progress[d] = Some(prog);
            }
            // Wedged while traffic still flows: data queued, room
            // available, yet assignment has not advanced for a long
            // stretch of simulated time. Any legitimate pause (bounded
            // deferral, recovery, fault episode) resolves well inside
            // the window.
            let ws = &mut self.wedge[d];
            let blocked = prog.queued > prog.assigned && prog.eligible_with_room >= 1;
            if prog.assigned > ws.last_assigned || !blocked {
                ws.stalled_since = None;
            } else {
                let since = *ws.stalled_since.get_or_insert(now);
                if !ws.flagged
                    && now.as_micros().saturating_sub(since.as_micros()) >= WEDGE_WINDOW_US
                {
                    self.log.report(
                        now,
                        "mptcp-sched-wedged",
                        format!(
                            "{}: {} of {} bytes assigned with {} eligible subflow(s) with \
                             room, no scheduling progress for over {} ms",
                            if d == 0 {
                                "client->server"
                            } else {
                                "server->client"
                            },
                            prog.assigned,
                            prog.queued,
                            prog.eligible_with_room,
                            WEDGE_WINDOW_US / 1_000
                        ),
                    );
                    ws.flagged = true;
                }
            }
            ws.last_assigned = prog.assigned;
        }
        // Detect fresh subflow deaths and freeze each direction's
        // reinjection floor at its FIRST death (see
        // `DirState::kill_floor`); the frozen value is the
        // pre-promotion (two-steps-lagged) floor, a safe lower bound on
        // the `data_ack` the sender's reinjection filter ran against.
        let mut cur_dead = HashSet::new();
        for (is_client, n) in [(true, sim.client.len()), (false, sim.server.len())] {
            for cid in 0..n {
                let stats = if is_client {
                    sim.client.conn(cid).subflow_stats()
                } else {
                    sim.server.conn(cid).subflow_stats()
                };
                for (sf, st) in stats.iter().enumerate() {
                    if st.dead {
                        cur_dead.insert((is_client, cid, sf));
                    }
                }
            }
        }
        for &(is_client, _, _) in cur_dead.difference(&self.prev_dead) {
            let d = usize::from(!is_client);
            if self.dir[d].kill_floor.is_none() {
                self.dir[d].kill_floor = Some(self.dir[d].ack_floor);
            }
        }
        // Promote the data-ACK floors (two-step delay) and refresh the
        // dead-subflow snapshot for the next step's checks.
        if !sim.client.is_empty() {
            self.dir[0].ack_floor = self.dir[0].ack_floor_next;
            self.dir[0].ack_floor_next = sim.client.conn(0).data_acked();
        }
        if !sim.server.is_empty() {
            self.dir[1].ack_floor = self.dir[1].ack_floor_next;
            self.dir[1].ack_floor_next = sim.server.conn(0).data_acked();
        }
        self.prev_dead = cur_dead;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mpwifi_tcp::segment::{Flags, TcpOption};

    #[test]
    fn wire_round_trip_flags_what_the_wire_would_change() {
        let log = ViolationLog::new();
        let with = |options| Segment {
            options,
            payload: Bytes::from_static(b"data"),
            ..Segment::control(443, 50000, 7, 9, Flags::ACK)
        };
        let sent = with(vec![
            TcpOption::Timestamp { val: 1, ecr: 2 },
            TcpOption::Sack(vec![(10, 20), (30, 40)]),
        ]);
        check_wire_round_trip(&log, Time::ZERO, TxHost::Server, &sent);
        assert!(log.is_clean(), "{:?}", log.snapshot());
        // A raw option spelled with a known kind decodes as that option.
        let respelled = with(vec![TcpOption::Raw {
            kind: 2,
            data: Bytes::from_static(&[5, 220]),
        }]);
        check_wire_round_trip(&log, Time::ZERO, TxHost::Client, &respelled);
        // Five SACK blocks are 42 bytes: no header has room for them.
        let overlong = with(vec![TcpOption::Sack(vec![(1, 2); 5])]);
        check_wire_round_trip(&log, Time::ZERO, TxHost::Client, &overlong);
        let cats: Vec<_> = log.snapshot().iter().map(|v| v.category).collect();
        assert_eq!(cats, ["wire-round-trip"; 2]);
    }

    #[test]
    fn pattern_detects_offset_shifts() {
        let salt = 17;
        for shift in [1u64, 100, 1400, 250, 252] {
            assert_ne!(
                pattern_byte(salt, 5000),
                pattern_byte(salt, 5000 + shift),
                "shift {shift} must change the byte"
            );
        }
        // The only undetectable shift period is 251 itself.
        assert_eq!(pattern_byte(salt, 5000), pattern_byte(salt, 5000 + 251));
    }

    #[test]
    fn log_caps_storage_but_counts_all() {
        let log = ViolationLog::new();
        for i in 0..100 {
            log.report(Time::from_millis(i), "x", String::new());
        }
        assert_eq!(log.total(), 100);
        assert_eq!(log.snapshot().len(), LOG_CAP);
        assert!(!log.is_clean());
    }
}
