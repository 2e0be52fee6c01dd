//! The TCP connection state machine.
//!
//! One [`TcpConnection`] is one end of one TCP connection. It is driven
//! entirely from outside: the owner feeds it decoded segments
//! ([`TcpConnection::on_segment`]), fires its timers
//! ([`TcpConnection::on_timers`]) and drains outgoing segments
//! ([`TcpConnection::take_tx`]). No I/O, no clocks, no randomness inside —
//! which is what makes the whole simulator deterministic and lets
//! `mpwifi-mptcp` reuse this machine unchanged for each subflow.
//!
//! Internally all stream positions are unwrapped `u64` offsets; 32-bit
//! sequence numbers exist only at the segment boundary.

use crate::buffer::{RecvBuffer, SendBuffer};
use crate::cc::{self, Cwnd, Loss};
use crate::rtt::RttEstimator;
use crate::segment::{Flags, SackBlocks, Segment, TcpOption};
use bytes::Bytes;
use mpwifi_simcore::{Dur, Time};
use std::collections::VecDeque;

/// Connection states (RFC 793).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Passive open; waiting for a SYN.
    Listen,
    /// Active open; SYN sent.
    SynSent,
    /// SYN received, SYN-ACK sent.
    SynRcvd,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, not yet ACKed.
    FinWait1,
    /// Our FIN ACKed; waiting for the peer's FIN.
    FinWait2,
    /// Peer closed first; waiting for our close.
    CloseWait,
    /// Simultaneous close; FINs crossed.
    Closing,
    /// Our FIN sent after peer's; waiting for its ACK.
    LastAck,
    /// Both sides done; draining stray segments.
    TimeWait,
    /// Fully closed.
    Closed,
}

/// Tuning knobs. Defaults mirror the Ubuntu 13.10 stack the paper used
/// where that matters to the findings (IW10, 200 ms min RTO, CUBIC).
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes).
    pub mss: usize,
    /// Receive buffer capacity (drives the advertised window).
    pub recv_buf: usize,
    /// Initial congestion window, in segments.
    pub init_cwnd_segs: u64,
    /// Delayed-ACK enabled (ack every second segment, or after
    /// [`crate::DELACK_TIMEOUT`]).
    pub delayed_ack: bool,
    /// Minimum retransmission timeout.
    pub min_rto: Dur,
    /// Maximum retransmission timeout.
    pub max_rto: Dur,
    /// Give up after this many consecutive retransmissions.
    pub max_retries: u32,
    /// Growth rule of the congestion window [`TcpConnection::client`] and
    /// [`TcpConnection::server`] build ([`TcpConnection::new`] is handed
    /// its window and does not read this).
    pub cc: cc::CcKind,
    /// TIME_WAIT linger. Kept short by default so simulations end promptly;
    /// the value does not affect any measured quantity.
    pub time_wait: Dur,
    /// Nagle's algorithm (off: mobile apps overwhelmingly set NODELAY).
    pub nagle: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: crate::DEFAULT_MSS,
            recv_buf: 4 << 20,
            init_cwnd_segs: 10,
            delayed_ack: true,
            min_rto: Dur::from_millis(200),
            max_rto: Dur::from_secs(60),
            max_retries: 12,
            cc: cc::CcKind::Cubic,
            time_wait: Dur::from_millis(500),
            nagle: false,
        }
    }
}

/// Lifetime counters and timeline markers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnStats {
    /// First SYN transmitted or received.
    pub opened_at: Option<Time>,
    /// Handshake completed.
    pub established_at: Option<Time>,
    /// Reached `Closed`.
    pub closed_at: Option<Time>,
    /// Segments transmitted (including retransmissions).
    pub segs_sent: u64,
    /// Segments received and accepted.
    pub segs_rcvd: u64,
    /// Payload bytes transmitted (including retransmissions).
    pub bytes_sent: u64,
    /// Retransmitted segments (fast + timeout).
    pub retransmits: u64,
    /// Fast-retransmit events.
    pub fast_retransmits: u64,
    /// Retransmission timeouts fired.
    pub rtos: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AckNeed {
    None,
    Delayed,
    Now,
}

/// One end of a TCP connection. See the module docs for the driving
/// contract.
#[derive(Debug)]
pub struct TcpConnection {
    cfg: TcpConfig,
    state: TcpState,
    local_port: u16,
    remote_port: u16,

    // ---- send side ----
    iss: u32,
    snd_buf: SendBuffer,
    /// Highest cumulatively ACKed stream offset.
    snd_una: u64,
    /// Next new stream offset to transmit.
    snd_nxt: u64,
    /// Peer's advertised window, bytes.
    snd_wnd: u64,
    peer_wscale: u8,
    wscale_ok: bool,
    peer_mss: usize,
    fin_queued: bool,
    fin_sent: bool,
    fin_acked: bool,

    // ---- reliability ----
    rtx_deadline: Option<Time>,
    retries: u32,
    dupacks: u32,
    /// The loss under repair, if any: entered on the third duplicate ACK
    /// or a timeout, over when `recover` is cumulatively ACKed.
    recovery: Option<Loss>,
    /// `snd_nxt` as it stood when `recovery` was entered.
    recover: u64,
    /// The scoreboard: SACKed `[start, end)` stream ranges above
    /// `snd_una`, ascending, no two touching. Kept across a timeout
    /// (RFC 6675 §5.1): the receive buffer never drops what it reported.
    sacked: Vec<(u64, u64)>,
    /// Every presumed-lost byte below this has been retransmitted in the
    /// current recovery; repair only moves forward from here.
    recovery_rtx_next: u64,

    // ---- receive side ----
    irs: u32,
    rcv_buf: RecvBuffer,
    /// Stream offset at which the peer's FIN sits, once seen.
    rcv_fin_off: Option<u64>,
    fin_consumed: bool,

    // ---- ACK generation ----
    ack_need: AckNeed,
    delack_deadline: Option<Time>,
    segs_since_ack: u32,

    // ---- timestamps ----
    ts_recent: u32,

    // ---- timers ----
    timewait_deadline: Option<Time>,
    probe_deadline: Option<Time>,
    probe_backoff: u32,

    // ---- machinery ----
    cc: Cwnd,
    rtt: RttEstimator,
    tx: VecDeque<Segment>,
    /// Extra options attached to our SYN / SYN-ACK (MPTCP handshake).
    handshake_options: Vec<TcpOption>,
    stats: ConnStats,
    error: Option<&'static str>,
    syn_sent_at: Option<Time>,
    /// Nothing has touched this connection since its output engine last
    /// ran to completion. The engine is idempotent — a second pass over
    /// an unchanged connection emits nothing and arms nothing — so while
    /// this holds `poll_output` returns at once and `next_timer` answers
    /// from `settled_timer`. It is cleared by every entry point that can
    /// change what the engine would do: `open`, `send`, `close`, `abort`,
    /// `request_ack`, a read that reopens the window, `on_segment`, and
    /// an `on_timers` that fires. A new `&mut self` entry point must
    /// clear it too, or a host's next poll skips what it changed. A host
    /// skips a connection nothing touched on the strength of this flag
    /// (`crate::touched`), and an MPTCP connection polls every subflow
    /// each drain: this is what makes both exact and free.
    settled: bool,
    /// [`TcpConnection::next_timer`] as of settling.
    settled_timer: Option<Time>,
}

impl TcpConnection {
    /// Create the active-opening end. Call [`TcpConnection::open`] to send
    /// the SYN.
    pub fn client(cfg: TcpConfig, local_port: u16, remote_port: u16, iss: u32) -> TcpConnection {
        let cc = Cwnd::new(cfg.mss, cfg.init_cwnd_segs, cfg.cc.rule());
        Self::new(cfg, TcpState::Closed, local_port, remote_port, iss, cc)
    }

    /// Create the passive-opening end; feed it the incoming SYN via
    /// [`TcpConnection::on_segment`].
    pub fn server(cfg: TcpConfig, local_port: u16, remote_port: u16, iss: u32) -> TcpConnection {
        let cc = Cwnd::new(cfg.mss, cfg.init_cwnd_segs, cfg.cc.rule());
        Self::new(cfg, TcpState::Listen, local_port, remote_port, iss, cc)
    }

    /// Either end — `state` is [`TcpState::Closed`] for the active opener
    /// and [`TcpState::Listen`] for the passive one — running the
    /// congestion window `cc` (an MPTCP subflow brings its connection's).
    pub fn new(
        cfg: TcpConfig,
        state: TcpState,
        local_port: u16,
        remote_port: u16,
        iss: u32,
        cc: Cwnd,
    ) -> TcpConnection {
        let rtt = RttEstimator::new(cfg.min_rto, cfg.max_rto);
        let rcv_buf = RecvBuffer::new(cfg.recv_buf);
        TcpConnection {
            state,
            local_port,
            remote_port,
            iss,
            snd_buf: SendBuffer::new(),
            snd_una: 0,
            snd_nxt: 0,
            snd_wnd: u64::from(u16::MAX),
            peer_wscale: 0,
            wscale_ok: false,
            peer_mss: cfg.mss,
            fin_queued: false,
            fin_sent: false,
            fin_acked: false,
            rtx_deadline: None,
            retries: 0,
            dupacks: 0,
            recovery: None,
            recover: 0,
            sacked: Vec::new(),
            recovery_rtx_next: 0,
            irs: 0,
            rcv_buf,
            rcv_fin_off: None,
            fin_consumed: false,
            ack_need: AckNeed::None,
            delack_deadline: None,
            segs_since_ack: 0,
            ts_recent: 0,
            timewait_deadline: None,
            probe_deadline: None,
            probe_backoff: 0,
            cc,
            rtt,
            tx: VecDeque::new(),
            handshake_options: Vec::new(),
            stats: ConnStats::default(),
            error: None,
            syn_sent_at: None,
            settled: false,
            settled_timer: None,
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Public API: control
    // ------------------------------------------------------------------

    /// Send the SYN (client side).
    pub fn open(&mut self, now: Time) {
        assert_eq!(self.state, TcpState::Closed, "open() on a used connection");
        self.settled = false;
        self.state = TcpState::SynSent;
        self.stats.opened_at = Some(now);
        self.syn_sent_at = Some(now);
        self.emit_syn(now, false);
        self.arm_rtx(now);
    }

    /// Queue application data for transmission.
    pub fn send(&mut self, data: Bytes) {
        assert!(!self.fin_queued, "send() after close()");
        self.settled = false;
        self.snd_buf.append(data);
    }

    /// Close our direction once all queued data is sent.
    pub fn close(&mut self, _now: Time) {
        self.settled = false;
        self.fin_queued = true;
    }

    /// Abort immediately with a RST.
    pub fn abort(&mut self, now: Time) {
        self.settled = false;
        if !matches!(self.state, TcpState::Closed | TcpState::Listen) {
            let seg = Segment::control(
                self.local_port,
                self.remote_port,
                self.seq_of_send_off(self.snd_nxt),
                0,
                Flags::RST,
            );
            self.push_tx(seg);
        }
        self.enter_closed(now, Some("aborted"));
    }

    // ------------------------------------------------------------------
    // Public API: queries
    // ------------------------------------------------------------------

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// True once the three-way handshake has completed.
    pub fn is_established(&self) -> bool {
        self.stats.established_at.is_some()
    }

    /// True when the connection has fully terminated.
    pub fn is_closed(&self) -> bool {
        self.state == TcpState::Closed
    }

    /// Settled with an empty queue: nothing has touched the connection
    /// since its output engine last ran and its segments were drained,
    /// so another drain would hand over nothing and arm nothing.
    pub fn is_settled(&self) -> bool {
        self.settled && self.tx.is_empty()
    }

    /// Terminal error, if the connection died abnormally.
    pub fn error(&self) -> Option<&'static str> {
        self.error
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &ConnStats {
        &self.stats
    }

    /// Local port.
    pub fn local_port(&self) -> u16 {
        self.local_port
    }

    /// Remote port.
    pub fn remote_port(&self) -> u16 {
        self.remote_port
    }

    /// Cumulatively ACKed stream bytes (sender progress).
    pub fn acked_bytes(&self) -> u64 {
        self.snd_una
    }

    /// Stream bytes transmitted at least once (`snd_nxt`). Together with
    /// [`TcpConnection::acked_bytes`] this exposes the fundamental
    /// sequence-space invariant `snd_una <= snd_nxt` to external
    /// checkers without risking the underflow that computing
    /// `in_flight()` on a violating connection would hit.
    pub fn sent_bytes(&self) -> u64 {
        self.snd_nxt
    }

    /// In-order stream bytes delivered to the application (receiver
    /// progress).
    pub fn delivered_bytes(&self) -> u64 {
        self.rcv_buf.delivered_bytes()
    }

    /// Bytes written but not yet transmitted for the first time.
    pub fn bytes_unsent(&self) -> u64 {
        self.snd_buf.end() - self.snd_nxt
    }

    /// Bytes in flight (transmitted, not yet ACKed).
    pub fn in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Congestion window (bytes).
    pub fn cwnd(&self) -> u64 {
        self.cc.cwnd()
    }

    /// The peer's advertised receive window (bytes).
    pub fn send_window(&self) -> u64 {
        self.snd_wnd
    }

    /// Smoothed RTT, once measured.
    pub fn srtt(&self) -> Option<Dur> {
        self.rtt.srtt()
    }

    /// The peer has closed its direction and we consumed its FIN.
    pub fn peer_fin_received(&self) -> bool {
        self.fin_consumed
    }

    /// Consecutive retransmissions since the last forward progress.
    /// The MPTCP layer uses this to detect silently dead subflows.
    pub fn consecutive_retries(&self) -> u32 {
        self.retries
    }

    /// Request that a pure ACK be emitted at the next output pass
    /// (used by the MPTCP layer to carry urgent control options).
    pub fn request_ack(&mut self) {
        if !matches!(
            self.state,
            TcpState::Closed | TcpState::Listen | TcpState::SynSent
        ) {
            self.settled = false;
            self.ack_need = AckNeed::Now;
        }
    }

    /// True if our FIN has been sent and cumulatively acknowledged.
    pub fn fin_acked(&self) -> bool {
        self.fin_acked
    }

    /// Drain in-order received data. If the advertised window had
    /// collapsed under unread data, reading schedules a window-update
    /// ACK so the peer resumes without waiting for a probe.
    pub fn take_delivered(&mut self) -> Vec<Bytes> {
        self.read_with(RecvBuffer::take_delivered)
    }

    /// [`TcpConnection::take_delivered`] appending to a caller-owned
    /// buffer.
    pub fn take_delivered_into(&mut self, out: &mut Vec<Bytes>) {
        self.read_with(|buf| buf.take_delivered_into(out));
    }

    /// Read and drop everything delivered so far (an application that
    /// only counts bytes).
    pub fn discard_delivered(&mut self) {
        self.read_with(RecvBuffer::discard_delivered);
    }

    /// One application read, however it consumes the receive buffer.
    fn read_with<R>(&mut self, read: impl FnOnce(&mut RecvBuffer) -> R) -> R {
        let was_tight = self.rcv_buf.window_available() < self.cfg.mss;
        let out = read(&mut self.rcv_buf);
        if was_tight
            && self.rcv_buf.window_available() >= self.cfg.mss
            && !matches!(
                self.state,
                TcpState::Closed | TcpState::Listen | TcpState::SynSent
            )
        {
            self.settled = false;
            self.ack_need = AckNeed::Now;
        }
        out
    }

    /// Attach extra options to our SYN or SYN-ACK (MPTCP handshake).
    pub fn set_handshake_options(&mut self, opts: Vec<TcpOption>) {
        self.handshake_options = opts;
    }

    /// Map an outgoing segment's sequence number to the *send-stream*
    /// offset of its first payload byte. Used by the MPTCP layer to attach
    /// DSS mappings.
    pub fn send_stream_off_of_seq(&self, seq_num: u32) -> u64 {
        let rel = seq_num.wrapping_sub(self.iss.wrapping_add(1));
        unwrap_near(rel, self.snd_una)
    }

    /// Map an incoming segment's sequence number to the *receive-stream*
    /// offset of its first payload byte.
    pub fn recv_stream_off_of_seq(&self, seq_num: u32) -> u64 {
        let rel = seq_num.wrapping_sub(self.irs.wrapping_add(1));
        unwrap_near(rel, self.rcv_buf.next_expected())
    }

    // ------------------------------------------------------------------
    // Public API: driving
    // ------------------------------------------------------------------

    /// The earliest pending timer deadline, if any.
    pub fn next_timer(&self) -> Option<Time> {
        if self.settled {
            debug_assert_eq!(self.settled_timer, self.scan_timers(), "stale horizon");
            return self.settled_timer;
        }
        self.scan_timers()
    }

    fn scan_timers(&self) -> Option<Time> {
        Time::earlier(
            Time::earlier(self.rtx_deadline, self.delack_deadline),
            Time::earlier(self.timewait_deadline, self.probe_deadline),
        )
    }

    /// Fire any timers due at `now`; with none due, return at once.
    pub fn on_timers(&mut self, now: Time) {
        if self.next_timer().is_none_or(|t| t > now) {
            return;
        }
        self.settled = false;
        if self.timewait_deadline.is_some_and(|t| t <= now) {
            self.timewait_deadline = None;
            self.enter_closed(now, None);
            return;
        }
        if self.delack_deadline.is_some_and(|t| t <= now) {
            self.delack_deadline = None;
            if self.ack_need != AckNeed::None {
                self.ack_need = AckNeed::Now;
            }
        }
        if self.rtx_deadline.is_some_and(|t| t <= now) {
            self.rtx_deadline = None;
            self.on_rto(now);
        }
        if self.probe_deadline.is_some_and(|t| t <= now) {
            self.probe_deadline = None;
            self.on_probe(now);
        }
        self.poll_output(now);
    }

    /// Process one received segment.
    pub fn on_segment(&mut self, now: Time, seg: &Segment) {
        if self.state == TcpState::Closed {
            return;
        }
        self.settled = false;
        self.stats.segs_rcvd += 1;
        if seg.flags.rst {
            // RFC 5961-style validation: a RST is honored only when its
            // sequence number falls in the receive window; a blind RST
            // with an arbitrary seq must not kill the connection.
            let acceptable = match self.state {
                TcpState::SynSent => seg.flags.ack && seg.ack == self.iss.wrapping_add(1),
                TcpState::Listen | TcpState::Closed => false,
                _ => {
                    let off = self.recv_stream_off_of_seq(seg.seq);
                    let next = self.rcv_buf.next_expected();
                    off >= next.saturating_sub(1)
                        && off <= next + self.rcv_buf.window_available() as u64
                }
            };
            if acceptable {
                self.enter_closed(now, Some("connection reset"));
            }
            return;
        }

        match self.state {
            TcpState::Listen => self.handle_listen(now, seg),
            TcpState::SynSent => self.handle_syn_sent(now, seg),
            _ => self.handle_synchronized(now, seg),
        }
        self.poll_output(now);
    }

    /// Drain outgoing segments, generating pending output first.
    pub fn take_tx(&mut self, now: Time) -> Vec<Segment> {
        let mut out = Vec::new();
        self.take_tx_into(now, &mut out);
        out
    }

    /// Allocation-free [`TcpConnection::take_tx`]: drain outgoing
    /// segments into a caller-provided sink (the per-step driver path).
    /// A `Vec<Segment>` is a sink; a host that addresses segments on the
    /// way out passes its own [`Extend`] so each segment moves once from
    /// this queue to the driver's buffer. An empty queue builds no drain.
    pub fn take_tx_into<E: Extend<Segment>>(&mut self, now: Time, out: &mut E) {
        self.poll_output(now);
        if self.tx.is_empty() {
            return;
        }
        self.stats.segs_sent += self.tx.len() as u64;
        out.extend(self.tx.drain(..));
    }

    /// Hand over the oldest queued outgoing segment.
    pub fn pop_tx(&mut self) -> Option<Segment> {
        let seg = self.tx.pop_front()?;
        self.stats.segs_sent += 1;
        Some(seg)
    }

    // ------------------------------------------------------------------
    // State handlers
    // ------------------------------------------------------------------

    fn handle_listen(&mut self, now: Time, seg: &Segment) {
        if !seg.flags.syn || seg.flags.ack {
            return; // not a connection attempt
        }
        self.irs = seg.seq;
        self.stats.opened_at = Some(now);
        self.parse_syn_options(seg);
        self.update_snd_wnd(seg, true);
        if let Some((val, _)) = seg.timestamp() {
            self.ts_recent = val;
        }
        self.state = TcpState::SynRcvd;
        self.syn_sent_at = Some(now);
        self.emit_syn(now, true);
        self.arm_rtx(now);
    }

    fn handle_syn_sent(&mut self, now: Time, seg: &Segment) {
        if !(seg.flags.syn && seg.flags.ack) {
            return;
        }
        if seg.ack != self.iss.wrapping_add(1) {
            return; // bogus ACK
        }
        self.irs = seg.seq;
        self.parse_syn_options(seg);
        self.update_snd_wnd(seg, true);
        if let Some((val, _)) = seg.timestamp() {
            self.ts_recent = val;
        }
        if let Some(sent) = self.syn_sent_at {
            self.rtt
                .sample(now.saturating_since(sent).max(Dur::from_micros(1)));
        }
        self.establish(now);
        self.rtx_deadline = None;
        self.retries = 0;
        self.ack_need = AckNeed::Now;
    }

    fn handle_synchronized(&mut self, now: Time, seg: &Segment) {
        // Retransmitted SYN-ACK while we are established: our ACK was lost.
        if seg.flags.syn {
            self.ack_need = AckNeed::Now;
            return;
        }

        // Timestamp bookkeeping: remember the newest in-window value for
        // echoing.
        if let Some((val, _)) = seg.timestamp() {
            let off = self.recv_stream_off_of_seq(seg.seq);
            if off <= self.rcv_buf.next_expected() {
                self.ts_recent = val;
            }
        }

        if seg.flags.ack {
            self.process_ack(now, seg);
        }

        if !seg.payload.is_empty() {
            self.process_payload(now, seg);
        }

        if seg.flags.fin {
            self.process_fin(now, seg);
        }
    }

    fn process_ack(&mut self, now: Time, seg: &Segment) {
        // SYN-RCVD: the handshake-completing ACK.
        if self.state == TcpState::SynRcvd {
            if seg.ack == self.iss.wrapping_add(1) {
                if let Some(sent) = self.syn_sent_at {
                    self.rtt
                        .sample(now.saturating_since(sent).max(Dur::from_micros(1)));
                }
                self.establish(now);
                self.rtx_deadline = None;
                self.retries = 0;
            } else {
                return;
            }
        }

        let ack_off = self.ack_offset(seg.ack);
        let send_space_end = self.snd_buf.end() + u64::from(self.fin_sent);
        if ack_off > send_space_end {
            return; // ACK for data never sent
        }

        self.update_snd_wnd(seg, false);

        // Record SACK blocks before anything else so recovery decisions
        // see them.
        for opt in &seg.options {
            if let TcpOption::Sack(ranges) = opt {
                for &(a, b) in ranges.iter() {
                    let start = self.send_stream_off_of_seq(a);
                    self.record_sack(start, self.send_stream_off_of_seq(b));
                }
            }
        }

        if ack_off > self.snd_una {
            let newly = ack_off - self.snd_una;
            // RTT via timestamp echo (Karn-safe: the echo carries the
            // original transmit time of the segment that triggered it).
            if let Some((_, ecr)) = seg.timestamp() {
                if ecr != 0 {
                    let rtt_us = (now.as_micros() as u32).wrapping_sub(ecr);
                    if rtt_us < 10_000_000 {
                        self.rtt
                            .sample(Dur::from_micros(u64::from(rtt_us)).max(Dur::from_micros(1)));
                    }
                }
            }
            // The FIN occupies one unit of sequence space past the data;
            // clamp stream-offset state to the data range.
            self.snd_una = ack_off.min(self.snd_buf.end());
            self.snd_buf.advance_to(self.snd_una);
            if self.fin_sent && ack_off == send_space_end {
                self.fin_acked = true;
            }
            self.retries = 0;
            self.dupacks = 0;
            self.sacked.retain(|&(_, b)| b > self.snd_una);

            // The window stands still through fast recovery, the ACK
            // that ends it included; a timeout's repair is slow start.
            if self.recovery != Some(Loss::FastRecovery) {
                self.cc.on_ack(now, newly, self.rtt.srtt());
            }
            if ack_off >= self.recover {
                self.recovery = None;
            }

            if self.in_flight() > 0 || (self.fin_sent && !self.fin_acked) {
                self.arm_rtx(now);
            } else {
                self.rtx_deadline = None;
            }
            self.advance_close_states(now);
        } else if ack_off == self.snd_una
            && seg.payload.is_empty()
            && !seg.flags.fin
            && self.in_flight() > 0
        {
            // Duplicate ACK. The third opens fast recovery; inside an
            // episode of either kind the scoreboard alone steers repair.
            self.dupacks += 1;
            if self.dupacks == 3 && self.recovery.is_none() {
                self.recovery = Some(Loss::FastRecovery);
                self.recover = self.snd_nxt;
                self.recovery_rtx_next = self.snd_una;
                self.cc.on_enter_recovery(self.in_flight());
                self.stats.fast_retransmits += 1;
            }
        }

        // Zero-window probing.
        if self.snd_wnd == 0 && self.has_data_to_send() {
            if self.probe_deadline.is_none() {
                self.probe_backoff = 0;
                self.probe_deadline = Some(now + self.rtt.rto());
            }
        } else {
            self.probe_deadline = None;
        }
    }

    fn process_payload(&mut self, now: Time, seg: &Segment) {
        if !matches!(
            self.state,
            TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2
        ) {
            // Data after the peer's FIN or during teardown: just re-ACK.
            self.ack_need = AckNeed::Now;
            return;
        }
        let off = self.recv_stream_off_of_seq(seg.seq);
        let before = self.rcv_buf.next_expected();
        let newly = self.rcv_buf.insert(off, seg.payload.clone());
        let in_order_advance = self.rcv_buf.next_expected() > before;

        // A FIN recorded earlier may have been waiting for exactly this
        // data to fill the gap in front of it.
        self.try_consume_fin(now);

        if newly == 0 || !in_order_advance || self.rcv_buf.has_holes() {
            // Out-of-order, duplicate, or hole still open: immediate
            // (duplicate) ACK to drive fast retransmit at the sender.
            self.ack_need = AckNeed::Now;
        } else if self.cfg.delayed_ack {
            self.segs_since_ack += 1;
            if self.segs_since_ack >= 2 {
                self.ack_need = AckNeed::Now;
            } else if self.ack_need == AckNeed::None {
                self.ack_need = AckNeed::Delayed;
                self.delack_deadline = Some(now + crate::DELACK_TIMEOUT);
            }
        } else {
            self.ack_need = AckNeed::Now;
        }
    }

    fn process_fin(&mut self, now: Time, seg: &Segment) {
        let fin_off = self.recv_stream_off_of_seq(seg.seq) + seg.payload.len() as u64;
        self.rcv_fin_off = Some(fin_off);
        self.try_consume_fin(now);
        self.ack_need = AckNeed::Now;
    }

    fn try_consume_fin(&mut self, now: Time) {
        let Some(fin_off) = self.rcv_fin_off else {
            return;
        };
        if self.fin_consumed || self.rcv_buf.next_expected() != fin_off {
            return; // data before the FIN still missing
        }
        self.fin_consumed = true;
        self.ack_need = AckNeed::Now;
        match self.state {
            TcpState::Established => self.state = TcpState::CloseWait,
            TcpState::FinWait1 => {
                if self.fin_acked {
                    self.enter_time_wait(now);
                } else {
                    self.state = TcpState::Closing;
                }
            }
            TcpState::FinWait2 => self.enter_time_wait(now),
            _ => {}
        }
    }

    fn advance_close_states(&mut self, now: Time) {
        if !self.fin_acked {
            return;
        }
        match self.state {
            TcpState::FinWait1 => {
                self.state = TcpState::FinWait2;
                // The peer's FIN may already be buffered.
                self.try_consume_fin(now);
            }
            TcpState::Closing => self.enter_time_wait(now),
            TcpState::LastAck => self.enter_closed(now, None),
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn on_rto(&mut self, now: Time) {
        match self.state {
            TcpState::SynSent | TcpState::SynRcvd => {
                self.retries += 1;
                if self.retries > self.cfg.max_retries {
                    self.enter_closed(now, Some("connection timed out (SYN)"));
                    return;
                }
                self.rtt.backoff();
                self.emit_syn(now, self.state == TcpState::SynRcvd);
                self.arm_rtx(now);
            }
            TcpState::Closed | TcpState::Listen | TcpState::TimeWait => {}
            _ => {
                if self.in_flight() == 0 && (!self.fin_sent || self.fin_acked) {
                    return; // spurious
                }
                self.retries += 1;
                if self.retries > self.cfg.max_retries {
                    self.enter_closed(now, Some("connection timed out (retransmission)"));
                    return;
                }
                self.stats.rtos += 1;
                self.cc.on_rto(self.in_flight());
                self.rtt.backoff();
                self.dupacks = 0;
                // Everything un-SACKed below snd_nxt is presumed lost
                // and repaired from the front, ack-clocked, under the
                // collapsed window.
                self.recovery = Some(Loss::Timeout);
                self.recover = self.snd_nxt;
                self.recovery_rtx_next = self.snd_una;
                if self.fin_sent && !self.fin_acked && self.snd_una >= self.snd_buf.end() {
                    // Only the FIN is outstanding: resend it.
                    self.note_retransmit();
                    self.emit_fin(now);
                }
                self.arm_rtx(now);
            }
        }
    }

    fn on_probe(&mut self, now: Time) {
        if self.snd_wnd > 0 || !self.has_data_to_send() {
            return;
        }
        // Send a one-byte window probe. If everything transmitted so far
        // is ACKed, the probe carries the *next new* byte and must
        // advance snd_nxt (otherwise an ACK of the probe would push
        // snd_una past snd_nxt); if data is outstanding, re-probe with
        // the first unacked byte.
        let off = if self.snd_nxt == self.snd_una && self.snd_nxt < self.snd_buf.end() {
            let off = self.snd_nxt;
            self.snd_nxt += 1;
            off
        } else {
            self.snd_una
        };
        if off < self.snd_buf.end() {
            let payload = self.snd_buf.slice(off, 1);
            let seg = self.build_data_segment(now, off, payload, false);
            self.push_tx(seg);
            self.arm_rtx_if_unarmed(now);
        }
        self.probe_backoff = (self.probe_backoff + 1).min(10);
        let wait = self
            .rtt
            .rto()
            .saturating_mul(1 << self.probe_backoff.min(6));
        self.probe_deadline = Some(now + wait.min(self.cfg.max_rto));
    }

    // ------------------------------------------------------------------
    // Output engine
    // ------------------------------------------------------------------

    /// Run the output engine: queue whatever the connection can send
    /// now (retransmissions, new data in window, a FIN, an owed ACK).
    /// [`TcpConnection::take_tx_into`] does this first; an owner that
    /// rewrites each segment as it leaves calls it and then drains with
    /// [`TcpConnection::pop_tx`]. A connection nothing has touched since
    /// the last pass is settled: the pass would emit nothing and arm
    /// nothing, so it returns at once.
    pub fn poll_output(&mut self, now: Time) {
        if self.settled {
            if cfg!(debug_assertions) {
                // Debug builds re-run the engine to hold the claim above.
                let before = (self.tx.len(), self.settled_timer);
                self.run_output(now);
                let after = (self.tx.len(), self.scan_timers());
                assert_eq!(after, before, "a settled connection had output");
            }
            return;
        }
        self.run_output(now);
        self.settled = true;
        self.settled_timer = self.scan_timers();
    }

    fn run_output(&mut self, now: Time) {
        // 1. Data, repairs before new, while the pipe has room.
        if matches!(
            self.state,
            TcpState::Established
                | TcpState::CloseWait
                | TcpState::FinWait1
                | TcpState::Closing
                | TcpState::LastAck
        ) {
            self.output_data(now);
        }

        // 2. FIN once everything has been transmitted.
        if self.fin_queued
            && !self.fin_sent
            && self.snd_nxt == self.snd_buf.end()
            && matches!(
                self.state,
                TcpState::Established | TcpState::CloseWait | TcpState::SynRcvd
            )
        {
            self.fin_sent = true;
            self.state = match self.state {
                TcpState::CloseWait => TcpState::LastAck,
                _ => TcpState::FinWait1,
            };
            self.emit_fin(now);
            self.arm_rtx(now);
        }

        // 3. A pure ACK if still owed.
        if self.ack_need == AckNeed::Now {
            let seg = self.build_ack_segment(now);
            self.push_tx(seg);
        }
    }

    /// The one send loop: while the pipe holds less than the congestion
    /// window, the next presumed-lost hole goes out, and when there is
    /// none, new data within the peer's receive window.
    fn output_data(&mut self, now: Time) {
        // A zero window learned at the handshake (before any ACK carried
        // data) must still arm the persist timer, or queued data waits
        // forever for a peer that has nothing to say.
        if self.snd_wnd == 0 && self.snd_buf.end() > self.snd_nxt && self.probe_deadline.is_none() {
            self.probe_deadline = Some(now + self.rtt.rto());
        }
        let mss = self.cfg.effective_mss(self.peer_mss) as u64;
        let cwnd = self.cc.cwnd();
        let mut pipe = self.pipe();
        loop {
            // The segment at snd_una, once presumed lost, goes out
            // whatever the pipe holds: the fast retransmit, and the
            // retransmission a timeout owes (RFC 6675 §5, step 4.3).
            let hole = self
                .next_hole()
                .filter(|&(off, _)| pipe < cwnd || off == self.snd_una);
            let (off, len) = if let Some((off, len)) = hole {
                self.recovery_rtx_next = off + len;
                self.note_retransmit();
                (off, len)
            } else {
                let in_flight = self.in_flight();
                let len = (self.snd_buf.end() - self.snd_nxt)
                    .min(mss)
                    .min(cwnd.saturating_sub(pipe))
                    .min(self.snd_wnd.saturating_sub(in_flight));
                // No room, nothing queued, or Nagle holding a small
                // segment while data is in flight.
                if len == 0 || (self.cfg.nagle && len < mss && in_flight > 0) {
                    break;
                }
                let off = self.snd_nxt;
                self.snd_nxt += len;
                (off, len)
            };
            let payload = self.snd_buf.slice(off, len as usize);
            let push = off + len == self.snd_buf.end();
            let seg = self.build_data_segment(now, off, payload, push);
            self.push_tx(seg);
            self.arm_rtx_if_unarmed(now);
            pipe += len;
        }
    }

    fn emit_syn(&mut self, now: Time, syn_ack: bool) {
        let mut seg = Segment::control(
            self.local_port,
            self.remote_port,
            self.iss,
            if syn_ack { self.rcv_ack_seq() } else { 0 },
            if syn_ack { Flags::SYN_ACK } else { Flags::SYN },
        );
        seg.window = self.rcv_buf.window_available().min(65_535) as u16;
        seg.options = vec![
            TcpOption::Mss(self.cfg.mss as u16),
            TcpOption::WindowScale(crate::WSCALE),
            TcpOption::SackPermitted,
            self.ts_option(now),
        ];
        seg.options.extend(self.handshake_options.iter().cloned());
        self.push_tx(seg);
    }

    fn emit_fin(&mut self, now: Time) {
        let mut seg = Segment::control(
            self.local_port,
            self.remote_port,
            self.seq_of_send_off(self.snd_buf.end()),
            self.rcv_ack_seq(),
            Flags::FIN_ACK,
        );
        seg.window = self.window_field();
        seg.options = vec![self.ts_option(now)];
        self.clear_ack_state();
        self.push_tx(seg);
    }

    fn build_data_segment(&mut self, now: Time, off: u64, payload: Bytes, push: bool) -> Segment {
        self.stats.bytes_sent += payload.len() as u64;
        self.clear_ack_state();
        Segment {
            src_port: self.local_port,
            dst_port: self.remote_port,
            seq: self.seq_of_send_off(off),
            ack: self.rcv_ack_seq(),
            flags: Flags {
                psh: push,
                ..Flags::ACK
            },
            window: self.window_field(),
            options: self.data_path_options(now),
            payload,
        }
    }

    /// The option list of a data segment: the timestamp, with room for
    /// the DSS an MPTCP owner appends so its push does not reallocate.
    fn data_path_options(&self, now: Time) -> Vec<TcpOption> {
        let mut options = Vec::with_capacity(2);
        options.push(self.ts_option(now));
        options
    }

    fn build_ack_segment(&mut self, now: Time) -> Segment {
        let mut seg = Segment::control(
            self.local_port,
            self.remote_port,
            self.seq_of_send_off(self.snd_nxt),
            self.rcv_ack_seq(),
            Flags::ACK,
        );
        seg.window = self.window_field();
        // Room for the timestamp, a SACK option and the DSS an MPTCP
        // owner appends, so neither push reallocates.
        seg.options = Vec::with_capacity(3);
        seg.options.push(self.ts_option(now));
        let blocks = self.rcv_buf.sack_blocks();
        if !blocks.is_empty() {
            let base = self.irs.wrapping_add(1);
            let wire = |off: u64| base.wrapping_add(off as u32);
            let mut ranges = SackBlocks::default();
            for &(a, b) in blocks {
                ranges.push((wire(a), wire(b)));
            }
            seg.options.push(TcpOption::Sack(ranges));
        }
        self.clear_ack_state();
        seg
    }

    fn clear_ack_state(&mut self) {
        self.ack_need = AckNeed::None;
        self.segs_since_ack = 0;
        self.delack_deadline = None;
    }

    fn push_tx(&mut self, seg: Segment) {
        self.tx.push_back(seg);
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn establish(&mut self, now: Time) {
        if self.stats.established_at.is_none() {
            self.stats.established_at = Some(now);
        }
        self.state = TcpState::Established;
    }

    fn enter_time_wait(&mut self, now: Time) {
        self.state = TcpState::TimeWait;
        self.rtx_deadline = None;
        self.timewait_deadline = Some(now + self.cfg.time_wait);
    }

    fn enter_closed(&mut self, now: Time, error: Option<&'static str>) {
        if self.state != TcpState::Closed {
            self.stats.closed_at = Some(now);
        }
        self.state = TcpState::Closed;
        self.error = self.error.or(error);
        self.rtx_deadline = None;
        self.delack_deadline = None;
        self.probe_deadline = None;
        self.timewait_deadline = None;
    }

    /// Count a retransmission in both the per-connection stats and the
    /// per-thread run instrumentation.
    fn note_retransmit(&mut self) {
        self.stats.retransmits += 1;
        mpwifi_simcore::metrics::count(|m| m.tcp_retransmits += 1);
    }

    fn arm_rtx(&mut self, now: Time) {
        self.rtx_deadline = Some(now + self.rtt.rto());
    }

    fn arm_rtx_if_unarmed(&mut self, now: Time) {
        if self.rtx_deadline.is_none() {
            self.arm_rtx(now);
        }
    }

    /// Record a SACKed stream range, merging it into the scoreboard in
    /// place with every range it overlaps or abuts.
    fn record_sack(&mut self, start: u64, end: u64) {
        let (start, end) = (start.max(self.snd_una), end.min(self.snd_nxt));
        if end <= start {
            return;
        }
        let first = self.sacked.partition_point(|&(_, b)| b < start);
        let past = self.sacked.partition_point(|&(a, _)| a <= end);
        if first == past {
            self.sacked.insert(first, (start, end));
        } else {
            let merged = (
                start.min(self.sacked[first].0),
                end.max(self.sacked[past - 1].1),
            );
            self.sacked[first] = merged;
            self.sacked.drain(first + 1..past);
        }
    }

    /// Un-SACKed bytes of `[from, to)`.
    fn unsacked(&self, from: u64, to: u64) -> u64 {
        let sacked: u64 = self
            .sacked
            .iter()
            .map(|&(a, b)| b.min(to).saturating_sub(a.max(from)))
            .sum();
        to.saturating_sub(from) - sacked
    }

    /// Un-SACKed data below this offset is presumed lost: in fast
    /// recovery everything under the highest SACKed byte (with nothing
    /// SACKed, the one segment at `snd_una`); after a timeout everything
    /// sent before the timer fired; otherwise nothing.
    fn lost_below(&self) -> u64 {
        match self.recovery {
            None => self.snd_una,
            Some(Loss::Timeout) => self.recover,
            Some(Loss::FastRecovery) => {
                let mss = self.cfg.effective_mss(self.peer_mss) as u64;
                // `recover` is a segment boundary above `snd_una`: past
                // it lies data sent since, which nothing has reported on.
                let head = (self.snd_una + mss).min(self.recover);
                self.sacked.last().map_or(head, |&(_, b)| b)
            }
        }
    }

    /// Bytes the sender believes are in the network (RFC 6675's `pipe`):
    /// what is neither SACKed nor presumed lost, plus what was presumed
    /// lost and has been retransmitted.
    pub fn pipe(&self) -> u64 {
        let unrepaired = self.unsacked(self.recovery_rtx_next.max(self.snd_una), self.lost_below());
        self.unsacked(self.snd_una, self.snd_nxt) - unrepaired
    }

    /// The next presumed-lost range to retransmit, `(offset, length)` of
    /// at most one segment: forward only from `recovery_rtx_next`, so no
    /// byte is repaired twice in one recovery.
    fn next_hole(&self) -> Option<(u64, u64)> {
        let mss = self.cfg.effective_mss(self.peer_mss) as u64;
        let mut off = self.recovery_rtx_next.max(self.snd_una);
        let first_above = self.sacked.partition_point(|&(_, b)| b <= off);
        let mut above = self.sacked[first_above..].iter().peekable();
        if let Some(&(_, b)) = above.next_if(|&&(a, _)| a <= off) {
            off = b;
        }
        let lost = self.lost_below();
        let bound = above.next().map_or(lost, |&(a, _)| a.min(lost));
        (off < bound).then(|| (off, mss.min(bound - off)))
    }

    fn has_data_to_send(&self) -> bool {
        self.snd_buf.end() > self.snd_una
    }

    fn update_snd_wnd(&mut self, seg: &Segment, is_syn: bool) {
        let shift = if is_syn || !self.wscale_ok {
            0
        } else {
            u32::from(self.peer_wscale)
        };
        self.snd_wnd = u64::from(seg.window) << shift;
    }

    fn parse_syn_options(&mut self, seg: &Segment) {
        for opt in &seg.options {
            match opt {
                TcpOption::Mss(mss) => self.peer_mss = *mss as usize,
                TcpOption::WindowScale(shift) => {
                    self.peer_wscale = *shift;
                    self.wscale_ok = true;
                }
                _ => {}
            }
        }
    }

    fn ts_option(&self, now: Time) -> TcpOption {
        TcpOption::Timestamp {
            val: now.as_micros() as u32,
            ecr: self.ts_recent,
        }
    }

    /// The ACK number we currently owe the peer.
    fn rcv_ack_seq(&self) -> u32 {
        let mut off = self.rcv_buf.next_expected();
        if self.fin_consumed {
            off += 1;
        }
        if self.stats.opened_at.is_none() && self.irs == 0 {
            return 0;
        }
        // Stream offsets stay far below 2^32 in any scenario here; the
        // truncating cast is the standard unwrapped-to-wire conversion.
        self.irs.wrapping_add(1).wrapping_add(off as u32)
    }

    fn window_field(&self) -> u16 {
        let avail = self.rcv_buf.window_available() as u64;
        let shifted = avail >> crate::WSCALE;
        shifted.min(u64::from(u16::MAX)) as u16
    }

    /// Sequence number of send-stream offset `off`.
    fn seq_of_send_off(&self, off: u64) -> u32 {
        self.iss.wrapping_add(1).wrapping_add(off as u32)
    }

    /// Unwrap an ACK number into send-stream offset space.
    /// `ack` acknowledges everything below it; offset 0 == iss+1.
    fn ack_offset(&self, ack: u32) -> u64 {
        let rel = ack.wrapping_sub(self.iss.wrapping_add(1));
        unwrap_near(rel, self.snd_una)
    }
}

impl TcpConfig {
    /// MSS actually used: the smaller of ours and the peer's.
    pub fn effective_mss(&self, peer_mss: usize) -> usize {
        self.mss.min(peer_mss)
    }
}

/// Find the u64 congruent to `rel` (mod 2^32) closest to `near`.
fn unwrap_near(rel: u32, near: u64) -> u64 {
    let rel = u64::from(rel);
    let base = near & !0xFFFF_FFFFu64;
    let mut best = base | rel;
    let mut best_dist = best.abs_diff(near);
    for cb in [base.checked_sub(1 << 32), base.checked_add(1 << 32)]
        .into_iter()
        .flatten()
    {
        let cand = cb | rel;
        let d = cand.abs_diff(near);
        if d < best_dist {
            best = cand;
            best_dist = d;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_near_basic() {
        assert_eq!(unwrap_near(5, 0), 5);
        assert_eq!(unwrap_near(5, 100), 5);
        // Near the wrap boundary: rel wrapped past 2^32.
        let near = (1u64 << 32) - 10;
        assert_eq!(unwrap_near(3, near), (1 << 32) + 3);
        // Behind the boundary.
        assert_eq!(unwrap_near(u32::MAX - 2, 1 << 32), (1u64 << 32) - 3);
    }

    #[test]
    fn config_defaults_sane() {
        let cfg = TcpConfig::default();
        assert_eq!(cfg.mss, crate::DEFAULT_MSS);
        assert_eq!(cfg.init_cwnd_segs, 10);
        assert!(cfg.delayed_ack);
        assert_eq!(cfg.effective_mss(1000), 1000);
        assert_eq!(cfg.effective_mss(9000), crate::DEFAULT_MSS);
    }

    #[test]
    fn open_emits_syn_with_options() {
        let mut c = TcpConnection::client(TcpConfig::default(), 1000, 80, 42);
        c.open(Time::ZERO);
        let tx = c.take_tx(Time::ZERO);
        assert_eq!(tx.len(), 1);
        let syn = &tx[0];
        assert!(syn.flags.syn && !syn.flags.ack);
        assert_eq!(syn.seq, 42);
        assert!(syn.options.iter().any(|o| matches!(o, TcpOption::Mss(_))));
        assert!(syn
            .options
            .iter()
            .any(|o| matches!(o, TcpOption::WindowScale(_))));
        assert_eq!(c.state(), TcpState::SynSent);
    }

    #[test]
    fn syn_retransmission_and_give_up() {
        let cfg = TcpConfig {
            max_retries: 2,
            ..TcpConfig::default()
        };
        let mut c = TcpConnection::client(cfg, 1, 2, 0);
        c.open(Time::ZERO);
        let _ = c.take_tx(Time::ZERO);
        let mut now;
        let mut syn_count = 0;
        for _ in 0..10 {
            let Some(t) = c.next_timer() else { break };
            now = t;
            c.on_timers(now);
            syn_count += c.take_tx(now).iter().filter(|s| s.flags.syn).count();
        }
        assert_eq!(syn_count, 2, "two retries then give up");
        assert!(c.is_closed());
        assert!(c.error().unwrap().contains("timed out"));
    }

    /// Drive a client to ESTABLISHED by hand-feeding the SYN-ACK.
    fn established_client(cfg: TcpConfig) -> TcpConnection {
        let mut c = TcpConnection::client(cfg, 1000, 80, 5_000);
        c.open(Time::ZERO);
        let _ = c.take_tx(Time::ZERO);
        let mut synack = Segment::control(80, 1000, 77_000, 5_001, Flags::SYN_ACK);
        synack.window = u16::MAX;
        synack.options = vec![
            TcpOption::Mss(1400),
            TcpOption::WindowScale(8),
            TcpOption::Timestamp { val: 1, ecr: 0 },
        ];
        c.on_segment(Time::from_millis(20), &synack);
        assert!(c.is_established());
        let _ = c.take_tx(Time::from_millis(20)); // the third ACK
        c
    }

    #[test]
    fn a_settled_connections_delayed_ack_fires_at_its_instant() {
        // One small in-order segment from the peer arms the delayed ACK;
        // the drain after it settles the connection with nothing to send.
        let mut c = established_client(TcpConfig::default());
        let mut seg = Segment::control(80, 1000, 77_001, 5_001, Flags::ACK);
        seg.window = u16::MAX;
        seg.payload = Bytes::from_static(&[4u8; 100]);
        seg.options = vec![TcpOption::Timestamp { val: 3, ecr: 0 }];
        let at = Time::from_millis(30);
        c.on_segment(at, &seg);
        assert!(c.take_tx(at).is_empty(), "the ACK waits for its timer");
        let due = at + crate::DELACK_TIMEOUT;
        assert_eq!(c.next_timer(), Some(due));
        let early = due - Dur::from_nanos(1);
        c.on_timers(early);
        assert!(c.take_tx(early).is_empty(), "ACK before its instant");
        assert_eq!(c.next_timer(), Some(due));
        c.on_timers(due);
        let tx = c.take_tx(due);
        assert_eq!(tx.len(), 1, "one delayed ACK at its instant");
        assert!(tx[0].flags.ack && tx[0].payload.is_empty());
        assert_eq!(c.next_timer(), None);
    }

    #[test]
    fn nagle_holds_sub_mss_segment_while_data_unacked() {
        for (nagle, expect_second_segment) in [(true, false), (false, true)] {
            let mut c = established_client(TcpConfig {
                nagle,
                ..TcpConfig::default()
            });
            c.send(Bytes::from_static(&[1u8; 100]));
            let tx = c.take_tx(Time::from_millis(21));
            assert_eq!(tx.iter().filter(|s| !s.payload.is_empty()).count(), 1);
            // A later small write while the first is still unacked.
            c.send(Bytes::from_static(&[2u8; 50]));
            let tx2 = c.take_tx(Time::from_millis(25));
            let sent_data = tx2.iter().any(|s| !s.payload.is_empty());
            assert_eq!(
                sent_data, expect_second_segment,
                "nagle={nagle}: second sub-MSS segment while unacked"
            );
        }
    }

    #[test]
    fn nagle_releases_on_ack() {
        let mut c = established_client(TcpConfig {
            nagle: true,
            ..TcpConfig::default()
        });
        c.send(Bytes::from_static(&[1u8; 100]));
        let tx = c.take_tx(Time::from_millis(21));
        let first = tx.iter().find(|s| !s.payload.is_empty()).unwrap().clone();
        c.send(Bytes::from_static(&[2u8; 50]));
        assert!(c
            .take_tx(Time::from_millis(25))
            .iter()
            .all(|s| s.payload.is_empty()));
        // ACK the first segment: the held write must flush.
        let mut ack = Segment::control(
            80,
            1000,
            77_001,
            first.seq.wrapping_add(first.payload.len() as u32),
            Flags::ACK,
        );
        ack.window = u16::MAX;
        ack.options = vec![TcpOption::Timestamp { val: 2, ecr: 0 }];
        c.on_segment(Time::from_millis(60), &ack);
        let tx2 = c.take_tx(Time::from_millis(60));
        assert!(
            tx2.iter().any(|s| s.payload.len() == 50),
            "held segment must flush on ACK"
        );
    }

    #[test]
    fn full_mss_segment_ignores_nagle() {
        let mut c = established_client(TcpConfig {
            nagle: true,
            ..TcpConfig::default()
        });
        c.send(Bytes::from_static(&[1u8; 100]));
        let _ = c.take_tx(Time::from_millis(21));
        // A full-MSS write goes out immediately despite unacked data.
        c.send(Bytes::from(vec![3u8; 1400]));
        let tx = c.take_tx(Time::from_millis(25));
        assert!(tx.iter().any(|s| s.payload.len() == 1400));
    }

    #[test]
    fn rst_closes_immediately_with_error() {
        let mut c = established_client(TcpConfig::default());
        c.send(Bytes::from_static(&[1u8; 100]));
        let _ = c.take_tx(Time::from_millis(21));
        let rst = Segment::control(80, 1000, 77_001, 0, Flags::RST);
        c.on_segment(Time::from_millis(30), &rst);
        assert!(c.is_closed());
        assert_eq!(c.error(), Some("connection reset"));
        assert!(c.next_timer().is_none(), "all timers cancelled");
    }

    #[test]
    fn blind_rst_with_out_of_window_seq_is_ignored() {
        let mut c = established_client(TcpConfig::default());
        // Attacker RST with a far-out-of-window sequence number.
        let blind = Segment::control(80, 1000, 77_001u32.wrapping_add(0x4000_0000), 0, Flags::RST);
        c.on_segment(Time::from_millis(30), &blind);
        assert!(!c.is_closed(), "blind RST must not kill the connection");
        // In-window RST still works.
        let real = Segment::control(80, 1000, 77_001, 0, Flags::RST);
        c.on_segment(Time::from_millis(31), &real);
        assert!(c.is_closed());
        assert_eq!(c.error(), Some("connection reset"));
    }

    #[test]
    fn abort_emits_rst_and_closes() {
        let mut c = established_client(TcpConfig::default());
        c.abort(Time::from_millis(30));
        let tx = c.take_tx(Time::from_millis(30));
        assert!(tx.iter().any(|s| s.flags.rst), "RST must be sent");
        assert!(c.is_closed());
    }

    #[test]
    fn time_wait_expires_into_closed() {
        let cfg = TcpConfig {
            time_wait: Dur::from_millis(100),
            ..TcpConfig::default()
        };
        let mut c = established_client(cfg);
        // We close first.
        c.close(Time::from_millis(30));
        let tx = c.take_tx(Time::from_millis(30));
        let fin = tx.iter().find(|s| s.flags.fin).expect("FIN sent");
        assert_eq!(c.state(), TcpState::FinWait1);
        // Peer ACKs our FIN...
        let mut ack = Segment::control(80, 1000, 77_001, fin.seq.wrapping_add(1), Flags::ACK);
        ack.window = u16::MAX;
        c.on_segment(Time::from_millis(50), &ack);
        assert_eq!(c.state(), TcpState::FinWait2);
        // ...then sends its own FIN.
        let mut peer_fin =
            Segment::control(80, 1000, 77_001, fin.seq.wrapping_add(1), Flags::FIN_ACK);
        peer_fin.window = u16::MAX;
        c.on_segment(Time::from_millis(60), &peer_fin);
        assert_eq!(c.state(), TcpState::TimeWait);
        // A retransmitted peer FIN inside TIME_WAIT is re-ACKed.
        c.on_segment(Time::from_millis(80), &peer_fin);
        let tx = c.take_tx(Time::from_millis(80));
        assert!(tx.iter().any(|s| s.flags.ack && s.payload.is_empty()));
        // And the timer eventually closes us.
        let deadline = c.next_timer().expect("time-wait timer armed");
        c.on_timers(deadline);
        assert!(c.is_closed());
        assert!(c.error().is_none());
    }

    #[test]
    fn simultaneous_close_reaches_closed() {
        let cfg = TcpConfig {
            time_wait: Dur::from_millis(50),
            ..TcpConfig::default()
        };
        let mut c = established_client(cfg);
        c.close(Time::from_millis(30));
        let tx = c.take_tx(Time::from_millis(30));
        let fin = tx.iter().find(|s| s.flags.fin).expect("FIN sent");
        assert_eq!(c.state(), TcpState::FinWait1);
        // Peer's FIN crosses ours (does NOT ack our FIN).
        let mut peer_fin = Segment::control(80, 1000, 77_001, fin.seq, Flags::FIN_ACK);
        peer_fin.window = u16::MAX;
        c.on_segment(Time::from_millis(40), &peer_fin);
        assert_eq!(c.state(), TcpState::Closing);
        // Now the peer ACKs our FIN.
        let mut ack = Segment::control(80, 1000, 77_002, fin.seq.wrapping_add(1), Flags::ACK);
        ack.window = u16::MAX;
        c.on_segment(Time::from_millis(50), &ack);
        assert_eq!(c.state(), TcpState::TimeWait);
        let deadline = c.next_timer().unwrap();
        c.on_timers(deadline);
        assert!(c.is_closed());
    }

    #[test]
    fn sack_blocks_appear_when_holes_exist() {
        let mut c = established_client(TcpConfig::default());
        // Out-of-order data: bytes [1400, 2800) arrive first.
        let mut seg = Segment::control(80, 1000, 77_001u32.wrapping_add(1400), 5_001, Flags::ACK);
        seg.window = u16::MAX;
        seg.payload = Bytes::from(vec![7u8; 1400]);
        seg.options = vec![TcpOption::Timestamp { val: 3, ecr: 0 }];
        c.on_segment(Time::from_millis(40), &seg);
        let tx = c.take_tx(Time::from_millis(40));
        let ack = tx.iter().find(|s| s.flags.ack).expect("dup ACK");
        let sack = ack
            .options
            .iter()
            .find_map(|o| match o {
                TcpOption::Sack(r) => Some(*r),
                _ => None,
            })
            .expect("SACK block for the hole");
        assert_eq!(sack.len(), 1);
        let (a, b) = sack[0];
        assert_eq!(b.wrapping_sub(a), 1400, "SACK covers the parked range");
    }

    #[test]
    fn duplicate_acks_repair_only_what_the_scoreboard_presumes_lost() {
        let mut c = established_client(TcpConfig::default());
        c.send(Bytes::from(vec![9u8; 14_000]));
        let sent = c.take_tx(Time::from_millis(21));
        assert_eq!(sent.len(), 10, "the initial window: segments 0 to 9");
        // Eight duplicate ACKs, each SACKing segment 3 alone.
        let seq_of = |segment: u32| 5_001 + segment * 1400;
        let mut dup = Segment::control(80, 1000, 77_001, 5_001, Flags::ACK);
        dup.window = u16::MAX;
        dup.options = vec![
            TcpOption::Timestamp { val: 2, ecr: 0 },
            TcpOption::Sack(SackBlocks::from_slice(&[(seq_of(3), seq_of(4))]).unwrap()),
        ];
        let mut repaired = Vec::new();
        for n in 0..8 {
            let now = Time::from_millis(45 + n);
            c.on_segment(now, &dup);
            repaired.extend(c.take_tx(now).iter().map(|s| s.seq));
            if n < 2 {
                assert!(repaired.is_empty(), "nothing before the third");
            }
        }
        // Segments 0 to 2 sit under the highest SACKed byte; 4 to 9 are
        // merely in flight, however many duplicates arrive. The third
        // duplicate sends the head at once; the rest waits for the pipe
        // (nine un-SACKed segments) to drain under the reduced window.
        assert_eq!(repaired, [seq_of(0)]);
        assert_eq!(c.stats().retransmits, 1);
        assert_eq!(c.stats().fast_retransmits, 1);
        // A partial ACK through segment 3 with nothing SACKed above it:
        // the segment at the new snd_una is the one presumed lost
        // (RFC 6582), and it too goes out once.
        let mut ack = Segment::control(80, 1000, 77_001, seq_of(4), Flags::ACK);
        ack.window = u16::MAX;
        ack.options = vec![TcpOption::Timestamp { val: 3, ecr: 0 }];
        for n in 0..2 {
            let now = Time::from_millis(60 + n);
            c.on_segment(now, &ack);
            repaired.extend(c.take_tx(now).iter().map(|s| s.seq));
        }
        assert_eq!(repaired, [seq_of(0), seq_of(4)]);
    }

    #[test]
    fn fin_waits_for_gap_data_then_consumes() {
        // FIN arrives while data in front of it is still missing; when
        // the gap fills, the connection must advance to CloseWait.
        let mut c = established_client(TcpConfig::default());
        // Peer FIN at stream offset 1000 (data [0,1000) not yet here).
        let mut fin = Segment::control(
            80,
            1000,
            77_001u32.wrapping_add(1000),
            5_001,
            Flags::FIN_ACK,
        );
        fin.window = u16::MAX;
        c.on_segment(Time::from_millis(30), &fin);
        assert_eq!(
            c.state(),
            TcpState::Established,
            "FIN parked behind the gap"
        );
        // The missing kilobyte arrives.
        let mut data = Segment::control(80, 1000, 77_001, 5_001, Flags::ACK);
        data.window = u16::MAX;
        data.payload = Bytes::from(vec![1u8; 1000]);
        c.on_segment(Time::from_millis(40), &data);
        assert_eq!(c.state(), TcpState::CloseWait, "gap filled: FIN consumed");
        assert!(c.peer_fin_received());
    }

    #[test]
    fn zero_window_from_handshake_probes_and_recovers() {
        // Peer opens with window 0; data queued later must arm the
        // persist timer, probe, and flow once the window opens.
        let mut c = TcpConnection::client(TcpConfig::default(), 1000, 80, 5_000);
        c.open(Time::ZERO);
        let _ = c.take_tx(Time::ZERO);
        let mut synack = Segment::control(80, 1000, 77_000, 5_001, Flags::SYN_ACK);
        synack.window = 0;
        synack.options = vec![TcpOption::Mss(1400), TcpOption::WindowScale(8)];
        c.on_segment(Time::from_millis(20), &synack);
        assert!(c.is_established());
        let _ = c.take_tx(Time::from_millis(20));
        c.send(Bytes::from_static(&[7u8; 500]));
        let tx = c.take_tx(Time::from_millis(21));
        assert!(tx.iter().all(|s| s.payload.is_empty()), "window is closed");
        let probe_at = c.next_timer().expect("persist timer armed");
        c.on_timers(probe_at);
        let tx = c.take_tx(probe_at);
        let probe = tx
            .iter()
            .find(|s| s.payload.len() == 1)
            .expect("1-byte probe");
        assert_eq!(probe.seq, 5_001, "probe carries our first new byte");
        // Peer ACKs the probe byte and opens the window.
        let mut ack = Segment::control(80, 1000, 77_001, 5_002, Flags::ACK);
        ack.window = u16::MAX;
        c.on_segment(probe_at + Dur::from_millis(20), &ack);
        let tx = c.take_tx(probe_at + Dur::from_millis(20));
        let sent: usize = tx.iter().map(|s| s.payload.len()).sum();
        assert_eq!(sent, 499, "rest of the data flows once the window opens");
    }

    #[test]
    fn handshake_options_attached_to_syn() {
        let mut c = TcpConnection::client(TcpConfig::default(), 1, 2, 0);
        c.set_handshake_options(vec![TcpOption::Raw {
            kind: 30,
            data: crate::segment::OptionBody::from_slice(&[0xAB]).unwrap(),
        }]);
        c.open(Time::ZERO);
        let tx = c.take_tx(Time::ZERO);
        assert_eq!(tx[0].raw_options(30).count(), 1);
    }
}
