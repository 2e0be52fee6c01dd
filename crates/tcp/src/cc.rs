//! Congestion control: one window, one growth rule per controller.
//!
//! [`Cwnd`] is the congestion window every connection holds. It owns
//! what all controllers share — slow start, the threshold floor, and
//! where the window lands after a loss (on the threshold when fast
//! recovery opens, on one segment after a timeout; it never inflates:
//! the sender counts its `pipe` against it, RFC 6675) — and asks its
//! [`Growth`] rule the two questions on which they differ:
//! how many bytes an ACK adds in congestion avoidance, and where the
//! threshold lands after a [`Loss`]. Two rules live here:
//!
//! * [`Reno`] — AIMD (RFC 5681). This is what the paper's *decoupled*
//!   MPTCP mode runs per subflow ("the decoupled congestion control uses
//!   TCP Reno for each subflow", footnote 5).
//! * [`Cubic`] — CUBIC (RFC 8312), the Linux default the paper's
//!   single-path TCP measurements ran on.
//!
//! The *coupled* rules (LIA, OLIA, BALIA) live in `mpwifi-mptcp` because
//! they need cross-subflow state; they are rules of this same window and
//! learn of its every value through [`Growth::observe`].

use mpwifi_simcore::{Dur, Time};

/// Which built-in rule a plain TCP connection's window runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcKind {
    /// AIMD (RFC 5681).
    Reno,
    /// CUBIC (RFC 8312).
    Cubic,
}

impl CcKind {
    pub(crate) fn rule(self) -> Box<dyn Growth> {
        match self {
            CcKind::Reno => Box::new(Reno::default()),
            CcKind::Cubic => Box::new(Cubic::default()),
        }
    }
}

/// The two ways a window learns of a loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// The third duplicate ACK: fast retransmit, then fast recovery.
    FastRecovery,
    /// The retransmission timer fired.
    Timeout,
}

/// What distinguishes one congestion controller from another. All
/// quantities are bytes.
pub trait Growth: std::fmt::Debug {
    /// Bytes to add to `cwnd` for `acked` newly ACKed bytes in congestion
    /// avoidance (slow start is the window's own).
    fn increase(&mut self, now: Time, cwnd: u64, mss: u64, acked: u64, rtt: Option<Dur>) -> u64;

    /// Where the slow-start threshold lands after `loss`, detected with
    /// `in_flight` bytes outstanding (the window floors the answer at two
    /// segments). A rule also forgets here what it accumulated toward
    /// its next increase.
    fn ssthresh_after(&mut self, loss: Loss, cwnd: u64, in_flight: u64) -> u64;

    /// The window now stands at `cwnd`; `rtt` is the smoothed RTT an ACK
    /// brought with it. Called with every value the window settles on,
    /// and on an ACK also before [`Growth::increase`] is asked.
    fn observe(&mut self, _cwnd: u64, _rtt: Option<Dur>) {}
}

/// A congestion window: slow start and the two loss responses
/// (RFC 5681) around a [`Growth`] rule.
#[derive(Debug)]
pub struct Cwnd {
    mss: u64,
    cwnd: u64,
    ssthresh: u64,
    rule: Box<dyn Growth>,
}

impl Cwnd {
    /// A window of `init_cwnd_segs` segments with no threshold yet.
    pub fn new(mss: usize, init_cwnd_segs: u64, rule: Box<dyn Growth>) -> Cwnd {
        let mss = mss as u64;
        let mut w = Cwnd {
            mss,
            cwnd: 0,
            ssthresh: u64::MAX,
            rule,
        };
        w.settle(mss * init_cwnd_segs);
        w
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// Current slow-start threshold in bytes.
    pub fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn settle(&mut self, cwnd: u64) {
        self.cwnd = cwnd;
        self.rule.observe(cwnd, None);
    }

    fn lose(&mut self, loss: Loss, in_flight: u64) {
        let landed = self.rule.ssthresh_after(loss, self.cwnd, in_flight);
        self.ssthresh = landed.max(2 * self.mss);
    }

    /// A cumulative ACK outside fast recovery advanced the window by
    /// `acked` bytes; `rtt` is the connection's smoothed RTT.
    pub fn on_ack(&mut self, now: Time, acked: u64, rtt: Option<Dur>) {
        self.rule.observe(self.cwnd, rtt);
        let grown = if self.cwnd < self.ssthresh {
            // Slow start: the ACKed bytes, at most one MSS per ACK
            // (RFC 5681); uncoupled under every rule (RFC 6356 §3).
            acked.min(self.mss)
        } else {
            self.rule.increase(now, self.cwnd, self.mss, acked, rtt)
        };
        self.settle(self.cwnd + grown);
    }

    /// Entering fast recovery (third duplicate ACK) with `in_flight`
    /// bytes outstanding: the window sits on the new threshold until
    /// the connection resumes [`Cwnd::on_ack`].
    pub fn on_enter_recovery(&mut self, in_flight: u64) {
        self.lose(Loss::FastRecovery, in_flight);
        self.settle(self.ssthresh);
    }

    /// The retransmission timer fired with `in_flight` bytes outstanding.
    pub fn on_rto(&mut self, in_flight: u64) {
        self.lose(Loss::Timeout, in_flight);
        self.settle(self.mss);
    }
}

/// AIMD congestion avoidance (RFC 5681): one MSS per window of ACKs,
/// half the flight after a loss.
#[derive(Debug, Default)]
pub struct Reno {
    /// ACKed bytes not yet turned into an increase.
    acked_accum: u64,
}

impl Growth for Reno {
    fn increase(&mut self, _: Time, cwnd: u64, mss: u64, acked: u64, _: Option<Dur>) -> u64 {
        // cwnd += mss * mss / cwnd per ACK, accumulated exactly.
        self.acked_accum += acked;
        if self.acked_accum >= cwnd {
            self.acked_accum -= cwnd;
            mss
        } else {
            0
        }
    }

    fn ssthresh_after(&mut self, _: Loss, _cwnd: u64, in_flight: u64) -> u64 {
        self.acked_accum = 0;
        in_flight / 2
    }
}

/// CUBIC (RFC 8312), with the TCP-friendly region.
#[derive(Debug, Default)]
pub struct Cubic {
    /// Window size before the last reduction, in bytes.
    w_max: f64,
    /// Start of the current congestion-avoidance epoch.
    epoch_start: Option<Time>,
    /// Time at which the cubic function regains `w_max`.
    k: f64,
    /// Reno-equivalent estimate for the TCP-friendly region (bytes).
    w_est: f64,
    acked_accum_est: u64,
}

/// CUBIC constant C (in segments/sec^3), per RFC 8312.
const CUBIC_C: f64 = 0.4;
/// Multiplicative decrease factor.
const CUBIC_BETA: f64 = 0.7;

impl Growth for Cubic {
    fn increase(&mut self, now: Time, cwnd: u64, mss: u64, acked: u64, rtt: Option<Dur>) -> u64 {
        let (cwnd, mss) = (cwnd as f64, mss as f64);
        let epoch_start = *self.epoch_start.get_or_insert_with(|| {
            let cwnd_seg = cwnd / mss;
            let w_max_seg = (self.w_max / mss).max(cwnd_seg);
            self.k = ((w_max_seg - cwnd_seg) / CUBIC_C).cbrt();
            self.w_est = cwnd;
            self.acked_accum_est = 0;
            now
        });
        let t = (now - epoch_start).as_secs_f64();
        // Cubic target at t + one RTT, in segments.
        let rtt_s = rtt.map(|d| d.as_secs_f64()).unwrap_or(0.1);
        let w_max_seg = self.w_max / mss;
        let target_seg = CUBIC_C * (t + rtt_s - self.k).powi(3) + w_max_seg;
        let target = (target_seg * mss).max(mss);

        // TCP-friendly Reno estimate: grows like Reno.
        self.acked_accum_est += acked;
        if self.acked_accum_est as f64 >= self.w_est {
            self.acked_accum_est = (self.acked_accum_est as f64 - self.w_est).max(0.0) as u64;
            self.w_est += mss;
        }

        let goal = target.max(self.w_est);
        if goal <= cwnd {
            return 0;
        }
        // Approach the target over roughly one RTT: standard CUBIC
        // increases by (target - cwnd) / cwnd per ACKed MSS.
        let step = (goal - cwnd) / (cwnd / mss);
        (step * (acked as f64 / mss)).max(0.0) as u64
    }

    fn ssthresh_after(&mut self, _: Loss, cwnd: u64, _in_flight: u64) -> u64 {
        self.w_max = cwnd as f64;
        self.epoch_start = None;
        (cwnd as f64 * CUBIC_BETA) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: usize = 1400;

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    fn reno(init_cwnd_segs: u64) -> Cwnd {
        Cwnd::new(MSS, init_cwnd_segs, Box::new(Reno::default()))
    }

    fn cubic(init_cwnd_segs: u64) -> Cwnd {
        Cwnd::new(MSS, init_cwnd_segs, Box::new(Cubic::default()))
    }

    #[test]
    fn reno_starts_at_initial_window() {
        let cc = reno(10);
        assert_eq!(cc.cwnd(), 14_000);
        assert_eq!(cc.ssthresh(), u64::MAX);
    }

    #[test]
    fn reno_slow_start_doubles_per_rtt() {
        let mut cc = reno(10);
        let start = cc.cwnd();
        // ACK a full window's worth of MSS-sized segments.
        let mut acked = 0;
        while acked < start {
            cc.on_ack(t(10), MSS as u64, None);
            acked += MSS as u64;
        }
        assert_eq!(cc.cwnd(), 2 * start, "slow start doubles each RTT");
    }

    #[test]
    fn reno_congestion_avoidance_linear() {
        let mut cc = reno(10);
        cc.on_enter_recovery(20 * MSS as u64); // ssthresh = 10 MSS
        let w0 = cc.cwnd();
        assert_eq!(w0, 10 * MSS as u64);
        // One full window of ACKs grows cwnd by exactly one MSS.
        let mut acked = 0;
        while acked < w0 {
            cc.on_ack(t(10), MSS as u64, None);
            acked += MSS as u64;
        }
        assert_eq!(cc.cwnd(), w0 + MSS as u64);
    }

    #[test]
    fn reno_recovery_halves_window() {
        let mut cc = reno(40);
        let in_flight = 40 * MSS as u64;
        cc.on_enter_recovery(in_flight);
        assert_eq!(cc.ssthresh(), in_flight / 2);
        assert_eq!(cc.cwnd(), in_flight / 2, "no inflation on entry");
    }

    #[test]
    fn reno_rto_collapses_to_one_mss() {
        let mut cc = reno(100);
        cc.on_rto(100 * MSS as u64);
        assert_eq!(cc.cwnd(), MSS as u64);
        assert_eq!(cc.ssthresh(), 50 * MSS as u64);
    }

    #[test]
    fn reno_ssthresh_floor_two_mss() {
        let mut cc = reno(10);
        cc.on_rto(100); // tiny in-flight
        assert_eq!(cc.ssthresh(), 2 * MSS as u64);
    }

    #[test]
    fn cubic_slow_start_then_concave_growth() {
        // Force out of slow start with a loss at 100 segments.
        let mut cc = cubic(100);
        cc.on_enter_recovery(100 * MSS as u64);
        let after_loss = cc.cwnd();
        assert_eq!(after_loss, (100.0 * MSS as f64 * 0.7) as u64);
        // Feed ACKs over simulated time; the window should recover toward
        // w_max (concave region) without exceeding it wildly early.
        let mut now = 10u64;
        for _ in 0..2000 {
            cc.on_ack(t(now), MSS as u64, Some(Dur::from_millis(50)));
            now += 2;
        }
        let w = cc.cwnd() as f64 / MSS as f64;
        assert!(w > 70.0, "cubic should regrow, got {w} segments");
    }

    #[test]
    fn cubic_reduction_factor_is_point_seven() {
        let mut cc = cubic(100);
        cc.on_enter_recovery(100 * MSS as u64);
        let expect = (100.0 * MSS as f64 * 0.7) as u64;
        assert_eq!(cc.ssthresh(), expect);
    }

    #[test]
    fn build_constructs_requested_kind() {
        // With a quarter of the window in flight the two rules part:
        // Reno halves the flight, CUBIC takes 0.7 of the window.
        let after_timeout = |kind: CcKind| {
            let mut cc = Cwnd::new(MSS, 100, kind.rule());
            cc.on_rto(25 * MSS as u64);
            cc.ssthresh()
        };
        assert_eq!(after_timeout(CcKind::Reno), 25 * MSS as u64 / 2);
        assert_eq!(
            after_timeout(CcKind::Cubic),
            (100.0 * MSS as f64 * 0.7) as u64
        );
    }
}
