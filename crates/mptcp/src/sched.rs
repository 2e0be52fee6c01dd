//! Packet schedulers: which subflow carries the next chunk of data.
//!
//! Linux MPTCP's default scheduler picks the established subflow with the
//! lowest smoothed RTT among those with congestion-window space — that is
//! [`SchedKind::MinRtt`] and what all paper experiments ran.
//! [`SchedKind::RoundRobin`] is included as an ablation, and the zoo adds
//! three algorithms from the multipath scheduling literature:
//!
//! * [`SchedKind::Blest`] — BLEST-style blocking estimation. When the
//!   fastest subflow is window-limited, sending on a slower one risks
//!   head-of-line blocking at the receiver; BLEST estimates how much the
//!   fast subflow could carry during one slow-path RTT and *defers* (sends
//!   nothing this round) when that alone covers the remaining data.
//! * [`SchedKind::Ecf`] — ECF-style earliest completion first. Compares
//!   an RTT-granularity completion-time estimate for "send the rest on
//!   the slow path now" against "wait for the fast path's window to
//!   free", and defers when waiting wins.
//! * [`SchedKind::Redundant`] — the primary pick behaves like min-RTT;
//!   the connection then replays every still-unacked chunk onto each
//!   other eligible subflow as its window room allows (a per-subflow
//!   DSN cursor over the assigned-chunk log — see
//!   `MptcpConnection::pump_redundant_replay`). The receiver dedups by
//!   data-level sequence number, trading goodput for latency/loss
//!   robustness.
//!
//! A scheduler has no clock and keeps no count: BLEST, ECF, min-RTT and
//! Redundant answer from their arguments alone, and round-robin keeps
//! only the cursor a pick advances. The bound on a deferral belongs to
//! the connection, which has the clock (`MptcpConnection::pump_send`): a
//! deferral may cost one slow-path RTT of simulated time, however often
//! the connection is polled — the conformance oracle
//! `mptcp-sched-wedged` stays the judge of that.

use mpwifi_simcore::Dur;

/// Scheduler selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedKind {
    /// Lowest-SRTT subflow with window space (Linux default).
    MinRtt,
    /// Cycle through eligible subflows.
    RoundRobin,
    /// BLEST-style blocking estimation: defer instead of sending on a
    /// slow subflow when the fast one will cover the remainder soon.
    Blest,
    /// ECF-style earliest-completion-first deferral.
    Ecf,
    /// Min-RTT primary pick; the connection duplicates each chunk on all
    /// other eligible subflows (receiver dedups by DSN).
    Redundant,
}

impl SchedKind {
    /// Every scheduler, in matrix order.
    pub const ALL: [SchedKind; 5] = [
        SchedKind::MinRtt,
        SchedKind::RoundRobin,
        SchedKind::Blest,
        SchedKind::Ecf,
        SchedKind::Redundant,
    ];

    /// Short label for reports and logs.
    pub fn label(&self) -> &'static str {
        match self {
            SchedKind::MinRtt => "minrtt",
            SchedKind::RoundRobin => "rr",
            SchedKind::Blest => "blest",
            SchedKind::Ecf => "ecf",
            SchedKind::Redundant => "redundant",
        }
    }
}

/// A snapshot of one subflow's schedulability, assembled by the
/// connection each scheduling round.
#[derive(Debug, Clone, Copy)]
pub struct SubflowView {
    /// Index into the connection's subflow table.
    pub idx: usize,
    /// Established, alive, and not excluded by backup policy.
    pub eligible: bool,
    /// Free window: `min(cwnd, snd_wnd) - in_flight - queued_unsent`.
    pub room: u64,
    /// Congestion window in bytes (for completion estimates).
    pub cwnd: u64,
    /// Smoothed RTT (`None` before the first measurement).
    pub srtt: Option<Dur>,
}

/// A scheduler: its kind, and round-robin's cursor.
#[derive(Debug)]
pub struct Scheduler {
    kind: SchedKind,
    rr_cursor: usize,
}

/// Lowest-SRTT eligible subflow with room, in place over the slice.
/// Unmeasured subflows sort last; ties break on index so the primary
/// subflow wins at connection start.
pub(crate) fn min_rtt_pick(views: &[SubflowView]) -> Option<&SubflowView> {
    views
        .iter()
        .filter(|v| v.eligible && v.room > 0)
        .min_by_key(|v| (v.srtt.unwrap_or(Dur::MAX), v.idx))
}

/// Lowest-SRTT eligible subflow regardless of window space.
fn fastest_eligible(views: &[SubflowView]) -> Option<&SubflowView> {
    views
        .iter()
        .filter(|v| v.eligible)
        .min_by_key(|v| (v.srtt.unwrap_or(Dur::MAX), v.idx))
}

impl Scheduler {
    /// Create a scheduler of the given kind.
    pub fn new(kind: SchedKind) -> Scheduler {
        Scheduler { kind, rr_cursor: 0 }
    }

    /// The configured kind.
    pub fn kind(&self) -> SchedKind {
        self.kind
    }

    /// Pick the subflow to receive the next chunk. `remaining` is the
    /// number of fresh bytes still waiting to be scheduled (send-buffer
    /// end minus next DSN).
    ///
    /// `None` writes nothing, so a call that returns it may be repeated
    /// or skipped freely. With no eligible subflow offering room it is
    /// every scheduler's answer; with room on offer it is BLEST's or
    /// ECF's, and means exactly "the estimate prefers to wait" — for how
    /// long is the caller's business.
    pub fn pick(&mut self, views: &[SubflowView], remaining: u64) -> Option<usize> {
        match self.kind {
            SchedKind::MinRtt | SchedKind::Redundant => min_rtt_pick(views).map(|v| v.idx),
            SchedKind::RoundRobin => {
                let count = views.iter().filter(|v| v.eligible && v.room > 0).count();
                if count == 0 {
                    return None;
                }
                let pick = views
                    .iter()
                    .filter(|v| v.eligible && v.room > 0)
                    .nth(self.rr_cursor % count)
                    .map(|v| v.idx);
                self.rr_cursor = self.rr_cursor.wrapping_add(1);
                pick
            }
            SchedKind::Blest => pick_blest(views, remaining),
            SchedKind::Ecf => pick_ecf(views, remaining),
        }
    }
}

/// BLEST and ECF share a frame: the min-RTT candidate (`slow`) is the
/// pick unless a quicker subflow (`fast`) is merely window-limited, both
/// smoothed RTTs are measured, and `prefers_wait(slow, srtt_slow, fast,
/// srtt_fast)` says the fast window is worth waiting for.
fn pick_unless_waiting(
    views: &[SubflowView],
    prefers_wait: impl FnOnce(&SubflowView, Dur, &SubflowView, Dur) -> bool,
) -> Option<usize> {
    let slow = min_rtt_pick(views)?;
    let fast = fastest_eligible(views).expect("candidate implies an eligible subflow");
    if let (true, Some(srtt_s), Some(srtt_f)) = (fast.idx != slow.idx, slow.srtt, fast.srtt) {
        if prefers_wait(slow, srtt_s, fast, srtt_f) {
            return None;
        }
    }
    Some(slow.idx)
}

/// BLEST: when the overall-fastest subflow is window-limited, defer
/// rather than risk head-of-line blocking on a slower one — but only
/// if the fast subflow alone can plausibly carry what remains within
/// one slow-path RTT.
fn pick_blest(views: &[SubflowView], remaining: u64) -> Option<usize> {
    pick_unless_waiting(views, |_, srtt_s, fast, srtt_f| {
        // Bytes `fast` can move during one slow-path RTT: its window
        // turns over every srtt_fast.
        let turns = srtt_s.as_nanos().div_ceil(srtt_f.as_nanos().max(1));
        remaining <= fast.cwnd.saturating_mul(turns.saturating_add(1))
    })
}

/// ECF: earliest completion first. Estimate finishing the remaining
/// bytes on the available (slower) subflow versus waiting one RTT for
/// the fastest subflow's window to free and finishing there.
fn pick_ecf(views: &[SubflowView], remaining: u64) -> Option<usize> {
    pick_unless_waiting(views, |slow, srtt_s, fast, srtt_f| {
        // RTT-granularity completion estimates: a path drains ~cwnd
        // bytes per RTT. Waiting costs one extra fast-path RTT up front.
        let rounds_f = remaining.div_ceil(fast.cwnd.max(1));
        let rounds_s = remaining.div_ceil(slow.cwnd.max(1));
        let t_wait = srtt_f.saturating_mul(rounds_f.saturating_add(1));
        let t_send = srtt_s.saturating_mul(rounds_s.max(1));
        t_wait < t_send
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(idx: usize, eligible: bool, room: u64, srtt_ms: Option<u64>) -> SubflowView {
        SubflowView {
            idx,
            eligible,
            room,
            cwnd: room.max(1400),
            srtt: srtt_ms.map(Dur::from_millis),
        }
    }

    fn view_cwnd(
        idx: usize,
        eligible: bool,
        room: u64,
        cwnd: u64,
        srtt_ms: Option<u64>,
    ) -> SubflowView {
        SubflowView {
            idx,
            eligible,
            room,
            cwnd,
            srtt: srtt_ms.map(Dur::from_millis),
        }
    }

    #[test]
    fn min_rtt_picks_fastest() {
        let mut s = Scheduler::new(SchedKind::MinRtt);
        let views = [view(0, true, 1400, Some(80)), view(1, true, 1400, Some(30))];
        assert_eq!(s.pick(&views, 10_000), Some(1));
    }

    #[test]
    fn min_rtt_skips_full_windows() {
        let mut s = Scheduler::new(SchedKind::MinRtt);
        let views = [view(0, true, 0, Some(10)), view(1, true, 500, Some(90))];
        assert_eq!(s.pick(&views, 10_000), Some(1));
    }

    #[test]
    fn min_rtt_skips_ineligible() {
        let mut s = Scheduler::new(SchedKind::MinRtt);
        let views = [
            view(0, false, 1400, Some(10)),
            view(1, true, 1400, Some(90)),
        ];
        assert_eq!(s.pick(&views, 10_000), Some(1));
    }

    #[test]
    fn min_rtt_prefers_measured_over_unmeasured() {
        let mut s = Scheduler::new(SchedKind::MinRtt);
        let views = [view(0, true, 1400, None), view(1, true, 1400, Some(500))];
        assert_eq!(s.pick(&views, 10_000), Some(1));
    }

    #[test]
    fn min_rtt_tie_breaks_on_lowest_index() {
        let mut s = Scheduler::new(SchedKind::MinRtt);
        let views = [view(0, true, 1400, None), view(1, true, 1400, None)];
        assert_eq!(
            s.pick(&views, 10_000),
            Some(0),
            "primary wins unmeasured ties"
        );
    }

    #[test]
    fn none_when_all_blocked() {
        let mut s = Scheduler::new(SchedKind::MinRtt);
        let views = [view(0, true, 0, Some(10)), view(1, false, 99, Some(1))];
        assert_eq!(s.pick(&views, 10_000), None);
        assert_eq!(s.pick(&[], 10_000), None);
    }

    #[test]
    fn round_robin_alternates() {
        let mut s = Scheduler::new(SchedKind::RoundRobin);
        let views = [
            view(0, true, 1400, Some(10)),
            view(1, true, 1400, Some(999)),
        ];
        let picks: Vec<_> = (0..4).map(|_| s.pick(&views, 10_000).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 0, 1]);
    }

    #[test]
    fn round_robin_adapts_to_eligibility() {
        let mut s = Scheduler::new(SchedKind::RoundRobin);
        let both = [view(0, true, 1, Some(1)), view(1, true, 1, Some(1))];
        let only1 = [view(0, true, 0, Some(1)), view(1, true, 1, Some(1))];
        assert_eq!(s.pick(&both, 10_000), Some(0));
        assert_eq!(s.pick(&only1, 10_000), Some(1));
        assert_eq!(s.pick(&both, 10_000), Some(0));
    }

    #[test]
    fn redundant_primary_pick_is_min_rtt() {
        let mut s = Scheduler::new(SchedKind::Redundant);
        let views = [view(0, true, 1400, Some(80)), view(1, true, 1400, Some(30))];
        assert_eq!(s.pick(&views, 10_000), Some(1));
    }

    #[test]
    fn blest_uses_fast_path_when_it_has_room() {
        let mut s = Scheduler::new(SchedKind::Blest);
        let views = [view(0, true, 1400, Some(10)), view(1, true, 1400, Some(90))];
        assert_eq!(s.pick(&views, 1_000_000), Some(0));
    }

    #[test]
    fn blest_defers_small_remainder_when_fast_is_full() {
        let mut s = Scheduler::new(SchedKind::Blest);
        // Fast subflow full; slow has room. 1400 bytes left — the fast
        // window (14 kB) covers it within one slow RTT, so defer.
        let views = [
            view_cwnd(0, true, 0, 14_000, Some(10)),
            view_cwnd(1, true, 1400, 1400, Some(100)),
        ];
        assert_eq!(s.pick(&views, 1_400), None, "should wait for the fast path");
    }

    #[test]
    fn blest_sends_large_remainder_on_slow_path() {
        let mut s = Scheduler::new(SchedKind::Blest);
        let views = [
            view_cwnd(0, true, 0, 14_000, Some(10)),
            view_cwnd(1, true, 1400, 1400, Some(100)),
        ];
        // 10 MB left: the fast path alone cannot absorb it; use the slow one.
        assert_eq!(s.pick(&views, 10_000_000), Some(1));
    }

    #[test]
    fn ecf_defers_when_waiting_beats_slow_send() {
        let mut s = Scheduler::new(SchedKind::Ecf);
        // Fast: 10 ms RTT, huge window, currently full. Slow: 300 ms RTT,
        // tiny window. Waiting two fast RTTs (~20 ms) beats ~72 slow
        // rounds (~21.6 s).
        let views = [
            view_cwnd(0, true, 0, 140_000, Some(10)),
            view_cwnd(1, true, 1400, 1400, Some(300)),
        ];
        assert_eq!(s.pick(&views, 100_000), None);
    }

    #[test]
    fn ecf_sends_on_comparable_slow_path() {
        let mut s = Scheduler::new(SchedKind::Ecf);
        // Slow path nearly as fast and with twice the window: finishing
        // there now beats waiting a fast-path RTT for the smaller window.
        let views = [
            view_cwnd(0, true, 0, 14_000, Some(40)),
            view_cwnd(1, true, 14_000, 28_000, Some(50)),
        ];
        assert_eq!(s.pick(&views, 100_000), Some(1));
    }

    #[test]
    fn a_deferral_lasts_until_the_views_change() {
        // The scheduler keeps no count: the same views get the same
        // answer however often it is asked, and the answer changes the
        // moment the fast view shows room.
        let deferring = [
            (
                SchedKind::Blest,
                [
                    view_cwnd(0, true, 0, 14_000, Some(10)),
                    view_cwnd(1, true, 1400, 1400, Some(100)),
                ],
                1_400,
            ),
            (
                SchedKind::Ecf,
                [
                    view_cwnd(0, true, 0, 140_000, Some(10)),
                    view_cwnd(1, true, 1400, 1400, Some(300)),
                ],
                100_000,
            ),
        ];
        for (kind, mut views, remaining) in deferring {
            let mut s = Scheduler::new(kind);
            for call in 0..100 {
                assert_eq!(s.pick(&views, remaining), None, "{kind:?} call {call}");
            }
            views[0].room = 1400;
            assert_eq!(s.pick(&views, remaining), Some(0), "{kind:?} fast has room");
        }
    }

    #[test]
    fn latency_aware_fall_back_to_min_rtt_when_unmeasured() {
        for kind in [SchedKind::Blest, SchedKind::Ecf] {
            let mut s = Scheduler::new(kind);
            let views = [view(0, true, 0, None), view(1, true, 1400, None)];
            assert_eq!(s.pick(&views, 10_000), Some(1), "{kind:?}");
        }
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<_> = SchedKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels, vec!["minrtt", "rr", "blest", "ecf", "redundant"]);
    }
}
