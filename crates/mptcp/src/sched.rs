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
//! Deferral is bounded: after [`DEFER_CAP`] consecutive deferred rounds
//! the scheduler sends on the best available subflow anyway, so an
//! eligible subflow with room can never be starved forever — the
//! conformance oracle `mptcp-sched-wedged` checks exactly this.

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

/// Consecutive deferred rounds a latency-aware scheduler tolerates
/// before it sends on the best available subflow regardless. This is the
/// liveness bound the `mptcp-sched-wedged` conformance oracle relies on.
pub const DEFER_CAP: u32 = 8;

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

/// Stateful scheduler.
#[derive(Debug)]
pub struct Scheduler {
    kind: SchedKind,
    rr_cursor: usize,
    /// Consecutive rounds Blest/Ecf declined to send (liveness bound).
    defer_streak: u32,
}

/// Lowest-SRTT eligible subflow with room, in place over the slice.
/// Unmeasured subflows sort last; ties break on index so the primary
/// subflow wins at connection start.
fn min_rtt_pick(views: &[SubflowView]) -> Option<&SubflowView> {
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
        Scheduler {
            kind,
            rr_cursor: 0,
            defer_streak: 0,
        }
    }

    /// The configured kind.
    pub fn kind(&self) -> SchedKind {
        self.kind
    }

    /// Pick the subflow to receive the next chunk, or `None` when no
    /// eligible subflow has room (or a latency-aware scheduler defers).
    /// `remaining` is the number of fresh bytes still waiting to be
    /// scheduled (send-buffer end minus next DSN).
    ///
    /// Two kinds of `None`, and the connection's polling depends on the
    /// difference. With no room on offer every scheduler answers before
    /// it touches its state, so such a call may be repeated or skipped
    /// freely. A BLEST/ECF deferral *counts the call* towards
    /// [`DEFER_CAP`]: how often the connection polls with room on offer
    /// decides when the forced send happens.
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
            SchedKind::Blest => self.pick_blest(views, remaining),
            SchedKind::Ecf => self.pick_ecf(views, remaining),
        }
    }

    /// BLEST: when the overall-fastest subflow is window-limited, defer
    /// rather than risk head-of-line blocking on a slower one — but only
    /// if the fast subflow alone can plausibly carry what remains within
    /// one slow-path RTT.
    fn pick_blest(&mut self, views: &[SubflowView], remaining: u64) -> Option<usize> {
        let best = min_rtt_pick(views)?;
        let fast = fastest_eligible(views).expect("candidate implies an eligible subflow");
        if fast.idx == best.idx {
            self.defer_streak = 0;
            return Some(best.idx);
        }
        // `fast` is quicker but has no room. Bytes it can move during one
        // slow-path RTT: its window turns over every srtt_fast.
        let (Some(srtt_s), Some(srtt_f)) = (best.srtt, fast.srtt) else {
            self.defer_streak = 0;
            return Some(best.idx);
        };
        let turns = srtt_s.as_nanos().div_ceil(srtt_f.as_nanos().max(1));
        let fast_capacity = fast.cwnd.saturating_mul(turns.saturating_add(1));
        if remaining <= fast_capacity && self.defer_streak < DEFER_CAP {
            self.defer_streak += 1;
            return None;
        }
        self.defer_streak = 0;
        Some(best.idx)
    }

    /// ECF: earliest completion first. Estimate finishing the remaining
    /// bytes on the available (slower) subflow versus waiting one RTT for
    /// the fastest subflow's window to free and finishing there.
    fn pick_ecf(&mut self, views: &[SubflowView], remaining: u64) -> Option<usize> {
        let best = min_rtt_pick(views)?;
        let fast = fastest_eligible(views).expect("candidate implies an eligible subflow");
        if fast.idx == best.idx {
            self.defer_streak = 0;
            return Some(best.idx);
        }
        let (Some(srtt_s), Some(srtt_f)) = (best.srtt, fast.srtt) else {
            self.defer_streak = 0;
            return Some(best.idx);
        };
        // RTT-granularity completion estimates: a path drains ~cwnd bytes
        // per RTT. Waiting costs one extra fast-path RTT up front.
        let rounds_f = remaining.div_ceil(fast.cwnd.max(1));
        let rounds_s = remaining.div_ceil(best.cwnd.max(1));
        let t_wait = srtt_f.saturating_mul(rounds_f.saturating_add(1));
        let t_send = srtt_s.saturating_mul(rounds_s.max(1));
        if t_wait < t_send && self.defer_streak < DEFER_CAP {
            self.defer_streak += 1;
            return None;
        }
        self.defer_streak = 0;
        Some(best.idx)
    }
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
    fn blest_deferral_is_bounded() {
        let mut s = Scheduler::new(SchedKind::Blest);
        let views = [
            view_cwnd(0, true, 0, 14_000, Some(10)),
            view_cwnd(1, true, 1400, 1400, Some(100)),
        ];
        let mut sent = None;
        for _ in 0..=DEFER_CAP {
            sent = s.pick(&views, 1_400);
            if sent.is_some() {
                break;
            }
        }
        assert_eq!(sent, Some(1), "defer cap must force progress");
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
    fn ecf_deferral_is_bounded() {
        let mut s = Scheduler::new(SchedKind::Ecf);
        let views = [
            view_cwnd(0, true, 0, 140_000, Some(10)),
            view_cwnd(1, true, 1400, 1400, Some(300)),
        ];
        let mut sent = None;
        for _ in 0..=DEFER_CAP {
            sent = s.pick(&views, 100_000);
            if sent.is_some() {
                break;
            }
        }
        assert_eq!(sent, Some(1), "defer cap must force progress");
    }

    #[test]
    fn defer_cap_counts_calls_not_time() {
        // The coupling the connection's polling has to respect: with
        // room on offer, every `pick` is one deferral, whatever the
        // clock says and however little changed between calls. Exactly
        // `DEFER_CAP` consecutive `None`s, then a forced send, then the
        // count starts over — so dropping or adding one poll that
        // reaches `pick` moves the forced send.
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
        for (kind, views, remaining) in deferring {
            let mut s = Scheduler::new(kind);
            for round in 0..3 {
                for call in 0..DEFER_CAP {
                    assert_eq!(s.pick(&views, remaining), None, "{kind:?} {round}/{call}");
                }
                assert_eq!(s.pick(&views, remaining), Some(1), "{kind:?} round {round}");
            }
            // With no room anywhere the answer is `None` and the count
            // neither moves nor restarts: such polls are free to repeat
            // or to skip, even in the middle of a streak.
            let blocked = [views[0], view_cwnd(1, true, 0, 1400, Some(100))];
            for call in 0..DEFER_CAP {
                if call == 3 {
                    for _ in 0..3 * DEFER_CAP {
                        assert_eq!(s.pick(&blocked, remaining), None);
                    }
                }
                assert_eq!(s.pick(&views, remaining), None, "{kind:?} after/{call}");
            }
            assert_eq!(s.pick(&views, remaining), Some(1), "{kind:?} after blocked");
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
