//! Coupled congestion control: LIA (RFC 6356), OLIA, and BALIA.
//!
//! This is the paper's "coupled" configuration, grown into a small zoo.
//! Each subflow runs an instance of [`CoupledCc`] implementing the
//! `mpwifi-tcp` congestion-control trait; instances share a
//! [`CoupledGroup`] so the per-ACK increase of one subflow can see the
//! windows and RTTs of its siblings.
//!
//! * **LIA** (Linked Increases, RFC 6356) — what the paper measured:
//!
//!   ```text
//!   alpha = cwnd_total * max_r(cwnd_r / rtt_r^2) / (sum_r cwnd_r / rtt_r)^2
//!   per ACK on subflow r:
//!       cwnd_r += min(alpha * acked * mss / cwnd_total,  # coupled increase
//!                     acked * mss / cwnd_r)              # never faster than Reno
//!   ```
//!
//! * **OLIA** (Opportunistic LIA) — replaces LIA's max-path numerator
//!   with the flow's own `w_r / rtt_r^2` and adds a ±`alpha_r / w_r`
//!   rebalancing term that moves window from the largest-window paths to
//!   the best (highest `w/rtt^2`) paths when the two sets differ.
//!
//! * **BALIA** (Balanced LIA) — scales the same base term by
//!   `((1+α)/2) · ((4+α)/5)` with `α = max_k(x_k)/x_r`, `x = w/rtt`,
//!   and makes the loss decrease α-dependent:
//!   `w ← w · (1 − min(α, 1.5)/2)`.
//!
//! All three reduce to Reno for a single subflow. Decreases are
//! per-subflow (LIA/OLIA halve exactly like Reno) — which is why coupled
//! MPTCP shifts traffic away from the more congested path and is less
//! aggressive than N independent Reno flows (the effect behind the
//! paper's Figures 13/14 for 1 MB flows).

use mpwifi_simcore::{Dur, Time};
use mpwifi_tcp::cc::CongestionControl;
use std::cell::RefCell;
use std::rc::Rc;

/// MPTCP congestion-control selection: the coupled family plus the two
/// per-subflow (decoupled) controllers from `mpwifi-tcp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcKind {
    /// Linked Increases (RFC 6356) — the paper's "coupled" mode.
    Lia,
    /// Opportunistic LIA.
    Olia,
    /// Balanced LIA.
    Balia,
    /// Per-subflow Reno — the paper's "decoupled" mode (footnote 5).
    Reno,
    /// Per-subflow CUBIC.
    Cubic,
}

impl CcKind {
    /// Every controller, in matrix order.
    pub const ALL: [CcKind; 5] = [
        CcKind::Lia,
        CcKind::Olia,
        CcKind::Balia,
        CcKind::Reno,
        CcKind::Cubic,
    ];

    /// Short label for reports and logs.
    pub fn label(&self) -> &'static str {
        match self {
            CcKind::Lia => "lia",
            CcKind::Olia => "olia",
            CcKind::Balia => "balia",
            CcKind::Reno => "reno",
            CcKind::Cubic => "cubic",
        }
    }

    /// The coupled variant, when this kind shares state across subflows.
    pub fn coupled(&self) -> Option<CoupledKind> {
        match self {
            CcKind::Lia => Some(CoupledKind::Lia),
            CcKind::Olia => Some(CoupledKind::Olia),
            CcKind::Balia => Some(CoupledKind::Balia),
            CcKind::Reno | CcKind::Cubic => None,
        }
    }
}

/// Which coupled increase rule a [`CoupledCc`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoupledKind {
    /// Linked Increases (RFC 6356).
    Lia,
    /// Opportunistic LIA.
    Olia,
    /// Balanced LIA.
    Balia,
}

/// Per-subflow state visible to the group.
#[derive(Debug, Clone, Copy)]
struct FlowView {
    cwnd: u64,
    srtt: Dur,
    alive: bool,
}

/// Shared state linking the coupled-CC instances of one MPTCP connection.
#[derive(Debug, Default)]
pub struct CoupledGroup {
    flows: Vec<FlowView>,
}

impl CoupledGroup {
    /// Create an empty group wrapped for sharing.
    pub fn shared() -> Rc<RefCell<CoupledGroup>> {
        Rc::new(RefCell::new(CoupledGroup::default()))
    }

    fn register(&mut self, cwnd: u64) -> usize {
        self.flows.push(FlowView {
            cwnd,
            srtt: Dur::from_millis(100),
            alive: true,
        });
        self.flows.len() - 1
    }

    /// Sum of live subflow windows (bytes).
    pub fn total_cwnd(&self) -> u64 {
        self.flows.iter().filter(|f| f.alive).map(|f| f.cwnd).sum()
    }

    /// Number of registered subflows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no subflow has registered yet.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Remove a subflow from alpha computation by registration index
    /// (out-of-range indices are ignored).
    pub fn mark_dead_by_index(&mut self, idx: usize) {
        if let Some(f) = self.flows.get_mut(idx) {
            f.alive = false;
        }
    }

    /// The LIA alpha, in units where `increase = alpha * acked /
    /// cwnd_total` gives bytes. Computed over live subflows.
    fn lia_alpha(&self) -> f64 {
        let total = self.total_cwnd() as f64;
        if total <= 0.0 {
            return 0.0;
        }
        let mut best = 0.0f64;
        let mut denom = 0.0f64;
        for f in self.flows.iter().filter(|f| f.alive) {
            let rtt = f.srtt.as_secs_f64().max(1e-4);
            let c = f.cwnd as f64;
            best = best.max(c / (rtt * rtt));
            denom += c / rtt;
        }
        if denom <= 0.0 {
            return 0.0;
        }
        total * best / (denom * denom)
    }

    /// `sum_r cwnd_r / rtt_r` over live flows (bytes/sec-ish units).
    fn rate_denom(&self) -> f64 {
        self.flows
            .iter()
            .filter(|f| f.alive)
            .map(|f| f.cwnd as f64 / f.srtt.as_secs_f64().max(1e-4))
            .sum()
    }

    /// OLIA's rebalancing term `alpha_r` for the flow at `idx`: positive
    /// for best paths that are not largest-window paths, negative for
    /// largest-window paths when such best paths exist, zero otherwise.
    fn olia_alpha(&self, idx: usize) -> f64 {
        let n = self.flows.iter().filter(|f| f.alive).count();
        if n < 2 {
            return 0.0;
        }
        // Best paths: highest w/rtt^2 (within a relative epsilon).
        // Largest-window paths: max cwnd.
        let quality = |f: &FlowView| {
            let rtt = f.srtt.as_secs_f64().max(1e-4);
            f.cwnd as f64 / (rtt * rtt)
        };
        let best_q = self
            .flows
            .iter()
            .filter(|f| f.alive)
            .map(quality)
            .fold(0.0f64, f64::max);
        let max_w = self
            .flows
            .iter()
            .filter(|f| f.alive)
            .map(|f| f.cwnd)
            .max()
            .unwrap_or(0);
        let in_best = |f: &FlowView| quality(f) >= best_q * (1.0 - 1e-9);
        let in_max = |f: &FlowView| f.cwnd == max_w;
        let collected = self
            .flows
            .iter()
            .filter(|f| f.alive && in_best(f) && !in_max(f))
            .count();
        if collected == 0 {
            return 0.0;
        }
        let f = &self.flows[idx];
        if !f.alive {
            0.0
        } else if in_best(f) && !in_max(f) {
            1.0 / (collected as f64 * n as f64)
        } else if in_max(f) {
            let n_max = self.flows.iter().filter(|f| f.alive && in_max(f)).count();
            -1.0 / (n_max as f64 * n as f64)
        } else {
            0.0
        }
    }

    /// BALIA's `α = max_k(x_k) / x_r`, `x = w/rtt`, for the flow at
    /// `idx`. At least 1 by construction; 1 for a single flow.
    fn balia_alpha(&self, idx: usize) -> f64 {
        let x = |f: &FlowView| f.cwnd as f64 / f.srtt.as_secs_f64().max(1e-4);
        let x_max = self
            .flows
            .iter()
            .filter(|f| f.alive)
            .map(x)
            .fold(0.0f64, f64::max);
        let x_r = x(&self.flows[idx]);
        if x_r <= 0.0 {
            1.0
        } else {
            (x_max / x_r).max(1.0)
        }
    }
}

/// One subflow's coupled controller (LIA, OLIA, or BALIA).
#[derive(Debug)]
pub struct CoupledCc {
    group: Rc<RefCell<CoupledGroup>>,
    kind: CoupledKind,
    idx: usize,
    mss: u64,
    cwnd: u64,
    ssthresh: u64,
    /// Fractional byte accumulator for sub-MSS increases.
    accum: f64,
}

impl CoupledCc {
    /// Create a controller of the given kind registered in `group`.
    pub fn new(
        group: Rc<RefCell<CoupledGroup>>,
        kind: CoupledKind,
        mss: usize,
        init_cwnd_segs: u64,
    ) -> CoupledCc {
        let mss = mss as u64;
        let cwnd = mss * init_cwnd_segs;
        let idx = group.borrow_mut().register(cwnd);
        CoupledCc {
            group,
            kind,
            idx,
            mss,
            cwnd,
            ssthresh: u64::MAX,
            accum: 0.0,
        }
    }

    fn publish(&self, rtt: Option<Dur>) {
        let mut g = self.group.borrow_mut();
        let f = &mut g.flows[self.idx];
        f.cwnd = self.cwnd;
        if let Some(r) = rtt {
            f.srtt = r;
        }
    }

    /// The congestion-avoidance increase in bytes for `acked` bytes.
    fn ca_increase(&self, acked: u64) -> f64 {
        let acked = acked as f64;
        let mss = self.mss as f64;
        let reno = acked * mss / self.cwnd as f64;
        let g = self.group.borrow();
        match self.kind {
            CoupledKind::Lia => {
                let (alpha, total) = (g.lia_alpha(), g.total_cwnd() as f64);
                // alpha is scale-invariant (packet units); the byte-space
                // increase is acked * min(alpha * mss / total, mss / cwnd_r).
                let coupled = if total > 0.0 {
                    alpha * acked * mss / total
                } else {
                    0.0
                };
                coupled.min(reno).max(0.0)
            }
            CoupledKind::Olia => {
                let denom = g.rate_denom();
                if denom <= 0.0 {
                    return 0.0;
                }
                let rtt = g.flows[self.idx].srtt.as_secs_f64().max(1e-4);
                let term1 = (self.cwnd as f64 / (rtt * rtt)) / (denom * denom);
                let term2 = g.olia_alpha(self.idx) / self.cwnd as f64;
                // The rebalancing term can make the net increase negative
                // for largest-window paths; clamp at zero (windows shrink
                // only on loss) and never outgrow Reno.
                (acked * mss * (term1 + term2)).clamp(0.0, reno)
            }
            CoupledKind::Balia => {
                let denom = g.rate_denom();
                if denom <= 0.0 {
                    return 0.0;
                }
                let rtt = g.flows[self.idx].srtt.as_secs_f64().max(1e-4);
                let term = (self.cwnd as f64 / (rtt * rtt)) / (denom * denom);
                let a = g.balia_alpha(self.idx);
                let scaled = term * ((1.0 + a) / 2.0) * ((4.0 + a) / 5.0);
                (acked * mss * scaled).clamp(0.0, reno)
            }
        }
    }

    /// Fraction of the window removed on loss: LIA/OLIA halve like
    /// Reno; BALIA's cut is `α`-dependent (`min(α, 1.5)/2`) — the best
    /// path halves, disadvantaged paths cut deeper, up to 3/4.
    fn decrease_factor(&self) -> f64 {
        match self.kind {
            CoupledKind::Lia | CoupledKind::Olia => 0.5,
            CoupledKind::Balia => {
                let a = self.group.borrow().balia_alpha(self.idx);
                a.min(1.5) / 2.0
            }
        }
    }
}

impl CongestionControl for CoupledCc {
    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn on_ack(&mut self, _now: Time, acked: u64, _in_flight: u64, rtt: Option<Dur>) {
        if self.cwnd < self.ssthresh {
            // Slow start is uncoupled (RFC 6356 §3).
            self.cwnd += acked.min(self.mss);
            self.publish(rtt);
            return;
        }
        self.publish(rtt);
        self.accum += self.ca_increase(acked);
        if self.accum >= 1.0 {
            let whole = self.accum.floor();
            self.cwnd += whole as u64;
            self.accum -= whole;
        }
        self.publish(rtt);
    }

    fn on_enter_recovery(&mut self, _now: Time, in_flight: u64) {
        let keep = 1.0 - self.decrease_factor();
        self.ssthresh = ((in_flight as f64 * keep) as u64).max(2 * self.mss);
        self.cwnd = self.ssthresh + 3 * self.mss;
        self.accum = 0.0;
        self.publish(None);
    }

    fn on_dup_ack_in_recovery(&mut self, _now: Time) {
        self.cwnd += self.mss;
        self.publish(None);
    }

    fn on_partial_ack(&mut self, _now: Time, acked: u64) {
        self.cwnd = self.cwnd.saturating_sub(acked).max(self.mss) + self.mss;
        self.publish(None);
    }

    fn on_exit_recovery(&mut self, _now: Time) {
        self.cwnd = self.ssthresh.max(2 * self.mss);
        self.publish(None);
    }

    fn on_rto(&mut self, _now: Time, in_flight: u64) {
        self.ssthresh = (in_flight / 2).max(2 * self.mss);
        self.cwnd = self.mss;
        self.accum = 0.0;
        self.publish(None);
    }

    fn set_cwnd(&mut self, cwnd: u64) {
        self.cwnd = cwnd.max(self.mss);
        self.publish(None);
    }

    fn name(&self) -> &'static str {
        match self.kind {
            CoupledKind::Lia => "lia",
            CoupledKind::Olia => "olia",
            CoupledKind::Balia => "balia",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: usize = 1400;

    fn t0() -> Time {
        Time::ZERO
    }

    fn lia(g: &Rc<RefCell<CoupledGroup>>) -> CoupledCc {
        CoupledCc::new(g.clone(), CoupledKind::Lia, MSS, 10)
    }

    fn drain_slow_start(cc: &mut CoupledCc, in_flight: u64) {
        // Force out of slow start via a recovery episode.
        cc.on_enter_recovery(t0(), in_flight);
        cc.on_exit_recovery(t0());
    }

    /// Feed one full window of MSS ACKs and return the growth in bytes.
    fn window_of_acks(cc: &mut CoupledCc, rtt_ms: u64) -> u64 {
        let w0 = cc.cwnd();
        let mut acked = 0;
        while acked < w0 {
            cc.on_ack(t0(), MSS as u64, w0, Some(Dur::from_millis(rtt_ms)));
            acked += MSS as u64;
        }
        cc.cwnd() - w0
    }

    #[test]
    fn slow_start_grows_like_reno() {
        let g = CoupledGroup::shared();
        let mut cc = lia(&g);
        let w0 = cc.cwnd();
        cc.on_ack(t0(), MSS as u64, w0, Some(Dur::from_millis(50)));
        assert_eq!(cc.cwnd(), w0 + MSS as u64);
    }

    #[test]
    fn single_subflow_lia_is_at_most_reno() {
        // With one subflow, alpha = cwnd * (c/r^2) / (c/r)^2 = 1 in cwnd
        // units, so the coupled increase equals Reno's.
        let g = CoupledGroup::shared();
        let mut cc = lia(&g);
        drain_slow_start(&mut cc, 20 * MSS as u64);
        let grown = window_of_acks(&mut cc, 50);
        let tol = MSS as u64 / 4;
        assert!(
            grown <= MSS as u64 + tol && grown >= MSS as u64 / 2,
            "single-flow LIA should track Reno: grew {grown} vs MSS {MSS}"
        );
    }

    #[test]
    fn single_subflow_olia_and_balia_track_reno() {
        for kind in [CoupledKind::Olia, CoupledKind::Balia] {
            let g = CoupledGroup::shared();
            let mut cc = CoupledCc::new(g, kind, MSS, 10);
            drain_slow_start(&mut cc, 20 * MSS as u64);
            let grown = window_of_acks(&mut cc, 50);
            let tol = MSS as u64 / 4;
            assert!(
                grown <= MSS as u64 + tol && grown >= MSS as u64 / 2,
                "{kind:?} single flow should track Reno: grew {grown}"
            );
        }
    }

    #[test]
    fn two_subflows_grow_slower_than_two_renos() {
        for kind in [CoupledKind::Lia, CoupledKind::Olia, CoupledKind::Balia] {
            let g = CoupledGroup::shared();
            let mut a = CoupledCc::new(g.clone(), kind, MSS, 10);
            let mut b = CoupledCc::new(g.clone(), kind, MSS, 10);
            drain_slow_start(&mut a, 20 * MSS as u64);
            drain_slow_start(&mut b, 20 * MSS as u64);
            let w0 = a.cwnd() + b.cwnd();
            // Equal RTTs: feed both a window of ACKs.
            let rtt = Some(Dur::from_millis(50));
            let per_flow = a.cwnd();
            let mut acked = 0;
            while acked < per_flow {
                a.on_ack(t0(), MSS as u64, per_flow, rtt);
                b.on_ack(t0(), MSS as u64, per_flow, rtt);
                acked += MSS as u64;
            }
            let total_growth = (a.cwnd() + b.cwnd()) - w0;
            // Two Renos would grow 2 MSS per RTT; a coupled pair on equal
            // paths grows about 1 MSS total.
            assert!(
                total_growth <= (MSS as u64 * 3) / 2,
                "{kind:?}: coupled growth {total_growth} should be well under 2 MSS"
            );
            assert!(
                total_growth >= MSS as u64 / 4,
                "{kind:?}: but not frozen: {total_growth}"
            );
        }
    }

    #[test]
    fn lia_prefers_lower_rtt_path() {
        let g = CoupledGroup::shared();
        let mut fast = lia(&g);
        let mut slow = lia(&g);
        drain_slow_start(&mut fast, 20 * MSS as u64);
        drain_slow_start(&mut slow, 20 * MSS as u64);
        let w = fast.cwnd();
        // Fast path 20 ms, slow path 200 ms: run equal ACK volume.
        for _ in 0..200 {
            fast.on_ack(t0(), MSS as u64, w, Some(Dur::from_millis(20)));
            slow.on_ack(t0(), MSS as u64, w, Some(Dur::from_millis(200)));
        }
        assert!(
            fast.cwnd() > slow.cwnd(),
            "low-RTT subflow should grow faster: {} vs {}",
            fast.cwnd(),
            slow.cwnd()
        );
    }

    #[test]
    fn olia_rebalances_toward_best_path() {
        let g = CoupledGroup::shared();
        let mut best = CoupledCc::new(g.clone(), CoupledKind::Olia, MSS, 10);
        let mut big = CoupledCc::new(g.clone(), CoupledKind::Olia, MSS, 10);
        drain_slow_start(&mut best, 20 * MSS as u64);
        drain_slow_start(&mut big, 20 * MSS as u64);
        // `big` holds the larger window but on a much slower path, so
        // `best` (fast path, smaller window) is the best-not-max path and
        // must collect the positive alpha term.
        big.set_cwnd(40 * MSS as u64);
        big.on_ack(t0(), MSS as u64, 0, Some(Dur::from_millis(400)));
        best.on_ack(t0(), MSS as u64, 0, Some(Dur::from_millis(20)));
        let alpha_best = g.borrow().olia_alpha(0);
        let alpha_big = g.borrow().olia_alpha(1);
        assert!(alpha_best > 0.0, "best path gains: {alpha_best}");
        assert!(alpha_big < 0.0, "max-window path cedes: {alpha_big}");
    }

    #[test]
    fn balia_decrease_halves_single_flow() {
        // α = 1 for a single flow, so the BALIA decrease is exactly 1/2.
        let g = CoupledGroup::shared();
        let mut cc = CoupledCc::new(g, CoupledKind::Balia, MSS, 10);
        cc.set_cwnd(40 * MSS as u64);
        cc.on_enter_recovery(t0(), 40 * MSS as u64);
        assert_eq!(cc.ssthresh(), 20 * MSS as u64);
    }

    #[test]
    fn balia_cuts_deeper_on_disadvantaged_path() {
        let g = CoupledGroup::shared();
        let mut small = CoupledCc::new(g.clone(), CoupledKind::Balia, MSS, 10);
        let mut big = CoupledCc::new(g.clone(), CoupledKind::Balia, MSS, 10);
        // Publish rates: `small` has a much lower x = w/rtt, so its α is
        // large and its cut min(α,1.5)/2 caps at 3/4 removed.
        small.set_cwnd(4 * MSS as u64);
        big.set_cwnd(40 * MSS as u64);
        small.on_ack(t0(), MSS as u64, 0, Some(Dur::from_millis(100)));
        big.on_ack(t0(), MSS as u64, 0, Some(Dur::from_millis(100)));
        let in_flight = 40 * MSS as u64;
        small.on_enter_recovery(t0(), in_flight);
        big.on_enter_recovery(t0(), in_flight);
        assert!(
            small.ssthresh() < big.ssthresh(),
            "α-capped decrease cuts deeper on the weak path: {} vs {}",
            small.ssthresh(),
            big.ssthresh()
        );
        assert_eq!(big.ssthresh(), in_flight / 2, "best path halves (α = 1)");
    }

    #[test]
    fn decrease_is_per_subflow_halving() {
        let g = CoupledGroup::shared();
        let mut cc = lia(&g);
        cc.set_cwnd(40 * MSS as u64);
        cc.on_enter_recovery(t0(), 40 * MSS as u64);
        assert_eq!(cc.ssthresh(), 20 * MSS as u64);
        cc.on_exit_recovery(t0());
        assert_eq!(cc.cwnd(), 20 * MSS as u64);
    }

    #[test]
    fn dead_subflow_leaves_alpha() {
        let g = CoupledGroup::shared();
        let mut a = lia(&g);
        let mut b = lia(&g);
        b.set_cwnd(100 * MSS as u64);
        g.borrow_mut().mark_dead_by_index(b.idx);
        drain_slow_start(&mut a, 20 * MSS as u64);
        assert_eq!(g.borrow().total_cwnd(), a.cwnd());
        // Growth now behaves like a single flow.
        let grown = window_of_acks(&mut a, 50);
        assert!(grown > 0, "survivor keeps growing");
    }

    #[test]
    fn rto_collapses_window() {
        let g = CoupledGroup::shared();
        let mut cc = lia(&g);
        cc.set_cwnd(50 * MSS as u64);
        cc.on_rto(t0(), 50 * MSS as u64);
        assert_eq!(cc.cwnd(), MSS as u64);
        assert_eq!(
            g.borrow().flows[0].cwnd,
            MSS as u64,
            "group sees the collapse"
        );
    }

    #[test]
    fn names_follow_kind() {
        let g = CoupledGroup::shared();
        assert_eq!(lia(&g).name(), "lia");
        let g = CoupledGroup::shared();
        assert_eq!(CoupledCc::new(g, CoupledKind::Olia, MSS, 10).name(), "olia");
        let g = CoupledGroup::shared();
        assert_eq!(
            CoupledCc::new(g, CoupledKind::Balia, MSS, 10).name(),
            "balia"
        );
    }

    #[test]
    fn cc_kind_labels_and_coupling() {
        let labels: Vec<_> = CcKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels, vec!["lia", "olia", "balia", "reno", "cubic"]);
        assert_eq!(CcKind::Lia.coupled(), Some(CoupledKind::Lia));
        assert_eq!(CcKind::Balia.coupled(), Some(CoupledKind::Balia));
        assert_eq!(CcKind::Reno.coupled(), None);
        assert_eq!(CcKind::Cubic.coupled(), None);
    }
}
