//! Coupled congestion control: LIA (RFC 6356), OLIA, and BALIA.
//!
//! This is the paper's "coupled" configuration, grown into a small zoo.
//! Each subflow's congestion window (`mpwifi_tcp::cc::Cwnd`, which owns
//! slow start and loss recovery) runs a [`CoupledCc`] as its growth
//! rule; the rules of one connection share a [`CoupledGroup`], to which
//! each publishes every value its window settles on, so the per-ACK
//! increase of one subflow can see the windows and RTTs of its siblings.
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
use mpwifi_tcp::cc::{Growth, Loss};
use std::cell::RefCell;
use std::rc::Rc;

/// MPTCP congestion-control selection: the coupled family plus the two
/// per-subflow (decoupled) rules from `mpwifi-tcp`.
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
}

/// Which coupled law a [`CoupledCc`] runs.
#[derive(Debug, Clone, Copy)]
enum Law {
    Lia,
    Olia,
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

    fn register(&mut self) -> usize {
        self.flows.push(FlowView {
            cwnd: 0,
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

/// One subflow's coupled growth rule (LIA, OLIA, or BALIA).
#[derive(Debug)]
pub struct CoupledCc {
    group: Rc<RefCell<CoupledGroup>>,
    law: Law,
    idx: usize,
    /// Fractional byte accumulator for sub-MSS increases.
    accum: f64,
}

impl CoupledCc {
    /// The coupled law `kind` names, registered as `group`'s next flow
    /// (its window publishes itself from its first value on); `None` for
    /// the decoupled kinds, which are rules of their own in
    /// `mpwifi_tcp::cc`.
    pub fn new(group: Rc<RefCell<CoupledGroup>>, kind: CcKind) -> Option<CoupledCc> {
        let law = match kind {
            CcKind::Lia => Law::Lia,
            CcKind::Olia => Law::Olia,
            CcKind::Balia => Law::Balia,
            CcKind::Reno | CcKind::Cubic => return None,
        };
        let idx = group.borrow_mut().register();
        Some(CoupledCc {
            group,
            law,
            idx,
            accum: 0.0,
        })
    }

    /// The congestion-avoidance increase in bytes for `acked` bytes on a
    /// window of `cwnd`, the group already holding that `cwnd`.
    fn ca_increase(&self, cwnd: u64, mss: u64, acked: u64) -> f64 {
        let (cwnd, mss, acked) = (cwnd as f64, mss as f64, acked as f64);
        let reno = acked * mss / cwnd;
        let g = self.group.borrow();
        match self.law {
            Law::Lia => {
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
            Law::Olia => {
                let denom = g.rate_denom();
                if denom <= 0.0 {
                    return 0.0;
                }
                let rtt = g.flows[self.idx].srtt.as_secs_f64().max(1e-4);
                let term1 = (cwnd / (rtt * rtt)) / (denom * denom);
                let term2 = g.olia_alpha(self.idx) / cwnd;
                // The rebalancing term can make the net increase negative
                // for largest-window paths; clamp at zero (windows shrink
                // only on loss) and never outgrow Reno.
                (acked * mss * (term1 + term2)).clamp(0.0, reno)
            }
            Law::Balia => {
                let denom = g.rate_denom();
                if denom <= 0.0 {
                    return 0.0;
                }
                let rtt = g.flows[self.idx].srtt.as_secs_f64().max(1e-4);
                let term = (cwnd / (rtt * rtt)) / (denom * denom);
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
        match self.law {
            Law::Lia | Law::Olia => 0.5,
            Law::Balia => {
                let a = self.group.borrow().balia_alpha(self.idx);
                a.min(1.5) / 2.0
            }
        }
    }
}

impl Growth for CoupledCc {
    fn increase(&mut self, _: Time, cwnd: u64, mss: u64, acked: u64, _: Option<Dur>) -> u64 {
        self.accum += self.ca_increase(cwnd, mss, acked);
        let whole = self.accum.floor();
        self.accum -= whole;
        whole as u64
    }

    fn ssthresh_after(&mut self, loss: Loss, _cwnd: u64, in_flight: u64) -> u64 {
        self.accum = 0.0;
        match loss {
            // The group still holds the window the loss found.
            Loss::FastRecovery => (in_flight as f64 * (1.0 - self.decrease_factor())) as u64,
            Loss::Timeout => in_flight / 2,
        }
    }

    fn observe(&mut self, cwnd: u64, rtt: Option<Dur>) {
        let mut g = self.group.borrow_mut();
        let f = &mut g.flows[self.idx];
        f.cwnd = cwnd;
        if let Some(r) = rtt {
            f.srtt = r;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpwifi_tcp::cc::Cwnd;

    const MSS: usize = 1400;

    fn t0() -> Time {
        Time::ZERO
    }

    /// A window of `segs` segments whose rule is `kind`'s, in `g`.
    fn window(g: &Rc<RefCell<CoupledGroup>>, kind: CcKind, segs: u64) -> Cwnd {
        let rule = CoupledCc::new(g.clone(), kind).expect("a coupled kind");
        Cwnd::new(MSS, segs, Box::new(rule))
    }

    fn lia(g: &Rc<RefCell<CoupledGroup>>) -> Cwnd {
        window(g, CcKind::Lia, 10)
    }

    fn drain_slow_start(cc: &mut Cwnd, in_flight: u64) {
        // Force out of slow start via a recovery episode.
        cc.on_enter_recovery(in_flight);
    }

    /// Feed one full window of MSS ACKs and return the growth in bytes.
    fn window_of_acks(cc: &mut Cwnd, rtt_ms: u64) -> u64 {
        let w0 = cc.cwnd();
        let mut acked = 0;
        while acked < w0 {
            cc.on_ack(t0(), MSS as u64, Some(Dur::from_millis(rtt_ms)));
            acked += MSS as u64;
        }
        cc.cwnd() - w0
    }

    #[test]
    fn slow_start_grows_like_reno() {
        let g = CoupledGroup::shared();
        let mut cc = lia(&g);
        let w0 = cc.cwnd();
        cc.on_ack(t0(), MSS as u64, Some(Dur::from_millis(50)));
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
        for kind in [CcKind::Olia, CcKind::Balia] {
            let g = CoupledGroup::shared();
            let mut cc = window(&g, kind, 10);
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
        for kind in [CcKind::Lia, CcKind::Olia, CcKind::Balia] {
            let g = CoupledGroup::shared();
            let mut a = window(&g, kind, 10);
            let mut b = window(&g, kind, 10);
            drain_slow_start(&mut a, 20 * MSS as u64);
            drain_slow_start(&mut b, 20 * MSS as u64);
            let w0 = a.cwnd() + b.cwnd();
            // Equal RTTs: feed both a window of ACKs.
            let rtt = Some(Dur::from_millis(50));
            let per_flow = a.cwnd();
            let mut acked = 0;
            while acked < per_flow {
                a.on_ack(t0(), MSS as u64, rtt);
                b.on_ack(t0(), MSS as u64, rtt);
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
        // Fast path 20 ms, slow path 200 ms: run equal ACK volume.
        for _ in 0..200 {
            fast.on_ack(t0(), MSS as u64, Some(Dur::from_millis(20)));
            slow.on_ack(t0(), MSS as u64, Some(Dur::from_millis(200)));
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
        let mut best = window(&g, CcKind::Olia, 10);
        let mut big = window(&g, CcKind::Olia, 10);
        // `big` holds the larger window (40 segments against 10) but on
        // a much slower path, so `best` (fast path, smaller window) is
        // the best-not-max path and must collect the positive alpha term.
        drain_slow_start(&mut best, 20 * MSS as u64);
        drain_slow_start(&mut big, 80 * MSS as u64);
        big.on_ack(t0(), MSS as u64, Some(Dur::from_millis(400)));
        best.on_ack(t0(), MSS as u64, Some(Dur::from_millis(20)));
        let alpha_best = g.borrow().olia_alpha(0);
        let alpha_big = g.borrow().olia_alpha(1);
        assert!(alpha_best > 0.0, "best path gains: {alpha_best}");
        assert!(alpha_big < 0.0, "max-window path cedes: {alpha_big}");
    }

    #[test]
    fn balia_decrease_halves_single_flow() {
        // α = 1 for a single flow, so the BALIA decrease is exactly 1/2.
        let g = CoupledGroup::shared();
        let mut cc = window(&g, CcKind::Balia, 40);
        cc.on_enter_recovery(40 * MSS as u64);
        assert_eq!(cc.ssthresh(), 20 * MSS as u64);
    }

    #[test]
    fn balia_cuts_deeper_on_disadvantaged_path() {
        let g = CoupledGroup::shared();
        // Publish rates: `small` has a much lower x = w/rtt, so its α is
        // large and its cut min(α,1.5)/2 caps at 3/4 removed.
        let mut small = window(&g, CcKind::Balia, 4);
        let mut big = window(&g, CcKind::Balia, 40);
        small.on_ack(t0(), MSS as u64, Some(Dur::from_millis(100)));
        big.on_ack(t0(), MSS as u64, Some(Dur::from_millis(100)));
        let in_flight = 40 * MSS as u64;
        small.on_enter_recovery(in_flight);
        big.on_enter_recovery(in_flight);
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
        let mut cc = window(&g, CcKind::Lia, 40);
        cc.on_enter_recovery(40 * MSS as u64);
        assert_eq!(cc.ssthresh(), 20 * MSS as u64);
        assert_eq!(cc.cwnd(), 20 * MSS as u64);
    }

    #[test]
    fn dead_subflow_leaves_alpha() {
        let g = CoupledGroup::shared();
        let mut a = lia(&g);
        let _b = window(&g, CcKind::Lia, 100);
        g.borrow_mut().mark_dead_by_index(1);
        drain_slow_start(&mut a, 20 * MSS as u64);
        assert_eq!(g.borrow().total_cwnd(), a.cwnd());
        // Growth now behaves like a single flow.
        let grown = window_of_acks(&mut a, 50);
        assert!(grown > 0, "survivor keeps growing");
    }

    #[test]
    fn rto_collapses_window() {
        let g = CoupledGroup::shared();
        let mut cc = window(&g, CcKind::Lia, 50);
        cc.on_rto(50 * MSS as u64);
        assert_eq!(cc.cwnd(), MSS as u64);
        assert_eq!(
            g.borrow().flows[0].cwnd,
            MSS as u64,
            "group sees the collapse"
        );
    }

    /// Each law evaluated once on a hand-written two-flow state, no ACK
    /// loop, against the module doc's formula. Flow 0 is the best path
    /// (highest `w/rtt²`), flow 1 holds the largest window, and no
    /// increase is clamped by the Reno ceiling or the zero floor.
    #[test]
    fn laws_match_their_formulas_on_a_two_flow_state() {
        let mss = MSS as f64;
        let w = [4.0 * mss, 60.0 * mss];
        let rtt = [Dur::from_millis(20), Dur::from_millis(100)];
        let r = rtt.map(|d| d.as_secs_f64());
        let rules = |kind| {
            let g = CoupledGroup::shared();
            let rules = [0, 1].map(|i| {
                let mut rule = CoupledCc::new(g.clone(), kind).expect("a coupled kind");
                rule.observe(w[i] as u64, Some(rtt[i]));
                rule
            });
            (g, rules)
        };
        // Bytes one ACKed MSS adds to flow `i`.
        let grow = |rules: &[CoupledCc; 2], i: usize| {
            rules[i].ca_increase(w[i] as u64, MSS as u64, MSS as u64)
        };
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want.abs();
        let x = [w[0] / r[0], w[1] / r[1]];
        let rate_sq = (x[0] + x[1]).powi(2);
        let base = [0, 1].map(|i| w[i] / (r[i] * r[i]) / rate_sq);

        // LIA: alpha = total · max_r(w_r/rtt_r²) / (Σ w_r/rtt_r)².
        let (g, lia) = rules(CcKind::Lia);
        let alpha = (w[0] + w[1]) * (w[0] / (r[0] * r[0])) / rate_sq;
        assert!(close(g.borrow().lia_alpha(), alpha));
        for i in [0, 1] {
            let want = alpha * mss * mss / (w[0] + w[1]);
            assert!(close(grow(&lia, i), want), "lia flow {i}");
        }

        // OLIA: the best-not-largest path collects +1/(|B∖M|·n), the
        // largest-window path cedes −1/(|M|·n); the split sums to zero.
        let (g, olia) = rules(CcKind::Olia);
        let alphas = [0, 1].map(|i| g.borrow().olia_alpha(i));
        assert_eq!(alphas, [0.5, -0.5]);
        for i in [0, 1] {
            let want = mss * mss * (base[i] + alphas[i] / w[i]);
            assert!(close(grow(&olia, i), want), "olia flow {i}");
        }

        // BALIA: α_r = max_k(x_k)/x_r scales the base term by
        // ((1+α)/2)·((4+α)/5) and sets the cut to min(α, 1.5)/2.
        let (g, balia) = rules(CcKind::Balia);
        let alphas = [x[1] / x[0], 1.0];
        for i in [0, 1] {
            let a = alphas[i];
            assert!(close(g.borrow().balia_alpha(i), a));
            let want = mss * mss * base[i] * ((1.0 + a) / 2.0) * ((4.0 + a) / 5.0);
            assert!(close(grow(&balia, i), want), "balia flow {i}");
        }
        assert_eq!(balia[0].decrease_factor(), 0.75, "α = 3 caps at 1.5");
        assert_eq!(balia[1].decrease_factor(), 0.5, "the best path halves");
    }

    #[test]
    fn cc_kind_labels_and_coupling() {
        let labels: Vec<_> = CcKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels, vec!["lia", "olia", "balia", "reno", "cubic"]);
        let g = CoupledGroup::shared();
        let coupled = CcKind::ALL.map(|k| CoupledCc::new(g.clone(), k).is_some());
        assert_eq!(coupled, [true, true, true, false, false]);
        assert_eq!(g.borrow().len(), 3, "only a coupled law registers");
    }
}
