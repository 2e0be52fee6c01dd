//! Window-arithmetic pins for the five congestion controllers.
//!
//! One fixed script drives two windows of each controller (one shared
//! group for the coupled three; the first window samples a 20 ms RTT,
//! the second 200 ms) through slow start, the entry to fast recovery,
//! congestion avoidance, a timeout and regrowth, and pins `(cwnd,
//! ssthresh)` of both windows after every phase plus an FNV-1a over
//! every step. The literals were recorded at the commit before the
//! controllers were reshaped, and again (phases 1 and 2 unmoved but for
//! the 3·MSS entry inflation) when the window stopped inflating in
//! recovery and lost those events; they hold the arithmetic byte for byte:
//! Reno's integer accumulator, CUBIC's truncations, the coupled laws'
//! float accumulator and the order in which a coupled window publishes
//! to its group. Only [`Win`], the driver, names the controller API.

use mpwifi_mptcp::{CcKind, CoupledCc, CoupledGroup};
use mpwifi_simcore::{Dur, Fnv1a, Time};
use mpwifi_tcp::cc::{Cubic, Cwnd, Growth, Reno};

const MSS: u64 = 1400;
const INIT_SEGS: u64 = 10;

/// One congestion window under test.
struct Win(Cwnd);

impl Win {
    /// Two windows of `kind`, coupled through one group where the kind
    /// couples.
    fn pair(kind: CcKind) -> [Win; 2] {
        let group = CoupledGroup::shared();
        [(); 2].map(|()| {
            let rule: Box<dyn Growth> = match CoupledCc::new(group.clone(), kind) {
                Some(law) => Box::new(law),
                None if kind == CcKind::Cubic => Box::new(Cubic::default()),
                None => Box::new(Reno::default()),
            };
            Win(Cwnd::new(MSS as usize, INIT_SEGS, rule))
        })
    }

    fn state(&self) -> (u64, u64) {
        (self.0.cwnd(), self.0.ssthresh())
    }

    fn ack(&mut self, now: Time, acked: u64, rtt: Dur) {
        self.0.on_ack(now, acked, Some(rtt));
    }

    fn enter_recovery(&mut self) {
        let in_flight = self.0.cwnd();
        self.0.on_enter_recovery(in_flight);
    }

    fn timeout(&mut self) {
        let in_flight = self.0.cwnd() / 2;
        self.0.on_rto(in_flight);
    }
}

/// `[(cwnd, ssthresh); 2]` — both windows, first then second.
type Pair = [(u64, u64); 2];

/// The script's clock, both windows, and the digest over every step.
struct Run {
    wins: [Win; 2],
    now: Time,
    digest: Fnv1a,
}

impl Run {
    const RTT: [Dur; 2] = [Dur::from_millis(20), Dur::from_millis(200)];

    /// Apply `event` to window `i` (at the current instant), fold both
    /// windows' state into the digest, advance the clock 2 ms.
    fn step(&mut self, i: usize, event: impl FnOnce(&mut Win, Time, Dur)) {
        event(&mut self.wins[i], self.now, Self::RTT[i]);
        for (cwnd, ssthresh) in self.pair() {
            self.digest.write(&cwnd.to_le_bytes());
            self.digest.write(&ssthresh.to_le_bytes());
        }
        self.now += Dur::from_millis(2);
    }

    fn pair(&self) -> Pair {
        [self.wins[0].state(), self.wins[1].state()]
    }
}

/// The fixed script: the pair after each of its five phases, and the
/// digest over all of its steps.
fn script(kind: CcKind) -> ([Pair; 5], u64) {
    let mut run = Run {
        wins: Win::pair(kind),
        now: Time::ZERO,
        digest: Fnv1a::new(),
    };
    let mut phases = Vec::new();
    let ack = |w: &mut Win, now, rtt| w.ack(now, MSS, rtt);

    // 1. Slow start: 40 one-MSS ACKs on each window from the initial one.
    for _ in 0..40 {
        run.step(0, ack);
        run.step(1, ack);
    }
    phases.push(run.pair());
    // 2. Third duplicate ACK with a full window in flight: the window
    //    lands on its threshold and waits there for recovery to end.
    for i in 0..2 {
        run.step(i, |w, _, _| w.enter_recovery());
    }
    phases.push(run.pair());
    // 3. Congestion avoidance: 300 ACKs alternating between the windows.
    for n in 0..300 {
        run.step(n % 2, ack);
    }
    phases.push(run.pair());
    // 4. The second window times out with half a window in flight (a
    //    rule that reads `cwnd` here and one that reads `in_flight` part).
    run.step(1, |w, _, _| w.timeout());
    phases.push(run.pair());
    // 5. 60 more ACKs: the second window slow-starts back past its
    //    threshold beside the first's congestion avoidance.
    for n in 0..60 {
        run.step(n % 2, ack);
    }
    phases.push(run.pair());

    (phases.try_into().unwrap(), run.digest.finish())
}

/// No threshold yet: a window that has seen no loss.
const INF: u64 = u64::MAX;

#[test]
fn lia_window_arithmetic_is_pinned() {
    let phases = [
        [(70000, INF), (70000, INF)],
        [(35000, 35000), (35000, 35000)],
        [(41367, 35000), (41361, 35000)],
        [(41367, 35000), (1400, 10340)],
        [(42701, 35000), (12211, 10340)],
    ];
    assert_eq!(script(CcKind::Lia), (phases, 0x75fce7e398adf2a7));
}

#[test]
fn olia_window_arithmetic_is_pinned() {
    let phases = [
        [(70000, INF), (70000, INF)],
        [(35000, 35000), (35000, 35000)],
        [(41456, 35000), (35059, 35000)],
        [(41456, 35000), (1400, 8764)],
        [(42796, 35000), (9802, 8764)],
    ];
    assert_eq!(script(CcKind::Olia), (phases, 0x8c5694de6aaa4b2d));
}

#[test]
fn balia_window_arithmetic_is_pinned() {
    let phases = [
        [(70000, INF), (70000, INF)],
        [(35000, 35000), (17500, 17500)],
        [(41962, 35000), (19316, 17500)],
        [(41962, 35000), (1400, 4829)],
        [(43306, 35000), (6512, 4829)],
    ];
    assert_eq!(script(CcKind::Balia), (phases, 0xe20f97ed591fed51));
}

#[test]
fn reno_window_arithmetic_is_pinned() {
    let phases = [
        [(70000, INF), (70000, INF)],
        [(35000, 35000), (35000, 35000)],
        [(42000, 35000), (42000, 35000)],
        [(42000, 35000), (1400, 10500)],
        [(43400, 35000), (14000, 10500)],
    ];
    assert_eq!(script(CcKind::Reno), (phases, 0x82dcca38481773fe));
}

#[test]
fn cubic_window_arithmetic_is_pinned() {
    let phases = [
        [(70000, INF), (70000, INF)],
        [(49000, 49000), (49000, 49000)],
        [(56499, 49000), (58718, 49000)],
        [(56499, 49000), (1400, 41102)],
        [(58037, 49000), (42100, 41102)],
    ];
    assert_eq!(script(CcKind::Cubic), (phases, 0xef756dc958accfbf));
}
