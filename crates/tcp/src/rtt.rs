//! RTT estimation and retransmission timeout (RFC 6298).

use mpwifi_simcore::Dur;

/// Smoothed RTT estimator with RFC 6298 RTO computation and exponential
/// backoff.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<Dur>,
    rttvar: Dur,
    rto: Dur,
    backoff_shift: u32,
    min_rto: Dur,
    max_rto: Dur,
}

impl RttEstimator {
    /// Create with the given RTO clamps. Before the first sample the RTO
    /// is the RFC's 1 second initial value (clamped).
    pub fn new(min_rto: Dur, max_rto: Dur) -> RttEstimator {
        assert!(min_rto <= max_rto, "min_rto > max_rto");
        RttEstimator {
            srtt: None,
            rttvar: Dur::ZERO,
            rto: Dur::from_secs(1).clamp(min_rto, max_rto),
            backoff_shift: 0,
            min_rto,
            max_rto,
        }
    }

    /// Feed one RTT measurement (from a timestamp echo of a segment that
    /// advanced the cumulative ACK — Karn's rule is the caller's job).
    pub fn sample(&mut self, rtt: Dur) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                // RFC 6298: rttvar = 3/4 rttvar + 1/4 |srtt - rtt|
                //           srtt   = 7/8 srtt   + 1/8 rtt
                let delta = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = self.rttvar.mul_f64(0.75) + delta.mul_f64(0.25);
                self.srtt = Some(srtt.mul_f64(0.875) + rtt.mul_f64(0.125));
            }
        }
        let srtt = self.srtt.unwrap();
        let var_term = self.rttvar.saturating_mul(4).max(Dur::from_millis(1));
        self.rto = (srtt + var_term).clamp(self.min_rto, self.max_rto);
        self.backoff_shift = 0;
    }

    /// Smoothed RTT, if at least one sample has been taken. The MPTCP
    /// min-RTT scheduler reads this.
    pub fn srtt(&self) -> Option<Dur> {
        self.srtt
    }

    /// RTT variance estimate.
    pub fn rttvar(&self) -> Dur {
        self.rttvar
    }

    /// The current RTO, including any backoff.
    pub fn rto(&self) -> Dur {
        let backed = self.rto.saturating_mul(1u64 << self.backoff_shift.min(16));
        backed.min(self.max_rto)
    }

    /// Exponential backoff after a retransmission timeout.
    pub fn backoff(&mut self) {
        self.backoff_shift = (self.backoff_shift + 1).min(16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RttEstimator {
        RttEstimator::new(Dur::from_millis(200), Dur::from_secs(60))
    }

    #[test]
    fn initial_rto_is_one_second() {
        assert_eq!(est().rto(), Dur::from_secs(1));
        assert_eq!(est().srtt(), None);
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = est();
        e.sample(Dur::from_millis(100));
        assert_eq!(e.srtt(), Some(Dur::from_millis(100)));
        assert_eq!(e.rttvar(), Dur::from_millis(50));
        // rto = 100 + 4*50 = 300 ms.
        assert_eq!(e.rto(), Dur::from_millis(300));
    }

    #[test]
    fn min_rto_clamp() {
        let mut e = est();
        // Tiny, stable RTT: srtt + 4*rttvar would be way below 200 ms.
        for _ in 0..50 {
            e.sample(Dur::from_millis(5));
        }
        assert_eq!(e.rto(), Dur::from_millis(200));
    }

    #[test]
    fn smoothing_converges_to_stable_rtt() {
        let mut e = est();
        e.sample(Dur::from_millis(500));
        for _ in 0..200 {
            e.sample(Dur::from_millis(100));
        }
        let srtt = e.srtt().unwrap();
        assert!(
            srtt >= Dur::from_millis(99) && srtt <= Dur::from_millis(105),
            "srtt {srtt}"
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = est();
        e.sample(Dur::from_millis(100)); // rto 300 ms
        e.backoff();
        assert_eq!(e.rto(), Dur::from_millis(600));
        e.backoff();
        assert_eq!(e.rto(), Dur::from_millis(1200));
        for _ in 0..20 {
            e.backoff();
        }
        assert_eq!(e.rto(), Dur::from_secs(60), "capped at max");
    }

    #[test]
    fn new_sample_resets_backoff() {
        let mut e = est();
        e.sample(Dur::from_millis(100));
        e.backoff();
        e.backoff();
        e.sample(Dur::from_millis(100));
        assert!(e.rto() < Dur::from_millis(400));
    }

    #[test]
    fn variance_grows_with_jitter() {
        let mut stable = est();
        let mut jittery = est();
        for i in 0..100 {
            stable.sample(Dur::from_millis(100));
            jittery.sample(Dur::from_millis(if i % 2 == 0 { 50 } else { 150 }));
        }
        assert!(jittery.rto() > stable.rto());
    }
}
