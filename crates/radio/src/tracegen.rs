//! Variable-rate delivery-trace generation.
//!
//! Mahimahi emulates cellular links from packet-delivery traces recorded
//! on real networks (e.g. `Verizon-LTE.down`). We generate synthetic
//! traces with the same qualitative structure:
//!
//! * **LTE** ([`lte_trace`]): rate follows a geometric random walk across
//!   20 ms scheduling bins — persistent multi-hundred-ms swells and fades
//!   like a fading channel under proportional-fair scheduling;
//! * **WiFi** ([`wifi_trace`]): near-constant rate with occasional deep
//!   degradation bursts (co-channel contention), matching the paper's
//!   observation that crowded WiFi sometimes collapses.

use mpwifi_netem::{DeliveryTrace, MTU};
use mpwifi_simcore::{DetRng, Dur};

/// Bin width for rate modulation.
const BIN: Dur = Dur::from_millis(20);

/// Build a delivery trace from per-bin rates (bits/s): each bin's whole
/// packets, spread evenly over the bin.
fn trace_from_bin_rates(rates: &[f64], bin: Dur) -> DeliveryTrace {
    // Carry fractional packets across bins so the average rate is exact.
    let mut carry = 0.0f64;
    let counts: Vec<u64> = rates
        .iter()
        .map(|&bps| {
            let pkts_f = bps * bin.as_secs_f64() / (MTU as f64 * 8.0) + carry;
            let pkts = pkts_f.floor() as u64;
            carry = pkts_f - pkts as f64;
            pkts
        })
        .collect();
    DeliveryTrace::from_bin_counts(&counts, bin)
}

/// Generate an LTE-like delivery trace with the given mean rate.
///
/// `volatility` controls the per-bin geometric step (0.0 = constant,
/// 0.15 = typical LTE variability). The trace period is `period`.
pub fn lte_trace(rng: &mut DetRng, mean_bps: f64, volatility: f64, period: Dur) -> DeliveryTrace {
    assert!(mean_bps > 0.0 && volatility >= 0.0);
    let bins = (period.as_nanos() / BIN.as_nanos()).max(1) as usize;
    let mut rates = Vec::with_capacity(bins);
    let mut r = mean_bps;
    for _ in 0..bins {
        let step = rng.normal(0.0, volatility);
        r = (r * step.exp()).clamp(mean_bps * 0.05, mean_bps * 4.0);
        rates.push(r);
    }
    // Normalize so the realized average matches the requested mean.
    let avg = rates.iter().sum::<f64>() / rates.len() as f64;
    let scale = mean_bps / avg;
    for r in &mut rates {
        *r *= scale;
    }
    trace_from_bin_rates(&rates, BIN)
}

/// Generate a WiFi-like delivery trace: constant `mean_bps` with
/// `burst_prob` chance per 100 ms of a degradation burst to
/// `degraded_frac` of the rate for 100–400 ms.
pub fn wifi_trace(
    rng: &mut DetRng,
    mean_bps: f64,
    burst_prob: f64,
    degraded_frac: f64,
    period: Dur,
) -> DeliveryTrace {
    assert!(mean_bps > 0.0);
    let bins = (period.as_nanos() / BIN.as_nanos()).max(1) as usize;
    let mut rates = vec![mean_bps; bins];
    let mut i = 0;
    while i < bins {
        // Check for burst onset every 5 bins (100 ms).
        if i % 5 == 0 && rng.chance(burst_prob) {
            let burst_bins = 5 + rng.index(16); // 100..420 ms
            for slot in rates.iter_mut().skip(i).take(burst_bins) {
                *slot = mean_bps * degraded_frac;
            }
            i += burst_bins;
        } else {
            i += 1;
        }
    }
    trace_from_bin_rates(&rates, BIN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lte_trace_mean_rate_accurate() {
        let mut rng = DetRng::seed_from_u64(1);
        for mean in [1_000_000.0, 8_000_000.0, 25_000_000.0] {
            let t = lte_trace(&mut rng, mean, 0.15, Dur::from_secs(4));
            let realized = t.average_bps(MTU);
            assert!(
                (realized - mean).abs() / mean < 0.02,
                "mean {mean}, realized {realized}"
            );
        }
    }

    #[test]
    fn lte_trace_actually_varies() {
        let mut rng = DetRng::seed_from_u64(2);
        let t = lte_trace(&mut rng, 10_000_000.0, 0.2, Dur::from_secs(4));
        // Count opportunities per 100 ms window; expect substantial
        // variation across windows.
        let mut counts = vec![0usize; 40];
        let mut cur = mpwifi_simcore::Time::ZERO;
        for _ in 0..t.opportunities_per_period() {
            cur = t.next_opportunity_after(cur);
            let w = (cur.as_millis() / 100) as usize;
            if w < counts.len() {
                counts[w] += 1;
            }
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max > min * 1.3, "trace too flat: {min}..{max}");
    }

    #[test]
    fn wifi_trace_degrades_sometimes() {
        let mut rng = DetRng::seed_from_u64(3);
        let t = wifi_trace(&mut rng, 20_000_000.0, 0.3, 0.15, Dur::from_secs(4));
        let realized = t.average_bps(MTU);
        // Bursts pull the average below the nominal rate.
        assert!(realized < 20_000_000.0);
        assert!(realized > 5_000_000.0);
    }

    #[test]
    fn wifi_trace_without_bursts_is_flat() {
        let mut rng = DetRng::seed_from_u64(4);
        let t = wifi_trace(&mut rng, 12_000_000.0, 0.0, 0.1, Dur::from_secs(2));
        let realized = t.average_bps(MTU);
        assert!((realized - 12_000_000.0).abs() / 12_000_000.0 < 0.02);
    }

    #[test]
    fn degenerate_slow_rate_still_valid() {
        let mut rng = DetRng::seed_from_u64(5);
        let t = lte_trace(&mut rng, 1.0, 0.1, Dur::from_millis(100));
        assert!(t.opportunities_per_period() >= 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let make = || {
            let mut rng = DetRng::seed_from_u64(77);
            lte_trace(&mut rng, 5_000_000.0, 0.15, Dur::from_secs(1))
        };
        assert_eq!(
            make().opportunities_per_period(),
            make().opportunities_per_period()
        );
        let (a, b) = (make(), make());
        let mut cur = mpwifi_simcore::Time::ZERO;
        for _ in 0..100 {
            let na = a.next_opportunity_after(cur);
            let nb = b.next_opportunity_after(cur);
            assert_eq!(na, nb);
            cur = na;
        }
    }
}
