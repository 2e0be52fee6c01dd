//! Mahimahi-style packet-delivery traces.
//!
//! Mahimahi emulates a cellular link from a trace file listing the
//! millisecond timestamps at which the real link delivered a packet; the
//! trace repeats cyclically. [`DeliveryTrace`] is the same idea at
//! nanosecond resolution: a sorted list of opportunity offsets within a
//! period. Each opportunity can carry one frame of up to the MTU.

use mpwifi_simcore::{Dur, Time};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A cyclic schedule of packet delivery opportunities.
///
/// ```
/// use mpwifi_netem::{DeliveryTrace, MTU};
/// let trace = DeliveryTrace::constant_pps(1000);
/// assert_eq!(trace.average_bps(MTU) as u64, 12_000_000); // 1000 × 1500 B × 8
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeliveryTrace {
    /// Sorted offsets (ns) within one period at which a packet may exit,
    /// shared: every link built from one trace reads the same list, so
    /// building a world copies none.
    offsets: Arc<[u64]>,
    /// Period length in ns; all offsets are `< period`.
    period: u64,
}

impl DeliveryTrace {
    /// Build from raw offsets. Offsets are sorted and deduplicated;
    /// panics if empty or if any offset falls outside the period.
    pub fn new(mut offsets: Vec<u64>, period: Dur) -> DeliveryTrace {
        assert!(
            !offsets.is_empty(),
            "trace must have at least one opportunity"
        );
        let period = period.as_nanos();
        assert!(period > 0, "trace period must be positive");
        offsets.sort_unstable();
        offsets.dedup();
        assert!(
            *offsets.last().unwrap() < period,
            "trace offsets must be < period"
        );
        DeliveryTrace {
            offsets: offsets.into(),
            period,
        }
    }

    /// A constant-rate trace delivering `pps` packets per second, evenly
    /// spaced, with a one-second period. Equivalent to a fixed-rate link
    /// of `pps * MTU * 8` bits/s for MTU-sized packets.
    pub fn constant_pps(pps: u64) -> DeliveryTrace {
        assert!(pps > 0, "pps must be positive");
        let period = 1_000_000_000u64;
        let offsets = (0..pps).map(|i| i * period / pps).collect();
        DeliveryTrace::new(offsets, Dur::from_secs(1))
    }

    /// Build from Mahimahi's native format: millisecond timestamps within
    /// the period (one per delivery opportunity; repeated timestamps mean
    /// multiple opportunities in that millisecond — we spread them within
    /// the millisecond to keep offsets unique).
    pub fn from_mahimahi_ms(timestamps_ms: &[u64], period: Dur) -> DeliveryTrace {
        assert!(!timestamps_ms.is_empty());
        let mut offsets = Vec::with_capacity(timestamps_ms.len());
        let mut run_start = 0usize;
        let mut i = 0usize;
        while i <= timestamps_ms.len() {
            let run_ended =
                i == timestamps_ms.len() || timestamps_ms[i] != timestamps_ms[run_start];
            if run_ended {
                let count = (i - run_start) as u64;
                let base = timestamps_ms[run_start] * 1_000_000;
                for k in 0..count {
                    offsets.push(base + k * 1_000_000 / count);
                }
                run_start = i;
            }
            i += 1;
        }
        DeliveryTrace::new(offsets, period)
    }

    /// Trace period.
    pub fn period(&self) -> Dur {
        Dur::from_nanos(self.period)
    }

    /// Opportunities per period.
    pub fn opportunities_per_period(&self) -> usize {
        self.offsets.len()
    }

    /// Average delivery rate in packets per second.
    pub fn average_pps(&self) -> f64 {
        self.offsets.len() as f64 / (self.period as f64 / 1e9)
    }

    /// Average link rate in bits/s assuming MTU-sized packets.
    pub fn average_bps(&self, mtu: usize) -> f64 {
        self.average_pps() * mtu as f64 * 8.0
    }

    /// The same schedule shifted by `phase` (wrapping within the
    /// period). Measurements taken at different wall times see the
    /// channel at different phases; rotating the trace models that.
    pub fn rotated(&self, phase: Dur) -> DeliveryTrace {
        let shift = phase.as_nanos() % self.period;
        let offsets = self
            .offsets
            .iter()
            .map(|&o| (o + shift) % self.period)
            .collect();
        DeliveryTrace::new(offsets, Dur::from_nanos(self.period))
    }

    /// The first delivery opportunity at or after `at` (inclusive). Used
    /// for the very first service of a queue, where no opportunity has
    /// been consumed yet — offset 0 at t = 0 is usable.
    pub fn next_opportunity_at_or_after(&self, at: Time) -> Time {
        self.instant(self.first_at_or_after(at))
    }

    /// The first delivery opportunity at a time strictly greater than
    /// `after`. Strict inequality guarantees that repeated calls with the
    /// returned value consume one opportunity each, never the same one
    /// twice.
    pub fn next_opportunity_after(&self, after: Time) -> Time {
        self.instant(self.first_after(after))
    }

    /// [`Self::next_opportunity_at_or_after`], located.
    pub(crate) fn first_at_or_after(&self, at: Time) -> Opportunity {
        if at == Time::ZERO {
            return Opportunity {
                cycle_start: 0,
                index: 0,
            };
        }
        self.first_after(at - Dur::from_nanos(1))
    }

    /// [`Self::next_opportunity_after`], located: a division and a
    /// binary search.
    pub(crate) fn first_after(&self, after: Time) -> Opportunity {
        let t = after.as_nanos();
        let cycle_start = t / self.period * self.period;
        let offset = t - cycle_start;
        // First offset strictly greater than `offset` in this cycle.
        let index = self.offsets.partition_point(|&o| o <= offset);
        if index < self.offsets.len() {
            Opportunity { cycle_start, index }
        } else {
            Opportunity {
                cycle_start: cycle_start + self.period,
                index: 0,
            }
        }
    }

    /// The opportunity after `o`, in O(1): offsets are strictly
    /// increasing, so it is the next index, or the next cycle's first.
    /// `self.instant(self.successor(o)) ==
    /// self.next_opportunity_after(self.instant(o))`.
    pub(crate) fn successor(&self, o: Opportunity) -> Opportunity {
        if o.index + 1 < self.offsets.len() {
            Opportunity {
                index: o.index + 1,
                ..o
            }
        } else {
            Opportunity {
                cycle_start: o.cycle_start + self.period,
                index: 0,
            }
        }
    }

    /// When opportunity `o` comes.
    pub(crate) fn instant(&self, o: Opportunity) -> Time {
        Time::from_nanos(o.cycle_start + self.offsets[o.index])
    }
}

/// One delivery opportunity of a [`DeliveryTrace`] by position: the
/// start of its cycle and its index among the cycle's offsets. A
/// trace-driven queue keeps the last one it consumed, so a backlogged
/// link finds the next in O(1) ([`DeliveryTrace::successor`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Opportunity {
    cycle_start: u64,
    index: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constant_pps_rate() {
        let t = DeliveryTrace::constant_pps(1000);
        assert_eq!(t.opportunities_per_period(), 1000);
        assert!((t.average_pps() - 1000.0).abs() < 1e-9);
        // 1000 pps at 1500-byte MTU = 12 Mbit/s.
        assert!((t.average_bps(1500) - 12_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn next_opportunity_strictly_after() {
        let t = DeliveryTrace::new(vec![0, 500_000, 900_000], Dur::from_millis(1));
        assert_eq!(
            t.next_opportunity_after(Time::ZERO),
            Time::from_nanos(500_000)
        );
        assert_eq!(
            t.next_opportunity_after(Time::from_nanos(499_999)),
            Time::from_nanos(500_000)
        );
        assert_eq!(
            t.next_opportunity_after(Time::from_nanos(500_000)),
            Time::from_nanos(900_000)
        );
        // Wraps to the next period.
        assert_eq!(
            t.next_opportunity_after(Time::from_nanos(900_000)),
            Time::from_nanos(1_000_000)
        );
    }

    #[test]
    fn at_or_after_allows_the_zero_opportunity() {
        let t = DeliveryTrace::new(vec![0, 500_000], Dur::from_millis(1));
        assert_eq!(t.next_opportunity_at_or_after(Time::ZERO), Time::ZERO);
        assert_eq!(
            t.next_opportunity_at_or_after(Time::from_nanos(1)),
            Time::from_nanos(500_000)
        );
    }

    #[test]
    fn rotation_preserves_rate_and_changes_schedule() {
        let t = DeliveryTrace::new(vec![0, 100_000, 500_000], Dur::from_millis(1));
        let r = t.rotated(Dur::from_micros(250));
        assert_eq!(r.opportunities_per_period(), 3);
        assert!((r.average_pps() - t.average_pps()).abs() < 1e-9);
        assert_ne!(
            r.next_opportunity_after(Time::ZERO),
            t.next_opportunity_after(Time::ZERO)
        );
        // Full-period rotation is the identity.
        let full = t.rotated(Dur::from_millis(1));
        assert_eq!(
            full.next_opportunity_after(Time::ZERO),
            t.next_opportunity_after(Time::ZERO)
        );
    }

    #[test]
    fn mahimahi_format_spreads_repeats() {
        // Two opportunities at ms 3 -> offsets 3.0 ms and 3.5 ms.
        let t = DeliveryTrace::from_mahimahi_ms(&[1, 3, 3], Dur::from_millis(10));
        assert_eq!(t.opportunities_per_period(), 3);
        assert_eq!(
            t.next_opportunity_after(Time::from_millis(2)),
            Time::from_nanos(3_000_000)
        );
        assert_eq!(
            t.next_opportunity_after(Time::from_nanos(3_000_000)),
            Time::from_nanos(3_500_000)
        );
    }

    #[test]
    #[should_panic(expected = "at least one opportunity")]
    fn empty_trace_panics() {
        DeliveryTrace::new(vec![], Dur::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "< period")]
    fn out_of_period_offset_panics() {
        DeliveryTrace::new(vec![2_000_000_000], Dur::from_secs(1));
    }

    /// `next_opportunity_after` as it was computed before opportunities
    /// were located: the reference the located forms are held to.
    fn reference_after(t: &DeliveryTrace, after: Time) -> Time {
        let (ns, period) = (after.as_nanos(), t.period().as_nanos());
        let (cycle, offset) = (ns / period, ns % period);
        let i = t.offsets.partition_point(|&o| o <= offset);
        match t.offsets.get(i) {
            Some(&o) => Time::from_nanos(cycle * period + o),
            None => Time::from_nanos((cycle + 1) * period + t.offsets[0]),
        }
    }

    proptest! {
        #[test]
        fn prop_successor_walk_equals_repeated_search(
            offsets in proptest::collection::btree_set(0u64..1_000_000, 1..50),
            period_extra in 0u64..1_000_000,
            start in 0u64..5_000_000,
        ) {
            let offsets: Vec<u64> = offsets.into_iter().collect();
            let period = Dur::from_nanos(offsets[offsets.len() - 1] + 1 + period_extra);
            let t = DeliveryTrace::new(offsets, period);
            let start = Time::from_nanos(start);
            let mut o = t.first_after(start);
            let mut last = reference_after(&t, start);
            prop_assert_eq!(t.instant(o), last);
            prop_assert_eq!(t.next_opportunity_after(start), last);
            for _ in 0..200 {
                o = t.successor(o);
                last = reference_after(&t, last);
                prop_assert_eq!(t.instant(o), last);
            }
        }

        #[test]
        fn prop_consuming_opportunities_never_repeats(
            offsets in proptest::collection::btree_set(0u64..1_000_000, 1..50),
            start in 0u64..5_000_000,
        ) {
            let t = DeliveryTrace::new(offsets.into_iter().collect(), Dur::from_millis(1));
            let mut last = Time::from_nanos(start);
            for _ in 0..200 {
                let next = t.next_opportunity_after(last);
                prop_assert!(next > last);
                last = next;
            }
        }

        #[test]
        fn prop_long_run_rate_matches_average(
            n_opps in 1usize..20,
            start_offset in 0u64..1_000_000,
        ) {
            // n_opps evenly spaced opportunities in a 1 ms period.
            let offsets: Vec<u64> = (0..n_opps as u64).map(|i| i * 1_000_000 / n_opps as u64).collect();
            let t = DeliveryTrace::new(offsets, Dur::from_millis(1));
            let mut cur = Time::from_nanos(start_offset);
            let begin = cur;
            let draws = 1000;
            for _ in 0..draws {
                cur = t.next_opportunity_after(cur);
            }
            let elapsed = (cur - begin).as_secs_f64();
            let rate = draws as f64 / elapsed;
            let expected = t.average_pps();
            prop_assert!((rate - expected).abs() / expected < 0.05,
                "rate {rate} vs expected {expected}");
        }
    }
}
