//! Mahimahi-style packet-delivery traces.
//!
//! Mahimahi emulates a cellular link from a trace file listing the
//! millisecond timestamps at which the real link delivered a packet; the
//! trace repeats cyclically. [`DeliveryTrace`] is the same idea at
//! nanosecond resolution: a schedule of opportunity offsets within a
//! period. Each opportunity can carry one frame of up to the MTU.
//!
//! # Runs
//!
//! A trace is stored as *runs*, not as a list of offsets. A run
//! `(start, width, count)` holds the `count` offsets
//! `start + k·width / count` for `k < count` (integer division), spread
//! evenly over `[start, start + width)`. Every constructor's offsets are
//! exactly that expression:
//!
//! * [`DeliveryTrace::from_bin_counts`]: bin `i` of `count` packets is
//!   the run `(i·bin, bin, count)`, and an empty bin holds no run;
//! * [`DeliveryTrace::constant_pps`]: the one run `(0, 10⁹, pps)`;
//! * [`DeliveryTrace::new`]: one run `(offset, 1, 1)` per distinct
//!   offset, the general, hand-written form.
//!
//! A run with `count > width` is stored with `count = width`: the
//! expression then repeats offsets, and what is left after removing the
//! repeats is every integer of `[start, start + width)`, which is the
//! clamped run. So the set of offsets is the one a sorted, deduplicated
//! list of them would hold, and the runs of one trace are disjoint and
//! in order. A generated 4 s trace of 200 bins is at most 200 runs of
//! 24 bytes instead of up to tens of thousands of stored offsets, and
//! nothing is sorted. A trace built by `new` costs more than a list of
//! offsets would: 24 bytes per distinct offset, not 8. It is the form of
//! tests and hand-written schedules, neither of which a world or a
//! benchmark builds.
//!
//! **Lookup.** The first offset after `x` is found arithmetically: a
//! binary search over the run starts finds the run holding `x`, and in
//! it the first index past `x` is `k = ⌈(x − start + 1)·count / width⌉`,
//! the least `k` with `⌊k·width / count⌋ > x − start`. The products are
//! taken in `u64` whenever they fit.
//!
//! **Walk.** A located `Opportunity` keeps its instant, its run, `k` and
//! `k·width mod count`. The next one in the run is `width / count` later,
//! plus one when the remainder, grown by `width mod count`, reaches
//! `count`. After a run's last offset, `(count − 1)·step + extra − [extra > 0]`
//! past its start (`step` and `extra` are `width`'s quotient and
//! remainder by `count`), comes the next run's first, or the first
//! run's one period on. No division, and the instant is read back as
//! stored.
//!
//! **Rotation.** [`DeliveryTrace::rotated`] is O(1): the rotation shares
//! the runs and stores how far the unrotated schedule leads it,
//! `lead = (period − phase) mod period`. Rotating offsets `o` by `s`
//! within the period gives the instants `{c·P + (o + s) mod P : c ≥ 0}`,
//! which is the set `{c·P + o + s : c ≥ −1} ∩ [0, ∞)`: the unrotated
//! timeline, one cycle earlier, moved later by `s`. So an instant of the
//! rotation is an unrotated instant less `lead`, and a lookup at `t` is
//! an unrotated lookup at `t + lead`; the first rotated opportunity at or
//! after 0 is the first unrotated one at or after `lead`, the smallest
//! rotated offset.

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
    /// Disjoint runs in order of `start`, shared: every link built from
    /// one trace, and every rotation of it, reads the same runs, so
    /// building a world copies none.
    runs: Arc<[Run]>,
    /// Period length in ns; all offsets are `< period`.
    period: u64,
    /// Opportunities per period: the sum of the runs' counts.
    opportunities: u64,
    /// How far the unrotated schedule leads this one, `< period`: an
    /// instant here is an unrotated instant less `lead`.
    lead: u64,
}

/// `count` offsets spread over `width` ns from `start`: the `k`-th is
/// `start + k·width / count`. `width` is kept as its quotient and
/// remainder by `count`, which is what stepping from one offset to the
/// next adds.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: u64,
    /// `width / count`.
    step: u64,
    count: u32,
    /// `width % count`.
    extra: u32,
}

impl Run {
    /// The run of `count` offsets over `width` ns from `start`, with
    /// `count` clamped to `width` (the same offset set; module docs).
    fn new(start: u64, width: u64, count: u64) -> Run {
        debug_assert!(width > 0 && count > 0, "an empty run");
        let count = count.min(width);
        let count32 = u32::try_from(count).expect("at most u32::MAX opportunities per run");
        Run {
            start,
            step: width / count,
            count: count32,
            extra: (width % count) as u32,
        }
    }

    fn width(&self) -> u64 {
        self.step * u64::from(self.count) + u64::from(self.extra)
    }

    /// `(⌊k·width / count⌋, k·width mod count)` for `k < count`. Both
    /// products fit in `u64`: `k·step < width` and `k·extra < count²`.
    fn offset(&self, k: u64) -> (u64, u32) {
        let c = u64::from(self.count);
        let frac = k * u64::from(self.extra);
        (k * self.step + frac / c, (frac % c) as u32)
    }

    /// `⌊(count − 1)·width / count⌋`, the last offset less `start`,
    /// without a division: `⌊(count − 1)·extra / count⌋` is
    /// `extra − 1`, or 0 when `extra` is.
    fn last_offset(&self) -> u64 {
        u64::from(self.count - 1) * self.step + u64::from(self.extra) - u64::from(self.extra > 0)
    }

    /// The index of the first offset more than `rel` ns after `start`,
    /// or `count` if there is none.
    fn first_past(&self, rel: u64) -> u64 {
        let (width, c) = (self.width(), u64::from(self.count));
        if rel >= width {
            return c;
        }
        match (rel + 1).checked_mul(c) {
            Some(p) => p.div_ceil(width),
            None => (u128::from(rel + 1) * u128::from(c)).div_ceil(u128::from(width)) as u64,
        }
    }
}

impl DeliveryTrace {
    /// Build from raw offsets. Offsets are sorted and deduplicated;
    /// panics if empty or if any offset falls outside the period.
    pub fn new(mut offsets: Vec<u64>, period: Dur) -> DeliveryTrace {
        assert!(
            !offsets.is_empty(),
            "trace must have at least one opportunity"
        );
        offsets.sort_unstable();
        offsets.dedup();
        let runs = offsets.into_iter().map(|o| Run::new(o, 1, 1)).collect();
        DeliveryTrace::from_runs(runs, period.as_nanos())
    }

    /// A constant-rate trace delivering `pps` packets per second, evenly
    /// spaced, with a one-second period. Equivalent to a fixed-rate link
    /// of `pps * MTU * 8` bits/s for MTU-sized packets.
    pub fn constant_pps(pps: u64) -> DeliveryTrace {
        assert!(pps > 0, "pps must be positive");
        let period = 1_000_000_000u64;
        DeliveryTrace::from_runs(vec![Run::new(0, period, pps)], period)
    }

    /// A trace of `counts.len()` bins of `bin` each, bin `i` holding
    /// `counts[i]` opportunities at `i·bin + k·bin / counts[i]`. A trace
    /// whose every count is zero has one opportunity per period, at
    /// offset 0 (a degenerate ultra-slow link).
    pub fn from_bin_counts(counts: &[u64], bin: Dur) -> DeliveryTrace {
        let period = bin * counts.len() as u64;
        assert!(period > Dur::ZERO, "trace period must be positive");
        let bin = bin.as_nanos();
        let mut runs: Vec<Run> = (0..)
            .zip(counts)
            .filter(|&(_, &count)| count > 0)
            .map(|(i, &count)| Run::new(i * bin, bin, count))
            .collect();
        if runs.is_empty() {
            runs.push(Run::new(0, 1, 1));
        }
        DeliveryTrace::from_runs(runs, period.as_nanos())
    }

    /// The trace of `runs` (non-empty, disjoint, in order).
    fn from_runs(runs: Vec<Run>, period: u64) -> DeliveryTrace {
        assert!(period > 0, "trace period must be positive");
        let last = runs.last().expect("a trace has at least one run");
        assert!(
            last.start + last.last_offset() < period,
            "trace offsets must be < period"
        );
        debug_assert!(
            runs.windows(2)
                .all(|w| w[0].start + w[0].width() <= w[1].start),
            "runs overlap or are out of order"
        );
        DeliveryTrace {
            opportunities: runs.iter().map(|r| u64::from(r.count)).sum(),
            runs: runs.into(),
            period,
            lead: 0,
        }
    }

    /// Trace period.
    pub fn period(&self) -> Dur {
        Dur::from_nanos(self.period)
    }

    /// Opportunities per period.
    pub fn opportunities_per_period(&self) -> usize {
        self.opportunities as usize
    }

    /// Average delivery rate in packets per second.
    pub fn average_pps(&self) -> f64 {
        self.opportunities as f64 / (self.period as f64 / 1e9)
    }

    /// Average link rate in bits/s assuming MTU-sized packets.
    pub fn average_bps(&self, mtu: usize) -> f64 {
        self.average_pps() * mtu as f64 * 8.0
    }

    /// The same schedule shifted by `phase` (wrapping within the
    /// period). Measurements taken at different wall times see the
    /// channel at different phases; rotating the trace models that.
    /// O(1): the rotation shares this trace's runs.
    pub fn rotated(&self, phase: Dur) -> DeliveryTrace {
        let shift = phase.as_nanos() % self.period;
        DeliveryTrace {
            lead: (self.lead + self.period - shift) % self.period,
            ..self.clone()
        }
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
        match (at.as_nanos() + self.lead).checked_sub(1) {
            Some(before) => self.locate_after(before),
            None => self.first_of_run(0, 0),
        }
    }

    /// [`Self::next_opportunity_after`], located.
    pub(crate) fn first_after(&self, after: Time) -> Opportunity {
        self.locate_after(after.as_nanos() + self.lead)
    }

    /// The first opportunity of the unrotated schedule strictly after
    /// `t`: a division for the cycle, a binary search over the runs and
    /// [`Run::first_past`] in the run holding the offset.
    fn locate_after(&self, t: u64) -> Opportunity {
        let cycle = t / self.period * self.period;
        let x = t - cycle;
        // Runs before `j` start at or before `x`; only `j - 1` can hold it.
        let j = self.runs.partition_point(|r| r.start <= x);
        if let Some(run) = j.checked_sub(1).map(|i| &self.runs[i]) {
            let k = run.first_past(x - run.start);
            if k < u64::from(run.count) {
                let (offset, rem) = run.offset(k);
                return Opportunity {
                    at: cycle + run.start + offset - self.lead,
                    rem,
                    k: k as u32,
                    run: (j - 1) as u32,
                };
            }
        }
        if j < self.runs.len() {
            self.first_of_run(cycle, j)
        } else {
            self.first_of_run(cycle + self.period, 0)
        }
    }

    /// The first opportunity of run `i` in the cycle starting at `cycle`.
    fn first_of_run(&self, cycle: u64, i: usize) -> Opportunity {
        Opportunity {
            at: cycle + self.runs[i].start - self.lead,
            rem: 0,
            k: 0,
            run: i as u32,
        }
    }

    /// The opportunity after `o`, in O(1) and with no division: the next
    /// in its run, or the first of the next run or cycle.
    /// `self.instant(self.successor(o)) ==
    /// self.next_opportunity_after(self.instant(o))`.
    pub(crate) fn successor(&self, o: Opportunity) -> Opportunity {
        let run = &self.runs[o.run as usize];
        if o.k + 1 < run.count {
            let rem = u64::from(o.rem) + u64::from(run.extra);
            let carry = rem >= u64::from(run.count);
            Opportunity {
                at: o.at + run.step + u64::from(carry),
                rem: (rem - if carry { u64::from(run.count) } else { 0 }) as u32,
                k: o.k + 1,
                ..o
            }
        } else {
            // `o` is its run's last offset; the next run starts
            // `next_start - start - last_offset` later.
            let (next, next_start) = match self.runs.get(o.run as usize + 1) {
                Some(r) => (o.run + 1, r.start),
                None => (0, self.period + self.runs[0].start),
            };
            Opportunity {
                at: o.at + (next_start - run.start - run.last_offset()),
                rem: 0,
                k: 0,
                run: next,
            }
        }
    }

    /// When opportunity `o` comes.
    pub(crate) fn instant(&self, o: Opportunity) -> Time {
        Time::from_nanos(o.at)
    }
}

/// One delivery opportunity of a [`DeliveryTrace`] by position: its
/// instant, its run, its index `k` in the run and `k·width mod count`. A trace-driven
/// queue keeps the last one it consumed, so a backlogged link finds the
/// next in O(1) ([`DeliveryTrace::successor`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Opportunity {
    at: u64,
    rem: u32,
    k: u32,
    run: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MTU;
    use mpwifi_simcore::DetRng;
    use proptest::prelude::*;
    use proptest::test_runner::{ProptestConfig, TestCaseError};

    /// The `DeliveryTrace` that stored every offset, verbatim: a sorted,
    /// deduplicated list searched by bisection, rotated by rebuilding
    /// the list. The runs are held to it instant for instant.
    mod oracle {
        use mpwifi_simcore::{Dur, Time};
        use serde::{Deserialize, Serialize};
        use std::sync::Arc;

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

        /// What `radio::tracegen` built from per-bin packet counts when
        /// it stored offsets: `i·bin + k·bin / count` for every packet,
        /// and one opportunity at 0 when every bin is empty.
        pub fn from_bin_counts(counts: &[u64], bin: Dur) -> DeliveryTrace {
            let period = bin * counts.len() as u64;
            let bin_ns = bin.as_nanos();
            let mut offsets = Vec::new();
            for (i, &pkts) in counts.iter().enumerate() {
                for k in 0..pkts {
                    offsets.push(i as u64 * bin_ns + k * bin_ns / pkts.max(1));
                }
            }
            if offsets.is_empty() {
                offsets.push(0);
            }
            DeliveryTrace::new(offsets, period)
        }
    }

    /// One trace built both ways from the same input, drawn by `rng`:
    /// bin counts (empty bins, count equal to and above the bin width,
    /// widths of 1–50 ns and up to 20 ms), an all-zero trace,
    /// `constant_pps` and arbitrary offsets; then no rotation, one, two composed, or a
    /// whole number of periods.
    fn both_ways(rng: &mut DetRng) -> (DeliveryTrace, oracle::DeliveryTrace) {
        let (mut t, mut o) = match rng.index(5) {
            0 => {
                let bin = rng.uniform_u64(1, 51);
                let counts: Vec<u64> = (0..1 + rng.index(40))
                    .map(|_| match rng.index(4) {
                        0 => 0,
                        1 => bin,
                        2 => bin + rng.uniform_u64(1, 4),
                        _ => rng.uniform_u64(1, bin + 1),
                    })
                    .collect();
                let bin = Dur::from_nanos(bin);
                (
                    DeliveryTrace::from_bin_counts(&counts, bin),
                    oracle::from_bin_counts(&counts, bin),
                )
            }
            1 => {
                let bin = Dur::from_nanos(rng.uniform_u64(1, 20_000_001));
                let counts: Vec<u64> = (0..1 + rng.index(30))
                    .map(|_| rng.uniform_u64(0, 3) * rng.uniform_u64(0, 60))
                    .collect();
                (
                    DeliveryTrace::from_bin_counts(&counts, bin),
                    oracle::from_bin_counts(&counts, bin),
                )
            }
            2 => {
                let counts = vec![0; 1 + rng.index(10)];
                let bin = Dur::from_nanos(rng.uniform_u64(1, 1_000));
                (
                    DeliveryTrace::from_bin_counts(&counts, bin),
                    oracle::from_bin_counts(&counts, bin),
                )
            }
            3 => {
                let pps = rng.uniform_u64(1, 3_000);
                (
                    DeliveryTrace::constant_pps(pps),
                    oracle::DeliveryTrace::constant_pps(pps),
                )
            }
            _ => {
                let period = rng.uniform_u64(1, 2_000_000);
                let offsets: Vec<u64> = (0..1 + rng.index(60))
                    .map(|_| rng.uniform_u64(0, period))
                    .collect();
                let period = Dur::from_nanos(period);
                (
                    DeliveryTrace::new(offsets.clone(), period),
                    oracle::DeliveryTrace::new(offsets, period),
                )
            }
        };
        let period = t.period().as_nanos();
        let rotations = match rng.index(4) {
            0 => vec![],
            1 => vec![rng.uniform_u64(0, 3 * period)],
            2 => vec![rng.uniform_u64(0, period), rng.uniform_u64(0, 2 * period)],
            _ => vec![period * rng.uniform_u64(1, 3)],
        };
        for phase in rotations {
            t = t.rotated(Dur::from_nanos(phase));
            o = o.rotated(Dur::from_nanos(phase));
        }
        (t, o)
    }

    /// `t` and `o` agree on every public answer, on located
    /// opportunities at 0, just before, at and after each of the
    /// oracle's first 300 instants and at random times over four cycles,
    /// and on 300 steps of `successor` from two starts.
    fn agree(
        t: &DeliveryTrace,
        o: &oracle::DeliveryTrace,
        rng: &mut DetRng,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(t.period(), o.period());
        prop_assert_eq!(t.opportunities_per_period(), o.opportunities_per_period());
        prop_assert_eq!(t.average_pps().to_bits(), o.average_pps().to_bits());
        prop_assert_eq!(t.average_bps(MTU).to_bits(), o.average_bps(MTU).to_bits());
        let period = o.period().as_nanos();
        let mut queries = vec![0, 1, period - 1, period, period + 1, 3 * period];
        let mut at = o.next_opportunity_at_or_after(Time::ZERO);
        for _ in 0..300 {
            let ns = at.as_nanos();
            queries.extend([ns.saturating_sub(1), ns, ns + 1]);
            at = o.next_opportunity_after(at);
        }
        queries.extend((0..40).map(|_| rng.uniform_u64(0, 4 * period)));
        for q in queries.into_iter().map(Time::from_nanos) {
            prop_assert_eq!(
                t.next_opportunity_after(q),
                o.next_opportunity_after(q),
                "after {:?}",
                q
            );
            prop_assert_eq!(
                t.next_opportunity_at_or_after(q),
                o.next_opportunity_at_or_after(q),
                "at or after {:?}",
                q
            );
        }
        let start = Time::from_nanos(rng.uniform_u64(0, 3 * period));
        let walks = [
            (t.first_after(start), o.first_after(start)),
            (
                t.first_at_or_after(Time::ZERO),
                o.first_at_or_after(Time::ZERO),
            ),
        ];
        for (mut a, mut b) in walks {
            for step in 0..300 {
                prop_assert_eq!(t.instant(a), o.instant(b), "step {}", step);
                a = t.successor(a);
                b = o.successor(b);
            }
        }
        Ok(())
    }

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
    fn a_rotation_shares_the_runs_and_starts_at_its_smallest_offset() {
        let t = DeliveryTrace::from_bin_counts(&[2, 0, 3], Dur::from_micros(100));
        // Offsets 0, 50, 200, 233, 266 µs (truncated to ns); rotated by
        // 150 µs they are 150, 200, 50, 83.3, 116.6 µs mod 300.
        let r = t.rotated(Dur::from_micros(150));
        assert!(Arc::ptr_eq(&t.runs, &r.runs));
        assert_eq!(
            r.next_opportunity_at_or_after(Time::ZERO),
            Time::from_nanos(50_000)
        );
        assert_eq!(
            r.next_opportunity_after(Time::from_nanos(200_000)),
            Time::from_nanos(350_000)
        );
    }

    #[test]
    fn bin_counts_skip_empty_bins_and_clamp_to_the_width() {
        let t = DeliveryTrace::from_bin_counts(&[0, 3, 0, 9], Dur::from_nanos(4));
        // Bin 1: 4, 5, 6 (k·4/3 = 0, 1, 2); bin 3 clamps to 4 offsets.
        assert_eq!(t.runs.len(), 2);
        assert_eq!(t.opportunities_per_period(), 7);
        let mut at = t.next_opportunity_at_or_after(Time::ZERO);
        let mut seen = vec![at.as_nanos()];
        for _ in 0..7 {
            at = t.next_opportunity_after(at);
            seen.push(at.as_nanos());
        }
        assert_eq!(seen, [4, 5, 6, 12, 13, 14, 15, 20]);
        // Every bin empty: one opportunity, at offset 0.
        let idle = DeliveryTrace::from_bin_counts(&[0, 0], Dur::from_millis(20));
        assert_eq!(idle.opportunities_per_period(), 1);
        assert_eq!(idle.next_opportunity_at_or_after(Time::ZERO), Time::ZERO);
        assert_eq!(
            idle.next_opportunity_after(Time::ZERO),
            Time::from_millis(40)
        );
    }

    #[test]
    fn a_wide_run_locates_past_the_u64_product() {
        // width · count is about 2^70: `first_past` takes its u128 path.
        let width = 1u64 << 40;
        let count = (1u64 << 30) + 7;
        let t = DeliveryTrace::from_bin_counts(&[count], Dur::from_nanos(width));
        let exact = |k: u64| (u128::from(k) * u128::from(width) / u128::from(count)) as u64;
        for k in [1, 2, 12_345, count / 2, count - 2] {
            let (before, at) = (Time::from_nanos(exact(k)), Time::from_nanos(exact(k + 1)));
            assert_eq!(t.next_opportunity_after(before), at);
            assert_eq!(t.next_opportunity_at_or_after(at), at);
            assert_eq!(
                t.instant(t.successor(t.first_after(before))),
                Time::from_nanos(exact(k + 2))
            );
        }
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn prop_runs_equal_the_explicit_list(seed: u64) {
            let mut rng = DetRng::seed_from_u64(seed);
            let (t, o) = both_ways(&mut rng);
            agree(&t, &o, &mut rng)?;
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
            let t = DeliveryTrace::new(offsets.clone(), period);
            let reference = oracle::DeliveryTrace::new(offsets, period);
            let start = Time::from_nanos(start);
            let mut o = t.first_after(start);
            let mut last = reference.next_opportunity_after(start);
            prop_assert_eq!(t.instant(o), last);
            prop_assert_eq!(t.next_opportunity_after(start), last);
            for _ in 0..200 {
                o = t.successor(o);
                last = reference.next_opportunity_after(last);
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
