//! Histograms, fairness, and resampling confidence intervals.

use crate::codec::{put_f64, put_u32, put_u64, put_u8, CodecError, Reader};
use crate::stream::{Mergeable, SampleBuilder};
use serde::{Deserialize, Serialize};

/// A fixed-bin histogram over `[lo, hi)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    pub(crate) lo: f64,
    pub(crate) hi: f64,
    pub(crate) counts: Vec<u64>,
    /// Samples below `lo` / at or above `hi`.
    pub(crate) underflow: u64,
    pub(crate) overflow: u64,
    pub(crate) total: u64,
}

impl Histogram {
    /// Create with `bins` equal-width bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite() && bins > 0,
            "invalid histogram range"
        );
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Add a sample. NaN panics; `-inf` counts as underflow and `+inf`
    /// as overflow, so `total()` always equals the number of `add`s.
    pub fn add(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN sample");
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = (((x - self.lo) / self.bin_width()) as usize).min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Width of one counting bin.
    pub(crate) fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Count in bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Borrowing iterator of `(bin_center, fraction)` pairs.
    pub fn iter_normalized(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let width = self.bin_width();
        self.counts.iter().enumerate().map(move |(i, &c)| {
            (
                self.lo + (i as f64 + 0.5) * width,
                if self.total == 0 {
                    0.0
                } else {
                    c as f64 / self.total as f64
                },
            )
        })
    }

    /// `(bin_center, fraction)` pairs.
    pub fn normalized(&self) -> Vec<(f64, f64)> {
        self.iter_normalized().collect()
    }

    /// Total samples, including out-of-range.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples outside the range.
    pub fn out_of_range(&self) -> u64 {
        self.underflow + self.overflow
    }

    /// Version byte written by [`Self::encode_into`].
    pub const CODEC_VERSION: u8 = 1;

    /// Append the versioned binary encoding (see `measure::codec`).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_u8(out, Self::CODEC_VERSION);
        put_f64(out, self.lo);
        put_f64(out, self.hi);
        put_u32(out, self.counts.len() as u32);
        for &c in &self.counts {
            put_u64(out, c);
        }
        put_u64(out, self.underflow);
        put_u64(out, self.overflow);
        put_u64(out, self.total);
    }

    /// Decode one histogram, re-validating the range and that the bin
    /// counts (including the ±inf under/overflow audit counters) sum to
    /// `total` — the invariant `add` maintains.
    pub fn decode(r: &mut Reader<'_>) -> Result<Histogram, CodecError> {
        const WHAT: &str = "Histogram";
        r.version(WHAT, Self::CODEC_VERSION)?;
        let lo = r.f64(WHAT)?;
        let hi = r.f64(WHAT)?;
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(CodecError::Invalid {
                what: WHAT,
                detail: "bad bin range",
            });
        }
        let (counts, binned) = r.counters(WHAT)?;
        let underflow = r.u64(WHAT)?;
        let overflow = r.u64(WHAT)?;
        let total = r.u64(WHAT)?;
        let sum = binned
            .and_then(|s| s.checked_add(underflow))
            .and_then(|s| s.checked_add(overflow))
            .ok_or(CodecError::Invalid {
                what: WHAT,
                detail: "counter sum overflows u64",
            })?;
        if sum != total {
            return Err(CodecError::Invalid {
                what: WHAT,
                detail: "bin totals disagree with sample count",
            });
        }
        Ok(Histogram {
            lo,
            hi,
            counts,
            underflow,
            overflow,
            total,
        })
    }

    /// True when `other` has this histogram's range and bin count: the
    /// precondition of [`Mergeable::merge`].
    pub fn same_shape(&self, other: &Histogram) -> bool {
        self.lo == other.lo && self.hi == other.hi && self.counts.len() == other.counts.len()
    }
}

impl SampleBuilder for Histogram {
    type Output = Histogram;

    fn push(&mut self, x: f64) {
        self.add(x);
    }

    fn finish(self) -> Histogram {
        self
    }
}

impl Mergeable for Histogram {
    /// Bin-wise count addition. `total()` and `out_of_range()` of the
    /// merge equal the sums of the inputs exactly — every counter is an
    /// integer, so merging is exactly associative and commutative.
    fn merge(&mut self, other: &Self) {
        assert!(
            self.same_shape(other),
            "merging histograms with different shapes"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
    }
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`, 1.0 = perfectly fair.
/// Used to quantify how LIA shares capacity between subflows.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fairness of empty set");
    assert!(xs.iter().all(|&x| x >= 0.0), "negative share");
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_correctly() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, 1.7, 9.9, -1.0, 10.0, 25.0] {
            h.add(x);
        }
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(9), 1);
        assert_eq!(h.out_of_range(), 3);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn histogram_normalized_sums_to_in_range_fraction() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        for i in 0..100 {
            h.add(i as f64 / 100.0);
        }
        let total: f64 = h.normalized().iter().map(|&(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_preserves_totals_and_out_of_range_exactly() {
        let mut a = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, -3.0, f64::NEG_INFINITY] {
            a.add(x);
        }
        let mut b = Histogram::new(0.0, 10.0, 10);
        for x in [9.9, 12.0, f64::INFINITY] {
            b.add(x);
        }
        let (a_total, a_oor) = (a.total(), a.out_of_range());
        let (b_total, b_oor) = (b.total(), b.out_of_range());
        a.merge(&b);
        assert_eq!(a.total(), a_total + b_total);
        assert_eq!(a.out_of_range(), a_oor + b_oor);
        // Merge equals the bulk-built histogram over the union.
        let mut bulk = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, -3.0, f64::NEG_INFINITY, 9.9, 12.0, f64::INFINITY] {
            bulk.add(x);
        }
        assert_eq!(a, bulk);
    }

    #[test]
    fn infinities_count_as_out_of_range() {
        let mut h = Histogram::new(-1.0, 1.0, 4);
        h.add(f64::NEG_INFINITY);
        h.add(f64::INFINITY);
        assert_eq!(h.total(), 2);
        assert_eq!(h.out_of_range(), 2);
    }

    #[test]
    fn widest_and_narrowest_finite_ranges_round_trip_through_the_codec() {
        for (lo, hi) in [
            (f64::MIN, f64::MAX),
            (0.0, f64::MIN_POSITIVE),
            (-f64::MIN_POSITIVE, 0.0),
            (f64::MAX / 2.0, f64::MAX),
        ] {
            let mut h = Histogram::new(lo, hi, 3);
            for x in [lo, (lo + hi) / 2.0, hi, f64::NEG_INFINITY, f64::INFINITY] {
                h.add(x);
            }
            assert_eq!(h.total(), 5);
            let mut bytes = Vec::new();
            h.encode_into(&mut bytes);
            let back = Histogram::decode(&mut Reader::new(&bytes)).expect("decodes");
            assert_eq!(back, h, "[{lo:e}, {hi:e})");
        }
    }

    #[test]
    #[should_panic(expected = "invalid histogram range")]
    fn infinite_bound_panics() {
        // `decode` refuses such a range, and `add` would bin with a NaN.
        Histogram::new(0.0, f64::INFINITY, 4);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_sample_panics() {
        Histogram::new(0.0, 1.0, 2).add(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "different shapes")]
    fn merge_shape_mismatch_panics() {
        let mut a = Histogram::new(0.0, 1.0, 2);
        a.merge(&Histogram::new(0.0, 2.0, 2));
    }

    #[test]
    fn jain_extremes() {
        assert!((jain_fairness(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One flow hogs everything: 1/n.
        let f = jain_fairness(&[10.0, 0.0, 0.0, 0.0]);
        assert!((f - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_monotone_in_imbalance() {
        let balanced = jain_fairness(&[4.0, 6.0]);
        let skewed = jain_fairness(&[1.0, 9.0]);
        assert!(balanced > skewed);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn fairness_empty_panics() {
        jain_fairness(&[]);
    }
}
