//! Bounded-memory streaming statistics for crowd-scale campaigns.
//!
//! A population run fans 10⁵–10⁶ synthetic users across workers; no
//! worker can afford to keep per-run samples for `Cdf::from_samples`.
//! [`CdfSketch`] is a fixed-rank quantile sketch: a fixed grid of
//! counting bins over a configured range plus exact extremes, so memory
//! is `O(bins)` regardless of N and merging two sketches adds integer
//! counts — exactly associative and commutative. [`MeanAcc`] streams
//! mean and confidence intervals from `(n, Σx, Σx²)`.

use crate::codec::{put_f64, put_u64, put_u8, CodecError, Reader};
use crate::stream::{Mergeable, SampleBuilder};
use crate::Histogram;
use serde::{Deserialize, Serialize};

/// A fixed-rank quantile sketch over `[lo, hi)` with exact extremes.
///
/// Samples inside the range land in one of `bins` equal-width counting
/// bins; samples outside are counted in underflow/overflow blocks
/// (±inf included). Quantiles interpolate linearly within a bin, so the
/// error of `quantile` is at most one bin width inside the range (the
/// out-of-range blocks interpolate between the range edge and the exact
/// min/max). `quantile(0.0)` and `quantile(1.0)` return the exact
/// extremes.
///
/// ```
/// use mpwifi_measure::{CdfSketch, Mergeable, SampleBuilder};
/// let mut a = CdfSketch::new(-10.0, 10.0, 100);
/// let mut b = CdfSketch::new(-10.0, 10.0, 100);
/// a.extend([-5.0, -1.0, 1.0]);
/// b.extend([3.0, 7.0]);
/// a.merge(&b);
/// assert_eq!(a.count(), 5);
/// assert_eq!(a.quantile(0.0), -5.0);
/// assert_eq!(a.quantile(1.0), 7.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CdfSketch {
    /// The counting bins, the out-of-range blocks and the sample count.
    hist: Histogram,
    /// Exact smallest / largest samples seen (`+inf`/`-inf` when empty).
    min: f64,
    max: f64,
}

impl CdfSketch {
    /// Create with `bins` equal-width bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> CdfSketch {
        CdfSketch {
            hist: Histogram::new(lo, hi, bins),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.hist.total
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.hist.total == 0
    }

    /// Exact smallest sample. Panics when empty.
    pub fn min(&self) -> f64 {
        assert!(!self.is_empty(), "min of empty sketch");
        self.min
    }

    /// Exact largest sample. Panics when empty.
    pub fn max(&self) -> f64 {
        assert!(!self.is_empty(), "max of empty sketch");
        self.max
    }

    /// Width of one counting bin — the in-range quantile error bound.
    pub fn bin_width(&self) -> f64 {
        self.hist.bin_width()
    }

    /// Samples outside `[lo, hi)`.
    pub fn out_of_range(&self) -> u64 {
        self.hist.out_of_range()
    }

    /// Estimated fraction of samples `<= x` (linear within a bin; the
    /// out-of-range blocks interpolate between the exact extreme and
    /// the range edge).
    pub fn fraction_below(&self, x: f64) -> f64 {
        assert!(!x.is_nan(), "NaN query");
        let h = &self.hist;
        if h.total == 0 || x < self.min {
            return 0.0;
        }
        if x >= self.max {
            return 1.0;
        }
        let n = h.total as f64;
        if x < h.lo {
            let span = h.lo - self.min;
            let frac = if span.is_finite() && span > 0.0 {
                (x - self.min) / span
            } else {
                1.0
            };
            return h.underflow as f64 * frac / n;
        }
        let mut rank = h.underflow as f64;
        if x < h.hi {
            let pos = (x - h.lo) / h.bin_width();
            let idx = (pos as usize).min(h.counts.len() - 1);
            for &c in &h.counts[..idx] {
                rank += c as f64;
            }
            rank += h.counts[idx] as f64 * (pos - idx as f64).clamp(0.0, 1.0);
            return (rank / n).clamp(0.0, 1.0);
        }
        rank += h.counts.iter().sum::<u64>() as f64;
        let span = self.max - h.hi;
        let frac = if span.is_finite() && span > 0.0 {
            (x - h.hi) / span
        } else {
            1.0
        };
        ((rank + h.overflow as f64 * frac.clamp(0.0, 1.0)) / n).clamp(0.0, 1.0)
    }

    /// Estimated fraction of samples below zero — the paper's "LTE
    /// wins" region of a `WiFi − LTE` difference distribution.
    pub fn fraction_negative(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.fraction_below(0.0)
    }

    /// Quantile via nearest-rank over the bins, interpolated within the
    /// straddled bin. `q = 0`/`q = 1` return the exact extremes; the
    /// result is always clamped to `[min, max]`. Panics when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        assert!(!self.is_empty(), "quantile of empty sketch");
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        let h = &self.hist;
        let n = h.total;
        let r = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = h.underflow;
        if r <= seen {
            let frac = r as f64 / h.underflow as f64;
            let x = if self.min.is_finite() {
                self.min + frac * (h.lo - self.min)
            } else {
                self.min
            };
            return x.clamp(self.min, self.max);
        }
        let w = h.bin_width();
        for (i, &c) in h.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if r <= seen + c {
                let frac = (r - seen) as f64 / c as f64;
                let x = h.lo + (i as f64 + frac) * w;
                return x.clamp(self.min, self.max);
            }
            seen += c;
        }
        let frac = (r - seen) as f64 / h.overflow.max(1) as f64;
        let x = if self.max.is_finite() {
            h.hi + frac * (self.max - h.hi).max(0.0)
        } else {
            self.max
        };
        x.clamp(self.min, self.max)
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Borrowing iterator of `(x, F(x))` plotting points: `max_points`
    /// evenly spaced quantiles including both extremes. Empty sketches
    /// yield nothing.
    pub fn iter_points_downsampled(
        &self,
        max_points: usize,
    ) -> impl Iterator<Item = (f64, f64)> + '_ {
        let k = max_points.max(2);
        let n = if self.is_empty() { 0 } else { k };
        (0..n).map(move |i| {
            let q = i as f64 / (k - 1) as f64;
            (self.quantile(q), q)
        })
    }

    /// [`Self::iter_points_downsampled`], collected.
    pub fn points_downsampled(&self, max_points: usize) -> Vec<(f64, f64)> {
        self.iter_points_downsampled(max_points).collect()
    }

    /// Version byte written by [`Self::encode_into`]: the histogram's,
    /// since a sketch's encoding is its histogram's followed by the two
    /// extremes. Bump on any layout change so old journals decode to a
    /// typed error, not garbage.
    pub const CODEC_VERSION: u8 = Histogram::CODEC_VERSION;

    /// Append the versioned binary encoding (see `measure::codec`).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.hist.encode_into(out);
        put_f64(out, self.min);
        put_f64(out, self.max);
    }

    /// Decode one sketch. The result is indistinguishable from a sketch
    /// built by pushing samples: the histogram is re-validated as
    /// [`Histogram::decode`] does (so an error inside it is labelled
    /// `Histogram`), and the extremes must be ordered (or the
    /// empty-sketch `+inf`/`-inf` sentinels).
    pub fn decode(r: &mut Reader<'_>) -> Result<CdfSketch, CodecError> {
        const WHAT: &str = "CdfSketch";
        let hist = Histogram::decode(r)?;
        let min = r.f64(WHAT)?;
        let max = r.f64(WHAT)?;
        if min.is_nan() || max.is_nan() {
            return Err(CodecError::Invalid {
                what: WHAT,
                detail: "NaN extreme",
            });
        }
        let extremes_ok = if hist.total == 0 {
            min == f64::INFINITY && max == f64::NEG_INFINITY
        } else {
            min <= max
        };
        if !extremes_ok {
            return Err(CodecError::Invalid {
                what: WHAT,
                detail: "unordered extremes",
            });
        }
        Ok(CdfSketch { hist, min, max })
    }

    /// True when `other` has this sketch's range and bin count: the
    /// precondition of [`Mergeable::merge`].
    pub fn same_shape(&self, other: &CdfSketch) -> bool {
        self.hist.same_shape(&other.hist)
    }
}

impl SampleBuilder for CdfSketch {
    type Output = CdfSketch;

    fn push(&mut self, x: f64) {
        self.hist.add(x);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    fn finish(self) -> CdfSketch {
        self
    }
}

impl CdfSketch {
    /// The histogram half of [`Mergeable::merge`]: bins, out-of-range
    /// blocks and count, integer additions whose order cannot show.
    /// The extremes are left as they are until [`Self::merge_extremes`].
    pub fn merge_counts(&mut self, other: &CdfSketch) {
        self.hist.merge(&other.hist);
    }

    /// The exact `(min, max)`, `(+inf, -inf)` when empty: what the
    /// extremes half of a merge takes from the other sketch.
    pub fn extremes(&self) -> (f64, f64) {
        (self.min, self.max)
    }

    /// The extremes half of [`Mergeable::merge`].
    pub fn merge_extremes(&mut self, (min, max): (f64, f64)) {
        self.min = self.min.min(min);
        self.max = self.max.max(max);
    }
}

impl Mergeable for CdfSketch {
    fn merge(&mut self, other: &Self) {
        self.merge_counts(other);
        self.merge_extremes(other.extremes());
    }
}

/// Streaming mean and normal-approximation confidence interval from
/// `(n, Σx, Σx²)`. Merging adds the three accumulators; with
/// exactly-representable samples (integer-valued diffs, as the crowd
/// campaign records) the sums — and therefore any merge grouping — are
/// exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MeanAcc {
    n: u64,
    sum: f64,
    sum_sq: f64,
}

impl MeanAcc {
    /// An empty accumulator.
    pub fn new() -> MeanAcc {
        MeanAcc::default()
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sample mean. Panics when empty.
    pub fn mean(&self) -> f64 {
        assert!(self.n > 0, "mean of empty accumulator");
        self.sum / self.n as f64
    }

    /// Sample standard deviation (`n − 1` denominator; 0 for `n < 2`).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = self.n as f64;
        let var = (self.sum_sq - self.sum * self.sum / n) / (n - 1.0);
        var.max(0.0).sqrt()
    }

    /// Half-width of the mean's confidence interval at `z` standard
    /// errors (normal approximation).
    pub fn half_width(&self, z: f64) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        z * self.std_dev() / (self.n as f64).sqrt()
    }

    /// 95% confidence interval for the mean, `(lo, hi)`. Panics when
    /// empty.
    pub fn ci95(&self) -> (f64, f64) {
        let m = self.mean();
        let h = self.half_width(1.96);
        (m - h, m + h)
    }

    /// Version byte written by [`Self::encode_into`].
    pub const CODEC_VERSION: u8 = 1;

    /// Append the versioned binary encoding (see `measure::codec`).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_u8(out, Self::CODEC_VERSION);
        put_u64(out, self.n);
        put_f64(out, self.sum);
        put_f64(out, self.sum_sq);
    }

    /// Decode one accumulator. `sum` may legally be any non-NaN value
    /// reachable by summing non-NaN samples (±inf included); `sum_sq` is
    /// a sum of squares so it must be non-negative and non-NaN. An empty
    /// accumulator must carry exactly the zero sums `new()` starts with.
    pub fn decode(r: &mut Reader<'_>) -> Result<MeanAcc, CodecError> {
        const WHAT: &str = "MeanAcc";
        r.version(WHAT, Self::CODEC_VERSION)?;
        let n = r.u64(WHAT)?;
        let sum = r.f64(WHAT)?;
        let sum_sq = r.f64(WHAT)?;
        if sum.is_nan() || sum_sq.is_nan() || sum_sq < 0.0 {
            return Err(CodecError::Invalid {
                what: WHAT,
                detail: "bad accumulator sums",
            });
        }
        if n == 0 && (sum.to_bits() != 0 || sum_sq.to_bits() != 0) {
            return Err(CodecError::Invalid {
                what: WHAT,
                detail: "empty accumulator with nonzero sums",
            });
        }
        Ok(MeanAcc { n, sum, sum_sq })
    }
}

impl SampleBuilder for MeanAcc {
    type Output = MeanAcc;

    fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN sample");
        self.n += 1;
        self.sum += x;
        self.sum_sq += x * x;
    }

    fn finish(self) -> MeanAcc {
        self
    }
}

impl Mergeable for MeanAcc {
    fn merge(&mut self, other: &Self) {
        self.n += other.n;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cdf;

    fn sketch(samples: &[f64]) -> CdfSketch {
        let mut s = CdfSketch::new(-100.0, 100.0, 1000);
        s.extend(samples.iter().copied());
        s
    }

    #[test]
    fn quantiles_close_to_exact_cdf() {
        let samples: Vec<f64> = (0..500).map(|i| (i as f64) / 10.0 - 25.0).collect();
        let s = sketch(&samples);
        let c = Cdf::from_samples(samples);
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let err = (s.quantile(q) - c.quantile(q)).abs();
            assert!(err <= s.bin_width() + 1e-9, "q={q} err={err}");
        }
        assert_eq!(s.quantile(0.0), c.quantile(0.0));
        assert_eq!(s.quantile(1.0), c.quantile(1.0));
    }

    #[test]
    fn fraction_negative_close_to_exact() {
        let samples: Vec<f64> = (-40..60).map(|i| i as f64 + 0.5).collect();
        let s = sketch(&samples);
        let c = Cdf::from_samples(samples);
        assert!((s.fraction_negative() - c.fraction_negative()).abs() < 0.02);
    }

    #[test]
    fn merge_equals_bulk_build() {
        let a: Vec<f64> = (0..100).map(|i| i as f64 / 3.0).collect();
        let b: Vec<f64> = (0..50).map(|i| -(i as f64) / 2.0).collect();
        let mut merged = sketch(&a);
        merged.merge(&sketch(&b));
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(merged, sketch(&all));
    }

    #[test]
    fn out_of_range_and_infinities() {
        let mut s = CdfSketch::new(0.0, 10.0, 10);
        s.extend([-5.0, 5.0, 20.0, f64::INFINITY, f64::NEG_INFINITY]);
        assert_eq!(s.count(), 5);
        assert_eq!(s.out_of_range(), 4);
        assert_eq!(s.quantile(1.0), f64::INFINITY);
        assert_eq!(s.quantile(0.0), f64::NEG_INFINITY);
        // -inf, -5.0, and the 5.0 sample's whole bin sit at or below 6.0.
        assert_eq!(s.fraction_below(6.0), 3.0 / 5.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let mut s = CdfSketch::new(0.0, 1.0, 4);
        s.push(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "different shapes")]
    fn shape_mismatch_panics() {
        let mut a = CdfSketch::new(0.0, 1.0, 4);
        a.merge(&CdfSketch::new(0.0, 1.0, 8));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_of_empty_panics() {
        CdfSketch::new(0.0, 1.0, 4).quantile(0.5);
    }

    #[test]
    fn empty_sketch_renders_nothing() {
        let s = CdfSketch::new(0.0, 1.0, 4);
        assert!(s.points_downsampled(10).is_empty());
        assert_eq!(s.fraction_below(0.5), 0.0);
    }

    #[test]
    fn mean_acc_matches_direct_computation() {
        let mut m = MeanAcc::new();
        m.extend([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.mean(), 2.5);
        let sd = m.std_dev();
        assert!((sd - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        let (lo, hi) = m.ci95();
        assert!(lo < 2.5 && 2.5 < hi);
    }

    #[test]
    fn mean_acc_merge_matches_bulk() {
        let mut a = MeanAcc::new();
        a.extend([1.0, 2.0, 3.0]);
        let mut b = MeanAcc::new();
        b.extend([4.0, 5.0]);
        a.merge(&b);
        let mut all = MeanAcc::new();
        all.extend([1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a, all);
    }

    #[test]
    fn single_sample_ci_is_degenerate() {
        let mut m = MeanAcc::new();
        m.push(7.0);
        assert_eq!(m.ci95(), (7.0, 7.0));
    }
}
