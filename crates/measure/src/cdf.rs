//! Empirical cumulative distribution functions.

use serde::{Deserialize, Serialize};

/// An empirical CDF over `f64` samples.
///
/// ```
/// use mpwifi_measure::Cdf;
/// let cdf = Cdf::from_samples(vec![-2.0, -1.0, 1.0, 3.0]);
/// assert_eq!(cdf.fraction_negative(), 0.5); // "LTE wins" region
/// assert_eq!(cdf.median(), -1.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from samples (NaNs are rejected); sorts once.
    pub fn from_samples(mut samples: Vec<f64>) -> Cdf {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "NaN sample in CDF input"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x`.
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples strictly `< 0` — the paper's "LTE wins"
    /// region in the `Tput(WiFi) − Tput(LTE)` CDFs.
    pub fn fraction_negative(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v < 0.0);
        idx as f64 / self.sorted.len() as f64
    }

    /// Quantile via nearest-rank (q in `[0, 1]`).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        let n = self.sorted.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Smallest and largest samples.
    pub fn range(&self) -> Option<(f64, f64)> {
        Some((*self.sorted.first()?, *self.sorted.last()?))
    }

    /// Borrowing iterator of `(x, F(x))` points, one per sample.
    pub fn iter_points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(move |(i, &x)| (x, (i + 1) as f64 / n))
    }

    /// `(x, F(x))` points for plotting, one per sample.
    pub fn points(&self) -> Vec<(f64, f64)> {
        self.iter_points().collect()
    }

    /// Borrowing iterator of downsampled plotting points: at most
    /// `max_points`, always including the extremes.
    pub fn iter_points_downsampled(
        &self,
        max_points: usize,
    ) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len();
        let (len, step) = if n <= max_points || max_points < 2 {
            (n, 1.0)
        } else {
            (max_points, (n - 1) as f64 / (max_points - 1) as f64)
        };
        (0..len).map(move |i| {
            let idx = (i as f64 * step).round() as usize;
            (self.sorted[idx], (idx + 1) as f64 / n as f64)
        })
    }

    /// Downsampled plotting points: at most `max_points`, always
    /// including the extremes.
    pub fn points_downsampled(&self, max_points: usize) -> Vec<(f64, f64)> {
        self.iter_points_downsampled(max_points).collect()
    }

    /// Maximum absolute difference between two CDFs (Kolmogorov–Smirnov
    /// statistic) — used to verify the 20-location set matches the crowd
    /// data (Figure 6).
    pub fn ks_distance(&self, other: &Cdf) -> f64 {
        let mut xs: Vec<f64> = self
            .sorted
            .iter()
            .chain(other.sorted.iter())
            .copied()
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup();
        xs.iter()
            .map(|&x| (self.fraction_below(x) - other.fraction_below(x)).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cdf(v: &[f64]) -> Cdf {
        Cdf::from_samples(v.to_vec())
    }

    #[test]
    fn fraction_below_basics() {
        let c = cdf(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.fraction_below(0.0), 0.0);
        assert_eq!(c.fraction_below(2.0), 0.5);
        assert_eq!(c.fraction_below(2.5), 0.5);
        assert_eq!(c.fraction_below(4.0), 1.0);
    }

    #[test]
    fn fraction_negative_strict() {
        let c = cdf(&[-2.0, -1.0, 0.0, 1.0]);
        assert_eq!(c.fraction_negative(), 0.5);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let c = cdf(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(c.median(), 30.0);
        assert_eq!(c.quantile(0.0), 10.0);
        assert_eq!(c.quantile(1.0), 50.0);
        assert_eq!(c.quantile(0.2), 10.0);
        assert_eq!(c.quantile(0.21), 20.0);
    }

    #[test]
    fn points_are_monotone() {
        let c = cdf(&[3.0, 1.0, 2.0]);
        let pts = c.points();
        assert_eq!(pts, vec![(1.0, 1.0 / 3.0), (2.0, 2.0 / 3.0), (3.0, 1.0)]);
    }

    #[test]
    fn downsample_keeps_extremes() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let c = Cdf::from_samples(samples);
        let pts = c.points_downsampled(50);
        assert_eq!(pts.len(), 50);
        assert_eq!(pts[0].0, 0.0);
        assert_eq!(pts[49].0, 999.0);
    }

    #[test]
    fn iterator_variants_match_collected() {
        let c = Cdf::from_samples((0..300).map(|i| i as f64).collect());
        assert_eq!(c.iter_points().collect::<Vec<_>>(), c.points());
        assert_eq!(
            c.iter_points_downsampled(40).collect::<Vec<_>>(),
            c.points_downsampled(40)
        );
    }

    #[test]
    fn ks_distance_zero_for_identical() {
        let a = cdf(&[1.0, 2.0, 3.0]);
        let b = cdf(&[1.0, 2.0, 3.0]);
        assert_eq!(a.ks_distance(&b), 0.0);
    }

    #[test]
    fn ks_distance_one_for_disjoint() {
        let a = cdf(&[1.0, 2.0]);
        let b = cdf(&[10.0, 20.0]);
        assert_eq!(a.ks_distance(&b), 1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        cdf(&[1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_of_empty_panics() {
        cdf(&[]).quantile(0.5);
    }
}
