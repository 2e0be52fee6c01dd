//! Scalar summaries of sample sets.

use crate::cdf::Cdf;
use serde::{Deserialize, Serialize};

/// Mean / median / spread of a sample set.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest rank).
    pub median: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// 10th percentile.
    pub p10: f64,
    /// 90th percentile.
    pub p90: f64,
}

impl Summary {
    /// Compute from samples. Panics on empty input or NaNs.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of empty sample set");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let cdf = Cdf::from_samples(samples.to_vec());
        let (min, max) = cdf.range().unwrap();
        Summary {
            n,
            mean,
            median: cdf.median(),
            std_dev: var.sqrt(),
            min,
            max,
            p10: cdf.quantile(0.10),
            p90: cdf.quantile(0.90),
        }
    }
}

/// Relative difference `|a − b| / b`, the paper's comparison metric for
/// primary-subflow and congestion-control effects (Sections 3.4, 3.5).
pub fn relative_difference(a: f64, b: f64) -> f64 {
    assert!(b != 0.0, "relative difference with zero base");
    ((a - b) / b).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_set() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.std_dev - std::f64::consts::SQRT_2).abs() < 1e-3);
    }

    #[test]
    fn percentiles() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&v);
        assert_eq!(s.p10, 10.0);
        assert_eq!(s.p90, 90.0);
    }

    #[test]
    fn relative_difference_symmetric_in_magnitude() {
        assert_eq!(relative_difference(6.0, 4.0), 0.5);
        assert_eq!(relative_difference(2.0, 4.0), 0.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        Summary::of(&[]);
    }

    #[test]
    #[should_panic(expected = "zero base")]
    fn zero_base_panics() {
        relative_difference(1.0, 0.0);
    }
}
