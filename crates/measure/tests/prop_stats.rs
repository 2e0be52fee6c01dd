//! Property tests for the statistics primitives: quantile, CDF and
//! histogram laws that must hold for *any* sample set.

use mpwifi_measure::{Cdf, Histogram};
use proptest::prelude::*;

/// Finite, NaN-free samples (Cdf::from_samples asserts on NaN).
fn samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0e9f64..1.0e9, 1..200)
}

proptest! {
    #[test]
    fn prop_quantile_is_monotone_in_q(xs in samples(), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let cdf = Cdf::from_samples(xs);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(cdf.quantile(lo) <= cdf.quantile(hi));
    }

    #[test]
    fn prop_quantile_extremes_are_range(xs in samples()) {
        let cdf = Cdf::from_samples(xs);
        let (min, max) = cdf.range().expect("non-empty");
        prop_assert_eq!(cdf.quantile(0.0), min);
        prop_assert_eq!(cdf.quantile(1.0), max);
    }

    #[test]
    fn prop_fraction_below_is_a_cdf(xs in samples(), x1 in -2.0e9f64..2.0e9, x2 in -2.0e9f64..2.0e9) {
        let cdf = Cdf::from_samples(xs);
        for x in [x1, x2] {
            let f = cdf.fraction_below(x);
            prop_assert!((0.0..=1.0).contains(&f), "F({x}) = {f} outside [0, 1]");
        }
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        prop_assert!(cdf.fraction_below(lo) <= cdf.fraction_below(hi));
        let (min, max) = cdf.range().expect("non-empty");
        prop_assert_eq!(cdf.fraction_below(min - 1.0), 0.0);
        prop_assert_eq!(cdf.fraction_below(max), 1.0);
    }

    #[test]
    fn prop_quantile_of_fraction_below_recovers_a_sample(xs in samples(), x in -2.0e9f64..2.0e9) {
        // Round-tripping any threshold through F then Q lands on a real
        // sample at or below the threshold's rank. The epsilon keeps
        // `ceil((k/n)*n)` from rounding up to rank k+1 — nearest-rank
        // quantile is exact in rank space, not in float space.
        let cdf = Cdf::from_samples(xs);
        let f = cdf.fraction_below(x);
        if f > 0.0 {
            prop_assert!(cdf.quantile(f - 1e-12) <= x);
        }
    }

    #[test]
    fn prop_histogram_conserves_samples(xs in samples(), lo in -1.0e6f64..0.0, width in 1.0f64..1.0e6, bins in 1usize..64) {
        let mut h = Histogram::new(lo, lo + width, bins);
        for &x in &xs {
            h.add(x);
        }
        // total() counts every add; in-range mass is total minus the
        // under/overflow tallies.
        let in_bins: u64 = (0..bins).map(|i| h.count(i)).sum();
        prop_assert_eq!(in_bins + h.out_of_range(), h.total());
        prop_assert_eq!(h.total(), xs.len() as u64);
    }

    #[test]
    fn prop_histogram_normalized_mass_is_one(xs in samples(), bins in 1usize..64) {
        let mut h = Histogram::new(-1.0e9, 1.0e9, bins);
        for &x in &xs {
            h.add(x);
        }
        if h.total() > 0 {
            let mass: f64 = h.normalized().iter().map(|&(_, p)| p).sum();
            prop_assert!((mass - 1.0).abs() < 1e-9, "normalized mass {mass}");
        }
    }
}
