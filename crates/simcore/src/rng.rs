//! Deterministic randomness.
//!
//! [`DetRng`] wraps a seeded [`rand::rngs::StdRng`] and adds the sampling
//! primitives this workspace needs — normal, lognormal and truncated
//! variants — implemented directly (Box–Muller, inverse CDF) so no extra
//! distribution crates are required.
//!
//! All stochastic components in the simulator take a `DetRng` derived from
//! a scenario seed; nothing ever reads OS entropy.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic, seedable random source with the distributions used by
/// the link-condition synthesizers.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: StdRng,
}

impl DetRng {
    /// Create from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> DetRng {
        DetRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child generator. Mixing in a label keeps the
    /// streams for different components (e.g. each link) decorrelated even
    /// when built from the same scenario seed.
    pub fn derive(&mut self, label: u64) -> DetRng {
        let mixed = self.inner.gen::<u64>() ^ splitmix64(label);
        DetRng::seed_from_u64(mixed)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform in `[lo, hi)`. Panics when `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform index in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index over empty set");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Standard normal via Box–Muller.
    pub fn std_normal(&mut self) -> f64 {
        // Avoid ln(0) by sampling u1 from (0, 1].
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "negative std dev");
        mean + std_dev * self.std_normal()
    }

    /// Lognormal: `exp(N(mu, sigma))` where `mu`/`sigma` are the parameters
    /// of the underlying normal.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Raw 64 random bits (for deriving tokens/keys in protocol handshakes).
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |error| < 1.15e-9). Used to calibrate lognormal link-rate
/// distributions to target win probabilities.
pub fn norm_quantile(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p out of range: {p}");
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// SplitMix64: add the golden-ratio increment, then finalise. The
/// workspace's one seed-stream expander — it spreads small labels and
/// nearby root seeds across the seed space ([`DetRng::derive`],
/// [`derive_seed`], the conformance fuzzer's per-case seeds).
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Streaming 64-bit FNV-1a: the workspace's one non-cryptographic
/// digest (experiment-id hashing, campaign fingerprints, the journal's
/// code fingerprint, MPTCP tokens).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The empty-input state (the FNV offset basis).
    pub const fn new() -> Fnv1a {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    /// Fold `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }

    /// One-shot digest of `bytes`.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write(bytes);
        h.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// The seed a named unit of work (an experiment, a retry attempt) runs
/// with under root seed `root`: a pure function of `(root, id)`, so it
/// cannot depend on sharding or run order.
pub fn derive_seed(root: u64, id: &str) -> u64 {
    splitmix64(root ^ Fnv1a::hash(id.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(samples: &[f64]) -> f64 {
        samples.iter().sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn seed_helpers_match_their_published_reference_values() {
        // SplitMix64's first output from state 0, FNV-1a's offset basis
        // and its digest of "a" are the published test vectors; the
        // derived seed pins the composition every retry chain rests on.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(Fnv1a::hash(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(derive_seed(42, "fig9"), 0x94C8_2AE0_EB4A_DC95);
        let mut streamed = Fnv1a::new();
        streamed.write(b"fi");
        streamed.write(b"g9");
        assert_eq!(streamed.finish(), Fnv1a::hash(b"fig9"));
    }

    #[test]
    fn derive_seed_is_a_pure_function_that_separates_ids_and_roots() {
        // Deriving in any order, any number of times, gives the same
        // value; different ids or roots give different ones.
        let ids = ["fig9", "table2", "ext-handover", "fig15"];
        let forward: Vec<u64> = ids.iter().map(|id| derive_seed(42, id)).collect();
        let mut backward: Vec<u64> = ids.iter().rev().map(|id| derive_seed(42, id)).collect();
        backward.reverse();
        assert_eq!(forward, backward);
        assert_ne!(derive_seed(42, "fig9"), derive_seed(42, "fig10"));
        assert_ne!(derive_seed(42, "fig9"), derive_seed(43, "fig9"));
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(7);
        let mut b = DetRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_decorrelate_children() {
        let mut root = DetRng::seed_from_u64(7);
        let mut c1 = root.derive(1);
        let mut root2 = DetRng::seed_from_u64(7);
        let mut c2 = root2.derive(2);
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 5, "child streams should differ");
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = DetRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = r.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seed_from_u64(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-5.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut r = DetRng::seed_from_u64(2);
        let xs: Vec<f64> = (0..50_000).map(|_| r.normal(10.0, 3.0)).collect();
        let mean = sample_mean(&xs);
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn lognormal_median_hits_target() {
        let mut r = DetRng::seed_from_u64(3);
        let mu = 8.0_f64.ln();
        let mut xs: Vec<f64> = (0..50_001).map(|_| r.lognormal(mu, 0.7)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median - 8.0).abs() < 0.3, "median {median}");
        assert!(xs.iter().all(|x| *x > 0.0));
    }

    #[test]
    fn norm_quantile_matches_known_values() {
        assert!((norm_quantile(0.5)).abs() < 1e-9);
        assert!((norm_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((norm_quantile(0.025) + 1.959964).abs() < 1e-4);
        assert!((norm_quantile(0.9) - 1.281552).abs() < 1e-4);
        assert_eq!(norm_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(norm_quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn norm_quantile_round_trips_through_sampling() {
        // Empirical check: fraction of std normals below norm_quantile(p)
        // is about p.
        let mut r = DetRng::seed_from_u64(11);
        let q = norm_quantile(0.7);
        let n = 50_000;
        let below = (0..n).filter(|_| r.std_normal() < q).count();
        let frac = below as f64 / n as f64;
        assert!((frac - 0.7).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::seed_from_u64(8);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle should permute");
    }

    #[test]
    fn first_draws_at_seed_42_are_pinned_to_the_bit() {
        // What a stream-moving change to the generator or to one of the
        // samplers shows up as first: each from a fresh generator.
        let fresh = || DetRng::seed_from_u64(42);
        assert_eq!(fresh().uniform().to_bits(), 0x3fe0_d98e_ec64_44e4);
        assert_eq!(fresh().uniform_u64(0, 2104), 1339);
        assert_eq!(fresh().std_normal().to_bits(), 0xbff2_dd88_dd0a_bc42);
        assert_eq!(fresh().derive(1).next_u64(), 0x63ad_6a43_17d7_6b1e);
    }
}
