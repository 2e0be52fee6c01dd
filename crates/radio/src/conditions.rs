//! WiFi/LTE link-condition synthesis.
//!
//! A [`WirelessWorld`] draws `(WiFi, LTE)` condition pairs for a
//! location. The key calibration knob is `lte_win_prob`: the probability
//! that the LTE downlink out-rates the WiFi downlink at that location.
//! Given WiFi's median and both lognormal spreads, the LTE median that
//! achieves the target probability has a closed form:
//!
//! ```text
//! ln R_lte − ln R_wifi ~ Normal(ln M_l − ln M_w, σ²),  σ² = σ_l² + σ_w²
//! P(LTE wins) = Φ((ln M_l − ln M_w)/σ)  ⇒  ln M_l = ln M_w + σ·Φ⁻¹(p)
//! ```
//!
//! RTTs are drawn so that LTE's ping RTT is lower than WiFi's in ≈20%
//! of runs overall (Figure 4): WiFi RTT is usually low (median ≈25 ms)
//! but heavy-tailed (congested APs), LTE sits near 60 ms with a tighter
//! spread.

use crate::{MAX_RATE_BPS, MIN_RATE_BPS};
use mpwifi_sim::{LinkSpec, ServiceSpec};
use mpwifi_simcore::{norm_quantile, DetRng, Dur};
use serde::{Deserialize, Serialize};

/// Cellular technology of a run (the app filtered to LTE/HSPA+).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellKind {
    /// 4G LTE.
    Lte,
    /// HSPA+ ("equivalent high-speed cellular", included by the paper).
    HspaPlus,
}

/// Environment archetypes used for the 20 measurement locations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EnvKind {
    /// Home/apartment WiFi: decent, low RTT.
    Apartment,
    /// Cafe or store: crowded AP, highly variable WiFi.
    Cafe,
    /// Campus: strong WiFi.
    Campus,
    /// Hotel: notoriously slow WiFi.
    Hotel,
    /// Airport / mall / subway: congested public WiFi, strong LTE.
    PublicVenue,
    /// Outdoor: weak WiFi, good LTE.
    Outdoor,
}

impl EnvKind {
    /// Median WiFi downlink rate for the archetype (bits/s). Tuned so
    /// the 20-location set spans the same throughput-difference range as
    /// the crowd dataset (Figure 6's claim).
    pub fn wifi_median_bps(self) -> f64 {
        match self {
            EnvKind::Apartment => 18_000_000.0,
            EnvKind::Cafe => 12_000_000.0,
            EnvKind::Campus => 25_000_000.0,
            EnvKind::Hotel => 4_500_000.0,
            EnvKind::PublicVenue => 7_000_000.0,
            EnvKind::Outdoor => 4_000_000.0,
        }
    }

    /// WiFi RTT multiplier relative to the 25 ms baseline: congested
    /// public APs add queueing and contention latency (the paper's
    /// Figure 4 tail reaches +400 ms).
    pub fn wifi_rtt_factor(self) -> f64 {
        match self {
            EnvKind::Apartment => 0.8,
            EnvKind::Cafe => 4.0,
            EnvKind::Campus => 0.8,
            EnvKind::Hotel => 8.0,
            EnvKind::PublicVenue => 6.0,
            EnvKind::Outdoor => 3.5,
        }
    }

    /// Maximum random-loss probability for the archetype's WiFi
    /// (contention on crowded APs shows up as loss, which wrecks short
    /// flows regardless of capacity).
    pub fn wifi_loss_max(self) -> f64 {
        match self {
            EnvKind::Apartment | EnvKind::Campus => 0.004,
            EnvKind::Cafe => 0.025,
            EnvKind::Outdoor => 0.025,
            EnvKind::PublicVenue => 0.03,
            EnvKind::Hotel => 0.035,
        }
    }

    /// Typical probability that LTE out-rates WiFi in the archetype.
    pub fn default_lte_win_prob(self) -> f64 {
        match self {
            EnvKind::Apartment => 0.12,
            EnvKind::Cafe => 0.35,
            EnvKind::Campus => 0.08,
            EnvKind::Hotel => 0.65,
            EnvKind::PublicVenue => 0.50,
            EnvKind::Outdoor => 0.70,
        }
    }
}

/// One sampled `(WiFi, LTE)` condition pair.
#[derive(Debug, Clone)]
pub struct LinkDraw {
    /// WiFi access link.
    pub wifi: LinkSpec,
    /// Cellular access link.
    pub lte: LinkSpec,
    /// Cellular technology of this draw.
    pub cell: CellKind,
}

/// Distribution parameters for one location's wireless environment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WirelessWorld {
    /// Median WiFi downlink rate (bits/s).
    wifi_median_bps: f64,
    /// Lognormal sigma of WiFi rates.
    wifi_sigma: f64,
    /// Target probability that LTE out-rates WiFi on the downlink.
    lte_win_prob: f64,
    /// Lognormal sigma of LTE rates.
    lte_sigma: f64,
    /// Median WiFi RTT.
    wifi_rtt_median: Dur,
    /// Lognormal sigma of WiFi RTT.
    wifi_rtt_sigma: f64,
    /// Median LTE RTT.
    lte_rtt_median: Dur,
    /// Lognormal sigma of LTE RTT.
    lte_rtt_sigma: f64,
    /// Fraction of cellular runs that are HSPA+ rather than LTE (HSPA+
    /// draws get their rate scaled down).
    hspa_fraction: f64,
    /// Upper bound of the WiFi random-loss draw.
    wifi_loss_max: f64,
    /// `ln` of the four medians `draw` samples around (WiFi rate, WiFi
    /// RTT, LTE rate, LTE RTT): constants of the world, set by `hoisted`.
    mu: [f64; 4],
}

impl WirelessWorld {
    /// A world with the paper-wide default spreads and a given WiFi
    /// median and LTE win probability.
    pub fn with_target(wifi_median_bps: f64, lte_win_prob: f64) -> WirelessWorld {
        WirelessWorld {
            wifi_median_bps,
            wifi_sigma: 0.85,
            lte_win_prob,
            lte_sigma: 0.55,
            wifi_rtt_median: Dur::from_millis(25),
            wifi_rtt_sigma: 0.80,
            lte_rtt_median: Dur::from_millis(60),
            lte_rtt_sigma: 0.35,
            hspa_fraction: 0.2,
            wifi_loss_max: 0.008,
            mu: [0.0; 4],
        }
        .hoisted()
    }

    /// A world built from an environment archetype.
    pub fn from_env(env: EnvKind) -> WirelessWorld {
        let mut w = WirelessWorld::with_target(env.wifi_median_bps(), env.default_lte_win_prob());
        w.wifi_rtt_median = w.wifi_rtt_median.mul_f64(env.wifi_rtt_factor());
        w.wifi_loss_max = env.wifi_loss_max();
        if env.wifi_rtt_factor() > 2.0 {
            // Venue WiFi latency is heavy-tailed (the paper's Figure 9a
            // shows a one-second WiFi SYN-ACK at one location).
            w.wifi_rtt_sigma = 1.1;
        }
        w.hoisted()
    }

    /// Recompute `mu`: every constructor's last step, once the fields it
    /// reads are final.
    fn hoisted(mut self) -> WirelessWorld {
        let medians = [
            self.wifi_median_bps,
            self.wifi_rtt_median.as_secs_f64(),
            self.lte_median_bps(),
            self.lte_rtt_median.as_secs_f64(),
        ];
        assert!(medians.iter().all(|&m| m > 0.0), "median must be positive");
        self.mu = medians.map(f64::ln);
        self
    }

    /// The LTE median rate implied by the calibration (see module docs).
    pub fn lte_median_bps(&self) -> f64 {
        let sigma = (self.wifi_sigma.powi(2) + self.lte_sigma.powi(2)).sqrt();
        let p = self.lte_win_prob.clamp(0.001, 0.999);
        (self.wifi_median_bps.ln() + sigma * norm_quantile(p)).exp()
    }

    /// Draw one `(WiFi, LTE)` condition pair.
    pub fn draw(&self, rng: &mut DetRng) -> LinkDraw {
        let [wifi_mu, wifi_rtt_mu, lte_mu, lte_rtt_mu] = self.mu;
        let wifi_down = rng
            .lognormal(wifi_mu, self.wifi_sigma)
            .clamp(MIN_RATE_BPS, MAX_RATE_BPS);
        // Contended APs upload poorly (CSMA + asymmetric provisioning).
        let wifi_up = wifi_down * rng.uniform_range(0.35, 0.85);
        let wifi_rtt = Dur::from_secs_f64(
            rng.lognormal(wifi_rtt_mu, self.wifi_rtt_sigma)
                .clamp(0.004, 0.8),
        );

        let cell = if rng.chance(self.hspa_fraction) {
            CellKind::HspaPlus
        } else {
            CellKind::Lte
        };
        let mut lte_down = rng
            .lognormal(lte_mu, self.lte_sigma)
            .clamp(MIN_RATE_BPS, MAX_RATE_BPS);
        if cell == CellKind::HspaPlus {
            lte_down *= 0.55; // HSPA+ is slower than LTE on average
        }
        // LTE uplinks hold up better relative to their downlinks, which
        // is why the paper sees LTE win the uplink *more* often (42%)
        // than the downlink (35%).
        let lte_up = lte_down * rng.uniform_range(0.55, 0.9);
        let lte_rtt = Dur::from_secs_f64(
            rng.lognormal(lte_rtt_mu, self.lte_rtt_sigma)
                .clamp(0.020, 0.8),
        );

        let wifi = LinkSpec {
            up: ServiceSpec::Rate(wifi_up as u64),
            down: ServiceSpec::Rate(wifi_down as u64),
            rtt: wifi_rtt,
            queue_bytes: 512 * 1024,
            loss: rng.uniform_range(0.0, self.wifi_loss_max),
            reorder_prob: 0.0,
            reorder_extra: Dur::ZERO,
        };
        let lte = LinkSpec {
            up: ServiceSpec::Rate(lte_up as u64),
            down: ServiceSpec::Rate(lte_down as u64),
            rtt: lte_rtt,
            // Cellular networks buffer deeply (bufferbloat).
            queue_bytes: 1536 * 1024,
            loss: rng.uniform_range(0.0, 0.002),
            reorder_prob: 0.0,
            reorder_extra: Dur::ZERO,
        };
        LinkDraw { wifi, lte, cell }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn down_bps(spec: &LinkSpec) -> f64 {
        spec.down.average_bps()
    }

    #[test]
    fn calibration_hits_target_win_prob() {
        for target in [0.1, 0.4, 0.5, 0.8] {
            let world = WirelessWorld::with_target(8_000_000.0, target);
            let mut rng = DetRng::seed_from_u64(42);
            let n = 20_000;
            let wins = (0..n)
                .filter(|_| {
                    let d = world.draw(&mut rng);
                    down_bps(&d.lte) > down_bps(&d.wifi)
                })
                .count();
            let frac = wins as f64 / n as f64;
            // HSPA+ scaling and clamping pull slightly off the ideal;
            // stay within 5 points.
            assert!((frac - target).abs() < 0.05, "target {target}, got {frac}");
        }
    }

    #[test]
    fn lte_rtt_lower_about_twenty_percent() {
        let world = WirelessWorld::with_target(8_000_000.0, 0.4);
        let mut rng = DetRng::seed_from_u64(7);
        let n = 20_000;
        let lower = (0..n)
            .filter(|_| {
                let d = world.draw(&mut rng);
                d.lte.rtt < d.wifi.rtt
            })
            .count();
        let frac = lower as f64 / n as f64;
        assert!(
            (0.12..=0.30).contains(&frac),
            "LTE-RTT-lower fraction {frac} should be near the paper's 20%"
        );
    }

    #[test]
    fn draws_are_within_rate_caps() {
        let world = WirelessWorld::from_env(EnvKind::Cafe);
        let mut rng = DetRng::seed_from_u64(3);
        for _ in 0..2000 {
            let d = world.draw(&mut rng);
            for spec in [&d.wifi, &d.lte] {
                let r = down_bps(spec);
                assert!((MIN_RATE_BPS..=MAX_RATE_BPS).contains(&r));
                assert!(spec.rtt >= Dur::from_millis(4));
                assert!(spec.rtt <= Dur::from_millis(800));
            }
        }
    }

    #[test]
    fn uplink_slower_than_downlink() {
        let world = WirelessWorld::from_env(EnvKind::Apartment);
        let mut rng = DetRng::seed_from_u64(5);
        for _ in 0..500 {
            let d = world.draw(&mut rng);
            assert!(d.lte.up.average_bps() <= d.lte.down.average_bps());
            assert!(d.wifi.up.average_bps() <= d.wifi.down.average_bps());
        }
    }

    #[test]
    fn hspa_fraction_respected() {
        let world = WirelessWorld::with_target(8_000_000.0, 0.4);
        let mut rng = DetRng::seed_from_u64(9);
        let n = 5000;
        let hspa = (0..n)
            .filter(|_| matches!(world.draw(&mut rng).cell, CellKind::HspaPlus))
            .count();
        let frac = hspa as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.03, "hspa fraction {frac}");
    }

    #[test]
    fn env_archetypes_ordered_sensibly() {
        assert!(
            EnvKind::Campus.wifi_median_bps() > EnvKind::Hotel.wifi_median_bps(),
            "campus WiFi beats hotel WiFi"
        );
        assert!(
            EnvKind::Outdoor.default_lte_win_prob() > EnvKind::Apartment.default_lte_win_prob()
        );
    }

    #[test]
    fn lte_median_closed_form() {
        // p = 0.5 means equal medians.
        let world = WirelessWorld::with_target(10_000_000.0, 0.5);
        assert!((world.lte_median_bps() - 10_000_000.0).abs() < 1.0);
        // Higher p, higher LTE median.
        let hi = WirelessWorld::with_target(10_000_000.0, 0.9).lte_median_bps();
        let lo = WirelessWorld::with_target(10_000_000.0, 0.1).lte_median_bps();
        assert!(hi > 10_000_000.0 && lo < 10_000_000.0);
    }

    /// `(up bps, down bps, rtt ns, queue bytes, loss bits)`.
    fn bits(spec: &LinkSpec) -> (u64, u64, u64, usize, u64) {
        let rate = |s: &ServiceSpec| match s {
            ServiceSpec::Rate(bps) => *bps,
            other => panic!("a drawn link has a fixed rate, got {other:?}"),
        };
        (
            rate(&spec.up),
            rate(&spec.down),
            spec.rtt.as_nanos(),
            spec.queue_bytes,
            spec.loss.to_bits(),
        )
    }

    #[test]
    fn first_draw_at_seed_42_is_pinned_to_the_bit() {
        // `from_env` rewrites the WiFi RTT median and sigma after
        // `with_target` has filled them in: a constant derived from those
        // fields too early shows in the Hotel row's WiFi RTT.
        let d = WirelessWorld::with_target(8e6, 0.4).draw(&mut DetRng::seed_from_u64(42));
        assert_eq!(d.cell, CellKind::Lte);
        assert_eq!(
            bits(&d.wifi),
            (
                1_962_265,
                2_936_501,
                55_497_790,
                512 * 1024,
                0x3f70_95e3_7ab3_5e09
            )
        );
        assert_eq!(
            bits(&d.lte),
            (
                6_237_642,
                10_466_763,
                61_563_288,
                1536 * 1024,
                0x3f49_9a01_dc20_3600
            )
        );
        let d = WirelessWorld::from_env(EnvKind::Hotel).draw(&mut DetRng::seed_from_u64(42));
        assert_eq!(d.cell, CellKind::Lte);
        assert_eq!(
            bits(&d.wifi),
            (
                1_103_774,
                1_651_781,
                598_744_529,
                512 * 1024,
                0x3f92_23f0_ce34_2edb
            )
        );
        assert_eq!(
            bits(&d.lte),
            (
                6_698_206,
                11_239_589,
                61_563_288,
                1536 * 1024,
                0x3f49_9a01_dc20_3600
            )
        );
    }
}
