//! The Table 1 world: 22 location clusters and run generation.

use crate::measure::{measure_pair_in, RunMeasurement, RunMode};
use mpwifi_measure::GeoPoint;
use mpwifi_radio::{CellKind, WirelessWorld};
use mpwifi_sim::SimArena;
use mpwifi_simcore::{fan_out, norm_quantile, DetRng};
use serde::{Deserialize, Serialize};

/// Map a Table 1 LTE-win target (defined over *measured combined
/// throughput*, up + down) to the rate-level win probability the
/// `WirelessWorld` calibration expects. The offset exists because (a)
/// LTE uplinks are a smaller fraction of their downlinks than WiFi's
/// and (b) LTE's higher RTT costs measured throughput; both push the
/// measured-combined win rate below the rate-level one. Constants were
/// fit empirically against the analytic measurement model (probit
/// regression, see `examples/calib.rs`).
pub fn combined_target_adjustment(p: f64) -> f64 {
    const SLOPE: f64 = 0.809;
    const INTERCEPT: f64 = -0.138;
    let p = p.clamp(0.005, 0.995);
    let q = (norm_quantile(p) - INTERCEPT) / SLOPE;
    // Φ(q) via the complementary error function relation, using a
    // rational approximation of Φ through norm_quantile inversion is
    // overkill; use the standard erf-based formula.
    0.5 * (1.0 + erf(q / std::f64::consts::SQRT_2))
}

/// Abramowitz–Stegun 7.1.26 erf approximation (|error| < 1.5e-7).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// One Table 1 row as a generative profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterProfile {
    /// Location name as printed in Table 1.
    pub name: &'static str,
    /// Cluster center.
    pub lat: f64,
    /// Cluster center.
    pub lon: f64,
    /// Number of measurement runs collected there.
    pub runs: usize,
    /// Fraction of runs where LTE throughput beat WiFi (Table 1's last
    /// column).
    pub lte_win_frac: f64,
    /// Median WiFi downlink for the area (bits/s) — regional flavor.
    pub wifi_median_bps: f64,
}

/// The 22 clusters of Table 1, verbatim coordinates, run counts and
/// LTE-win percentages. WiFi medians are regional estimates (the paper
/// does not publish them; only the win fraction is calibrated).
pub fn paper_clusters() -> Vec<ClusterProfile> {
    let rows: [(&'static str, f64, f64, usize, f64, f64); 22] = [
        ("US (Boston, MA)", 42.4, -71.1, 884, 0.10, 16e6),
        ("Israel", 31.8, 35.0, 276, 0.55, 6e6),
        ("US (Portland)", 45.6, -122.7, 164, 0.45, 8e6),
        ("Estonia", 59.4, 27.4, 124, 0.71, 5e6),
        ("South Korea", 37.5, 126.9, 108, 0.66, 12e6),
        ("US (Orlando)", 28.4, -81.4, 92, 0.35, 9e6),
        ("US (Miami)", 26.0, -80.2, 84, 0.52, 7e6),
        ("Malaysia", 4.24, 103.4, 76, 0.68, 4e6),
        ("Brazil", -23.6, -46.8, 56, 0.04, 7e6),
        ("Germany", 52.5, 13.3, 40, 0.20, 11e6),
        ("Spain", 28.0, -16.7, 40, 0.80, 3.5e6),
        ("Thailand (Phichit)", 16.1, 100.2, 40, 0.80, 3e6),
        ("US (New York)", 40.9, -73.8, 24, 0.33, 10e6),
        ("Japan", 36.4, 139.3, 16, 0.25, 14e6),
        ("Sweden", 59.6, 18.6, 16, 0.00, 18e6),
        ("Thailand (Chiang Mai)", 18.8, 99.0, 16, 0.75, 3.5e6),
        ("US (Chicago)", 42.0, -88.2, 16, 0.25, 11e6),
        ("Hungary", 47.4, 16.8, 8, 0.00, 12e6),
        ("Italy", 44.2, 8.3, 8, 0.00, 9e6),
        ("US (Salt Lake City)", 40.8, -111.9, 8, 0.00, 13e6),
        ("Colombia", 7.1, -70.7, 4, 0.00, 8e6),
        ("US (Santa Fe)", 35.9, -106.3, 4, 0.00, 10e6),
    ];
    rows.iter()
        .map(
            |&(name, lat, lon, runs, lte_win_frac, wifi_median_bps)| ClusterProfile {
                name,
                lat,
                lon,
                runs,
                lte_win_frac,
                wifi_median_bps,
            },
        )
        .collect()
}

/// One complete measurement run of the crowd dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasurementRun {
    /// Random per-install user id (as the app generated).
    pub user_id: u64,
    /// Index into [`paper_clusters`].
    pub cluster_idx: usize,
    /// Where the run happened (jittered around the cluster center).
    pub geo: GeoPoint,
    /// Cellular technology of this run.
    pub cell: CellKind,
    /// The measured throughputs and pings.
    pub m: RunMeasurement,
}

/// Generate the full calibrated dataset (1606 complete runs across the
/// 22 clusters). Deterministic per seed.
///
/// Generation is two-phase: conditions are drawn sequentially (one RNG
/// stream, reproducible), then the runs are *measured* — fanned out
/// across worker threads when `mode` is [`RunMode::FullSim`], since the
/// 2104 packet-level simulations are independent. Results are returned
/// in generation order regardless, so the dataset is byte-identical to
/// a sequential run.
pub fn generate_dataset(mode: RunMode, seed: u64) -> Vec<MeasurementRun> {
    // Phase 1: sequential, RNG-ordered condition generation.
    struct RunSpec {
        user_id: u64,
        cluster_idx: usize,
        geo: GeoPoint,
        draw: mpwifi_radio::LinkDraw,
        seed: u64,
    }
    let mut root = DetRng::seed_from_u64(seed);
    let mut specs = Vec::new();
    for (cluster_idx, profile) in paper_clusters().iter().enumerate() {
        let mut rng = root.derive(cluster_idx as u64 + 1);
        let world = WirelessWorld::with_target(
            profile.wifi_median_bps,
            combined_target_adjustment(profile.lte_win_frac),
        );
        // A handful of distinct users per cluster, more where more runs.
        let n_users = (profile.runs / 8).clamp(1, 40);
        let user_ids: Vec<u64> = (0..n_users).map(|_| rng.next_u64()).collect();
        for run_i in 0..profile.runs {
            let draw = world.draw(&mut rng);
            // Jitter within ~30 km of the cluster center so the k-means
            // analysis has to actually cluster.
            let geo = GeoPoint::new(
                (profile.lat + rng.normal(0.0, 0.12)).clamp(-89.9, 89.9),
                (profile.lon + rng.normal(0.0, 0.12)).clamp(-179.9, 179.9),
            );
            specs.push(RunSpec {
                user_id: user_ids[rng.index(user_ids.len())],
                cluster_idx,
                geo,
                draw,
                seed: seed ^ ((cluster_idx as u64) << 32) ^ run_i as u64,
            });
        }
    }

    // Phase 2: measurement.
    let measure_one = |arena: &mut SimArena, s: &RunSpec| MeasurementRun {
        user_id: s.user_id,
        cluster_idx: s.cluster_idx,
        geo: s.geo,
        cell: s.draw.cell,
        m: measure_pair_in(&s.draw.wifi, &s.draw.lte, mode, arena, s.seed),
    };
    match mode {
        // The closed-form model is not worth a thread, and never
        // touches the (free to create) arena.
        RunMode::Analytic => specs
            .iter()
            .map(|s| measure_one(&mut SimArena::new(), s))
            .collect(),
        // One warm arena per worker, like the campaign engine.
        RunMode::FullSim => {
            let workers = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4);
            fan_out(specs.len(), workers, SimArena::new, |arena, i| {
                measure_one(arena, &specs[i])
            })
        }
    }
}

/// Export a dataset as CSV — the paper published its measurement data,
/// and so do we (`repro table1 --csv`-style workflows can shell this out).
pub fn dataset_to_csv(runs: &[MeasurementRun]) -> String {
    let mut out = String::from(
        "user_id,cluster,lat,lon,cell,wifi_up_bps,wifi_down_bps,lte_up_bps,lte_down_bps,wifi_ping_ms,lte_ping_ms\n",
    );
    let clusters = paper_clusters();
    for r in runs {
        out.push_str(&format!(
            "{:016x},{},{:.4},{:.4},{:?},{:.0},{:.0},{:.0},{:.0},{:.2},{:.2}\n",
            r.user_id,
            clusters[r.cluster_idx].name.replace(',', ";"),
            r.geo.lat,
            r.geo.lon,
            r.cell,
            r.m.wifi_up_bps,
            r.m.wifi_down_bps,
            r.m.lte_up_bps,
            r.m.lte_down_bps,
            r.m.wifi_ping.as_secs_f64() * 1e3,
            r.m.lte_ping.as_secs_f64() * 1e3,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::measure_pair;

    #[test]
    fn cluster_table_matches_paper_totals() {
        let clusters = paper_clusters();
        assert_eq!(clusters.len(), 22);
        let total_runs: usize = clusters.iter().map(|c| c.runs).sum();
        // Table 1 lists 2104 runs; the paper's "1606 complete runs"
        // excludes incomplete ones — we generate all Table 1 rows.
        assert_eq!(total_runs, 2104);
        assert_eq!(clusters[0].name, "US (Boston, MA)");
        assert_eq!(clusters[0].runs, 884);
        assert!((clusters[3].lte_win_frac - 0.71).abs() < 1e-9);
    }

    #[test]
    fn dataset_has_all_runs_analytic() {
        let ds = generate_dataset(RunMode::Analytic, 1);
        assert_eq!(ds.len(), 2104);
        // Every run has positive throughputs.
        assert!(ds
            .iter()
            .all(|r| r.m.wifi_down_bps > 0.0 && r.m.lte_down_bps > 0.0));
    }

    #[test]
    fn runs_jittered_but_near_center() {
        let ds = generate_dataset(RunMode::Analytic, 1);
        let clusters = paper_clusters();
        for r in &ds {
            let c = &clusters[r.cluster_idx];
            let center = GeoPoint::new(c.lat, c.lon);
            let d = mpwifi_measure::haversine_km(center, r.geo);
            assert!(d < 100.0, "run {d} km from center");
        }
    }

    #[test]
    fn per_cluster_win_rate_near_target() {
        let ds = generate_dataset(RunMode::Analytic, 1);
        let clusters = paper_clusters();
        // Check the big clusters (enough samples for the rate to
        // concentrate).
        for (idx, c) in clusters.iter().enumerate().filter(|(_, c)| c.runs >= 100) {
            let runs: Vec<_> = ds.iter().filter(|r| r.cluster_idx == idx).collect();
            let wins = runs.iter().filter(|r| r.m.lte_wins_combined()).count();
            let frac = wins as f64 / runs.len() as f64;
            assert!(
                (frac - c.lte_win_frac).abs() < 0.14,
                "{}: target {}, got {frac}",
                c.name,
                c.lte_win_frac
            );
        }
    }

    #[test]
    fn deterministic_dataset() {
        let a = generate_dataset(RunMode::Analytic, 5);
        let b = generate_dataset(RunMode::Analytic, 5);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.m.wifi_down_bps, y.m.wifi_down_bps);
            assert_eq!(x.user_id, y.user_id);
        }
    }

    /// Guard for the empirically fitted probit constants in
    /// `combined_target_adjustment`: if the radio condition model or the
    /// analytic measurement model changes enough to invalidate the fit,
    /// this fails loudly instead of silently skewing Table 1 / Figure 3.
    /// Re-fit with `cargo run --release --example calib -p mpwifi-crowd`.
    #[test]
    fn calibration_fit_still_valid() {
        for target in [0.25f64, 0.4, 0.55, 0.7] {
            let world = WirelessWorld::with_target(8_000_000.0, combined_target_adjustment(target));
            let mut rng = DetRng::seed_from_u64(42);
            let n = 4000;
            let wins = (0..n)
                .filter(|i| {
                    let d = world.draw(&mut rng);
                    measure_pair(&d.wifi, &d.lte, RunMode::Analytic, *i).lte_wins_combined()
                })
                .count();
            let frac = wins as f64 / n as f64;
            assert!(
                (frac - target).abs() < 0.04,
                "calibration drift: target {target}, measured {frac} — re-fit the \
                 constants in combined_target_adjustment (see examples/calib.rs)"
            );
        }
    }

    #[test]
    fn csv_export_round_trips_row_count() {
        let ds: Vec<MeasurementRun> = generate_dataset(RunMode::Analytic, 1)
            .into_iter()
            .take(50)
            .collect();
        let csv = dataset_to_csv(&ds);
        assert_eq!(csv.lines().count(), 51, "header + one line per run");
        let header = csv.lines().next().unwrap();
        assert_eq!(header.split(',').count(), 11);
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), 11, "bad row: {line}");
        }
    }

    #[test]
    fn fullsim_subset_consistent_with_analytic() {
        // Run the first cluster's first few draws in both modes and
        // compare aggregate direction (not exact values).
        let profile = &paper_clusters()[1]; // Israel: p = 0.55
        let world = WirelessWorld::with_target(profile.wifi_median_bps, profile.lte_win_frac);
        let mut rng = DetRng::seed_from_u64(3);
        let mut agree = 0;
        let n = 12;
        for i in 0..n {
            let draw = world.draw(&mut rng);
            let full = measure_pair(&draw.wifi, &draw.lte, RunMode::FullSim, i);
            let ana = measure_pair(&draw.wifi, &draw.lte, RunMode::Analytic, i);
            if full.lte_wins_combined() == ana.lte_wins_combined() {
                agree += 1;
            }
        }
        assert!(agree >= n - 2, "modes disagree on winners: {agree}/{n}");
    }
}
