//! One Cell vs WiFi measurement run.
//!
//! The app measured, per run and per network: a 1 MB TCP upload, a 1 MB
//! TCP download, and 10 pings (Figure 2's flow chart). [`measure_pair`]
//! does the same against a pair of emulated links. Only complete runs
//! are made, the only runs the paper analyses, so the flow chart's
//! abort paths and data cap reach no dataset.
//!
//! Two execution modes:
//!
//! * [`RunMode::FullSim`] — every transfer runs through the complete
//!   TCP-over-netem simulator (the default for `repro`);
//! * [`RunMode::Analytic`] — a closed-form slow-start + saturation model
//!   of the same transfer, ~10⁴× faster, used for quick iterations and
//!   validated against FullSim in tests.

use mpwifi_sim::apps::measure_ping;
use mpwifi_sim::{LinkSpec, SimArena, WIFI_ADDR};
use mpwifi_simcore::Dur;
use serde::{Deserialize, Serialize};

/// The 1 MB transfer size used by the app.
pub const TRANSFER_BYTES: u64 = 1_000_000;

/// How to execute the measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Packet-level simulation of every transfer.
    FullSim,
    /// Closed-form transfer-time model.
    Analytic,
}

/// The measured quantities of one run on one network pair.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RunMeasurement {
    /// WiFi upload throughput, bits/s.
    pub wifi_up_bps: f64,
    /// WiFi download throughput, bits/s.
    pub wifi_down_bps: f64,
    /// LTE upload throughput, bits/s.
    pub lte_up_bps: f64,
    /// LTE download throughput, bits/s.
    pub lte_down_bps: f64,
    /// Average WiFi ping RTT.
    pub wifi_ping: Dur,
    /// Average LTE ping RTT.
    pub lte_ping: Dur,
}

impl RunMeasurement {
    /// Did LTE beat WiFi (combining both directions, the paper's "40%
    /// of the time" metric)?
    pub fn lte_wins_combined(&self) -> bool {
        self.lte_up_bps + self.lte_down_bps > self.wifi_up_bps + self.wifi_down_bps
    }
}

/// Measure one `(WiFi, LTE)` link pair. FullSim has one body,
/// [`measure_pair_arena`]; a one-off measurement runs it on a fresh
/// arena (campaign workers keep theirs warm instead).
pub fn measure_pair(wifi: &LinkSpec, lte: &LinkSpec, mode: RunMode, seed: u64) -> RunMeasurement {
    measure_pair_in(wifi, lte, mode, &mut SimArena::new(), seed)
}

/// [`measure_pair`] for a worker that owns an arena: FullSim transfers
/// go through it, Analytic leaves it alone.
pub(crate) fn measure_pair_in(
    wifi: &LinkSpec,
    lte: &LinkSpec,
    mode: RunMode,
    arena: &mut SimArena,
    seed: u64,
) -> RunMeasurement {
    match mode {
        RunMode::FullSim => measure_pair_arena(wifi, lte, arena, seed),
        RunMode::Analytic => measure_analytic(wifi, lte),
    }
}

/// Measure one `(WiFi, LTE)` pair at FullSim fidelity through a
/// reusable [`SimArena`]: a 1 MB download and upload per network plus
/// 10 pings each, every transfer on its own derived seed. A warm arena
/// gives the same bits as a fresh one (pinned by a test below, and
/// against fresh-built worlds in `mpwifi_sim::arena`) with its scratch
/// buffers and the 1 MB payload already allocated; campaign workers
/// hold one each and push every user through it.
pub fn measure_pair_arena(
    wifi: &LinkSpec,
    lte: &LinkSpec,
    arena: &mut SimArena,
    seed: u64,
) -> RunMeasurement {
    let deadline = Dur::from_secs(180);
    // The app measures WiFi first, then turns WiFi off and measures
    // cellular (Figure 2); both use the client's respective interface.
    // We point both transfers at the WiFi slot of the testbed and swap
    // specs, so the unused network can't interfere (it wouldn't anyway).
    let idle = LinkSpec::symmetric(1_000_000, Dur::from_millis(50));
    let w_down = arena.tcp_download(wifi, &idle, WIFI_ADDR, TRANSFER_BYTES, deadline, seed);
    let w_up = arena.tcp_upload(wifi, &idle, WIFI_ADDR, TRANSFER_BYTES, deadline, seed ^ 1);
    let l_down = arena.tcp_download(lte, &idle, WIFI_ADDR, TRANSFER_BYTES, deadline, seed ^ 2);
    let l_up = arena.tcp_upload(lte, &idle, WIFI_ADDR, TRANSFER_BYTES, deadline, seed ^ 3);
    RunMeasurement {
        wifi_up_bps: w_up.avg_throughput_bps().unwrap_or(0.0),
        wifi_down_bps: w_down.avg_throughput_bps().unwrap_or(0.0),
        lte_up_bps: l_up.avg_throughput_bps().unwrap_or(0.0),
        lte_down_bps: l_down.avg_throughput_bps().unwrap_or(0.0),
        wifi_ping: measure_ping(wifi, 10, seed ^ 4),
        lte_ping: measure_ping(lte, 10, seed ^ 5),
    }
}

fn measure_analytic(wifi: &LinkSpec, lte: &LinkSpec) -> RunMeasurement {
    RunMeasurement {
        wifi_up_bps: analytic_tput(wifi.up.average_bps(), wifi.rtt, TRANSFER_BYTES),
        wifi_down_bps: analytic_tput(wifi.down.average_bps(), wifi.rtt, TRANSFER_BYTES),
        lte_up_bps: analytic_tput(lte.up.average_bps(), lte.rtt, TRANSFER_BYTES),
        lte_down_bps: analytic_tput(lte.down.average_bps(), lte.rtt, TRANSFER_BYTES),
        wifi_ping: analytic_ping(wifi),
        lte_ping: analytic_ping(lte),
    }
}

/// Closed-form transfer time: one handshake RTT, slow-start doubling
/// from IW10 (with delayed ACKs growth is ~1.5× per RTT) until the
/// window fills the bandwidth-delay product, then line-rate drain.
pub fn analytic_tput(rate_bps: f64, rtt: Dur, bytes: u64) -> f64 {
    const MSS: f64 = 1400.0;
    const IW: f64 = 10.0 * MSS;
    // Effective growth per RTT with delayed ACKs on Linux-era stacks.
    const GROWTH: f64 = 1.7;
    let rtt_s = rtt.as_secs_f64().max(1e-4);
    let bdp = rate_bps / 8.0 * rtt_s;
    let mut t = rtt_s; // handshake
    let mut sent = 0.0;
    let mut w = IW;
    let total = bytes as f64;
    loop {
        if w >= bdp {
            // Saturated: drain the rest at line rate.
            t += (total - sent) * 8.0 / rate_bps;
            break;
        }
        if sent + w >= total {
            // Finishes inside this RTT; charge proportionally.
            t += rtt_s * (total - sent) / w;
            break;
        }
        sent += w;
        t += rtt_s;
        w *= GROWTH;
    }
    total * 8.0 / t
}

fn analytic_ping(spec: &LinkSpec) -> Dur {
    // 84-byte probe each way plus propagation.
    let ser_up = 84.0 * 8.0 / spec.up.average_bps();
    let ser_down = 84.0 * 8.0 / spec.down.average_bps();
    spec.rtt + Dur::from_secs_f64(ser_up + ser_down)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpwifi_sim::ServiceSpec;

    fn spec(down_mbps: f64, up_mbps: f64, rtt_ms: u64) -> LinkSpec {
        LinkSpec {
            down: ServiceSpec::Rate((down_mbps * 1e6) as u64),
            up: ServiceSpec::Rate((up_mbps * 1e6) as u64),
            rtt: Dur::from_millis(rtt_ms),
            queue_bytes: 256 * 1024,
            loss: 0.0,
            reorder_prob: 0.0,
            reorder_extra: Dur::ZERO,
        }
    }

    #[test]
    fn analytic_tput_below_line_rate() {
        let t = analytic_tput(10e6, Dur::from_millis(50), TRANSFER_BYTES);
        assert!(t < 10e6);
        assert!(t > 3e6, "1 MB on 10 Mbit/s x 50 ms should reach {t}");
    }

    #[test]
    fn analytic_tput_monotone_in_rate() {
        let rtt = Dur::from_millis(60);
        let a = analytic_tput(2e6, rtt, TRANSFER_BYTES);
        let b = analytic_tput(8e6, rtt, TRANSFER_BYTES);
        let c = analytic_tput(30e6, rtt, TRANSFER_BYTES);
        assert!(a < b && b < c);
    }

    #[test]
    fn analytic_tput_penalizes_rtt() {
        let a = analytic_tput(10e6, Dur::from_millis(20), TRANSFER_BYTES);
        let b = analytic_tput(10e6, Dur::from_millis(200), TRANSFER_BYTES);
        assert!(a > b);
    }

    #[test]
    fn analytic_close_to_fullsim() {
        // The analytic model must land within ~25% of the packet-level
        // simulator across representative conditions (it exists for
        // speed, not precision).
        for (down, up, rtt) in [(20.0, 12.0, 20), (5.0, 2.5, 60), (2.0, 1.0, 120)] {
            let wifi = spec(down, up, rtt);
            let lte = spec(8.0, 4.0, 60);
            let full = measure_pair(&wifi, &lte, RunMode::FullSim, 7);
            let ana = measure_pair(&wifi, &lte, RunMode::Analytic, 7);
            let err = (full.wifi_down_bps - ana.wifi_down_bps).abs() / full.wifi_down_bps;
            assert!(
                err < 0.25,
                "analytic vs fullsim mismatch {err:.2} at {down}/{up}/{rtt}: {} vs {}",
                full.wifi_down_bps,
                ana.wifi_down_bps
            );
        }
    }

    #[test]
    fn ping_close_to_fullsim() {
        let wifi = spec(10.0, 5.0, 40);
        let lte = spec(8.0, 4.0, 60);
        let full = measure_pair(&wifi, &lte, RunMode::FullSim, 9);
        let ana = measure_pair(&wifi, &lte, RunMode::Analytic, 9);
        let err = (full.wifi_ping.as_secs_f64() - ana.wifi_ping.as_secs_f64()).abs();
        assert!(err < 0.005, "ping mismatch {err}");
        assert!(full.lte_ping > full.wifi_ping);
        let _ = ana.lte_ping;
    }

    #[test]
    fn lte_wins_combined_logic() {
        let m = RunMeasurement {
            wifi_up_bps: 1e6,
            wifi_down_bps: 2e6,
            lte_up_bps: 2e6,
            lte_down_bps: 3e6,
            wifi_ping: Dur::from_millis(20),
            lte_ping: Dur::from_millis(60),
        };
        assert!(m.lte_wins_combined());
    }

    #[test]
    fn warm_arena_measurement_bit_identical_to_fresh_arena() {
        let wifi = spec(12.0, 6.0, 30);
        let lte = spec(6.0, 3.0, 70);
        // Warm the arena on a different, lossy link pair first, so the
        // reused world carries another run's stages, queues and pool.
        let other = LinkSpec {
            loss: 0.01,
            ..spec(3.0, 1.5, 90)
        };
        let mut warm = SimArena::new();
        measure_pair_arena(&other, &wifi, &mut warm, 99);
        for seed in [3u64, 11, 12] {
            let fresh = measure_pair_arena(&wifi, &lte, &mut SimArena::new(), seed);
            let reused = measure_pair_arena(&wifi, &lte, &mut warm, seed);
            assert_eq!(
                format!("{fresh:?}"),
                format!("{reused:?}"),
                "warm arena diverged at seed {seed}"
            );
        }
        assert_eq!(warm.builds(), 1);
        assert_eq!(warm.resets(), 15, "4 transfers per pair after the first");
    }

    #[test]
    fn fullsim_measures_all_four_directions() {
        let wifi = spec(12.0, 6.0, 30);
        let lte = spec(6.0, 3.0, 70);
        let m = measure_pair(&wifi, &lte, RunMode::FullSim, 3);
        assert!(m.wifi_down_bps > m.lte_down_bps);
        assert!(m.wifi_up_bps > m.lte_up_bps);
        assert!(m.wifi_down_bps > m.wifi_up_bps);
        for v in [m.wifi_up_bps, m.wifi_down_bps, m.lte_up_bps, m.lte_down_bps] {
            assert!(v > 100_000.0, "throughput too low: {v}");
        }
    }
}
