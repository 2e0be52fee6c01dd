//! The Cell vs WiFi app, end to end: one measurement-collection run
//! (Figure 2's 1 MB up, 1 MB down and pings per network, through
//! `crowd::measure::measure_pair`) at each of a few Table 1 locations,
//! and the recommendation the app would show its user.
//!
//! ```text
//! cargo run --release --example cell_vs_wifi
//! ```

use mpwifi::core::policy::{AlwaysWifi, BestMeasured, NetworkSelector};
use mpwifi::crowd::measure::{measure_pair, RunMode};
use mpwifi::crowd::world::paper_clusters;
use mpwifi::measure::render::fmt_bps;
use mpwifi::radio::WirelessWorld;
use mpwifi::simcore::DetRng;

fn main() {
    let clusters = paper_clusters();
    let mut rng = DetRng::seed_from_u64(7);

    println!(
        "{:<24} {:>12} {:>12} {:>8} {:>8}  recommendation",
        "location", "WiFi down", "LTE down", "WiFi RTT", "LTE RTT"
    );
    for profile in clusters.iter().take(8) {
        // The conditions this user saw, drawn from the location's world,
        // and one measurement-collection run over them (Figure 2).
        let world = WirelessWorld::with_target(profile.wifi_median_bps, profile.lte_win_frac);
        let draw = world.draw(&mut rng);
        let m = measure_pair(&draw.wifi, &draw.lte, RunMode::FullSim, 11);

        let naive = AlwaysWifi.select(&m, 1_000_000);
        let informed = BestMeasured.select(&m, 1_000_000);
        let marker = if naive == informed {
            ""
        } else {
            "  <- default is wrong here"
        };
        println!(
            "{:<24} {:>12} {:>12} {:>7.0}ms {:>7.0}ms  {:?}{}",
            profile.name,
            fmt_bps(m.wifi_down_bps),
            fmt_bps(m.lte_down_bps),
            m.wifi_ping.as_secs_f64() * 1e3,
            m.lte_ping.as_secs_f64() * 1e3,
            informed,
            marker
        );
    }
    println!("\n(the paper's headline: at ~40% of runs, \"always WiFi\" is the wrong call)");
}
