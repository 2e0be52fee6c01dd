//! Section 2 reproductions: Table 1 and Figures 3, 4, 6.

use crate::report::{Report, Scale};
use mpwifi_crowd::{analysis, generate_dataset};
use mpwifi_measure::render::series_block;
use mpwifi_measure::Cdf;

fn mode_note(scale: Scale) -> &'static str {
    match scale {
        Scale::Quick => "analytic transfer model (use --full for packet-level simulation)",
        Scale::Full => "full packet-level simulation of every 1 MB transfer",
    }
}

/// Table 1: geographic clusters with run counts and LTE-win rates.
pub fn table1(scale: Scale, seed: u64) -> Report {
    let rows = analysis::table1(&generate_dataset(scale.run_mode(), seed));
    let mut r = Report::new(
        "table1",
        "Geographic coverage of the crowd-sourced dataset",
        format!(
            "2104 synthesized runs in the 22 Table 1 clusters; k-means clustering (r = 100 km); {}",
            mode_note(scale)
        ),
    );
    r.block(analysis::render_table1(&rows));
    r.claim(
        "number of recovered geographic clusters",
        "22",
        rows.len().to_string(),
        (19..=25).contains(&rows.len()),
    );
    let boston = rows.iter().find(|c| c.name == "US (Boston, MA)");
    r.claim(
        "largest cluster (Boston) run count",
        "884",
        boston.map_or("missing".into(), |b| b.runs.to_string()),
        boston.is_some_and(|b| b.runs >= 800),
    );
    let boston_pct = boston.map(|b| b.lte_pct).unwrap_or(100.0);
    r.claim(
        "Boston LTE-win rate",
        "10%",
        format!("{boston_pct:.0}%"),
        (boston_pct - 10.0).abs() < 8.0,
    );
    r
}

/// Figure 3: CDFs of WiFi−LTE throughput difference.
pub fn fig3(scale: Scale, seed: u64) -> Report {
    let a = analysis::differences(&generate_dataset(scale.run_mode(), seed));
    let mut r = Report::new(
        "fig3",
        "CDF of Tput(WiFi) − Tput(LTE), uplink and downlink",
        format!(
            "2104 runs × (1 MB up + 1 MB down) per network; {}",
            mode_note(scale)
        ),
    );
    r.block(series_block(
        "fig3a uplink: x = Tput(WiFi)-Tput(LTE) Mbit/s, y = CDF",
        &a.fig3_uplink.points_downsampled(60),
    ));
    r.block(series_block(
        "fig3b downlink: x = Tput(WiFi)-Tput(LTE) Mbit/s, y = CDF",
        &a.fig3_downlink.points_downsampled(60),
    ));
    r.claim(
        "LTE beats WiFi, uplink",
        "42%",
        format!("{:.0}%", a.lte_win_up * 100.0),
        (a.lte_win_up - 0.42).abs() < 0.10,
    );
    r.claim(
        "LTE beats WiFi, downlink",
        "35%",
        format!("{:.0}%", a.lte_win_down * 100.0),
        (a.lte_win_down - 0.35).abs() < 0.10,
    );
    r.claim(
        "LTE beats WiFi, combined",
        "40%",
        format!("{:.0}%", a.lte_win_combined * 100.0),
        (a.lte_win_combined - 0.40).abs() < 0.08,
    );
    let (lo, hi) = a.fig3_downlink.range().unwrap();
    r.claim(
        "difference range spans the paper's axis",
        "−15 .. +25 Mbit/s",
        format!("{lo:.1} .. {hi:.1} Mbit/s"),
        lo < -5.0 && hi > 10.0,
    );
    r
}

/// Figure 4: CDF of WiFi−LTE ping RTT difference.
pub fn fig4(scale: Scale, seed: u64) -> Report {
    let a = analysis::differences(&generate_dataset(scale.run_mode(), seed));
    let mut r = Report::new(
        "fig4",
        "CDF of RTT(WiFi) − RTT(LTE), 10-ping averages",
        format!("2104 runs × 10 pings per network; {}", mode_note(scale)),
    );
    r.block(series_block(
        "fig4: x = RTT(WiFi)-RTT(LTE) ms, y = CDF",
        &a.fig4_rtt.points_downsampled(60),
    ));
    r.claim(
        "LTE RTT lower than WiFi",
        "20%",
        format!("{:.0}%", a.lte_rtt_lower * 100.0),
        (a.lte_rtt_lower - 0.20).abs() < 0.10,
    );
    r
}

/// Figure 6: the 20-location TCP measurements against the crowd CDF.
pub fn fig6(scale: Scale, seed: u64) -> Report {
    let a = analysis::differences(&generate_dataset(scale.run_mode(), seed));
    // Measure the 20 locations with single-path TCP transfers, using the
    // SAME measurement method as the crowd dataset (so the comparison
    // isolates the conditions, not the method). Like the paper, each
    // location is measured on several visits; each visit sees fresh
    // conditions from the location's environment.
    let locs = super::locations(seed);
    let visits = 5u64;
    let mut up_diff = Vec::new();
    let mut down_diff = Vec::new();
    for (i, loc) in locs.iter().enumerate() {
        let world = mpwifi_radio::WirelessWorld::from_env(loc.env);
        let mut rng = mpwifi_simcore::DetRng::seed_from_u64(seed ^ ((i as u64) << 40));
        for v in 0..visits {
            let draw = world.draw(&mut rng);
            let s = seed ^ ((i as u64) << 8) ^ (v << 32);
            let m = mpwifi_crowd::measure_pair(&draw.wifi, &draw.lte, scale.run_mode(), s);
            down_diff.push((m.wifi_down_bps - m.lte_down_bps) / 1e6);
            up_diff.push((m.wifi_up_bps - m.lte_up_bps) / 1e6);
        }
    }
    let loc_up = Cdf::from_samples(up_diff);
    let loc_down = Cdf::from_samples(down_diff);
    let ks_up = loc_up.ks_distance(&a.fig3_uplink);
    let ks_down = loc_down.ks_distance(&a.fig3_downlink);

    let mut r = Report::new(
        "fig6",
        "20-location TCP throughput-difference CDFs vs the crowd data",
        "5 visits to each of the 20 Table 2 locations, measured identically to the crowd runs; crowd CDFs from table1's dataset",
    );
    r.block(series_block(
        "fig6a uplink 20-Location: x = diff Mbit/s, y = CDF",
        &loc_up.points(),
    ));
    r.block(series_block(
        "fig6a uplink App Data: x = diff Mbit/s, y = CDF",
        &a.fig3_uplink.points_downsampled(40),
    ));
    r.block(series_block(
        "fig6b downlink 20-Location: x = diff Mbit/s, y = CDF",
        &loc_down.points(),
    ));
    r.block(series_block(
        "fig6b downlink App Data: x = diff Mbit/s, y = CDF",
        &a.fig3_downlink.points_downsampled(40),
    ));
    r.claim(
        "20-location curve close to crowd curve (KS distance, downlink)",
        "visually close",
        format!("KS = {ks_down:.2}"),
        ks_down < 0.40,
    );
    r.claim(
        "20-location curve close to crowd curve (KS distance, uplink)",
        "visually close",
        format!("KS = {ks_up:.2}"),
        ks_up < 0.40,
    );
    r
}
