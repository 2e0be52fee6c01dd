//! Extension: population-scale crowd campaigns.
//!
//! The paper's crowd dataset has 2104 runs; this extension asks what the
//! same measurement campaign looks like at 10⁴–10⁵ synthetic users drawn
//! from the Table 1 cluster mixture. The campaign driver streams every
//! user into fixed-size mergeable summaries ([`mpwifi_crowd::ShardSummary`]),
//! so the report carries Figure 3/4 analogs *with 95% confidence bands*
//! at a memory cost independent of the population size.

use crate::report::{Report, Scale};
use mpwifi_crowd::{
    merge_agreement, paper_clusters, run_campaign, run_campaign_resumable_with, run_campaign_with,
    CampaignConfig, CampaignSummary, ResumeError, ResumedCampaign, RunMode, CAMPAIGN_CLUSTERS,
};
use mpwifi_measure::render::{series_block_iter, TextTable};
use mpwifi_measure::MeanAcc;
use std::path::Path;

/// Population at `--quick` scale (analytic model per user).
const QUICK_USERS: u64 = 20_000;
/// Population at `--full` scale; the FullSim spot check rides along.
const FULL_USERS: u64 = 100_000;
/// Sub-population for the sharded-vs-monolithic agreement check.
const AGREEMENT_USERS: u64 = 10_000;

/// Registry entry point: Quick = 20k users, Full = 100k users plus a
/// packet-level spot check through the per-worker `SimArena`s.
pub fn crowd_campaign(scale: Scale, seed: u64) -> Report {
    let users = match scale {
        Scale::Quick => QUICK_USERS,
        Scale::Full => FULL_USERS,
    };
    let (report, _) = campaign_report(users, 0, seed, scale, None, |_, _, _| {})
        .expect("only a checkpoint can refuse, and there is none");
    report
}

/// Run the analytic population campaign and render it: the one entry
/// point behind the registry, `repro campaign --users N --jobs N` and
/// the campaign server. The report is byte-identical for every
/// `workers` value (0 = auto, pinned at 10⁴ users by the determinism
/// suite), with or without a checkpoint, at any kill point and under
/// any observer; `Scale::Full` adds the FullSim spot check.
///
/// With `checkpoint` the main population run journals every completed
/// shard to that path and resumes from whatever a previous (possibly
/// killed) invocation left there; the returned [`ResumedCampaign`]
/// carries the recovery counters for the host's (stderr-only) note, and
/// a journal that disagrees with this config is the typed
/// [`ResumeError`]. Without one the call cannot fail.
///
/// `on_shard` observes shard completions of the main population run
/// (the agreement replays and the spot check run unobserved — they are
/// small); the campaign server streams progress through it.
pub fn campaign_report(
    users: u64,
    workers: usize,
    seed: u64,
    scale: Scale,
    checkpoint: Option<&Path>,
    on_shard: impl Fn(u64, u64, u64) + Sync,
) -> Result<(Report, Option<ResumedCampaign>), ResumeError> {
    let mut cfg = CampaignConfig::new(users, seed, RunMode::Analytic);
    cfg.workers = workers;
    let resumed = checkpoint
        .map(|path| run_campaign_resumable_with(&cfg, path, &on_shard))
        .transpose()?;
    // Both drivers hand the renderer the same `(cfg, summary)`, which is
    // what pins the byte-identity of resumed reports.
    let mut r = match &resumed {
        Some(res) => render_campaign_report(&cfg, &res.summary),
        None => render_campaign_report(&cfg, &run_campaign_with(&cfg, &on_shard)),
    };
    if scale == Scale::Full {
        fullsim_spot_check(&mut r, seed);
    }
    Ok((r, resumed))
}

/// Render the campaign report from an already-computed population
/// summary.
fn render_campaign_report(cfg: &CampaignConfig, s: &CampaignSummary) -> Report {
    let users = cfg.users;
    let workers = cfg.workers;
    let seed = cfg.seed;

    // Replay a sub-population monolithically (one shard, one worker) and
    // check the streamed shard fold against the single-pass accumulation.
    let agree_users = users.min(AGREEMENT_USERS);
    let mut sharded = CampaignConfig::new(agree_users, seed, RunMode::Analytic);
    sharded.workers = workers;
    let mut mono = CampaignConfig::new(agree_users, seed, RunMode::Analytic);
    mono.workers = 1;
    mono.shard_users = agree_users.max(1);
    let agreement = merge_agreement(&run_campaign(&sharded), &run_campaign(&mono));

    let mut r = Report::new(
        "crowd-campaign",
        "Population-scale crowd campaign with streaming mergeable statistics",
        format!(
            "{users} synthetic users drawn from the 22 Table 1 clusters (run-count \
             weighted); analytic transfer model per user; {} shards of {} users \
             streamed into fixed-size summaries and folded in shard order",
            s.shards, cfg.shard_users
        ),
    );
    render_population(&mut r, s);
    let boston_share = s.stats.clusters[0].runs as f64 / s.users.max(1) as f64;
    let populated = s.stats.clusters.iter().filter(|c| c.runs > 0).count();
    let frac = s.stats.lte_win_fraction();
    r.claim(
        "LTE beats WiFi, combined (population)",
        "40%",
        format!("{:.0}%", frac * 100.0),
        (0.25..0.42).contains(&frac),
    );
    r.claim(
        "largest cluster (Boston) population share",
        "42% (884/2104)",
        format!("{:.1}%", boston_share * 100.0),
        (boston_share - 884.0 / 2104.0).abs() < 0.03,
    );
    r.claim(
        "geographic coverage",
        format!("{CAMPAIGN_CLUSTERS} clusters"),
        format!("{populated} populated"),
        populated == CAMPAIGN_CLUSTERS,
    );
    let (lo, hi) = s.stats.diff_acc.ci95();
    r.claim(
        "95% CI narrows below the population spread",
        "band ≪ σ at n ≫ 1",
        format!(
            "±{:.3} Mbit/s band vs {:.3} Mbit/s σ",
            (hi - lo) / 2.0 / 1e6,
            s.stats.diff_acc.std_dev() / 1e6
        ),
        s.stats.diff_acc.count() == users && (hi - lo) < s.stats.diff_acc.std_dev(),
    );
    r.claim(
        "sharded fold ≡ monolithic accumulation",
        format!("exact on counts ({agree_users} users)"),
        match &agreement {
            Ok(()) => "agrees".to_string(),
            Err(e) => e.clone(),
        },
        agreement.is_ok(),
    );
    r.claim(
        "streaming state is bounded",
        "O(1) in users",
        format!(
            "800-bin sketches saw all {} users",
            s.stats.wifi_down.count()
        ),
        s.stats.wifi_down.count() == users && s.stats.ping_diff_us.total() == users,
    );
    r
}

/// The figure analogs and the mean±CI table.
fn render_population(r: &mut Report, s: &CampaignSummary) {
    let st = &s.stats;
    r.block(series_block_iter(
        "campaign fig3-analog: x = Tput(LTE)-Tput(WiFi) combined Mbit/s, y = CDF",
        st.combined_diff
            .iter_points_downsampled(60)
            .map(|(x, q)| (x / 1e6, q)),
    ));
    r.block(series_block_iter(
        "campaign downlink WiFi: x = Mbit/s, y = CDF",
        st.wifi_down
            .iter_points_downsampled(60)
            .map(|(x, q)| (x / 1e6, q)),
    ));
    r.block(series_block_iter(
        "campaign downlink LTE: x = Mbit/s, y = CDF",
        st.lte_down
            .iter_points_downsampled(60)
            .map(|(x, q)| (x / 1e6, q)),
    ));
    let mut cum = 0.0;
    let ping_cdf: Vec<(f64, f64)> = st
        .ping_diff_us
        .normalized()
        .into_iter()
        .map(|(x, f)| {
            cum += f;
            (x / 1e3, cum)
        })
        .collect();
    r.block(series_block_iter(
        "campaign fig4-analog: x = RTT(LTE)-RTT(WiFi) ms, y = CDF",
        ping_cdf.into_iter().step_by(16),
    ));

    let band = |acc: &MeanAcc, unit: f64| {
        let (lo, hi) = acc.ci95();
        format!("[{:.3}, {:.3}]", lo / unit, hi / unit)
    };
    let mut t = TextTable::new(vec!["population metric", "mean", "95% CI", "n"]);
    t.row(vec![
        "WiFi downlink (Mbit/s)".to_string(),
        format!("{:.3}", st.wifi_down_acc.mean() / 1e6),
        band(&st.wifi_down_acc, 1e6),
        st.wifi_down_acc.count().to_string(),
    ]);
    t.row(vec![
        "LTE downlink (Mbit/s)".to_string(),
        format!("{:.3}", st.lte_down_acc.mean() / 1e6),
        band(&st.lte_down_acc, 1e6),
        st.lte_down_acc.count().to_string(),
    ]);
    t.row(vec![
        "combined LTE-WiFi (Mbit/s)".to_string(),
        format!("{:.3}", st.diff_acc.mean() / 1e6),
        band(&st.diff_acc, 1e6),
        st.diff_acc.count().to_string(),
    ]);
    t.row(vec![
        "ping LTE-WiFi (ms)".to_string(),
        format!("{:.3}", st.ping_diff_acc.mean() / 1e3),
        band(&st.ping_diff_acc, 1e3),
        st.ping_diff_acc.count().to_string(),
    ]);
    r.block(t.render());

    // The five most-populated clusters, Table 1 style.
    let names = paper_clusters();
    let mut order: Vec<usize> = (0..st.clusters.len()).collect();
    order.sort_by(|&a, &b| {
        st.clusters[b]
            .runs
            .cmp(&st.clusters[a].runs)
            .then(a.cmp(&b))
    });
    let mut ct = TextTable::new(vec!["cluster", "users", "share", "LTE wins"]);
    for &i in order.iter().take(5) {
        let c = st.clusters[i];
        ct.row(vec![
            names[i].name.to_string(),
            c.runs.to_string(),
            format!("{:.1}%", c.runs as f64 / s.users.max(1) as f64 * 100.0),
            format!("{:.0}%", c.lte_wins as f64 / c.runs.max(1) as f64 * 100.0),
        ]);
    }
    r.block(ct.render());
}

/// A tiny packet-level campaign through the per-worker `SimArena`s,
/// checked for worker-count invariance (`--full` only: six users are
/// thirty-six full TCP transfers).
fn fullsim_spot_check(r: &mut Report, seed: u64) {
    let mut one = CampaignConfig::new(6, seed ^ 0xF511, RunMode::FullSim);
    one.workers = 1;
    one.shard_users = 2;
    let mut three = one.clone();
    three.workers = 3;
    let a = run_campaign(&one);
    let b = run_campaign(&three);
    let agree = merge_agreement(&a, &b);
    r.claim(
        "FullSim spot check through per-worker arenas",
        "worker-invariant",
        match &agree {
            Ok(()) => format!("{} users agree at 1 vs 3 workers", a.stats.users),
            Err(e) => e.clone(),
        },
        agree.is_ok() && a.stats.users == 6 && a.stats.wifi_down_acc.mean() > 0.0,
    );
}
