//! Tier-1 cover for the shared fan-out engine (`simcore::fanout`), seen
//! through its heaviest caller: a crowd campaign's bytes must not depend
//! on how many workers ran it, nor on whether it ran in one go or was
//! killed half way and resumed from its journal.

use mpwifi::crowd::{run_campaign, run_campaign_resumable, CampaignConfig, RunMode};

/// 2 000 Analytic users in 16-user shards: 125 shards, so four workers
/// drain their chunks at different times and steal from each other.
fn config(seed: u64, workers: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(2_000, seed, RunMode::Analytic);
    cfg.shard_users = 16;
    cfg.workers = workers;
    cfg
}

#[test]
fn campaign_is_byte_identical_at_one_and_four_workers() {
    let one = run_campaign(&config(42, 1));
    let four = run_campaign(&config(42, 4));
    assert_eq!(one, four, "worker count changed the campaign summary");
    assert_eq!(one.shards, 125);
    assert_eq!(one.stats.users, 2_000);
}

#[test]
fn campaign_resumed_from_a_half_written_journal_matches_the_one_shot_run() {
    let one_shot = run_campaign(&config(7, 1));
    let path = std::env::temp_dir().join(format!(
        "mpwifi_fanout_determinism_{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    // One worker writes the fixture, so its frame order (and with it the
    // cut below) is the same on every run.
    let journaled = run_campaign_resumable(&config(7, 1), &path).expect("journaled run");
    assert_eq!(journaled.recovered_shards, 0);
    assert_eq!(
        journaled.summary, one_shot,
        "journaling changed the summary"
    );

    // A kill mid-append: keep half the journal, cutting inside a frame.
    let full = std::fs::read(&path).expect("read journal");
    std::fs::write(&path, &full[..full.len() / 2 + 3]).expect("truncate journal");
    let resumed = run_campaign_resumable(&config(7, 4), &path).expect("resumed run");
    assert!(
        0 < resumed.recovered_shards && resumed.recovered_shards < resumed.total_shards,
        "the cut must leave some shards recovered and some to recompute, got {}/{}",
        resumed.recovered_shards,
        resumed.total_shards
    );
    assert!(resumed.dropped_bytes > 0, "the cut frame is a torn tail");
    assert_eq!(resumed.summary, one_shot, "resume changed the summary");
    std::fs::remove_file(&path).expect("remove journal");
}
