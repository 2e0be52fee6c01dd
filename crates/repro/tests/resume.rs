//! Checkpointed campaign reports are byte-identical to plain ones.
//!
//! The CLI-level guarantee of the resume feature: whatever `--checkpoint`
//! / `--resume` do under the hood (journal, recovery scan, residual
//! steal queue), the *rendered report* must be indistinguishable from an
//! uninterrupted `repro campaign` — across seeds, across `--jobs`, and
//! across kill points simulated by truncating the journal mid-file. The
//! process-level kill -9 version of this lives in the bench crate's
//! `kill_chaos` harness; these tests pin the library seam it drives.

use mpwifi_crowd::{ResumeError, ResumedCampaign};
use mpwifi_repro::experiments::crowd_campaign::campaign_report;
use mpwifi_repro::{Report, Scale};
use std::path::{Path, PathBuf};

/// 8 shards at the CLI's fixed 512-user shard size.
const USERS: u64 = 4_096;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mpwifi_resume_{}_{name}.journal",
        std::process::id()
    ))
}

/// The uninterrupted, unjournaled report every other run must equal.
fn plain_report(users: u64, jobs: usize, seed: u64) -> String {
    let (report, _) = campaign_report(users, jobs, seed, Scale::Quick, None, |_, _, _| {})
        .expect("no checkpoint, nothing to refuse");
    report.render_text()
}

/// The same campaign journaled at (or resumed from) `path`.
fn checkpointed(
    users: u64,
    jobs: usize,
    seed: u64,
    path: &Path,
) -> Result<(Report, ResumedCampaign), ResumeError> {
    let (report, res) = campaign_report(users, jobs, seed, Scale::Quick, Some(path), |_, _, _| {})?;
    Ok((
        report,
        res.expect("a checkpointed run reports its recovery"),
    ))
}

/// Byte length of the journal's header frame (frame 0): 8-byte frame
/// preamble plus the length-prefixed payload.
fn header_end(bytes: &[u8]) -> usize {
    8 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize
}

#[test]
fn fresh_checkpointed_report_matches_plain_at_every_jobs_and_seed() {
    for seed in [42u64, 7] {
        let plain = plain_report(USERS, 1, seed);
        for jobs in [1usize, 8] {
            let path = tmp(&format!("fresh_{seed}_{jobs}"));
            let _ = std::fs::remove_file(&path);
            let (report, res) =
                checkpointed(USERS, jobs, seed, &path).expect("fresh checkpointed run");
            assert_eq!(res.recovered_shards, 0, "fresh run recovered shards");
            assert_eq!(res.total_shards, 8);
            assert_eq!(
                report.render_text(),
                plain,
                "checkpointed report diverged (seed {seed}, jobs {jobs})"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[test]
fn torn_tail_resume_is_byte_identical_at_any_cut() {
    let seed = 42u64;
    let baseline = plain_report(USERS, 1, seed);

    // A completed journal to cut prefixes from.
    let full_path = tmp("full");
    let _ = std::fs::remove_file(&full_path);
    checkpointed(USERS, 1, seed, &full_path).expect("build full journal");
    let full = std::fs::read(&full_path).expect("read journal");
    let _ = std::fs::remove_file(&full_path);

    // Cut points: a whole-frame boundary region, a deep prefix, and a
    // 0.981 fraction that lands mid-frame — the torn tail a kill -9
    // between write and fsync leaves behind.
    for (i, frac) in [0.35f64, 0.62, 0.981].into_iter().enumerate() {
        let cut = ((full.len() as f64 * frac) as usize).max(header_end(&full));
        let path = tmp(&format!("cut{i}"));
        std::fs::write(&path, &full[..cut]).expect("write truncated journal");
        let (report, res) =
            checkpointed(USERS, 8, seed, &path).expect("resume from truncated journal");
        assert!(
            res.recovered_shards < res.total_shards,
            "cut at {frac} left nothing to recompute"
        );
        assert_eq!(
            report.render_text(),
            baseline,
            "resumed report diverged (cut fraction {frac})"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn wrong_campaign_and_corrupt_header_are_typed_refusals() {
    let path = tmp("refusal");
    let _ = std::fs::remove_file(&path);
    checkpointed(USERS, 1, 42, &path).expect("build journal at seed 42");

    // Same journal, different seed: refused, never blended.
    let err =
        checkpointed(USERS, 1, 7, &path).expect_err("seed 7 must not resume a seed-42 journal");
    assert!(
        matches!(
            err,
            ResumeError::SeedMismatch {
                journal: 42,
                requested: 7
            }
        ),
        "unexpected refusal: {err}"
    );

    // Different population: partition mismatch.
    let err =
        checkpointed(USERS * 2, 1, 42, &path).expect_err("different population must not resume");
    assert!(
        matches!(err, ResumeError::PartitionMismatch { .. }),
        "unexpected refusal: {err}"
    );

    // A flipped byte inside the header frame: typed refusal, not a
    // panic and not a silent fresh start.
    let mut bytes = std::fs::read(&path).expect("read journal");
    let flip_at = header_end(&bytes) / 2;
    bytes[flip_at] ^= 0x40;
    std::fs::write(&path, &bytes).expect("write corrupted journal");
    let err = checkpointed(USERS, 1, 42, &path).expect_err("corrupt header must refuse");
    assert!(
        matches!(
            err,
            ResumeError::CorruptTail { .. } | ResumeError::VersionMismatch { .. }
        ),
        "unexpected refusal: {err}"
    );
    let _ = std::fs::remove_file(&path);
}
