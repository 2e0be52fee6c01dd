//! Kill-chaos harness for checkpointed campaigns — the proof harness
//! behind `scripts/check.sh --full`.
//!
//! Repeatedly SIGKILLs `repro campaign --checkpoint` children at
//! seeded journal-growth offsets (and, on every other kill, truncates
//! the journal to a seeded mid-frame byte offset to forge a torn tail
//! worse than any real crash), resumes with `--resume` until the
//! campaign completes, and asserts:
//!
//! - the final report is **byte-identical** to a one-shot run of the
//!   same campaign, for every (seed, jobs) cell — seeds {42, 7} ×
//!   jobs {1, 8}, ≥ 10 SIGKILLs across the grid;
//! - the resumed runs actually recovered work (the `resume:` stderr
//!   note reports recovered shards > 0);
//! - a resume of a complete journal reads it in constant memory: no
//!   child of the harness (`getrusage(RUSAGE_CHILDREN)`) peaks above
//!   `MAX_CHILD_RSS_KB` of max RSS;
//! - resuming against the wrong campaign is a typed refusal: a seed
//!   mismatch and a corrupt header both exit 4 with a diagnostic, and
//!   a non-empty checkpoint without `--resume` refuses with exit 2.
//!
//! Exit code 0 on success, 1 with a failure list otherwise. Population
//! size defaults to 1,000,000 users (~2 s per one-shot run, ~50 MB
//! journal — a wide kill window); override with `MPWIFI_KILL_USERS`.

mod harness;

use harness::{cli_section, fail_usage, repro_path, run_cli, Checker};
use mpwifi_simcore::splitmix64;
use std::ffi::OsString;
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The most max RSS any campaign child may reach: 32 MB. A 10⁶-user
/// campaign peaks under 8 MB at 8 workers and near 4 MB at 2, and so
/// does the resume of its complete 51 MB journal, which is read one
/// frame at a time (holding the file and every recovered slot, it
/// peaked near 103 MB).
const MAX_CHILD_RSS_KB: i64 = 32 << 10;

/// The largest max RSS, in KB, of any child this process has waited
/// for (`getrusage(RUSAGE_CHILDREN)`: the kernel keeps the maximum).
#[cfg(target_os = "linux")]
fn children_max_rss_kb() -> i64 {
    /// `struct rusage` on Linux: two `timeval`s, then fourteen `long`s,
    /// `ru_maxrss` (in KB) first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of Linux's
    // layout, and `getrusage` writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    usage.maxrss
}

/// The splitmix64 stream — the only PRNG this harness needs: output
/// `n` is `splitmix64(seed + n·γ)`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// End of the journal's header frame: 8-byte frame header + payload
/// length from the first 4 bytes. Truncation offsets must stay past
/// this point — chopping the header is the *refusal* case, tested
/// separately.
fn header_end(journal: &Path) -> u64 {
    let bytes = std::fs::read(journal).expect("read journal for header_end");
    assert!(bytes.len() >= 8, "journal shorter than one frame header");
    8 + u64::from(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
}

/// `campaign --users U --seed S --jobs J --checkpoint JOURNAL [--resume]`.
fn campaign_args(users: u64, seed: u64, jobs: u32, journal: &Path, resume: bool) -> Vec<OsString> {
    let mut args: Vec<OsString> =
        format!("campaign --users {users} --seed {seed} --jobs {jobs} --checkpoint")
            .split(' ')
            .map(OsString::from)
            .collect();
    args.push(journal.into());
    if resume {
        args.push("--resume".into());
    }
    args
}

/// Spawn one checkpointed campaign child (`--resume` after the first
/// attempt), wait until the journal has grown `delta` bytes past its
/// size at spawn, and SIGKILL it. Returns false if the child finished
/// before the threshold (no kill happened).
fn spawn_and_kill(
    repro: &str,
    users: u64,
    seed: u64,
    jobs: u32,
    journal: &Path,
    delta: u64,
) -> bool {
    let size_at_spawn = std::fs::metadata(journal).map(|m| m.len()).unwrap_or(0);
    let mut child = Command::new(repro)
        .args(campaign_args(users, seed, jobs, journal, size_at_spawn > 0))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| fail_usage(&format!("spawn campaign child: {e}")));
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let size = std::fs::metadata(journal).map(|m| m.len()).unwrap_or(0);
        if size >= size_at_spawn + delta {
            // SIGKILL on unix: no handler can run, the torn tail is
            // whatever the kernel had flushed.
            child.kill().expect("kill campaign child");
            child.wait().expect("reap killed child");
            return true;
        }
        if let Some(status) = child.try_wait().expect("try_wait on campaign child") {
            assert!(
                status.code() == Some(0) || status.code() == Some(1),
                "campaign child died unexpectedly: {status:?}"
            );
            return false; // completed before the threshold — no kill
        }
        if Instant::now() > deadline {
            child.kill().ok();
            fail_usage("campaign child never reached the kill threshold");
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Truncate the journal to a seeded offset strictly inside the record
/// region — with ~26 KB frames a random byte offset is mid-frame with
/// near certainty, forging a torn tail worse than a real crash leaves.
fn truncate_mid_frame(journal: &Path, rng: &mut Rng) {
    let len = std::fs::metadata(journal).expect("journal metadata").len();
    let floor = header_end(journal);
    if len <= floor + 1 {
        return; // nothing after the header to tear
    }
    let cut = rng.range(floor + 1, len);
    let f = OpenOptions::new()
        .write(true)
        .open(journal)
        .expect("open journal for truncation");
    f.set_len(cut).expect("truncate journal");
    println!("    torn tail forged: {len} -> {cut} bytes");
}

/// Run one (seed, jobs) cell: `kills` SIGKILL rounds (every other one
/// followed by a forged torn tail), then resume to completion. Returns
/// (kills landed, final stdout, final stderr, exit code).
fn chaos_cell(
    repro: &str,
    users: u64,
    seed: u64,
    jobs: u32,
    journal: &Path,
    kills: u32,
) -> (u32, String, String, i32) {
    let mut rng = Rng(seed ^ (u64::from(jobs) << 32) ^ 0xC4A5_C85D);
    let mut landed = 0;
    for round in 0..kills {
        // Growth thresholds between 256 KB and 4 MB: varied kill
        // points across a ~50 MB journal, yet small enough that every
        // resume still has far more work left than the next threshold.
        let delta = rng.range(256 * 1024, 4 * 1024 * 1024);
        if !spawn_and_kill(repro, users, seed, jobs, journal, delta) {
            println!("    child completed before kill threshold (round {round})");
            break;
        }
        landed += 1;
        println!("    SIGKILL {landed} landed (delta {delta} bytes)");
        if round % 2 == 1 {
            truncate_mid_frame(journal, &mut rng);
        }
    }
    let (stdout, stderr, code) = run_cli(repro, &campaign_args(users, seed, jobs, journal, true));
    (landed, stdout, stderr, code)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let repro = repro_path(&args);
    let users: u64 = std::env::var("MPWIFI_KILL_USERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let mut c = Checker::default();
    let dir = std::env::temp_dir().join(format!("mpwifi_kill_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    // ---- One-shot references: jobs-invariance is already pinned by
    // the repo's determinism tests, so one reference per seed suffices
    // for both jobs cells.
    println!("kill_chaos: capturing one-shot references ({users} users)");
    let marker = format!("\n(campaign of {users} users finished in ");
    let mut reference = std::collections::BTreeMap::new();
    for seed in [42u64, 7] {
        let (stdout, _, code) = run_cli(
            &repro,
            &[
                "campaign",
                "--users",
                &users.to_string(),
                "--seed",
                &seed.to_string(),
                "--jobs",
                "8",
            ],
        );
        c.check(code == 0, &format!("one-shot campaign seed {seed} exits 0"));
        reference.insert(seed, cli_section(&stdout, &marker));
    }

    // ---- The kill grid: seeds {42, 7} x jobs {1, 8}, 3 kill rounds
    // each = 12 attempted SIGKILLs (acceptance floor: 10 landed).
    let mut total_kills = 0;
    let mut completed_journals: Vec<(u64, PathBuf)> = Vec::new();
    for seed in [42u64, 7] {
        for jobs in [1u32, 8] {
            println!("kill_chaos: cell seed={seed} jobs={jobs}");
            let journal = dir.join(format!("campaign_s{seed}_j{jobs}.journal"));
            let (landed, stdout, stderr, code) = chaos_cell(&repro, users, seed, jobs, &journal, 3);
            total_kills += landed;
            c.check(
                code == 0,
                &format!("final resume exits 0 (seed {seed}, jobs {jobs})"),
            );
            c.check(
                cli_section(&stdout, &marker) == reference[&seed],
                &format!("resumed report byte-identical to one-shot (seed {seed}, jobs {jobs})"),
            );
            c.check(
                landed == 0 || stderr.contains("resume: "),
                &format!(
                    "resume note on stderr reports recovered shards (seed {seed}, jobs {jobs})"
                ),
            );
            completed_journals.push((seed, journal));
        }
    }
    c.check(
        total_kills >= 10,
        &format!("at least 10 SIGKILLs landed across the grid (got {total_kills})"),
    );

    // ---- One resume of a complete journal: every shard is recovered,
    // none recomputed, and the scan must not hold the file.
    println!("kill_chaos: resume of a complete {users}-user journal");
    let (seed, journal) = &completed_journals[0];
    let (stdout, stderr, code) = run_cli(&repro, &campaign_args(users, *seed, 2, journal, true));
    c.check(code == 0, "resume of a complete journal exits 0");
    c.check(
        cli_section(&stdout, &marker) == reference[seed],
        "resume of a complete journal is byte-identical to one-shot",
    );
    let (shards, _) = stderr
        .split_once("resume: ")
        .and_then(|(_, note)| note.split_once(' '))
        .map_or(("?", ""), |(counts, rest)| (counts, rest));
    let all_recovered = shards
        .split_once('/')
        .is_some_and(|(got, of)| got == of && got != "0");
    c.check(
        all_recovered,
        &format!("resume of a complete journal recovers every shard (got {shards})"),
    );
    #[cfg(target_os = "linux")]
    {
        let rss_kb = children_max_rss_kb();
        println!(
            "    largest child max RSS: {:.1} MB (limit {} MB)",
            rss_kb as f64 / 1024.0,
            MAX_CHILD_RSS_KB >> 10
        );
        c.check(
            rss_kb <= MAX_CHILD_RSS_KB,
            &format!(
                "every campaign child stays within {} MB of max RSS (largest {rss_kb} KB)",
                MAX_CHILD_RSS_KB >> 10
            ),
        );
    }

    // ---- Typed refusals against a completed seed-42 journal.
    println!("kill_chaos: refusal probes");
    let (seed42_journal, seed7_journal) = {
        let find = |s: u64| {
            completed_journals
                .iter()
                .find(|(seed, _)| *seed == s)
                .map(|(_, p)| p.clone())
                .expect("journal for seed")
        };
        (find(42), find(7))
    };
    let (_, stderr, code) = run_cli(&repro, &campaign_args(users, 7, 1, &seed42_journal, true));
    c.check(code == 4, "seed mismatch refuses with exit 4");
    c.check(
        stderr.contains("seed"),
        "seed-mismatch diagnostic names the seed",
    );

    let (_, stderr, code) = run_cli(&repro, &campaign_args(users, 42, 1, &seed42_journal, false));
    c.check(
        code == 2,
        "non-empty checkpoint without --resume refuses with exit 2",
    );
    c.check(
        stderr.contains("--resume"),
        "without---resume diagnostic suggests --resume",
    );

    // Corrupt header: flip one payload byte inside the header frame of
    // a copy — the CRC no longer matches, so there is no trustworthy
    // campaign identity and resume must refuse rather than guess.
    let corrupt = dir.join("corrupt_header.journal");
    let mut bytes = std::fs::read(&seed7_journal).expect("read journal to corrupt");
    let flip_at = (header_end(&seed7_journal) / 2) as usize;
    bytes[flip_at] ^= 0x40;
    std::fs::write(&corrupt, &bytes).expect("write corrupted journal");
    let (_, stderr, code) = run_cli(&repro, &campaign_args(users, 7, 1, &corrupt, true));
    c.check(code == 4, "corrupt header refuses with exit 4");
    c.check(
        stderr.contains("cannot resume"),
        "corrupt-header diagnostic says the journal cannot be resumed",
    );

    std::fs::remove_dir_all(&dir).ok();
    if c.failures.is_empty() {
        println!("kill_chaos: all checks passed ({total_kills} SIGKILLs survived)");
    } else {
        println!("kill_chaos: {} FAILURES:", c.failures.len());
        for f in &c.failures {
            println!("  - {f}");
        }
        std::process::exit(1);
    }
}
