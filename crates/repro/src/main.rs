//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--full] [--seed N] [--jobs N] [--markdown FILE] [--metrics FILE] [--retries N] [--quarantine FILE] <experiment>... | all | --list
//! repro conformance [--matrix] [--cases N] [--seed N] [--jobs N]
//! repro campaign [--users N] [--seed N] [--jobs N] [--full] [--checkpoint PATH [--resume]]
//! repro serve [--jobs N] [--queue N] [--retries N] [--chaos]
//! ```
//!
//! Experiments shard across `--jobs N` worker threads. Every
//! experiment's seed is a pure function of `--seed` and its id
//! (verbatim by default; mixed per-id under `--derive-seeds`), so
//! reports are byte-identical for every `--jobs` value.
//!
//! Every run is supervised: panic-isolated and armed with the
//! deterministic watchdog budgets (an event budget and a stall TTL in
//! simulated time). A panicking, livelocked, or runaway experiment is
//! quarantined (forensics and a paste-ready repro on stderr, JSON
//! sidecar via `--quarantine FILE`, exit code 3) while the rest of the
//! campaign completes and the surviving sections render byte-identical
//! to a campaign without it. `--retries N` re-runs a failed experiment
//! up to N times on derived seeds; one that then completes is flagged
//! flaky on stderr.
//!
//! `repro campaign` runs a population-scale crowd campaign: `--users`
//! synthetic users fanned over the Table 1 geography through the
//! sharded streaming-summary driver (byte-identical for every `--jobs`
//! value; `--full` adds a packet-level spot check through the reusable
//! sim arenas). Exit code 1 if any population claim fails.
//!
//! `--checkpoint PATH` journals every completed shard to an append-only
//! CRC32-framed log and fsyncs at shard boundaries; after a crash (even
//! `kill -9` mid-write), `--resume` picks up from the longest valid
//! journal prefix and produces a report byte-identical to an
//! uninterrupted run at any `--jobs` value. A journal written by a
//! different seed, population, partition, or code version is refused
//! with a typed error (exit code 4) rather than silently blended.
//!
//! `repro serve` turns the harness into a long-running campaign server:
//! jsonl requests on stdin (experiments, crowd campaigns, pings),
//! streamed jsonl responses on stdout, with bounded admission, typed
//! shedding, per-request watchdog budgets (the default budgets plus a
//! wall-clock deadline unless a request overrides them),
//! retry-with-jittered-backoff,
//! a poison-recovering worker pool, and graceful drain on EOF or a
//! `shutdown` request.
//!
//! `repro conformance` runs the protocol-conformance fuzz campaign
//! instead of paper experiments: `--cases` seeded scenarios with the
//! invariant oracles attached. On any violation it greedily shrinks the
//! first violating case and prints a paste-ready reproducer test.
//! `--matrix` switches to the scheduler × congestion-control matrix
//! campaign: `--cases` scenarios for each of the 25 `(sched, cc)`
//! cells, every cell forced to MPTCP with that axis, with the
//! per-scheduler oracles (wedge detection, redundant exactly-once)
//! attached alongside the DSS invariants.

use mpwifi_repro::{
    registry, runner, supervise, RunRecord, Scale, SeedPolicy, SuperviseConfig, ALL_EXPERIMENTS,
    EXTENSION_EXPERIMENTS, REGISTRY,
};
use mpwifi_simcore::json::array_lines;
use mpwifi_simcore::{RunFailure, RunMetrics};
use std::io::Write as _;

/// The value of the flag at `args[*i]`: the next argument, parsed.
/// Missing or unparseable is `die(msg)`; paths parse as themselves.
fn value<T: std::str::FromStr>(args: &[String], i: &mut usize, msg: &str) -> T {
    *i += 1;
    args.get(*i)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| die(msg))
}

/// [`value`] for a count, which must be at least 1.
fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
    args: &[String],
    i: &mut usize,
    msg: &str,
) -> T {
    let n: T = value(args, i, msg);
    if n < T::from(1) {
        die(msg);
    }
    n
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut seed = 42u64;
    let mut jobs = 1usize;
    let mut policy = SeedPolicy::Campaign;
    let mut markdown: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut csv: Option<String> = None;
    let mut data_dir: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut cases = 200usize;
    let mut users = 100_000u64;
    let mut retries = 0u32;
    let mut quarantine_path: Option<String> = None;
    let mut queue_cap = 16usize;
    let mut chaos = false;
    let mut matrix = false;
    let mut checkpoint: Option<String> = None;
    let mut resume = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => scale = Scale::Full,
            "--quick" => scale = Scale::Quick,
            "--retries" => retries = value(&args, &mut i, "--retries needs an integer"),
            "--quarantine" => {
                quarantine_path = Some(value(&args, &mut i, "--quarantine needs a path"));
            }
            "--seed" => seed = value(&args, &mut i, "--seed needs an integer"),
            "--jobs" | "-j" => jobs = positive(&args, &mut i, "--jobs needs a positive integer"),
            "--derive-seeds" => policy = SeedPolicy::Derived,
            "--cases" => cases = positive(&args, &mut i, "--cases needs a positive integer"),
            "--queue" => queue_cap = positive(&args, &mut i, "--queue needs a positive integer"),
            "--chaos" => chaos = true,
            "--matrix" => matrix = true,
            "--checkpoint" => checkpoint = Some(value(&args, &mut i, "--checkpoint needs a path")),
            "--resume" => resume = true,
            "--users" => users = positive(&args, &mut i, "--users needs a positive integer"),
            "--markdown" => markdown = Some(value(&args, &mut i, "--markdown needs a path")),
            "--metrics" => metrics_path = Some(value(&args, &mut i, "--metrics needs a path")),
            "--csv" => csv = Some(value(&args, &mut i, "--csv needs a path")),
            "--data" => data_dir = Some(value(&args, &mut i, "--data needs a directory")),
            "--list" => {
                println!("paper experiments:");
                for spec in REGISTRY.iter().filter(|s| !s.extension) {
                    println!("  {:14} {:4} {}", spec.id, spec.section, spec.title);
                }
                println!("extension experiments:");
                for spec in REGISTRY.iter().filter(|s| s.extension) {
                    println!("  {:14} {:4} {}", spec.id, spec.section, spec.title);
                }
                return;
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--full] [--seed N] [--jobs N] [--derive-seeds] [--markdown FILE] [--metrics FILE] [--csv FILE] [--data DIR] [--retries N] [--quarantine FILE] <experiment>... | all | extensions | --list\n       repro conformance [--matrix] [--cases N] [--seed N] [--jobs N]\n       repro campaign [--users N] [--seed N] [--jobs N] [--full] [--checkpoint PATH [--resume]]\n       repro serve [--jobs N] [--queue N] [--retries N] [--chaos]"
                );
                return;
            }
            flag if flag.starts_with('-') => die(&format!("unknown flag: {flag}")),
            other => targets.push(other.to_string()),
        }
        i += 1;
    }
    if targets.iter().any(|t| t == "serve") {
        if targets.len() > 1 {
            die("'serve' runs alone; drop the other targets");
        }
        run_serve(jobs, queue_cap, retries, chaos);
    }
    if targets.iter().any(|t| t == "conformance") {
        if targets.len() > 1 {
            die("'conformance' runs alone; drop the other targets");
        }
        if matrix {
            run_matrix_conformance(cases, seed, jobs);
        }
        run_conformance(cases, seed, jobs);
    }
    if targets.iter().any(|t| t == "campaign") {
        if targets.len() > 1 {
            die("'campaign' runs alone; drop the other targets");
        }
        run_crowd_campaign(users, seed, jobs, scale, checkpoint.as_deref(), resume);
    }
    if checkpoint.is_some() || resume {
        die("--checkpoint/--resume apply to the 'campaign' target only");
    }
    if targets.is_empty() {
        die("no experiment given; try --list or 'all'");
    }
    let want_extensions = targets.iter().any(|t| t == "extensions");
    if targets.iter().any(|t| t == "all") {
        targets = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    targets.retain(|t| t != "extensions");
    if want_extensions {
        targets.extend(EXTENSION_EXPERIMENTS.iter().map(|s| s.to_string()));
    }

    // Resolve every target before anything runs: an unknown id is a
    // usage error (exit 2), like an unknown flag, so a typo in a long
    // target list costs nothing. The planted failure specs resolve too
    // (for supervision smoke tests and quarantine repro commands) but
    // never ride along with `all`/`extensions`.
    let specs: Vec<&'static registry::ExperimentSpec> = targets
        .iter()
        .map(|id| registry::find(id).unwrap_or_else(|| die(&format!("unknown experiment: {id}"))))
        .collect();

    if let Some(path) = &csv {
        // Export the crowd dataset, like the paper's published data.
        let mode = match scale {
            Scale::Full => mpwifi_crowd::RunMode::FullSim,
            Scale::Quick => mpwifi_crowd::RunMode::Analytic,
        };
        let ds = mpwifi_crowd::generate_dataset(mode, seed);
        std::fs::write(path, mpwifi_crowd::dataset_to_csv(&ds))
            .unwrap_or_else(|e| die(&format!("{path}: {e}")));
        println!("wrote {} runs to {path}", ds.len());
    }

    let cfg = SuperviseConfig {
        retries,
        ..SuperviseConfig::batch()
    };
    let runs = runner::run_specs(&specs, scale, seed, jobs, policy, &cfg);
    let mut failures = 0usize;
    let mut reports = Vec::new();
    for run in &runs {
        let Ok(report) = &run.result else { continue };
        reports.push(report);
        if run.flaky() {
            eprintln!(
                "note: {} completed only on retry {} (derived seed {}); flagged flaky",
                run.id,
                run.attempts - 1,
                run.seed
            );
        }
        println!("{}", report.render_text());
        println!(
            "({} finished in {:.1?}, seed {})\n",
            run.id, run.wall, run.seed
        );
        if let Some(dir) = &data_dir {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("{dir}: {e}")));
            // One gnuplot-ready file per experiment with all its blocks.
            let path = format!("{dir}/{}.dat", run.id);
            let body = report.blocks.join("\n\n");
            std::fs::write(&path, body).unwrap_or_else(|e| die(&format!("{path}: {e}")));
        }
        if !report.all_hold() {
            failures += 1;
        }
    }

    if let Some(path) = &metrics_path {
        std::fs::write(path, runner::metrics_json(&runs))
            .unwrap_or_else(|e| die(&format!("{path}: {e}")));
        println!("wrote per-run metrics to {path}");
    }

    if let Some(path) = markdown {
        let mut out = String::new();
        out.push_str("# EXPERIMENTS — paper vs measured\n\n");
        out.push_str(&format!(
            "Generated by `repro {}{} --seed {seed}` (sharded runner; \
             output is identical for every `--jobs` value).\n\n",
            if scale == Scale::Full {
                "--full"
            } else {
                "--quick"
            },
            if policy == SeedPolicy::Derived {
                " --derive-seeds"
            } else {
                ""
            }
        ));
        for report in &reports {
            out.push_str(&report.render_markdown());
        }
        let mut f = std::fs::File::create(&path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
        f.write_all(out.as_bytes()).expect("write markdown");
        println!("wrote {path}");
    }

    let ok = reports.iter().filter(|r| r.all_hold()).count();
    println!(
        "{}/{} experiments fully reproduce the paper's findings",
        ok,
        reports.len()
    );

    let failed = quarantined(&runs);
    if !failed.is_empty() {
        for &(run, failure, partial) in &failed {
            eprintln!(
                "{}",
                quarantine_block(run, failure, partial, seed, scale, policy)
            );
        }
        eprintln!(
            "{} run(s) quarantined ({} healthy section(s) rendered above)",
            failed.len(),
            reports.len()
        );
    }
    if let Some(path) = &quarantine_path {
        std::fs::write(path, quarantine_json(&failed, seed, scale, policy))
            .unwrap_or_else(|e| die(&format!("{path}: {e}")));
        println!("wrote quarantine report to {path}");
    }

    if !failed.is_empty() {
        std::process::exit(3);
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

/// A quarantined run: its record, its failure and the counters of the
/// work it did before it died.
type Quarantined<'a> = (&'a RunRecord, &'a RunFailure, &'a RunMetrics);

/// The quarantined runs of a campaign, in campaign order.
fn quarantined(runs: &[RunRecord]) -> Vec<Quarantined<'_>> {
    runs.iter()
        .filter_map(|run| match &run.result {
            Ok(_) => None,
            Err((failure, partial)) => Some((run, failure, partial)),
        })
        .collect()
}

/// The stderr block for one quarantined run: failure, forensics, and a
/// paste-ready repro command plus test snippet.
fn quarantine_block(
    run: &RunRecord,
    failure: &RunFailure,
    partial: &RunMetrics,
    root_seed: u64,
    scale: Scale,
    policy: SeedPolicy,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "!!!! {} — QUARANTINED ({}) after {} attempt(s), {:.1?}\n",
        run.id,
        failure.label(),
        run.attempts,
        run.wall
    ));
    for line in failure.forensics().trim_end().lines() {
        out.push_str(&format!("  {line}\n"));
    }
    out.push_str(&format!(
        "  partial work before failure: {} events, {} frames, {} payload bytes\n",
        partial.events_popped, partial.frames_forwarded, partial.bytes_delivered
    ));
    out.push_str(&format!(
        "  repro: {}\n",
        supervise::repro_command(run.id, root_seed, scale, policy == SeedPolicy::Derived)
    ));
    out.push_str("  or paste into a test:\n");
    for line in supervise::repro_test_snippet(run.id, run.seed, scale).lines() {
        out.push_str(&format!("    {line}\n"));
    }
    out
}

/// Render the quarantine sidecar: one JSON object per quarantined run
/// with its failure, forensics, and repro command. `[]` when the
/// campaign was healthy, so the file's presence alone never signals
/// failure — its contents (and exit code 3) do.
fn quarantine_json(
    quarantined: &[Quarantined<'_>],
    root_seed: u64,
    scale: Scale,
    policy: SeedPolicy,
) -> String {
    array_lines(quarantined, |o, &(run, failure, _)| {
        o.str("id", run.id)
            .val("seed", run.seed)
            .str("status", failure.label())
            .val("attempts", run.attempts)
            .val(
                "wall_ms",
                format_args!("{:.3}", run.wall.as_secs_f64() * 1e3),
            )
            .str("forensics", failure.forensics())
            .str(
                "repro",
                &supervise::repro_command(run.id, root_seed, scale, policy == SeedPolicy::Derived),
            );
    })
}

/// Run the campaign server: jsonl requests on stdin, streamed jsonl
/// responses on stdout, until EOF or a `shutdown` request drains it.
/// `--jobs` sizes the worker pool, `--queue` bounds admission,
/// `--retries` sets the default retry count, every request runs under
/// [`SuperviseConfig::default`]'s budgets unless it overrides them, and
/// `--chaos` unlocks the worker-bomb request kind for the chaos
/// harness. Exits 0 after a clean drain — whether the drain came from
/// EOF, a `shutdown` request, or SIGINT/SIGTERM (the installed handler
/// flips the drain flag; admitted requests finish, the `stats` line is
/// emitted, and the exit is clean).
fn run_serve(workers: usize, queue: usize, retries: u32, chaos: bool) -> ! {
    use mpwifi_serve::{install_drain_handler, serve_with_stop, Executor, ServeConfig};
    let cfg = ServeConfig {
        workers: workers.max(1),
        queue_capacity: queue.max(1),
        default_retries: retries,
        chaos,
    };
    let exec: std::sync::Arc<dyn Executor + Send + Sync> =
        std::sync::Arc::new(mpwifi_repro::ReproExecutor::new(SuperviseConfig::default()));
    let stop = install_drain_handler();
    // `BufReader<Stdin>` rather than `StdinLock`: the reader lives on
    // its own thread now, and the lock guard is not `Send`.
    let stdin = std::io::BufReader::new(std::io::stdin());
    serve_with_stop(&cfg, exec, stdin, Box::new(std::io::stdout()), stop);
    std::process::exit(0);
}

/// Run a population-scale crowd campaign and exit non-zero if any
/// population claim fails.
///
/// With `--checkpoint PATH` the main population run is journaled and
/// resumable; refusals to resume (wrong seed/partition/code version,
/// torn header) exit 4 with the typed error on stderr. All resume
/// bookkeeping goes to stderr — stdout stays byte-identical to a plain
/// uninterrupted run.
fn run_crowd_campaign(
    users: u64,
    seed: u64,
    jobs: usize,
    scale: Scale,
    checkpoint: Option<&str>,
    resume: bool,
) -> ! {
    use mpwifi_repro::experiments::crowd_campaign as cc;
    let start = std::time::Instant::now();
    match checkpoint {
        None if resume => die("--resume needs --checkpoint PATH"),
        None => {}
        Some(path) => {
            let existing = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            if existing > 0 && !resume {
                die(&format!(
                    "checkpoint {path} already holds {existing} byte(s); \
                     pass --resume to continue that campaign or remove the file"
                ));
            }
        }
    }
    // Only a checkpointed run reaches the two notes that name it.
    let path = checkpoint.unwrap_or_default();
    let journal = checkpoint.map(std::path::Path::new);
    let report = match cc::campaign_report(users, jobs, seed, scale, journal, |_, _, _| {}) {
        Ok((r, resumed)) => {
            if let Some(res) = resumed.filter(|r| r.recovered_shards > 0 || r.dropped_bytes > 0) {
                eprintln!(
                    "resume: {}/{} shards recovered from {path} \
                     ({} torn tail byte(s) dropped)",
                    res.recovered_shards, res.total_shards, res.dropped_bytes
                );
            }
            r
        }
        Err(e) => {
            eprintln!("error: cannot resume from {path}: {e}");
            std::process::exit(4);
        }
    };
    println!("{}", report.render_text());
    println!(
        "(campaign of {users} users finished in {:.1?}, seed {seed}, jobs {jobs})",
        start.elapsed(),
    );
    std::process::exit(if report.all_hold() { 0 } else { 1 });
}

/// Run the conformance fuzz campaign and exit non-zero on violations.
fn run_conformance(cases: usize, seed: u64, jobs: usize) -> ! {
    use mpwifi_conformance as conf;
    let start = std::time::Instant::now();
    let results = conf::run_campaign(cases, seed, jobs);
    let mut violating: Vec<&conf::CaseResult> = Vec::new();
    let mut completed = 0usize;
    for r in &results {
        if r.report.clean() {
            if r.report.completed {
                completed += 1;
            }
        } else {
            violating.push(r);
            println!(
                "case {:4} seed {:20} VIOLATED  first={} total={}",
                r.index,
                r.seed,
                r.report.first_category().unwrap_or("?"),
                r.report.violations_total
            );
        }
    }
    println!(
        "conformance: {} cases, {} completed clean, {} violating \
         (seed {seed}, jobs {jobs}, {:.1?})",
        results.len(),
        completed,
        violating.len(),
        start.elapsed()
    );
    println!(
        "campaign fingerprint: {}",
        conf::campaign_fingerprint(&results)
    );
    shrink_and_exit(violating.first().copied())
}

/// Run the scheduler × congestion-control matrix campaign: `cases`
/// scenarios per `(sched, cc)` cell, all 25 cells, and exit non-zero on
/// any violation (after shrinking the first one to a reproducer).
fn run_matrix_conformance(cases_per_cell: usize, seed: u64, jobs: usize) -> ! {
    use mpwifi_conformance as conf;
    let start = std::time::Instant::now();
    let cells = conf::run_matrix_campaign(cases_per_cell, seed, jobs);
    let mut worst: Option<&conf::CaseResult> = None;
    let mut total_violating = 0usize;
    println!("sched x cc matrix, {cases_per_cell} cases per cell:");
    for cell in &cells {
        let v = cell.violations();
        total_violating += v;
        println!(
            "  {:10} x {:6}  {:4} cases  {} violating",
            format!("{:?}", cell.sched).to_lowercase(),
            format!("{:?}", cell.cc).to_lowercase(),
            cell.results.len(),
            v
        );
        if worst.is_none() {
            worst = cell.results.iter().find(|r| !r.report.clean());
        }
    }
    println!(
        "matrix conformance: {} cells x {cases_per_cell} cases, {} violating \
         (seed {seed}, jobs {jobs}, {:.1?})",
        cells.len(),
        total_violating,
        start.elapsed()
    );
    println!("matrix fingerprint: {}", conf::matrix_fingerprint(&cells));
    shrink_and_exit(worst)
}

/// The tail both conformance runners share, printed after their
/// fingerprint line: shrink the first violating case, list the shrunk
/// case's first five violations and a paste-ready reproducer, and exit
/// 1; exit 0 when no case violated.
fn shrink_and_exit(worst: Option<&mpwifi_conformance::CaseResult>) -> ! {
    use mpwifi_conformance as conf;
    let Some(worst) = worst else {
        std::process::exit(0);
    };
    println!(
        "\nshrinking case {} (seed {}, first violation {:?})...",
        worst.index,
        worst.seed,
        worst.report.first_category()
    );
    let (small, small_report) = conf::shrink(&worst.spec);
    println!(
        "shrunk to: faults={} down={} up={} ({} violations, first {:?})",
        small.faults.len(),
        small.workload.down_bytes,
        small.workload.up_bytes,
        small_report.violations_total,
        small_report.first_category()
    );
    for v in small_report.violations.iter().take(5) {
        println!(
            "  [{:>12}us] {}: {}",
            v.at.as_micros(),
            v.category,
            v.detail
        );
    }
    println!("\nminimal reproducer (paste into crates/conformance/tests/):\n");
    println!("{}", conf::repro_snippet(&small));
    std::process::exit(1);
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn quarantine_json_is_one_object_per_quarantined_run() {
        let run = |id, seed, attempts, wall_us, result| RunRecord {
            id,
            seed,
            attempts,
            wall: Duration::from_micros(wall_us),
            result,
        };
        let runs = [
            run(
                "planted-panic",
                42,
                1,
                1_500,
                Err((
                    RunFailure::Panicked {
                        message: "planted \"panic\" (at src/supervise.rs:355)".into(),
                    },
                    RunMetrics::default(),
                )),
            ),
            run(
                "table2",
                42,
                1,
                900,
                Ok(mpwifi_repro::Report::new("table2", "t", "m")),
            ),
            run(
                "planted-stall",
                u64::MAX,
                2,
                12_345_678,
                Err((
                    RunFailure::Stalled {
                        forensics: "iface lte stale\n  subflow lte: frozen\n".into(),
                    },
                    RunMetrics::default(),
                )),
            ),
        ];
        assert_eq!(
            quarantine_json(&quarantined(&runs), 42, Scale::Full, SeedPolicy::Derived),
            concat!(
                "[\n",
                r#"  {"id": "planted-panic", "seed": 42, "status": "panicked", "attempts": 1, "wall_ms": 1.500, "forensics": "planted \"panic\" (at src/supervise.rs:355)", "repro": "cargo run --release -p mpwifi-repro -- planted-panic --seed 42 --full --derive-seeds"},"#,
                "\n",
                r#"  {"id": "planted-stall", "seed": 18446744073709551615, "status": "stalled", "attempts": 2, "wall_ms": 12345.678, "forensics": "iface lte stale\n  subflow lte: frozen\n", "repro": "cargo run --release -p mpwifi-repro -- planted-stall --seed 42 --full --derive-seeds"}"#,
                "\n]\n"
            )
        );
        assert_eq!(
            quarantine_json(
                &quarantined(&runs[1..2]),
                42,
                Scale::Quick,
                SeedPolicy::Campaign
            ),
            "[\n]\n"
        );
    }
}
