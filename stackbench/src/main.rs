//! stackbench: a noise-floor benchmark and outside-in cost ledger.
//!
//! ```text
//! stackbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!            [--quick] [--selfcheck]
//! ```
//!
//! With `--workload` it runs that workload in this process and ends
//! with one JSON line; without, it runs all six, one child process
//! each. See README.md for what every number means.

mod chan;
mod estimator;
mod ledger;
mod probes;
mod run;
mod trace;
mod workloads;

use run::{measure, setup_seconds, Budget, Measured, SETUP_BUDGET};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workloads::SPECS;

/// An end-to-end metric: name, unit, whether higher is better, and the
/// share of the baseline it may worsen by before a change is a
/// regression (the same numbers as `BENCHMARK.json`).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p95",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.20,
    },
];

/// How long one run measures unless told otherwise (`run_seconds` in
/// `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 15;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        quick: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if workloads::spec(w).is_none() {
            let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
            return Err(format!("unknown workload {w:?}; one of {names:?}"));
        }
    }
    Ok(args)
}

/// Where the benchmark keeps its files: beside the build, inside the
/// checkout (`<target dir>/stackbench/`).
pub fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let target = exe.ancestors().nth(2).map(PathBuf::from);
    target
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("stackbench")
}

/// Type of the filesystem holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &std::path::Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace().skip(1);
            let (dir, fs) = (fields.next()?, fields.next()?);
            path.starts_with(dir).then_some((dir.len(), fs))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown filesystem".to_string(), |(_, fs)| fs.to_string())
}

/// A JSON number with every digit measured.
pub fn json_metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// The last line of a run: verdict, op counts, metrics.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn print_phase(name: &str, seed: u64, m: &Measured) {
    let e = &m.estimate;
    println!(
        "{name}: seed {seed}, rounds {}, ops_per_round {}, clients {}, attempted {}, failed {}, \
         digest {:016x}{}",
        e.rounds,
        e.floor_ns.len(),
        m.clients,
        m.attempted,
        m.failed,
        m.digest,
        if m.digest_stable {
            ""
        } else {
            " (DIFFERS BETWEEN ROUNDS)"
        }
    );
    println!("  why: {}", workloads::spec(name).map_or("", |s| s.why));
    let dir = scratch_dir();
    println!("  files under {} ({})", dir.display(), filesystem_of(&dir));
    let events: u64 = m.rounds[0].ops.iter().map(|o| o.counts.events_popped).sum();
    let floor_p = |p: f64| estimator::nearest_rank(&e.floor_ns, p) as f64 / 1e6;
    println!(
        "  sim events per round {events} (exact), floor ms min {:.3} p50 {:.3} p95 {:.3} max {:.3}",
        floor_p(0.0),
        floor_p(50.0),
        floor_p(95.0),
        floor_p(100.0)
    );
    println!(
        "  host.op_ms_all_p50 {:.4} ms, host.op_ms_all_p99 {:.4} ms ({} samples), \
         host.noise_share {:.4}",
        e.all_p50_ms, e.all_p99_ms, e.samples, e.noise_share
    );
}

/// `--quick`: two rounds, checks only.
fn run_quick(name: &str, seed: u64) -> Result<bool, String> {
    let scratch = scratch_dir();
    setup_seconds(name, seed, &scratch, Budget::Rounds(1))?;
    let m = measure(name, seed, Budget::Rounds(2), &scratch, &mut Tracer::off())?;
    print_phase(name, seed, &m);
    println!("  {}", if m.correct() { "ok" } else { "FAILED" });
    Ok(m.correct())
}

/// Set-up timing and the measured phase: the phase and its six
/// end-to-end values, in table order.
fn run_phase(name: &str, seed: u64, seconds: f64) -> Result<(Measured, [f64; 6]), String> {
    let scratch = scratch_dir();
    let setup_s = setup_seconds(name, seed, &scratch, SETUP_BUDGET)?;
    let budget = Budget::Seconds(seconds);
    let m = measure(name, seed, budget, &scratch, &mut Tracer::off())?;
    print_phase(name, seed, &m);
    let e = &m.estimate;
    let values = [
        setup_s,
        e.ops_per_s,
        e.op_ms_p50,
        e.op_ms_p95,
        e.cpu_s,
        estimator::peak_rss_mb(),
    ];
    Ok((m, values))
}

/// The untraced run: the six end-to-end metrics and the result line.
fn run_measured(name: &str, seed: u64, seconds: f64) -> Result<bool, String> {
    let (m, values) = run_phase(name, seed, seconds)?;
    let mut metrics = Vec::new();
    for (spec, value) in END_TO_END.iter().zip(values) {
        println!("  {:<12} {value:>14.4} {}", spec.name, spec.unit);
        metrics.push(json_metric(spec.name, value, spec.unit));
    }
    let line = result_line(m.correct(), m.attempted, m.failed, &metrics);
    println!("{line}");
    Ok(m.correct())
}

/// `--selfcheck`: the measured phase twice in one process (A/A). Every
/// end-to-end metric must repeat within its bound; the line printed for
/// each also gives 3 × the spread seen, the bound the metric has earned.
fn run_selfcheck(name: &str, seed: u64, seconds: f64) -> Result<bool, String> {
    let (a, a_values) = run_phase(name, seed, seconds)?;
    let (b, b_values) = run_phase(name, seed, seconds)?;
    let mut pass = a.correct() && b.correct() && a.digest == b.digest;
    if a.digest != b.digest {
        println!("  digest differs between the two phases");
    }
    for (spec, (x, y)) in END_TO_END.iter().zip(a_values.into_iter().zip(b_values)) {
        let worse = if spec.higher_is_better {
            (x - y) / x
        } else {
            (y - x) / x
        };
        let spread = (x - y).abs() / x.min(y);
        let ok = worse <= spec.bound;
        pass &= ok;
        println!(
            "  {:<12} A {x:>12.4} B {y:>12.4} {:<4} diff {:>6.2}% bound {:>5.1}% 3x-spread {:>6.2}% {}",
            spec.name,
            spec.unit,
            spread * 100.0,
            spec.bound * 100.0,
            spread * 300.0,
            if ok { "ok" } else { "MISS" }
        );
    }
    println!("  selfcheck {name}: {}", if pass { "pass" } else { "FAIL" });
    Ok(pass)
}

/// No `--workload`: every workload in a child process of its own, so
/// that `peak_rss_mb` and `cpu_s` are that workload's alone.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut pass = true;
    for spec in &SPECS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        if args.selfcheck {
            cmd.arg("--selfcheck");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("spawn {}: {e}", spec.name))?;
        pass &= status.success();
    }
    Ok(pass)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match &args.workload {
        None => run_all(&args),
        Some(name) if args.quick => run_quick(name, args.seed),
        Some(name) if args.selfcheck => run_selfcheck(name, args.seed, args.seconds),
        Some(name) if args.trace => ledger::run(name, args.seed),
        Some(name) => run_measured(name, args.seed, args.seconds),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("stackbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ledger::PER_LAYER;
    use std::path::Path;

    fn better(higher: bool) -> &'static str {
        if higher {
            "higher"
        } else {
            "lower"
        }
    }

    /// `BENCHMARK.json` as these tables define it.
    fn benchmark_json() -> String {
        let workloads: Vec<String> = SPECS
            .iter()
            .map(|s| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", s.name, s.why))
            .collect();
        let end_to_end: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    better(m.higher_is_better),
                    m.bound
                )
            })
            .collect();
        let per_layer: Vec<String> = PER_LAYER
            .iter()
            .map(|(name, unit, higher)| {
                format!(
                    "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                    better(*higher)
                )
            })
            .collect();
        format!(
            "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
             \"--manifest-path\", \"stackbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"stackbench\"],\n  \
             \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
             \"per_layer\": [\n{}\n  ]\n}}\n",
            workloads.join(",\n"),
            end_to_end.join(",\n"),
            per_layer.join(",\n")
        )
    }

    #[test]
    fn benchmark_json_is_these_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let expected = benchmark_json();
        assert!(
            on_disk == expected,
            "{} is stale; it should read:\n{expected}",
            path.display()
        );
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.1)));
        assert!(SPECS
            .iter()
            .all(|s| s.why.len() <= 200 && !s.why.contains('\n')));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(!setup.higher_is_better && setup.unit == "s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let line = result_line(true, 10, 0, &[json_metric("latency_ms", 1.25, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    /// The harness end to end, in seconds: every workload builds from a
    /// seed, its first op completes, and the same seed gives the same
    /// output.
    #[test]
    fn every_workload_builds_and_its_first_op_repeats() {
        let scratch = scratch_dir().join(format!("test-{}", std::process::id()));
        for spec in &SPECS {
            let digests: Vec<u64> = (0..2)
                .map(|_| {
                    let mut w = workloads::build(spec.name, 7, &scratch).expect(spec.name);
                    let first = w.run_op(0, &mut Tracer::off());
                    w.finish().expect(spec.name);
                    assert!(first.ok, "{}: first op failed", spec.name);
                    first.digest
                })
                .collect();
            assert_eq!(digests[0], digests[1], "{}", spec.name);
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
