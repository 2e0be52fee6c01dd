//! What the `chaos_load` and `kill_chaos` proof harnesses share: finding
//! and running the sibling `repro` executable, and the check list. A
//! directory beside the bins (no `main.rs`), so cargo does not take it
//! for a third harness.

use std::process::Command;

/// Locate the `repro` binary: `--repro PATH` wins, else the sibling of
/// this executable in the cargo target dir.
pub fn repro_path(args: &[String]) -> String {
    if let Some(i) = args.iter().position(|a| a == "--repro") {
        return args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| fail_usage("--repro needs a path"));
    }
    let me = std::env::current_exe().expect("current_exe");
    let dir = me.parent().expect("exe has a parent dir");
    let repro = dir.join("repro");
    if !repro.exists() {
        fail_usage(&format!(
            "{} not found — build it first (cargo build --release -p mpwifi-repro) \
             or pass --repro PATH",
            repro.display()
        ));
    }
    repro.to_string_lossy().into_owned()
}

/// Report a harness-side failure (not a failed check) and exit 2.
pub fn fail_usage(msg: &str) -> ! {
    eprintln!("{}: {msg}", env!("CARGO_BIN_NAME"));
    std::process::exit(2);
}

/// One-shot CLI run; returns (stdout, stderr, exit code).
pub fn run_cli<S: AsRef<std::ffi::OsStr>>(repro: &str, args: &[S]) -> (String, String, i32) {
    let out = Command::new(repro)
        .args(args)
        .output()
        .unwrap_or_else(|e| fail_usage(&format!("spawn {repro}: {e}")));
    (
        String::from_utf8(out.stdout).expect("cli stdout not utf8"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

/// Extract the rendered report from one-shot CLI stdout: everything
/// before the nondeterministic `(… finished in …)` timing line.
pub fn cli_section(stdout: &str, marker: &str) -> String {
    let pos = stdout
        .find(marker)
        .unwrap_or_else(|| fail_usage(&format!("CLI output lacks marker {marker:?}")));
    stdout[..pos].to_string()
}

/// The harness's verdicts: every check prints its line, failed ones are
/// kept for the summary and the exit code.
#[derive(Default)]
pub struct Checker {
    pub failures: Vec<String>,
}

impl Checker {
    pub fn check(&mut self, ok: bool, what: &str) {
        if ok {
            println!("  ok: {what}");
        } else {
            println!("  FAIL: {what}");
            self.failures.push(what.to_string());
        }
    }
}
