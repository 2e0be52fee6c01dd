//! Registry-wide smoke: every experiment in the registry must run at
//! Quick scale without panicking, and every simulator-backed run must
//! actually move bytes. This is the cheap tripwire that catches an
//! experiment wired to a stack that silently stalls.

use mpwifi_repro::{registry::REGISTRY, runner, Scale, SeedPolicy, SuperviseConfig};

#[test]
fn every_registry_entry_runs_and_sim_backed_entries_deliver() {
    let specs: Vec<_> = REGISTRY.iter().collect();
    assert!(
        specs.len() >= 28,
        "registry shrank to {} entries; update this floor only on a \
         deliberate removal",
        specs.len()
    );
    let cfg = SuperviseConfig::batch();
    let runs = runner::run_specs(&specs, Scale::Quick, 42, 8, SeedPolicy::Campaign, &cfg);
    assert_eq!(runs.len(), specs.len(), "an experiment went missing");
    let mut sim_backed = 0usize;
    for o in &runs {
        let Ok(report) = &o.result else {
            panic!("{}: quarantined: {:?}", o.id, o.result);
        };
        assert!(
            !report.blocks.is_empty() || !report.claims.is_empty(),
            "{}: produced neither data blocks nor claims",
            o.id
        );
        let metrics = o.metrics();
        if metrics.frames_forwarded > 0 {
            sim_backed += 1;
            assert!(
                metrics.bytes_delivered > 0,
                "{}: forwarded {} frames but delivered zero payload bytes \
                 (transport stalled?)",
                o.id,
                metrics.frames_forwarded
            );
        }
    }
    assert!(
        sim_backed >= 10,
        "only {sim_backed} experiments exercised the simulator; the \
         registry used to have many more"
    );
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    // `--supervise` was a flag until every run became supervised; an
    // old command line must fail loudly, not run `table2` and report
    // "unknown experiment: --supervise".
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--supervise", "table2"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag: --supervise"), "{stderr}");
    assert!(out.stdout.is_empty(), "no experiment may run: {out:?}");
}

#[test]
fn a_flag_its_form_does_not_read_is_a_usage_error() {
    // Each form reads its own flags; any other flag used to be dropped
    // without a word, so the run was not the one asked for.
    let dir = std::env::temp_dir();
    let journal = dir.join(format!("repro_off_form_{}.journal", std::process::id()));
    let markdown = dir.join(format!("repro_off_form_{}.md", std::process::id()));
    let (journal_s, markdown_s) = (journal.to_str().unwrap(), markdown.to_str().unwrap());
    let cases: [(&[&str], &str); 7] = [
        (
            &["table2", "--matrix", "--users", "5", "--cases", "3"],
            "--matrix",
        ),
        (&["table2", "--queue", "4"], "--queue"),
        (
            &[
                "conformance",
                "--cases",
                "1",
                "--checkpoint",
                journal_s,
                "--resume",
            ],
            "--checkpoint",
        ),
        (&["conformance", "--users", "5"], "--users"),
        (
            &["campaign", "--users", "10", "--markdown", markdown_s],
            "--markdown",
        ),
        (&["campaign", "--cases", "3"], "--cases"),
        (&["serve", "--seed", "1"], "--seed"),
    ];
    for (args, flag) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .stdin(std::process::Stdio::null())
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run: {out:?}");
    }
    assert!(
        !journal.exists() && !markdown.exists(),
        "a refused run wrote a file"
    );
}

#[test]
fn an_unknown_experiment_is_a_usage_error() {
    // A typo among the targets must fail before the known ones run, not
    // after `table2` has run in full and reported "1/1 experiments".
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table2", "fig99"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment: fig99"), "{stderr}");
    assert!(out.stdout.is_empty(), "no experiment may run: {out:?}");
}
