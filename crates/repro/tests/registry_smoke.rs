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
