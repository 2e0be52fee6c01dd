//! Supervision integration tests.
//!
//! Two jobs: (1) soak every registry experiment under the *default*
//! supervision budgets — zero quarantines, which pins the defaults as
//! "tight but sufficient" (an experiment that grows past a budget, or a
//! budget that shrinks below an experiment, fails here first); and
//! (2) drive a campaign with planted panicking and livelocked specs
//! end-to-end, asserting quarantine-and-continue: healthy sections
//! byte-identical to an unsupervised run, failures classified with
//! forensics and repro artifacts.

use mpwifi_repro::supervise::{DEFAULT_MAX_EVENTS, DEFAULT_STALL_TTL_US, DEFAULT_WALL_LIMIT_MS};
use mpwifi_repro::{
    planted_find, registry, repro_command, repro_test_snippet, run_specs_supervised,
    run_specs_with, RunStatus, Scale, SeedPolicy, SuperviseConfig, REGISTRY,
};
use mpwifi_simcore::RunFailure;

#[test]
fn registry_soaks_clean_under_default_budgets() {
    // The pinned defaults. Changing them is fine — but it is a decision
    // this test makes visible, not an accident.
    assert_eq!(DEFAULT_MAX_EVENTS, 50_000_000);
    assert_eq!(DEFAULT_WALL_LIMIT_MS, 300_000);
    assert_eq!(DEFAULT_STALL_TTL_US, 300_000_000);
    let cfg = SuperviseConfig::default();
    assert_eq!(cfg.max_events, Some(DEFAULT_MAX_EVENTS));
    assert_eq!(cfg.wall_limit_ms, Some(DEFAULT_WALL_LIMIT_MS));
    assert_eq!(cfg.stall_ttl_us, Some(DEFAULT_STALL_TTL_US));
    assert_eq!(cfg.retries, 0);

    // Soak under the *deterministic* budgets only. The wall-clock
    // deadline is the documented nondeterministic escape hatch,
    // calibrated for release campaign runs — under a debug build with
    // every test job contending for cores, the slowest experiment
    // (fig21's 300 s replay sweep) can legitimately cross it.
    let cfg = SuperviseConfig {
        wall_limit_ms: None,
        ..cfg
    };
    let specs: Vec<&'static registry::ExperimentSpec> = REGISTRY.iter().collect();
    let runs = run_specs_supervised(&specs, Scale::Quick, 42, 8, SeedPolicy::Campaign, &cfg);
    assert_eq!(runs.len(), REGISTRY.len());
    let quarantined: Vec<String> = runs
        .iter()
        .filter(|r| r.status.is_failure())
        .map(|r| format!("{} ({})", r.id, r.status.label()))
        .collect();
    assert!(
        quarantined.is_empty(),
        "registry experiments must fit the default budgets: {quarantined:?}"
    );
    for run in &runs {
        assert_eq!(run.attempts, 1, "{} needed retries", run.id);
        assert!(!run.flaky, "{} flagged flaky", run.id);
        assert!(run.outcome.is_some(), "{} lost its outcome", run.id);
    }
}

#[test]
fn supervision_is_invisible_to_healthy_runs_at_any_jobs() {
    let specs: Vec<&'static registry::ExperimentSpec> = ["fig9", "table2", "ext-handover"]
        .iter()
        .map(|id| registry::find(id).expect("registry id"))
        .collect();
    let plain = run_specs_with(&specs, Scale::Quick, 42, 1, SeedPolicy::Campaign);
    for jobs in [1, 3] {
        let supervised = run_specs_supervised(
            &specs,
            Scale::Quick,
            42,
            jobs,
            SeedPolicy::Campaign,
            &SuperviseConfig::default(),
        );
        for (s, p) in supervised.iter().zip(&plain) {
            assert_eq!(s.status, RunStatus::Completed);
            let report = &s.outcome.as_ref().expect("completed outcome").report;
            assert_eq!(
                report.render_text(),
                p.report.render_text(),
                "{}: supervised output must be byte-identical at jobs={jobs}",
                p.id
            );
            assert_eq!(
                report.render_markdown(),
                p.report.render_markdown(),
                "{}: markdown too",
                p.id
            );
        }
    }
}

#[test]
fn planted_campaign_quarantines_and_continues() {
    let specs: Vec<&'static registry::ExperimentSpec> = vec![
        registry::find("table2").expect("registry id"),
        planted_find("planted-panic").expect("planted id"),
        registry::find("fig9").expect("registry id"),
        planted_find("planted-stall").expect("planted id"),
    ];
    let runs = run_specs_supervised(
        &specs,
        Scale::Quick,
        42,
        2,
        SeedPolicy::Campaign,
        &SuperviseConfig::default(),
    );
    assert_eq!(runs.len(), 4);

    // The two healthy sections survive, byte-identical to a plain run.
    let plain = run_specs_with(
        &specs[0..1]
            .iter()
            .chain(&specs[2..3])
            .copied()
            .collect::<Vec<_>>(),
        Scale::Quick,
        42,
        1,
        SeedPolicy::Campaign,
    );
    for (run, p) in [&runs[0], &runs[2]].into_iter().zip(&plain) {
        assert_eq!(run.status, RunStatus::Completed);
        assert_eq!(
            run.outcome.as_ref().expect("outcome").report.render_text(),
            p.report.render_text(),
            "{}: healthy section must be untouched by its quarantined neighbours",
            p.id
        );
    }

    // The planted panic is isolated with message + location.
    let RunStatus::Failed(RunFailure::Panicked { message }) = &runs[1].status else {
        panic!(
            "planted-panic: expected Panicked, got {}",
            runs[1].status.label()
        );
    };
    assert!(message.contains("planted panic"), "{message}");
    assert!(runs[1].outcome.is_none());

    // The planted livelock is classified Stalled, and the forensics
    // name the dead primary subflow.
    let RunStatus::Failed(RunFailure::Stalled { forensics }) = &runs[3].status else {
        panic!(
            "planted-stall: expected Stalled, got {}",
            runs[3].status.label()
        );
    };
    for needle in [
        "stall[stall]",
        "iface lte",
        "stale",
        "subflow lte",
        "fault plan:",
    ] {
        assert!(
            forensics.contains(needle),
            "stall forensics missing {needle:?}:\n{forensics}"
        );
    }

    // Both quarantined runs carry paste-ready repro artifacts.
    for run in [&runs[1], &runs[3]] {
        let cmd = repro_command(run.id, 42, Scale::Quick, false);
        assert!(cmd.contains(run.id) && cmd.contains("--seed 42") && cmd.contains("--supervise"));
        let snippet = repro_test_snippet(run.id, run.seed, Scale::Quick);
        assert!(snippet.starts_with("#[test]\n"));
        assert!(snippet.contains(&format!("run_experiment(\"{}\"", run.id)));
    }
}

#[test]
fn planted_specs_stay_out_of_the_registry() {
    for id in ["planted-panic", "planted-stall", "planted-flaky"] {
        assert!(registry::find(id).is_none(), "{id} leaked into REGISTRY");
        assert!(planted_find(id).is_some(), "{id} missing from PLANTED");
    }
}
