//! Supervision integration tests.
//!
//! Two jobs: (1) soak every registry experiment under the batch
//! supervision budgets — zero quarantines, which pins the defaults as
//! "tight but sufficient" (an experiment that grows past a budget, or a
//! budget that shrinks below an experiment, fails here first); and
//! (2) check that supervision is invisible to a healthy run at any job
//! count. The planted-failure campaign (quarantine-and-continue) is a
//! root-package test, `tests/quarantine.rs`.

use mpwifi_repro::supervise::{DEFAULT_MAX_EVENTS, DEFAULT_STALL_TTL_US, DEFAULT_WALL_LIMIT_MS};
use mpwifi_repro::{
    registry, run_experiment, run_specs, Scale, SeedPolicy, SuperviseConfig, REGISTRY,
};

#[test]
fn registry_soaks_clean_under_default_budgets() {
    // The pinned defaults. Changing them is fine — but it is a decision
    // this test makes visible, not an accident.
    assert_eq!(DEFAULT_MAX_EVENTS, 50_000_000);
    assert_eq!(DEFAULT_WALL_LIMIT_MS, 300_000);
    assert_eq!(DEFAULT_STALL_TTL_US, 300_000_000);
    let wd = SuperviseConfig::default().watchdog;
    assert_eq!(wd.max_events, Some(DEFAULT_MAX_EVENTS));
    assert_eq!(wd.wall_limit_ms, Some(DEFAULT_WALL_LIMIT_MS));
    assert_eq!(wd.stall_ttl_us, Some(DEFAULT_STALL_TTL_US));

    // Soak under the *deterministic* budgets only, which is what every
    // `repro` batch run arms. The wall-clock deadline is the documented
    // nondeterministic escape hatch, calibrated for release serve
    // requests — under a debug build with every test job contending for
    // cores, the slowest experiment (fig21's 300 s replay sweep) can
    // legitimately cross it.
    let cfg = SuperviseConfig::batch();
    assert_eq!(cfg.watchdog.max_events, Some(DEFAULT_MAX_EVENTS));
    assert_eq!(cfg.watchdog.wall_limit_ms, None);
    assert_eq!(cfg.watchdog.stall_ttl_us, Some(DEFAULT_STALL_TTL_US));
    let specs: Vec<&'static registry::ExperimentSpec> = REGISTRY.iter().collect();
    let runs = run_specs(&specs, Scale::Quick, 42, 8, SeedPolicy::Campaign, &cfg);
    assert_eq!(runs.len(), REGISTRY.len());
    let quarantined: Vec<String> = runs
        .iter()
        .filter_map(|r| match &r.result {
            Err((failure, _)) => Some(format!("{} ({})", r.id, failure.label())),
            Ok(_) => None,
        })
        .collect();
    assert!(
        quarantined.is_empty(),
        "registry experiments must fit the default budgets: {quarantined:?}"
    );
}

#[test]
fn supervision_is_invisible_to_healthy_runs_at_any_jobs() {
    let ids = ["fig9", "table2", "ext-handover"];
    let specs: Vec<&'static registry::ExperimentSpec> = ids
        .iter()
        .map(|id| registry::find(id).expect("registry id"))
        .collect();
    // The reference: each experiment called directly on this thread,
    // unsupervised, with its counters bracketed by hand.
    let direct: Vec<_> = ids
        .iter()
        .map(|id| {
            mpwifi_simcore::metrics::reset();
            let mut report = run_experiment(id, Scale::Quick, 42).expect("registry id");
            report.metrics = Some(mpwifi_simcore::metrics::snapshot());
            report
        })
        .collect();
    for jobs in [1, 3] {
        let runs = run_specs(
            &specs,
            Scale::Quick,
            42,
            jobs,
            SeedPolicy::Campaign,
            &SuperviseConfig::default(),
        );
        for (run, d) in runs.iter().zip(&direct) {
            let report = run.result.as_ref().expect("healthy run completes");
            assert_eq!(
                report.render_text(),
                d.render_text(),
                "{}: supervised output must be byte-identical at jobs={jobs}",
                run.id
            );
            assert_eq!(
                report.render_markdown(),
                d.render_markdown(),
                "{}: markdown too",
                run.id
            );
        }
    }
}
