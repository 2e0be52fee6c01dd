//! The parallel runner must be invisible in the output: for any job
//! count, `repro all` produces byte-identical reports (blocks, claims,
//! and instrumentation counters) to the serial run.

use mpwifi_repro::{
    registry::{ExperimentSpec, REGISTRY},
    runner, RunRecord, Scale, SeedPolicy, SuperviseConfig,
};

/// Run `specs` at Quick scale on `jobs` workers under the batch budgets.
fn run(
    specs: &[&'static ExperimentSpec],
    seed: u64,
    jobs: usize,
    policy: SeedPolicy,
) -> Vec<RunRecord> {
    runner::run_specs(
        specs,
        Scale::Quick,
        seed,
        jobs,
        policy,
        &SuperviseConfig::batch(),
    )
}

/// Everything in a run's output that must not depend on sharding:
/// id, seed, blocks, claim text/holds, and the metric counters.
fn fingerprint(runs: &[RunRecord]) -> Vec<String> {
    runs.iter()
        .map(|o| {
            let report = o.result.as_ref().expect("every registry run completes");
            let claims: Vec<String> = report
                .claims
                .iter()
                .map(|c| format!("{}|{}|{}|{}", c.what, c.paper, c.measured, c.holds))
                .collect();
            format!(
                "{} seed={} blocks={:?} claims={:?} metrics={:?}",
                o.id, o.seed, report.blocks, claims, report.metrics
            )
        })
        .collect()
}

#[test]
fn parallel_run_is_byte_identical_to_serial() {
    let specs: Vec<_> = REGISTRY.iter().collect();
    for seed in [42u64, 7] {
        let serial = run(&specs, seed, 1, SeedPolicy::Campaign);
        let parallel = run(&specs, seed, 8, SeedPolicy::Campaign);
        assert_eq!(
            fingerprint(&serial),
            fingerprint(&parallel),
            "seed {seed}: --jobs 8 diverged from --jobs 1"
        );
    }
}

#[test]
fn fault_sweeps_are_deterministic_across_jobs_and_repeats() {
    // Fault-injected runs add scheduled blackouts, episode-gated RNG
    // streams, and recovery-time accounting — all of which must remain
    // a pure function of the seed. The fingerprint includes the full
    // metric counters (faults_injected, segments_corrupted_dropped,
    // subflows_declared_dead, reinjections, recovery_time_us), so any
    // sharding- or repeat-dependence in the fault machinery fails here.
    let specs: Vec<_> = REGISTRY
        .iter()
        .filter(|s| s.id.starts_with("fault-"))
        .collect();
    assert_eq!(specs.len(), 3, "expected the three fault-* experiments");
    for seed in [42u64, 7] {
        let serial = run(&specs, seed, 1, SeedPolicy::Campaign);
        let parallel = run(&specs, seed, 8, SeedPolicy::Campaign);
        let repeat = run(&specs, seed, 1, SeedPolicy::Campaign);
        assert_eq!(
            fingerprint(&serial),
            fingerprint(&parallel),
            "seed {seed}: fault sweeps diverged between --jobs 1 and --jobs 8"
        );
        assert_eq!(
            fingerprint(&serial),
            fingerprint(&repeat),
            "seed {seed}: fault sweeps diverged between repeated runs"
        );
    }
}

#[test]
fn sched_zoo_family_is_deterministic_across_jobs() {
    // The scheduler × CC matrix and the per-scheduler failover replay
    // cover every (SchedKind, CcKind) cell and all three path pairs;
    // their reports (tables, claims, and the dup/reinjection counters
    // in the metrics) must be a pure function of the seed at every job
    // count.
    let specs: Vec<_> = REGISTRY
        .iter()
        .filter(|s| s.id.starts_with("sched-"))
        .collect();
    assert_eq!(
        specs.len(),
        2,
        "expected sched-matrix and sched-failover in the registry"
    );
    for seed in [42u64, 7] {
        let serial = run(&specs, seed, 1, SeedPolicy::Campaign);
        let parallel = run(&specs, seed, 8, SeedPolicy::Campaign);
        assert_eq!(
            fingerprint(&serial),
            fingerprint(&parallel),
            "seed {seed}: sched zoo diverged between --jobs 1 and --jobs 8"
        );
    }
}

#[test]
fn crowd_campaign_reports_are_worker_invariant() {
    // The population campaign shares the runner's contract at its own
    // layer: a 10⁴-user campaign rendered with 1 worker and with 8
    // workers must produce byte-identical reports — blocks (figure
    // analogs, CI tables) and claim text included. This pins the whole
    // chain: order-free per-user seeds, the fixed shard partition, and
    // the in-order shard fold.
    use mpwifi_repro::experiments::crowd_campaign::campaign_report;
    let render = |workers: usize| {
        let (r, _) = campaign_report(10_000, workers, 42, Scale::Quick, None, |_, _, _| {})
            .expect("no checkpoint, nothing to refuse");
        let claims: Vec<String> = r
            .claims
            .iter()
            .map(|c| format!("{}|{}|{}|{}", c.what, c.paper, c.measured, c.holds))
            .collect();
        format!("blocks={:?} claims={:?}", r.blocks, claims)
    };
    let serial = render(1);
    assert_eq!(
        serial,
        render(8),
        "campaign report diverged between 1 and 8 workers"
    );
    assert_eq!(serial, render(1), "campaign report diverged across repeats");
}

#[test]
fn conformance_campaign_fingerprint_is_sharding_independent() {
    // The conformance fuzzer shares the runner's determinism contract:
    // a campaign's verdicts (and hence its fingerprint) are a pure
    // function of (cases, root seed), whatever the job count and
    // however often it is repeated.
    let serial = mpwifi_conformance::run_campaign(12, 42, 1);
    let parallel = mpwifi_conformance::run_campaign(12, 42, 8);
    let repeat = mpwifi_conformance::run_campaign(12, 42, 8);
    let f = mpwifi_conformance::campaign_fingerprint(&serial);
    assert_eq!(
        f,
        mpwifi_conformance::campaign_fingerprint(&parallel),
        "conformance campaign diverged between --jobs 1 and --jobs 8"
    );
    assert_eq!(
        f,
        mpwifi_conformance::campaign_fingerprint(&repeat),
        "conformance campaign diverged between repeated runs"
    );
    for r in &serial {
        assert!(
            r.report.clean(),
            "case {} (seed {}) violated an invariant: {:#?}",
            r.index,
            r.seed,
            r.report.violations
        );
    }
}

#[test]
fn derived_seed_policy_is_also_sharding_independent() {
    // A smaller slice suffices here: the property under test is the
    // runner's order-independence, already exercised end-to-end above;
    // this checks the second policy computes the same seeds either way.
    let specs: Vec<_> = REGISTRY
        .iter()
        .filter(|s| ["fig9", "fig10", "table2", "ext-handover"].contains(&s.id))
        .collect();
    let serial = run(&specs, 42, 1, SeedPolicy::Derived);
    let parallel = run(&specs, 42, 4, SeedPolicy::Derived);
    assert_eq!(fingerprint(&serial), fingerprint(&parallel));
    for o in &serial {
        assert_eq!(o.seed, runner::derive_seed(42, o.id));
        assert_ne!(o.seed, 42, "derived seed should differ from the root");
    }
}
