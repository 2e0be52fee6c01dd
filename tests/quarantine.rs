//! Tier-1 cover for quarantine-and-continue, which every `repro`
//! campaign runs under: a campaign with a planted panic and a planted
//! livelock in it completes, classifies both failures with forensics
//! and repro artifacts, and renders its healthy sections byte-identical
//! to a campaign without them, at one worker and at two. Every record,
//! quarantined or not, carries the seed its policy assigned: a failed
//! run is never re-rolled on another one.

use mpwifi_repro::{
    derive_seed, registry, repro_command, repro_test_snippet, run_specs, RunRecord, Scale,
    SeedPolicy, SuperviseConfig,
};
use mpwifi_simcore::RunFailure;

/// The failure of a quarantined run; panics on a completed one.
fn failure(run: &RunRecord) -> &RunFailure {
    match &run.result {
        Err((failure, _)) => failure,
        Ok(_) => panic!("{} completed; expected a quarantine", run.id),
    }
}

#[test]
fn planted_campaign_quarantines_and_continues() {
    let specs: Vec<&'static registry::ExperimentSpec> =
        ["table2", "planted-panic", "fig9", "planted-stall"]
            .iter()
            .map(|id| registry::find(id).expect("known id"))
            .collect();
    let cfg = SuperviseConfig::batch();
    let campaign = |specs: &[&'static registry::ExperimentSpec], jobs| {
        run_specs(specs, Scale::Quick, 42, jobs, SeedPolicy::Campaign, &cfg)
    };
    // The two healthy sections on their own, for reference.
    let healthy = campaign(&[specs[0], specs[2]], 1);
    for jobs in [1, 2] {
        let runs = campaign(&specs, jobs);
        assert_eq!(runs.len(), 4);
        for run in &runs {
            assert_eq!(
                run.seed,
                SeedPolicy::Campaign.seed_for(42, run.id),
                "{}: the record must carry the campaign seed at jobs={jobs}",
                run.id
            );
        }

        // The two healthy sections survive, byte-identical.
        for (run, h) in [&runs[0], &runs[2]].into_iter().zip(&healthy) {
            let report = run.result.as_ref().expect("healthy run completes");
            let reference = h.result.as_ref().expect("healthy run completes");
            assert_eq!(
                report.render_text(),
                reference.render_text(),
                "{}: healthy section must be untouched by its quarantined neighbours at jobs={jobs}",
                run.id
            );
        }

        // The planted panic is isolated with message + location.
        let RunFailure::Panicked { message } = failure(&runs[1]) else {
            panic!(
                "planted-panic: expected Panicked, got {}",
                failure(&runs[1]).label()
            );
        };
        assert!(message.contains("planted panic"), "{message}");

        // The planted livelock is classified Stalled, and the forensics
        // name the dead primary subflow.
        let RunFailure::Stalled { forensics } = failure(&runs[3]) else {
            panic!(
                "planted-stall: expected Stalled, got {}",
                failure(&runs[3]).label()
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
            assert!(cmd.ends_with(&format!("-- {} --seed 42", run.id)), "{cmd}");
            let snippet = repro_test_snippet(run.id, run.seed, Scale::Quick);
            assert!(snippet.starts_with("#[test]\n"));
            assert!(snippet.contains(&format!("run_experiment(\"{}\"", run.id)));
        }
    }
}

#[test]
fn derived_seeds_are_kept_by_completed_and_quarantined_runs() {
    let specs: Vec<&'static registry::ExperimentSpec> = ["table2", "planted-panic"]
        .iter()
        .map(|id| registry::find(id).expect("known id"))
        .collect();
    let runs = run_specs(
        &specs,
        Scale::Quick,
        42,
        2,
        SeedPolicy::Derived,
        &SuperviseConfig::batch(),
    );
    assert!(runs[0].result.is_ok(), "table2 completes");
    failure(&runs[1]);
    for run in &runs {
        assert_eq!(run.seed, derive_seed(42, run.id), "{}", run.id);
    }
}
