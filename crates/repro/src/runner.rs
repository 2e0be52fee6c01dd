//! Parallel, instrumented experiment runner.
//!
//! [`run_specs`] shards a list of [`ExperimentSpec`]s across a pool of
//! worker threads (`--jobs N` on the CLI). Two properties make the
//! parallel run byte-identical to the serial one:
//!
//! 1. **Deterministic per-experiment seeds.** Each experiment's seed is
//!    a pure function of the root seed and the experiment id (see
//!    [`SeedPolicy`]), independent of which worker picks the experiment
//!    up or in what order. Reordering the work list cannot change any
//!    experiment's randomness.
//! 2. **Per-run metric bracketing.** The instrumentation counters in
//!    [`mpwifi_simcore::metrics`] are thread-local; each worker resets
//!    them before an experiment and snapshots them after, so counts
//!    attribute cleanly no matter how experiments shard. Every counter
//!    is a deterministic function of `(id, scale, seed)`.
//!
//! Results are returned in the order of the input spec list regardless
//! of completion order. Only wall time varies run-to-run, and it is
//! deliberately kept out of [`Report`] rendering — it lives here, in
//! [`RunOutcome`], for the `--metrics` JSON sidecar.
//!
//! The pool is **supervision-aware**: [`run_specs_supervised`] wraps
//! every run in the panic-isolating supervisor (`crate::supervise`),
//! and the plain [`run_specs`]/[`run_specs_with`] entry points are the
//! same pool with panic isolation only — a panicking experiment
//! degrades into a failed section instead of killing the campaign.
//! The threads themselves are [`mpwifi_simcore::fan_out`]'s.

use crate::registry::ExperimentSpec;
use crate::report::{Report, Scale};
use crate::supervise::{supervise_one, SuperviseConfig, SupervisedRun};
pub use mpwifi_simcore::derive_seed;
use mpwifi_simcore::json::array_lines;
use mpwifi_simcore::{fan_out, RunMetrics};
use std::time::Duration;

/// How each experiment's seed is computed from the root seed. Both
/// variants are pure functions of `(root, id)`, so either way the
/// reports cannot depend on sharding or run order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedPolicy {
    /// Every experiment receives the root seed verbatim. This is the
    /// default: the experiments model *one* measurement campaign — the
    /// same 20-location condition set threads through every figure
    /// (fig6 checks against table1's dataset, for example), which only
    /// works if they all draw it from the same seed.
    #[default]
    Campaign,
    /// Each experiment runs with [`derive_seed`]`(root, id)`:
    /// statistically independent streams per experiment, for
    /// seed-robustness sweeps. Cross-figure dataset identities do not
    /// hold under this policy.
    Derived,
}

impl SeedPolicy {
    /// The seed an experiment runs with under this policy.
    pub fn seed_for(self, root: u64, id: &str) -> u64 {
        match self {
            SeedPolicy::Campaign => root,
            SeedPolicy::Derived => derive_seed(root, id),
        }
    }
}

/// One experiment's run: its report plus run-level instrumentation.
pub struct RunOutcome {
    /// Experiment id (from the spec).
    pub id: &'static str,
    /// The seed the experiment actually ran with (see [`SeedPolicy`]).
    pub seed: u64,
    /// The experiment's report.
    pub report: Report,
    /// Simulator counters for this run (also attached to the report).
    pub metrics: RunMetrics,
    /// Wall-clock time of this run. Not deterministic; never rendered
    /// into reports.
    pub wall: Duration,
}

/// Run one spec with metric bracketing on the current thread.
pub(crate) fn run_one(spec: &ExperimentSpec, scale: Scale, seed: u64) -> RunOutcome {
    mpwifi_simcore::metrics::reset();
    let start = std::time::Instant::now();
    let mut report = (spec.run)(scale, seed);
    let wall = start.elapsed();
    let metrics = mpwifi_simcore::metrics::snapshot();
    report.metrics = Some(metrics);
    RunOutcome {
        id: spec.id,
        seed,
        report,
        metrics,
        wall,
    }
}

/// Run `specs` on `jobs` worker threads (1 = serial) under the default
/// [`SeedPolicy::Campaign`]. Results come back in input order; reports
/// are byte-identical for any `jobs` value.
pub fn run_specs(
    specs: &[&'static ExperimentSpec],
    scale: Scale,
    root_seed: u64,
    jobs: usize,
) -> Vec<RunOutcome> {
    run_specs_with(specs, scale, root_seed, jobs, SeedPolicy::default())
}

/// [`run_specs`] with an explicit [`SeedPolicy`]: the supervised pool
/// with panic isolation only (no budgets, no retries). A panicking
/// experiment comes back as a section whose single claim fails and
/// whose method line carries the panic message — the campaign and its
/// healthy sections are untouched.
pub fn run_specs_with(
    specs: &[&'static ExperimentSpec],
    scale: Scale,
    root_seed: u64,
    jobs: usize,
    policy: SeedPolicy,
) -> Vec<RunOutcome> {
    run_specs_supervised(
        specs,
        scale,
        root_seed,
        jobs,
        policy,
        &SuperviseConfig::unlimited(),
    )
    .into_iter()
    .zip(specs)
    .map(|(run, spec)| outcome_or_placeholder(run, spec))
    .collect()
}

/// Convert a supervised run into a plain [`RunOutcome`] for the
/// unsupervised entry points: completed runs pass through; quarantined
/// runs become a placeholder report whose single claim fails.
fn outcome_or_placeholder(run: SupervisedRun, spec: &'static ExperimentSpec) -> RunOutcome {
    match run.outcome {
        Some(outcome) => outcome,
        None => {
            let mut report = Report::new(
                spec.id,
                spec.title,
                format!("run quarantined ({})", run.status.label()),
            );
            report.claim(
                "experiment ran to completion",
                "produces a report",
                run.status.label(),
                false,
            );
            if let Some(forensics) = run.status.forensics() {
                report.block(format!("quarantine forensics:\n{}", forensics.trim_end()));
            }
            report.metrics = Some(run.partial_metrics.unwrap_or_default());
            RunOutcome {
                id: run.id,
                seed: run.seed,
                metrics: run.partial_metrics.unwrap_or_default(),
                wall: run.wall,
                report,
            }
        }
    }
}

/// The supervised pool: shard `specs` across `jobs` workers, each run
/// wrapped in the panic-isolating, watchdog-armed supervisor. Results
/// come back in input order; for all-Completed campaigns the reports
/// are byte-identical to the unsupervised pool's for any `jobs` value.
pub fn run_specs_supervised(
    specs: &[&'static ExperimentSpec],
    scale: Scale,
    root_seed: u64,
    jobs: usize,
    policy: SeedPolicy,
    cfg: &SuperviseConfig,
) -> Vec<SupervisedRun> {
    fan_out(
        specs.len(),
        jobs,
        || (),
        |(), i| {
            let spec = specs[i];
            supervise_one(spec, scale, policy.seed_for(root_seed, spec.id), cfg)
        },
    )
}

/// Render run records as a JSON array (one object per experiment) for
/// the `--metrics FILE` flag.
pub fn metrics_json(outcomes: &[RunOutcome]) -> String {
    array_lines(outcomes, |o, run| {
        o.str("id", run.id)
            .val("seed", run.seed)
            .val(
                "wall_ms",
                format_args!("{:.3}", run.wall.as_secs_f64() * 1e3),
            )
            .fields(run.metrics.fields())
            .val("claims_hold", run.report.all_hold());
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use crate::supervise::{planted_find, RunStatus};

    #[test]
    fn planted_panic_degrades_to_failed_section_not_dead_pool() {
        // Regression: the old pool unwrapped the slot mutex, so a
        // panicking experiment on any worker poisoned the lock and
        // killed the campaign. Now the panic is quarantined and the
        // healthy neighbours' reports are untouched.
        let specs: Vec<&'static registry::ExperimentSpec> = vec![
            registry::find("table2").unwrap(),
            planted_find("planted-panic").unwrap(),
            registry::find("fig9").unwrap(),
        ];
        let outcomes = run_specs_with(&specs, Scale::Quick, 42, 2, SeedPolicy::Campaign);
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[1].id, "planted-panic");
        assert!(!outcomes[1].report.all_hold(), "quarantined run must fail");
        assert!(outcomes[1].report.method.contains("panicked"));
        for healthy in [&outcomes[0], &outcomes[2]] {
            let direct = run_specs(
                &[specs[if healthy.id == "table2" { 0 } else { 2 }]],
                Scale::Quick,
                42,
                1,
            );
            assert_eq!(
                healthy.report.render_text(),
                direct[0].report.render_text(),
                "healthy sections must be byte-identical next to a quarantined one"
            );
        }
    }

    #[test]
    fn supervised_pool_fills_every_slot_for_any_jobs() {
        let specs: Vec<&'static registry::ExperimentSpec> = vec![
            registry::find("table2").unwrap(),
            planted_find("planted-panic").unwrap(),
        ];
        for jobs in [1, 2, 4] {
            let runs = run_specs_supervised(
                &specs,
                Scale::Quick,
                42,
                jobs,
                SeedPolicy::Campaign,
                &SuperviseConfig::unlimited(),
            );
            assert_eq!(runs.len(), 2);
            assert!(matches!(runs[0].status, RunStatus::Completed));
            assert!(runs[1].status.is_failure());
        }
    }

    #[test]
    fn seed_policies_are_pure_functions_of_root_and_id() {
        assert_eq!(SeedPolicy::Campaign.seed_for(42, "fig9"), 42);
        assert_eq!(SeedPolicy::Campaign.seed_for(42, "fig10"), 42);
        assert_eq!(
            SeedPolicy::Derived.seed_for(42, "fig9"),
            derive_seed(42, "fig9")
        );
        assert_eq!(SeedPolicy::default(), SeedPolicy::Campaign);
    }

    #[test]
    fn runner_attaches_metrics_and_preserves_order() {
        let specs: Vec<&'static registry::ExperimentSpec> = ["fig9", "table2"]
            .iter()
            .map(|id| registry::find(id).unwrap())
            .collect();
        let outcomes = run_specs(&specs, Scale::Quick, 42, 2);
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].id, "fig9");
        assert_eq!(outcomes[1].id, "table2");
        for o in &outcomes {
            assert_eq!(o.report.metrics, Some(o.metrics));
        }
        let fig9 = &outcomes[0].metrics;
        assert!(
            fig9.events_popped > 0 && fig9.frames_forwarded > 0,
            "fig9 is packet-level and should tick the simulator counters"
        );
        assert_eq!(
            outcomes[1].metrics,
            RunMetrics::default(),
            "table2 is analytic (no simulation): all counters stay zero"
        );
    }

    #[test]
    fn metrics_json_is_one_object_per_run() {
        let specs = vec![registry::find("fig9").unwrap()];
        let outcomes = run_specs(&specs, Scale::Quick, 42, 1);
        let json = metrics_json(&outcomes);
        assert!(json.starts_with("[\n"));
        assert!(json.contains("\"id\": \"fig9\""));
        assert!(json.contains("\"events_popped\""));
        assert!(json.contains("\"faults_injected\""));
        assert!(json.contains("\"segments_corrupted_dropped\""));
        assert!(json.contains("\"subflows_declared_dead\""));
        assert!(json.contains("\"reinjections\""));
        assert!(json.contains("\"recovery_time_us\""));
        assert!(json.contains("\"sched_picks_rejected\": 0, \"redundant_dups\": 0"));
        assert!(json.contains("\"dup_bytes_dropped\": 0, \"claims_hold\": true}"));
        assert!(json.trim_end().ends_with(']'));

        // The exact bytes of a two-run sidecar (wall time fixed by hand;
        // the second run's single claim fails).
        let outcome = |id, seed, wall_us, holds| {
            let mut report = Report::new(id, "t", "m");
            report.claim("c", "p", "m", holds);
            let metrics = RunMetrics {
                events_popped: seed,
                dup_bytes_dropped: 3,
                ..RunMetrics::default()
            };
            RunOutcome {
                id,
                seed,
                report,
                metrics,
                wall: Duration::from_micros(wall_us),
            }
        };
        let two = [
            outcome("fig9", 42, 1_500, true),
            outcome("table2", u64::MAX, 12_345_678, false),
        ];
        assert_eq!(
            metrics_json(&two),
            concat!(
                "[\n",
                r#"  {"id": "fig9", "seed": 42, "wall_ms": 1.500, "events_popped": 42, "frames_forwarded": 0, "bytes_delivered": 0, "tcp_retransmits": 0, "segments_encoded": 0, "enc_buffers_reused": 0, "enc_buffers_allocated": 0, "scratch_high_water": 0, "faults_injected": 0, "segments_corrupted_dropped": 0, "subflows_declared_dead": 0, "reinjections": 0, "recovery_time_us": 0, "segments_dropped_unroutable": 0, "sched_picks_rejected": 0, "redundant_dups": 0, "dup_bytes_dropped": 3, "claims_hold": true},"#,
                "\n",
                r#"  {"id": "table2", "seed": 18446744073709551615, "wall_ms": 12345.678, "events_popped": 18446744073709551615, "frames_forwarded": 0, "bytes_delivered": 0, "tcp_retransmits": 0, "segments_encoded": 0, "enc_buffers_reused": 0, "enc_buffers_allocated": 0, "scratch_high_water": 0, "faults_injected": 0, "segments_corrupted_dropped": 0, "subflows_declared_dead": 0, "reinjections": 0, "recovery_time_us": 0, "segments_dropped_unroutable": 0, "sched_picks_rejected": 0, "redundant_dups": 0, "dup_bytes_dropped": 3, "claims_hold": false}"#,
                "\n]\n"
            )
        );
        assert_eq!(metrics_json(&[]), "[\n]\n");
    }
}
