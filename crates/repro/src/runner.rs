//! Parallel, instrumented, supervised experiment runner.
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
//! Every run goes through the panic-isolating, watchdog-armed
//! supervisor (`crate::supervise`): a panicking or livelocked
//! experiment comes back as a failed [`RunRecord`] and its healthy
//! neighbours are untouched. Results are returned in the order of the
//! input spec list regardless of completion order. Only wall time
//! varies run-to-run, and it is deliberately kept out of [`Report`]
//! rendering — it lives in [`RunRecord`], for the `--metrics` and
//! quarantine sidecars. The threads themselves are
//! [`mpwifi_simcore::fan_out`]'s.

use crate::registry::ExperimentSpec;
use crate::report::{Report, Scale};
use crate::supervise::{supervise_one, SuperviseConfig};
pub use mpwifi_simcore::derive_seed;
use mpwifi_simcore::json::array_lines;
use mpwifi_simcore::{fan_out, RunFailure, RunMetrics};
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

/// One experiment's supervised run.
#[derive(Debug)]
pub struct RunRecord {
    /// Experiment id (from the spec).
    pub id: &'static str,
    /// The seed the run ran with: the one [`SeedPolicy`] assigned.
    pub seed: u64,
    /// Wall-clock time of the run. Not deterministic; never rendered
    /// into reports.
    pub wall: Duration,
    /// The report, its simulator counters in [`Report::metrics`]; or
    /// how the run failed and the counters of the work it did before it
    /// died.
    pub result: Result<Report, (RunFailure, RunMetrics)>,
}

impl RunRecord {
    /// The run's simulator counters, complete or partial.
    pub fn metrics(&self) -> RunMetrics {
        match &self.result {
            Ok(report) => report.metrics.unwrap_or_default(),
            Err((_, partial)) => *partial,
        }
    }
}

/// Run one spec with metric bracketing on the current thread.
pub(crate) fn run_one(spec: &ExperimentSpec, scale: Scale, seed: u64) -> Report {
    mpwifi_simcore::metrics::reset();
    let mut report = (spec.run)(scale, seed);
    report.metrics = Some(mpwifi_simcore::metrics::snapshot());
    report
}

/// Shard `specs` across `jobs` workers (1 = serial), each run under
/// the supervisor with `cfg`'s budgets. Results come back
/// in input order; every completed report is byte-identical for any
/// `jobs` value.
pub fn run_specs(
    specs: &[&'static ExperimentSpec],
    scale: Scale,
    root_seed: u64,
    jobs: usize,
    policy: SeedPolicy,
    cfg: &SuperviseConfig,
) -> Vec<RunRecord> {
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
/// the `--metrics FILE` flag. A quarantined run carries its partial
/// counters and `"claims_hold": false`.
pub fn metrics_json(runs: &[RunRecord]) -> String {
    array_lines(runs, |o, run| {
        o.str("id", run.id)
            .val("seed", run.seed)
            .val(
                "wall_ms",
                format_args!("{:.3}", run.wall.as_secs_f64() * 1e3),
            )
            .fields(run.metrics().fields())
            .val(
                "claims_hold",
                run.result.as_ref().is_ok_and(Report::all_hold),
            );
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn every_slot_is_filled_in_order_for_any_jobs() {
        let specs: Vec<&'static ExperimentSpec> = ["table2", "planted-panic"]
            .iter()
            .map(|id| registry::find(id).unwrap())
            .collect();
        for jobs in [1, 2, 4] {
            let runs = run_specs(
                &specs,
                Scale::Quick,
                42,
                jobs,
                SeedPolicy::Campaign,
                &SuperviseConfig::batch(),
            );
            assert_eq!(runs.len(), 2);
            assert!(runs[0].result.is_ok());
            assert!(matches!(
                runs[1].result,
                Err((RunFailure::Panicked { .. }, _))
            ));
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
        let runs = run_specs(
            &specs,
            Scale::Quick,
            42,
            2,
            SeedPolicy::Campaign,
            &SuperviseConfig::batch(),
        );
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].id, "fig9");
        assert_eq!(runs[1].id, "table2");
        for run in &runs {
            let report = run.result.as_ref().expect("completes");
            assert_eq!(report.metrics, Some(run.metrics()));
        }
        let fig9 = runs[0].metrics();
        assert!(
            fig9.events_popped > 0 && fig9.frames_forwarded > 0,
            "fig9 is packet-level and should tick the simulator counters"
        );
        assert_eq!(
            runs[1].metrics(),
            RunMetrics::default(),
            "table2 is analytic (no simulation): all counters stay zero"
        );
    }

    #[test]
    fn metrics_json_is_one_object_per_run() {
        let specs = vec![registry::find("fig9").unwrap()];
        let runs = run_specs(
            &specs,
            Scale::Quick,
            42,
            1,
            SeedPolicy::Campaign,
            &SuperviseConfig::batch(),
        );
        let json = metrics_json(&runs);
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

        // The exact bytes of a two-run sidecar (wall time fixed by hand):
        // a completed run whose claim holds and a quarantined one, which
        // carries its partial counters.
        let metrics = |events_popped| RunMetrics {
            events_popped,
            dup_bytes_dropped: 3,
            ..RunMetrics::default()
        };
        let record = |id, seed, wall_us, result| RunRecord {
            id,
            seed,
            wall: Duration::from_micros(wall_us),
            result,
        };
        let mut report = Report::new("fig9", "t", "m");
        report.claim("c", "p", "m", true);
        report.metrics = Some(metrics(42));
        let panicked = RunFailure::Panicked {
            message: "boom".into(),
        };
        let two = [
            record("fig9", 42, 1_500, Ok(report)),
            record(
                "table2",
                u64::MAX,
                12_345_678,
                Err((panicked, metrics(u64::MAX))),
            ),
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
