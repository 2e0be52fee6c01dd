//! Campaign driver and shrinker.
//!
//! [`run_campaign`] fans N generated cases across worker threads on the
//! workspace's shared [`fan_out`] engine: results land in case-index
//! order and the campaign fingerprint is identical for any `--jobs`, so
//! determinism can be asserted across parallelism levels. [`shrink`]
//! greedily reduces a violating spec to a minimal reproducer and
//! [`repro_snippet`] renders it as a paste-ready test.

use crate::scenario::{generate, run_scenario, CaseReport, ScenarioSpec, TransportSpec};
use mpwifi_mptcp::{CcKind, Mode, SchedKind};
pub use mpwifi_simcore::splitmix64;
use mpwifi_simcore::{fan_out, Fnv1a};
use std::fmt::Write as _;

/// The seed for case `index` of a campaign rooted at `root_seed`.
/// A pure function of both, so a single case can be re-run (or pasted
/// into a test) without replaying the campaign.
pub fn case_seed(root_seed: u64, index: usize) -> u64 {
    splitmix64(root_seed ^ splitmix64(index as u64 ^ 0xC0DE_D00D_FEED_F00D))
}

/// One fuzz case: the spec that ran and its verdict.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Position in the campaign (0-based).
    pub index: usize,
    /// The case seed ([`case_seed`] of the campaign root and index).
    pub seed: u64,
    /// The generated scenario.
    pub spec: ScenarioSpec,
    /// The verdict.
    pub report: CaseReport,
}

fn run_case(root_seed: u64, index: usize) -> CaseResult {
    let seed = case_seed(root_seed, index);
    let spec = generate(seed);
    let report = run_scenario(&spec);
    CaseResult {
        index,
        seed,
        spec,
        report,
    }
}

/// Run a `cases`-long campaign rooted at `root_seed` on up to `jobs`
/// worker threads. Results come back in index order and are
/// byte-identical for every `jobs` value: each case's outcome depends
/// only on its seed, never on which worker ran it.
pub fn run_campaign(cases: usize, root_seed: u64, jobs: usize) -> Vec<CaseResult> {
    fan_out(cases, jobs, || (), |(), i| run_case(root_seed, i))
}

/// Generate a scenario for one (scheduler, congestion-control) matrix
/// cell: everything else — links, workload, faults, mode — stays
/// fuzzed, but the transport is forced to MPTCP with the cell's axis
/// values. A TCP-flavoured seed is converted in place (primary = its
/// interface, Full mode, RTO-count death detection so any silent
/// blackout it fuzzed stays recoverable).
pub fn generate_for_cell(seed: u64, sched: SchedKind, cc: CcKind) -> ScenarioSpec {
    let mut spec = generate(seed);
    spec.transport = match spec.transport {
        TransportSpec::Mptcp {
            primary,
            mode,
            rto_activation,
            ..
        } => TransportSpec::Mptcp {
            primary,
            mode,
            cc,
            sched,
            rto_activation,
        },
        TransportSpec::Tcp { iface } => TransportSpec::Mptcp {
            primary: iface,
            mode: Mode::Full,
            cc,
            sched,
            rto_activation: 2,
        },
    };
    spec
}

/// One (scheduler, congestion-control) cell of a matrix campaign.
#[derive(Debug, Clone)]
pub struct MatrixCellResult {
    /// The cell's scheduler.
    pub sched: SchedKind,
    /// The cell's congestion control.
    pub cc: CcKind,
    /// Per-case verdicts, in case-index order.
    pub results: Vec<CaseResult>,
}

impl MatrixCellResult {
    /// Violating cases in this cell.
    pub fn violations(&self) -> usize {
        self.results.iter().filter(|r| !r.report.clean()).count()
    }
}

/// Run `cases_per_cell` scenarios for every (scheduler, CC) cell of the
/// full matrix, sharded across up to `jobs` workers. Case seeds derive
/// from `(root_seed, cell, index)` alone, so — like [`run_campaign`] —
/// results and fingerprints are byte-identical for every `jobs` value.
pub fn run_matrix_campaign(
    cases_per_cell: usize,
    root_seed: u64,
    jobs: usize,
) -> Vec<MatrixCellResult> {
    let cells: Vec<(SchedKind, CcKind)> = SchedKind::ALL
        .iter()
        .flat_map(|&s| CcKind::ALL.iter().map(move |&c| (s, c)))
        .collect();
    let total = cells.len() * cases_per_cell;
    let flat = fan_out(
        total,
        jobs,
        || (),
        |(), flat| {
            let (cell, index) = (flat / cases_per_cell, flat % cases_per_cell);
            let (sched, cc) = cells[cell];
            let seed = case_seed(root_seed ^ splitmix64(cell as u64 ^ 0x5EED_CE11), index);
            let spec = generate_for_cell(seed, sched, cc);
            let report = run_scenario(&spec);
            CaseResult {
                index,
                seed,
                spec,
                report,
            }
        },
    );
    let mut out = Vec::with_capacity(cells.len());
    let mut it = flat.into_iter();
    for (sched, cc) in cells {
        out.push(MatrixCellResult {
            sched,
            cc,
            results: it.by_ref().take(cases_per_cell).collect(),
        });
    }
    out
}

/// FNV-1a digest of a matrix campaign: hashes every cell's
/// [`campaign_fingerprint`], so it carries the same determinism
/// contract across `--jobs` values and repeats.
pub fn matrix_fingerprint(cells: &[MatrixCellResult]) -> String {
    let mut h = Fnv1a::new();
    for c in cells {
        let line = format!(
            "{:?}x{:?} {}\n",
            c.sched,
            c.cc,
            campaign_fingerprint(&c.results)
        );
        h.write(line.as_bytes());
    }
    format!("{:016x}", h.finish())
}

/// FNV-1a digest of a whole campaign. Identical digests across
/// `--jobs` values and repeat runs are the determinism contract the
/// test suite asserts.
pub fn campaign_fingerprint(results: &[CaseResult]) -> String {
    let mut h = Fnv1a::new();
    for r in results {
        let line = format!(
            "case{} seed={} {}\n",
            r.index,
            r.seed,
            r.report.fingerprint()
        );
        h.write(line.as_bytes());
    }
    format!("{:016x}", h.finish())
}

/// Candidate reductions of `spec`, most aggressive first. Each is a
/// *structurally smaller* scenario (fewer faults, less data, less
/// noise), so greedy acceptance terminates.
fn shrink_candidates(spec: &ScenarioSpec) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    for i in 0..spec.faults.len() {
        let mut s = spec.clone();
        s.faults.remove(i);
        out.push(s);
    }
    if spec.workload.down_bytes > 0 && spec.workload.up_bytes > 0 {
        let mut s = spec.clone();
        s.workload.up_bytes = 0;
        out.push(s);
        let mut s = spec.clone();
        s.workload.down_bytes = 0;
        out.push(s);
    }
    if spec.workload.down_bytes > 1_024 || spec.workload.up_bytes > 1_024 {
        let mut s = spec.clone();
        if s.workload.down_bytes > 1_024 {
            s.workload.down_bytes = (s.workload.down_bytes / 2).max(1_024);
        }
        if s.workload.up_bytes > 1_024 {
            s.workload.up_bytes = (s.workload.up_bytes / 2).max(1_024);
        }
        out.push(s);
    }
    if spec.wifi.loss_ppm > 0 || spec.lte.loss_ppm > 0 {
        let mut s = spec.clone();
        s.wifi.loss_ppm = 0;
        s.lte.loss_ppm = 0;
        out.push(s);
    }
    out
}

/// Greedily shrink a violating scenario while it keeps producing the
/// same first violation category. Returns the reduced spec and its
/// report (the original pair if nothing smaller still violates).
/// Bounded work: at most 64 candidate evaluations.
pub fn shrink(spec: &ScenarioSpec) -> (ScenarioSpec, CaseReport) {
    let mut best_spec = spec.clone();
    let mut best_report = run_scenario(&best_spec);
    let Some(target) = best_report.first_category() else {
        return (best_spec, best_report);
    };
    let mut budget = 64usize;
    'outer: loop {
        for cand in shrink_candidates(&best_spec) {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            let report = run_scenario(&cand);
            if report.first_category() == Some(target) {
                best_spec = cand;
                best_report = report;
                continue 'outer;
            }
        }
        break;
    }
    (best_spec, best_report)
}

/// Render a named `#[test]` function around pre-indented body lines —
/// the shared emitter behind every paste-ready failure reproducer in
/// the workspace (conformance shrinker output, the supervisor's
/// quarantine reports). Each body line is indented one level.
pub fn test_snippet(fn_name: &str, body_lines: &[String]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "#[test]");
    let _ = writeln!(s, "fn {fn_name}() {{");
    for line in body_lines {
        let _ = writeln!(s, "    {line}");
    }
    let _ = writeln!(s, "}}");
    s
}

/// Render a shrunk spec as a ready-to-paste `#[test]` that replays it
/// and asserts the absence of the violation.
pub fn repro_snippet(spec: &ScenarioSpec) -> String {
    test_snippet(
        &format!("conformance_repro_seed_{}", spec.seed),
        &[
            format!("let spec = {};", spec.to_rust_literal(1)),
            "let report = mpwifi_conformance::run_scenario(&spec);".to_string(),
            "assert!(".to_string(),
            "    report.violations.is_empty(),".to_string(),
            "    \"conformance violations: {:#?}\",".to_string(),
            "    report.violations,".to_string(),
            ");".to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..32).map(|i| case_seed(42, i)).collect();
        let b: Vec<u64> = (0..32).map(|i| case_seed(42, i)).collect();
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "case seeds collide");
        assert_ne!(case_seed(42, 0), case_seed(43, 0));
    }

    #[test]
    fn campaign_results_are_index_ordered() {
        let results = run_campaign(6, 42, 3);
        let indices: Vec<usize> = results.iter().map(|r| r.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 4, 5]);
    }
}
