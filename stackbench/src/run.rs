//! Set-up timing and the measured phase of one workload.

use crate::estimator::{estimate, Estimate, Round};
use crate::trace::Tracer;
use crate::workloads::{build, spec};
use std::path::Path;
use std::time::Instant;

/// Fewest in-process repetitions of set-up; `setup_s` is their minimum.
pub const SETUP_REPS: usize = 9;
/// Set-up is repeated until this much time has gone into it (and at
/// least [`SETUP_REPS`] times): a 5 ms set-up needs far more than nine
/// tries to find its floor on a shared box.
pub const SETUP_BUDGET: Budget = Budget::Seconds(1.0);

/// How many rounds a measured phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until `seconds` have passed, and at least the workload's floor.
    Seconds(f64),
    /// Exactly this many (`--quick`, traced runs).
    Rounds(usize),
}

impl Budget {
    /// Is another round due after `done` rounds since `started`?
    fn wants_more(self, done: usize, floor: usize, started: Instant) -> bool {
        match self {
            Budget::Seconds(s) => done < floor || started.elapsed().as_secs_f64() < s,
            Budget::Rounds(n) => done < n,
        }
    }
}

/// Everything one measured phase produced.
pub struct Measured {
    pub estimate: Estimate,
    /// The rounds, for the ledger's per-op rows.
    pub rounds: Vec<Round>,
    /// Kind of each op, for grouping.
    pub tags: Vec<&'static str>,
    pub clients: usize,
    /// Ops attempted over all rounds.
    pub attempted: usize,
    /// Ops that did not complete or failed a check.
    pub failed: usize,
    /// Digest of a round; the same in every round or the run is wrong.
    pub digest: u64,
    /// Every round produced `digest`.
    pub digest_stable: bool,
    /// The server's final counters (`serve_mix`).
    pub serve_stats: Option<mpwifi_serve::proto::ServeStats>,
}

impl Measured {
    /// No op failed and every round did the same work.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.digest_stable
    }

    /// Mean floor, ms, of the ops tagged `tag` (0 when there are none).
    pub fn floor_ms_of(&self, tag: &str) -> f64 {
        let tagged = self.tags.iter().zip(&self.estimate.floor_ns);
        let (sum, n) = tagged
            .filter(|(t, _)| **t == tag)
            .fold((0u64, 0u32), |(sum, n), (_, f)| (sum + f, n + 1));
        if n == 0 {
            return 0.0;
        }
        sum as f64 / f64::from(n) / 1e6
    }

    /// Sum of the floors, seconds: one noise-free pass.
    pub fn floor_sum_s(&self) -> f64 {
        self.estimate.floor_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// `setup_s`: build the workload from nothing (inputs from the seed,
/// program-side state, server answering `ping`, journal directory) and
/// run its first op once; minimum over the repetitions. Tear-down is
/// outside the timed region.
pub fn setup_seconds(name: &str, seed: u64, scratch: &Path, budget: Budget) -> Result<f64, String> {
    let started = Instant::now();
    let mut best = f64::INFINITY;
    let mut reps = 0;
    while budget.wants_more(reps, SETUP_REPS, started) {
        let t0 = Instant::now();
        let mut w = build(name, seed, scratch)?;
        let first = w.run_op(0, &mut Tracer::off());
        let took = t0.elapsed().as_secs_f64();
        w.finish()?;
        if !first.ok {
            return Err(format!("{name}: first op failed during set-up"));
        }
        best = best.min(took);
        reps += 1;
    }
    Ok(best)
}

/// Build the workload and replay its ops round after round.
pub fn measure(
    name: &str,
    seed: u64,
    budget: Budget,
    scratch: &Path,
    tr: &mut Tracer,
) -> Result<Measured, String> {
    let floor = spec(name).map_or(1, |s| s.min_rounds);
    let mut w = build(name, seed, scratch)?;
    let mut rounds: Vec<Round> = Vec::new();
    let started = Instant::now();
    while budget.wants_more(rounds.len(), floor, started) {
        tr.set_round(rounds.len() as u32);
        rounds.push(w.run_round(tr));
    }
    let tags = (0..w.n_ops()).map(|i| w.tag(i)).collect();
    let clients = w.clients();
    let serve_stats = w.finish()?;
    let digest = rounds[0].digest();
    Ok(Measured {
        estimate: estimate(&rounds, clients, clients == 1),
        attempted: rounds.iter().map(|r| r.ops.len()).sum(),
        failed: rounds.iter().map(Round::failed).sum(),
        digest,
        digest_stable: rounds.iter().all(|r| r.digest() == digest),
        rounds,
        tags,
        clients,
        serve_stats,
    })
}
