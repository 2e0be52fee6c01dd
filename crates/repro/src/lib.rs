//! # mpwifi-repro
//!
//! Regeneration harness: one experiment per table and figure of the
//! paper. Every experiment produces a [`Report`] — the same rows/series
//! the paper plots, plus explicit paper-vs-measured checks — and the
//! `repro` binary prints them (or writes the consolidated
//! `EXPERIMENTS.md`).
//!
//! Run `repro --list` for the experiment inventory, `repro all` for
//! everything.

pub mod experiments;
pub mod registry;
pub mod report;
pub mod runner;
pub mod service;
pub mod supervise;

pub use registry::{ExperimentSpec, REGISTRY};
pub use report::{Claim, Report, Scale};
pub use runner::{derive_seed, run_specs, RunRecord, SeedPolicy};
pub use service::ReproExecutor;
pub use supervise::{
    repro_command, repro_test_snippet, supervise_call, supervise_one, SuperviseConfig, PLANTED,
};

/// All paper experiment ids in paper order, derived from [`REGISTRY`].
pub const ALL_EXPERIMENTS: [&str; 20] = registry::collect_ids::<20>(false);

/// Extension experiments (beyond the paper's figures): the studies the
/// paper's conclusion calls for, plus design ablations. Derived from
/// [`REGISTRY`].
pub const EXTENSION_EXPERIMENTS: [&str; 11] = registry::collect_ids::<11>(true);

/// Run one experiment by id, with `seed` passed to it verbatim.
///
/// This is the single-run entry point, unsupervised; the parallel
/// runner ([`run_specs`]) layers per-experiment seed derivation, metric
/// bracketing and supervision on top of the same registry. The planted
/// failure specs ([`supervise::PLANTED`]) resolve here too
/// ([`registry::find`]), so quarantine repro snippets replay through
/// the same door.
pub fn run_experiment(id: &str, scale: Scale, seed: u64) -> Option<Report> {
    registry::find(id).map(|spec| (spec.run)(scale, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("fig99", Scale::Quick, 1).is_none());
    }

    #[test]
    fn table2_claims_hold() {
        let r = run_experiment("table2", Scale::Quick, 42).unwrap();
        assert!(r.all_hold(), "{}", r.render_text());
        assert_eq!(r.id, "table2");
    }

    #[test]
    fn fig9_and_fig10_claims_hold() {
        for id in ["fig9", "fig10"] {
            let r = run_experiment(id, Scale::Quick, 42).unwrap();
            assert!(r.all_hold(), "{}", r.render_text());
            assert!(!r.blocks.is_empty(), "{id} must emit series");
        }
    }

    #[test]
    fn fig15_claims_hold() {
        let r = run_experiment("fig15", Scale::Quick, 42).unwrap();
        assert!(r.all_hold(), "{}", r.render_text());
        assert_eq!(r.claims.len(), 8, "one claim per panel");
    }

    #[test]
    fn fig16_claims_hold() {
        let r = run_experiment("fig16", Scale::Quick, 42).unwrap();
        assert!(r.all_hold(), "{}", r.render_text());
    }

    #[test]
    fn fault_family_claims_hold() {
        // The PR's acceptance sweep: silent/notified blackouts, restores
        // with rejoin, and noise episodes, all at Quick scale. Every
        // claim (completion, stream integrity, recovery accounting)
        // must hold.
        for id in ["fault-sweep", "fault-restore", "fault-noise"] {
            let r = run_experiment(id, Scale::Quick, 42).unwrap();
            assert!(r.all_hold(), "{}", r.render_text());
            assert!(!r.blocks.is_empty(), "{id} must emit its sweep table");
        }
    }

    #[test]
    fn ext_handover_claims_hold() {
        let r = run_experiment("ext-handover", Scale::Quick, 42).unwrap();
        assert!(r.all_hold(), "{}", r.render_text());
    }

    #[test]
    fn experiments_are_deterministic_per_seed() {
        for id in ["fig9", "table2", "ext-handover"] {
            let a = run_experiment(id, Scale::Quick, 7).unwrap();
            let b = run_experiment(id, Scale::Quick, 7).unwrap();
            assert_eq!(a.blocks, b.blocks, "{id} output must be reproducible");
            let measured = |r: &Report| -> Vec<String> {
                r.claims.iter().map(|c| c.measured.clone()).collect()
            };
            assert_eq!(measured(&a), measured(&b));
        }
    }

    #[test]
    fn experiment_ids_are_unique_and_runnable_ids_only() {
        let mut all: Vec<&str> = ALL_EXPERIMENTS.to_vec();
        all.extend(EXTENSION_EXPERIMENTS);
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate experiment id");
    }
}
