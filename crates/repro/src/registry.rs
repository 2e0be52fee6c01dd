//! Typed experiment registry.
//!
//! Every table/figure reproduction (and every extension study) is one
//! [`ExperimentSpec`]: an id, a human title, the paper section it
//! reproduces ("ext" for an extension study), and a uniform
//! `fn(Scale, u64) -> Report` entry point. [`REGISTRY`] is the single
//! source of truth — the id lists ([`crate::ALL_EXPERIMENTS`],
//! [`crate::EXTENSION_EXPERIMENTS`]), `repro --list`, and the parallel
//! runner are all derived from it, so adding an experiment means adding
//! exactly one row here.

use crate::experiments as ex;
use crate::report::{Report, Scale};

/// One registered experiment.
#[derive(Clone, Copy)]
pub struct ExperimentSpec {
    /// Stable id ("fig9", "ext-handover") used on the command line and
    /// in file names.
    pub id: &'static str,
    /// Short human title (the full title lives in the produced
    /// [`Report`]).
    pub title: &'static str,
    /// Paper section the experiment reproduces ("§5" etc.; "ext" for
    /// extension studies).
    pub section: &'static str,
    /// Entry point. A row whose experiment takes other arguments (no
    /// `Scale`, a variant flag) adapts it with a non-capturing closure,
    /// so every row has the same shape.
    pub run: fn(Scale, u64) -> Report,
}

impl ExperimentSpec {
    /// True for studies beyond the paper's own tables/figures: the
    /// rows whose section is "ext".
    pub const fn is_extension(&self) -> bool {
        matches!(self.section.as_bytes(), b"ext")
    }
}

/// Every experiment, in paper order, extensions last.
pub const REGISTRY: [ExperimentSpec; 31] = [
    ExperimentSpec {
        id: "table1",
        title: "Geographic coverage of the crowd-sourced dataset",
        section: "§3",
        run: ex::crowd_figs::table1,
    },
    ExperimentSpec {
        id: "table2",
        title: "Locations where MPTCP measurements were conducted",
        section: "§3",
        run: |_, seed| ex::table2::table2(seed),
    },
    ExperimentSpec {
        id: "fig3",
        title: "CDF of Tput(WiFi) - Tput(LTE), uplink and downlink",
        section: "§4",
        run: ex::crowd_figs::fig3,
    },
    ExperimentSpec {
        id: "fig4",
        title: "CDF of RTT(WiFi) - RTT(LTE), 10-ping averages",
        section: "§4",
        run: ex::crowd_figs::fig4,
    },
    ExperimentSpec {
        id: "fig6",
        title: "20-location TCP throughput difference CDFs vs the crowd data",
        section: "§4",
        run: ex::crowd_figs::fig6,
    },
    ExperimentSpec {
        id: "fig7",
        title: "MPTCP vs single-path TCP throughput vs flow size",
        section: "§5",
        run: |_, seed| ex::flow_figs::fig7(seed),
    },
    ExperimentSpec {
        id: "fig8",
        title: "CDF of relative difference between MPTCP_LTE and MPTCP_WiFi",
        section: "§5",
        run: ex::flow_figs::fig8,
    },
    ExperimentSpec {
        id: "fig9",
        title: "MPTCP throughput vs flow size (LTE faster)",
        section: "§5",
        run: |_, seed| ex::flow_figs::fig9_10(seed, true),
    },
    ExperimentSpec {
        id: "fig10",
        title: "MPTCP throughput vs flow size (WiFi faster)",
        section: "§5",
        run: |_, seed| ex::flow_figs::fig9_10(seed, false),
    },
    ExperimentSpec {
        id: "fig11",
        title: "Subflow contribution timeline (LTE faster)",
        section: "§5",
        run: |_, seed| ex::flow_figs::fig11_12(seed, true),
    },
    ExperimentSpec {
        id: "fig12",
        title: "Subflow contribution timeline (WiFi faster)",
        section: "§5",
        run: |_, seed| ex::flow_figs::fig11_12(seed, false),
    },
    ExperimentSpec {
        id: "fig13",
        title: "CDF of relative difference between coupled and decoupled CC",
        section: "§5",
        run: ex::flow_figs::fig13,
    },
    ExperimentSpec {
        id: "fig14",
        title: "Network-for-primary vs congestion-control choice, per flow size",
        section: "§5",
        run: ex::flow_figs::fig14,
    },
    ExperimentSpec {
        id: "fig15",
        title: "Full-MPTCP and Backup-mode packet timelines (8 panels)",
        section: "§6",
        run: |_, seed| ex::mode_figs::fig15(seed),
    },
    ExperimentSpec {
        id: "fig16",
        title: "Power level for LTE and WiFi as non-backup/backup subflow",
        section: "§6",
        run: |_, seed| ex::mode_figs::fig16(seed),
    },
    ExperimentSpec {
        id: "fig17",
        title: "Traffic patterns for app launches and interactions (6 panels)",
        section: "§7",
        run: |_, seed| ex::app_figs::fig17(seed),
    },
    ExperimentSpec {
        id: "fig18",
        title: "App response time under different network conditions (launch)",
        section: "§7",
        run: |scale, seed| ex::app_figs::fig18_20(scale, seed, false),
    },
    ExperimentSpec {
        id: "fig19",
        title: "Normalized app-response time by oracle scheme (launch)",
        section: "§7",
        run: |scale, seed| ex::app_figs::fig19_21(scale, seed, false),
    },
    ExperimentSpec {
        id: "fig20",
        title: "App response time under different network conditions (long flow)",
        section: "§7",
        run: |scale, seed| ex::app_figs::fig18_20(scale, seed, true),
    },
    ExperimentSpec {
        id: "fig21",
        title: "Normalized app-response time by oracle scheme (long flow)",
        section: "§7",
        run: |scale, seed| ex::app_figs::fig19_21(scale, seed, true),
    },
    ExperimentSpec {
        id: "ext-handover",
        title: "Backup vs single-path (break-before-make) handover",
        section: "ext",
        run: |_, seed| ex::extensions::ext_handover(seed),
    },
    ExperimentSpec {
        id: "ext-policy",
        title: "Network-selection policies vs the oracle",
        section: "ext",
        run: ex::extensions::ext_policy,
    },
    ExperimentSpec {
        id: "ext-sched",
        title: "MPTCP packet-scheduler ablation: min-RTT vs round-robin",
        section: "ext",
        run: |_, seed| ex::extensions::ext_sched(seed),
    },
    ExperimentSpec {
        id: "sched-matrix",
        title: "Scheduler × congestion-control matrix over three path pairs",
        section: "ext",
        run: |_, seed| ex::sched_zoo::sched_matrix(seed),
    },
    ExperimentSpec {
        id: "sched-failover",
        title: "Fig 15-style failover across the scheduler zoo",
        section: "ext",
        run: |_, seed| ex::sched_zoo::sched_failover(seed),
    },
    ExperimentSpec {
        id: "ext-mobility",
        title: "Walking out of WiFi range: TCP vs MPTCP handover",
        section: "ext",
        run: |_, seed| ex::extensions::ext_mobility(seed),
    },
    ExperimentSpec {
        id: "ext-stability",
        title: "How long a 'use LTE here' recommendation stays valid",
        section: "ext",
        run: |_, seed| ex::extensions::ext_stability(seed),
    },
    ExperimentSpec {
        id: "fault-sweep",
        title: "Failover (Fig 15e-h) swept over blackout onset",
        section: "ext",
        run: ex::fault_figs::fault_sweep,
    },
    ExperimentSpec {
        id: "fault-restore",
        title: "Blackout-duration sweep with restore and subflow rejoin",
        section: "ext",
        run: ex::fault_figs::fault_restore,
    },
    ExperimentSpec {
        id: "fault-noise",
        title: "Burst-loss and corruption episodes on single-path TCP",
        section: "ext",
        run: ex::fault_figs::fault_noise,
    },
    ExperimentSpec {
        id: "crowd-campaign",
        title: "Population-scale crowd campaign (streaming mergeable stats)",
        section: "ext",
        run: ex::crowd_campaign::crowd_campaign,
    },
];

/// Look an experiment up by id: a [`REGISTRY`] row, or one of the
/// planted failure specs ([`crate::supervise::PLANTED`]), which resolve
/// by name so supervision tests and quarantine repro commands can run
/// them, but are in no id list and never ride along with `all`.
pub fn find(id: &str) -> Option<&'static ExperimentSpec> {
    REGISTRY
        .iter()
        .chain(&crate::supervise::PLANTED)
        .find(|s| s.id == id)
}

/// Compile-time id extraction so the public id arrays stay derived from
/// [`REGISTRY`] rather than hand-maintained in parallel.
pub(crate) const fn collect_ids<const N: usize>(extension: bool) -> [&'static str; N] {
    let mut out = [""; N];
    let mut i = 0;
    let mut j = 0;
    while i < REGISTRY.len() {
        if REGISTRY[i].is_extension() == extension {
            assert!(j < N, "id array length does not match REGISTRY");
            out[j] = REGISTRY[i].id;
            j += 1;
        }
        i += 1;
    }
    assert!(j == N, "id array length does not match REGISTRY");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_resolves_every_registered_id() {
        for spec in &REGISTRY {
            let found = find(spec.id).expect("registered id must resolve");
            assert_eq!(found.id, spec.id);
        }
        assert!(find("fig99").is_none());
    }

    #[test]
    fn planted_specs_resolve_but_stay_out_of_every_id_list() {
        use crate::{ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS};
        for planted in &crate::supervise::PLANTED {
            let id = planted.id;
            assert_eq!(find(id).map(|s| s.id), Some(id), "{id} must resolve");
            assert!(!REGISTRY.iter().any(|s| s.id == id), "{id} in REGISTRY");
            assert!(!ALL_EXPERIMENTS.contains(&id), "{id} in ALL_EXPERIMENTS");
            assert!(
                !EXTENSION_EXPERIMENTS.contains(&id),
                "{id} in EXTENSION_EXPERIMENTS"
            );
        }
    }

    #[test]
    fn paper_order_places_extensions_last() {
        let first_ext = REGISTRY.iter().position(|s| s.is_extension()).unwrap();
        assert!(
            REGISTRY[first_ext..].iter().all(|s| s.is_extension()),
            "extensions must come after all paper experiments"
        );
    }

    #[test]
    fn sections_are_labelled() {
        for spec in &REGISTRY {
            assert!(!spec.section.is_empty(), "{} missing section", spec.id);
        }
    }
}
