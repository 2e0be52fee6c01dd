//! # mpwifi-conformance
//!
//! Protocol conformance oracles and a seeded scenario fuzzer for the
//! simulator. Where the rest of the workspace measures *performance*
//! (does MPTCP reach the paper's throughput?), this crate checks
//! *correctness*: invariants that must hold on every step of every run,
//! whatever the scenario.
//!
//! Three layers:
//!
//! * [`checkers`] — [`TcpConformance`] and [`MptcpConformance`], in-sim
//!   witnesses implementing [`mpwifi_sim::SimObserver`]. They watch
//!   every transmitted segment and every completed step and record
//!   [`Violation`]s into a shared [`ViolationLog`]: TCP sequence-space
//!   invariants, MPTCP data-sequence (DSS) invariants, netem frame
//!   conservation, and clock monotonicity.
//! * [`scenario`] — a plain-data [`ScenarioSpec`] (links, transport,
//!   workload, fault timeline) with a deterministic generator
//!   ([`generate`]) and a harness ([`run_scenario`]) that realizes the
//!   spec, attaches the right checker, drives the workload with seeded
//!   payload patterns, and verifies the end-to-end byte stream.
//! * [`fuzz`] — the campaign driver ([`run_campaign`], sharded like the
//!   experiment runner, deterministic for every job count) and a greedy
//!   shrinker ([`shrink`]) that reduces a violating spec to a minimal
//!   reproducer, emitted as a ready-to-paste Rust test
//!   ([`repro_snippet`]).
//!
//! Everything is a pure function of the scenario spec (and hence of the
//! case seed): a violation found in a 200-case overnight campaign
//! replays from its spec literal alone.

pub mod checkers;
pub mod fuzz;
pub mod scenario;

pub use checkers::{
    pattern_byte, pattern_bytes, MptcpConformance, SchedWitness, TcpConformance, Violation,
    ViolationLog,
};
pub use fuzz::{
    campaign_fingerprint, case_seed, generate_for_cell, matrix_fingerprint, repro_snippet,
    run_campaign, run_matrix_campaign, shrink, splitmix64, test_snippet, CaseResult,
    MatrixCellResult,
};
pub use scenario::{
    generate, run_scenario, CaseReport, FaultEp, IfaceSpec, LinkSpecLite, ScenarioSpec,
    TransportSpec, WorkloadSpec,
};
