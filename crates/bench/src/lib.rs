//! # mpwifi-bench
//!
//! Criterion benchmarks for the workspace. Two suites:
//!
//! * `benches/simulator.rs` — micro-benchmarks of the hot paths
//!   (segment codec, link pipeline, event queue, full TCP/MPTCP
//!   transfers);
//! * `benches/experiments.rs` — one group per paper experiment family,
//!   timing a representative slice of each table/figure regeneration so
//!   regressions in any substrate show up as experiment-time regressions.
//!
//! Run with `cargo bench --workspace`. The `repro` binary (not these
//! benches) prints the actual tables/figures; benches measure cost.
//!
//! Speed is tracked by `stackbench/` against `BENCHMARK.json`, not here;
//! the crate's binaries are the chaos harnesses (`chaos_load`,
//! `kill_chaos`) that `scripts/check.sh --full` drives.
