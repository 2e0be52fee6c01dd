//! The noise-floor estimator: per-op minima over rounds.
//!
//! A workload is a fixed list of `N` deterministic ops replayed for `R`
//! rounds. `t(i, r)` is op `i`'s wall time in round `r`. Every op is
//! bit-deterministic fixed work (the harness asserts its result digest
//! is the same in every round), so interference from the host can only
//! *add* time: `m_i = min_r t(i, r)` is op `i`'s noise floor and needs
//! one clean window in `R` tries. All end-to-end timing metrics are
//! functions of `{m_i}`.

use mpwifi_simcore::metrics::RunMetrics;

/// What one op reported in one round.
#[derive(Debug, Clone, Default)]
pub struct OpRecord {
    /// Wall time of the timed call, ns.
    pub wall_ns: u64,
    /// Process CPU time across the timed call, ns (0 where ops overlap).
    pub cpu_ns: u64,
    /// The op completed and its output passed every check.
    pub ok: bool,
    /// FNV digest of the op's output (completion times, bytes, counts).
    pub digest: u64,
    /// `simcore::metrics` counts attributed to the op.
    pub counts: RunMetrics,
    /// Simulated time the op covered, ns (0 for non-sim ops).
    pub sim_ns: u64,
    /// Connections the op opened (app replay) or 1.
    pub flows: u32,
    /// Bytes the program wrote back to the caller (serve responses).
    pub bytes_out: u64,
}

/// One pass over every op of a workload.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Per-op records, indexed by op.
    pub ops: Vec<OpRecord>,
    /// Process CPU time across the whole round, ns.
    pub cpu_ns: u64,
}

impl Round {
    /// Digest of the round: the per-op digests folded in op order.
    pub fn digest(&self) -> u64 {
        let mut d = Fnv::new();
        for op in &self.ops {
            d.u64(op.digest);
            d.u64(op.ok as u64);
        }
        d.finish()
    }

    /// Ops that did not complete or failed a check.
    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|o| !o.ok).count()
    }
}

/// FNV-1a, 64-bit: the digest every workload folds its outputs into.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn new() -> Fnv {
        Fnv(Fnv::OFFSET)
    }

    pub fn bytes(&mut self, data: &[u8]) -> &mut Fnv {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Fnv::PRIME);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Fnv {
        self.bytes(&v.to_le_bytes())
    }

    /// Fold every counter of a metrics snapshot.
    pub fn counts(&mut self, m: &RunMetrics) -> &mut Fnv {
        for v in counts_array(m) {
            self.u64(v);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Every counter of a snapshot, in declaration order.
fn counts_array(m: &RunMetrics) -> [u64; 17] {
    [
        m.events_popped,
        m.frames_forwarded,
        m.bytes_delivered,
        m.tcp_retransmits,
        m.segments_encoded,
        m.enc_buffers_reused,
        m.enc_buffers_allocated,
        m.scratch_high_water,
        m.faults_injected,
        m.segments_corrupted_dropped,
        m.subflows_declared_dead,
        m.reinjections,
        m.recovery_time_us,
        m.segments_dropped_unroutable,
        m.sched_picks_rejected,
        m.redundant_dups,
        m.dup_bytes_dropped,
    ]
}

/// `m_i = min_r t(i, r)` for every op.
pub fn per_op_min(rounds: &[Vec<u64>]) -> Vec<u64> {
    let n = rounds.first().map_or(0, Vec::len);
    (0..n)
        .map(|i| rounds.iter().map(|r| r[i]).min().unwrap_or(0))
        .collect()
}

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample:
/// the value at rank `ceil(p/100 · n)`, 1-based.
pub fn nearest_rank(values: &[u64], p: f64) -> u64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The timing metrics of one measured phase, plus host diagnostics.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// Rounds measured.
    pub rounds: usize,
    /// Per-op wall-time floors `m_i`, ns.
    pub floor_ns: Vec<u64>,
    /// `C · N / Σ m_i`.
    pub ops_per_s: f64,
    /// Nearest-rank median of `{m_i}`, ms.
    pub op_ms_p50: f64,
    /// Nearest-rank 95th percentile of `{m_i}`, ms.
    pub op_ms_p95: f64,
    /// CPU seconds for one noise-free pass.
    pub cpu_s: f64,
    /// Median over all N·R samples, ms.
    pub all_p50_ms: f64,
    /// 99th percentile over all N·R samples, ms.
    pub all_p99_ms: f64,
    /// N·R.
    pub samples: usize,
    /// `1 − Σ m_i / mean_r Σ_i t(i, r)`: how disturbed the box was.
    pub noise_share: f64,
}

/// Reduce `rounds` to the estimate. `clients` is the closed-loop client
/// count `C`. `per_op_cpu` selects the `cpu_s` cell: the op
/// (`Σ_i min_r c(i, r)`) where ops run one at a time, the whole round
/// (`min_r C_r`) where they overlap.
pub fn estimate(rounds: &[Round], clients: usize, per_op_cpu: bool) -> Estimate {
    let wall: Vec<Vec<u64>> = rounds
        .iter()
        .map(|r| r.ops.iter().map(|o| o.wall_ns).collect())
        .collect();
    let floor_ns = per_op_min(&wall);
    let floor_sum: u64 = floor_ns.iter().sum();
    let cpu_ns = if per_op_cpu {
        let cpu: Vec<Vec<u64>> = rounds
            .iter()
            .map(|r| r.ops.iter().map(|o| o.cpu_ns).collect())
            .collect();
        per_op_min(&cpu).iter().sum()
    } else {
        rounds.iter().map(|r| r.cpu_ns).min().unwrap_or(0)
    };
    let all: Vec<u64> = wall.iter().flatten().copied().collect();
    let mean_round =
        wall.iter().map(|r| r.iter().sum::<u64>()).sum::<u64>() as f64 / wall.len().max(1) as f64;
    Estimate {
        rounds: rounds.len(),
        ops_per_s: (clients * floor_ns.len()) as f64 / (floor_sum as f64 / 1e9),
        op_ms_p50: nearest_rank(&floor_ns, 50.0) as f64 / 1e6,
        op_ms_p95: nearest_rank(&floor_ns, 95.0) as f64 / 1e6,
        cpu_s: cpu_ns as f64 / 1e9,
        all_p50_ms: nearest_rank(&all, 50.0) as f64 / 1e6,
        all_p99_ms: nearest_rank(&all, 99.0) as f64 / 1e6,
        samples: all.len(),
        noise_share: 1.0 - floor_sum as f64 / mean_round,
        floor_ns,
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used, all threads, ns.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two C longs, the
    // Linux 64-bit layout) that outlives the call; clock_gettime writes
    // only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(wall: &[u64], cpu: &[u64], round_cpu: u64) -> Round {
        Round {
            ops: wall
                .iter()
                .zip(cpu)
                .map(|(&w, &c)| OpRecord {
                    wall_ns: w,
                    cpu_ns: c,
                    ok: true,
                    ..OpRecord::default()
                })
                .collect(),
            cpu_ns: round_cpu,
        }
    }

    #[test]
    fn per_op_min_takes_each_ops_floor_across_rounds() {
        let rounds = vec![vec![5, 9, 7], vec![6, 2, 8], vec![4, 3, 9]];
        assert_eq!(per_op_min(&rounds), vec![4, 2, 7]);
        assert!(per_op_min(&[]).is_empty());
    }

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<u64> = (1..=20).rev().collect();
        assert_eq!(nearest_rank(&v, 50.0), 10);
        assert_eq!(nearest_rank(&v, 95.0), 19);
        assert_eq!(nearest_rank(&v, 100.0), 20);
        assert_eq!(nearest_rank(&v, 0.0), 1);
        assert_eq!(nearest_rank(&[7], 95.0), 7);
        // 5 values: p50 is rank ceil(2.5) = 3.
        assert_eq!(nearest_rank(&[50, 10, 40, 20, 30], 50.0), 30);
    }

    #[test]
    fn estimate_is_a_function_of_the_floors_only() {
        // Round 2 is disturbed on op 0, round 1 on op 1.
        let rounds = vec![
            round(&[1_000_000, 9_000_000], &[900_000, 3_000_000], 5_000_000),
            round(&[8_000_000, 3_000_000], &[1_100_000, 2_500_000], 4_000_000),
        ];
        let e = estimate(&rounds, 1, true);
        assert_eq!(e.floor_ns, vec![1_000_000, 3_000_000]);
        assert!((e.ops_per_s - 500.0).abs() < 1e-9);
        assert_eq!(e.op_ms_p50, 1.0);
        assert_eq!(e.op_ms_p95, 3.0);
        assert_eq!(e.samples, 4);
        // Mean round is 10.5 ms against a 4 ms floor.
        assert!((e.noise_share - (1.0 - 4.0 / 10.5)).abs() < 1e-12);
        // Two clients double the throughput, not the latencies.
        assert!((estimate(&rounds, 2, true).ops_per_s - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_cell_is_the_op_when_serial_and_the_round_when_overlapped() {
        let rounds = vec![
            round(&[1, 1], &[900_000, 3_000_000], 5_000_000),
            round(&[1, 1], &[1_100_000, 2_500_000], 4_000_000),
        ];
        assert!((estimate(&rounds, 1, true).cpu_s - 0.0034).abs() < 1e-12);
        assert!((estimate(&rounds, 2, false).cpu_s - 0.004).abs() < 1e-12);
    }

    #[test]
    fn fnv_matches_reference_vectors_and_is_order_sensitive() {
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::new().bytes(b"foobar").finish(), 0x8594_4171_f739_67e8);
        let ab = Fnv::new().u64(1).u64(2).finish();
        let ba = Fnv::new().u64(2).u64(1).finish();
        assert_ne!(ab, ba);
    }

    #[test]
    fn round_digest_changes_when_one_op_changes_or_fails() {
        let mut a = round(&[1, 2], &[1, 2], 0);
        let base = a.digest();
        a.ops[1].digest = 99;
        assert_ne!(a.digest(), base);
        a.ops[1].digest = 0;
        a.ops[1].ok = false;
        assert_ne!(a.digest(), base);
        assert_eq!(a.failed(), 1);
    }

    #[test]
    fn process_cpu_clock_advances_with_work() {
        let c0 = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu_ns() > c0, "cpu clock did not advance ({x})");
        assert!(peak_rss_mb() > 0.0);
    }
}
