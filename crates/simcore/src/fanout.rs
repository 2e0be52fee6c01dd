//! The workspace's one fan-out engine: N scoped workers claim indexed
//! jobs from a [`StealQueue`], and the results come back in index order.
//!
//! Every batch in the workspace — the experiment runner, crowd campaigns
//! (fresh and resumed), the FullSim dataset, the conformance fuzzer and
//! its matrix — is a thin caller of [`fan_out`]. Callers make each job a
//! pure function of its index (order-free seeds), `fan_out` keys every
//! result by that index, and callers fold the returned `Vec` front to
//! back; the output therefore cannot encode which worker ran what, for
//! any worker count and any steal interleaving (DESIGN.md §11).
//!
//! **Threading rule:** a job never runs on the caller's thread.
//! `fan_out` always spawns `workers` scoped threads (clamped to
//! `1..=total`), even for one worker, so a job neither sees nor clobbers
//! the caller's thread-local state (`crate::metrics` counters, an armed
//! watchdog) and behaves the same at every worker count. Workers hand
//! their `(index, result)` pairs back through the join handle; there is
//! no shared result lock to poison. A panicking job unwinds its worker,
//! the remaining workers drain the queue (stealing the dead worker's
//! range), and the first panic is re-raised on the caller once all have
//! joined.
//!
//! [`StealQueue`] hands out the indices `0..total` to a fixed set of
//! workers. Each worker starts with a contiguous chunk; when it drains
//! its chunk it steals the upper half of the largest remaining chunk, so
//! a straggler job does not idle every other worker. Each worker's
//! remaining range lives in one `AtomicU64` packing `(lo, hi)` as two
//! `u32` halves. The owner pops `lo` with a CAS; thieves split
//! `[lo, hi)` at the midpoint with a CAS on the same word, so every
//! index is removed from exactly one range by exactly one successful
//! CAS — processed exactly once, by whichever worker won it.

use std::sync::atomic::{AtomicU64, Ordering};

/// Run `job(state, index)` for every index in `0..total` on `workers`
/// scoped threads and return the results in index order.
///
/// `init` builds one piece of worker-owned state per spawned thread
/// (an arena, a scratch buffer; `|| ()` when there is none) and `job`
/// receives it mutably for every index that worker wins. The worker
/// count is clamped to `1..=total`; zero jobs spawn nothing. See the
/// module docs for the threading and panic rules.
pub fn fan_out<S, T: Send>(
    total: usize,
    workers: usize,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    if total == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, total);
    let queue = StealQueue::new(total as u64, workers);
    let mut slots: Vec<Option<T>> = (0..total).map(|_| None).collect();
    let panic = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (queue, init, job) = (&queue, &init, &job);
                scope.spawn(move || {
                    let mut state = init();
                    let mut done = Vec::new();
                    while let Some(i) = queue.pop(w) {
                        done.push((i as usize, job(&mut state, i as usize)));
                    }
                    done
                })
            })
            .collect();
        let mut panic = None;
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (i, result) in done {
                        slots[i] = Some(result);
                    }
                }
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        panic
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is won by exactly one worker"))
        .collect()
}

/// Pack a half-open index range into one atomic word.
fn pack(lo: u32, hi: u32) -> u64 {
    (u64::from(lo) << 32) | u64::from(hi)
}

/// Unpack `(lo, hi)` from an atomic word.
fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// Work-stealing dispenser of the indices `0..total` across `workers`
/// participants. See the module docs for the protocol.
#[derive(Debug)]
pub struct StealQueue {
    ranges: Vec<AtomicU64>,
}

impl StealQueue {
    /// Split `0..total` contiguously across `workers` ranges (earlier
    /// workers get the earlier indices, remainders spread one each from
    /// the front). `total` must fit in `u32`.
    pub fn new(total: u64, workers: usize) -> StealQueue {
        assert!(workers >= 1, "need at least one worker");
        assert!(
            total <= u64::from(u32::MAX),
            "index range too large for packed (u32, u32) ranges"
        );
        let total = total as u32;
        let w = workers as u32;
        let per = total / w;
        let rem = total % w;
        let mut lo = 0u32;
        let ranges = (0..w)
            .map(|i| {
                let len = per + u32::from(i < rem);
                let r = AtomicU64::new(pack(lo, lo + len));
                lo += len;
                r
            })
            .collect();
        StealQueue { ranges }
    }

    /// Next index for `worker`: its own chunk first, then a steal.
    /// `None` means every published range was empty at scan time — the
    /// worker can exit. (A range a thief has won but not yet republished
    /// is invisible here; the thief itself still processes it, so every
    /// index is handled exactly once regardless.)
    pub fn pop(&self, worker: usize) -> Option<u64> {
        self.pop_own(worker).or_else(|| self.steal(worker))
    }

    /// Pop the lowest remaining index of `worker`'s own range.
    fn pop_own(&self, worker: usize) -> Option<u64> {
        let r = &self.ranges[worker];
        let mut cur = r.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            match r.compare_exchange_weak(
                cur,
                pack(lo + 1, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(u64::from(lo)),
                Err(v) => cur = v,
            }
        }
    }

    /// Steal the upper half of the largest other range, republish it as
    /// `worker`'s own range, and return its first index.
    fn steal(&self, worker: usize) -> Option<u64> {
        loop {
            let mut best: Option<(usize, u32, u32)> = None;
            for (i, r) in self.ranges.iter().enumerate() {
                if i == worker {
                    continue;
                }
                let (lo, hi) = unpack(r.load(Ordering::Acquire));
                if lo < hi && best.is_none_or(|(_, blo, bhi)| hi - lo > bhi - blo) {
                    best = Some((i, lo, hi));
                }
            }
            let (victim, lo, hi) = best?;
            // Upper half for the thief (whole range when only one index
            // remains); the victim keeps the prefix it is popping from.
            let mid = lo + (hi - lo) / 2;
            if self.ranges[victim]
                .compare_exchange(
                    pack(lo, hi),
                    pack(lo, mid),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                // `[mid, hi)` is now exclusively ours: take the first
                // index and publish the rest as our own range. Our slot
                // is empty and nobody steals from empty slots, so a
                // plain store is safe.
                self.ranges[worker].store(pack(mid + 1, hi), Ordering::Release);
                return Some(u64::from(mid));
            }
            // Lost the race (owner popped or another thief split);
            // rescan for a fresh victim.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    #[test]
    fn single_worker_yields_in_order() {
        let q = StealQueue::new(10, 1);
        let got: Vec<u64> = std::iter::from_fn(|| q.pop(0)).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_split_covers_everything() {
        // 7 indices over 3 workers: 3 + 2 + 2, no steals needed.
        let q = StealQueue::new(7, 3);
        let mut all = Vec::new();
        for w in 0..3 {
            while let Some(i) = q.pop(w) {
                all.push(i);
            }
        }
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn idle_worker_steals_from_the_busy_one() {
        // Drain worker 1's chunk, then give it worker 0's remaining work.
        let q = StealQueue::new(8, 2);
        assert_eq!(q.pop(1), Some(4));
        assert_eq!(q.pop(1), Some(5));
        assert_eq!(q.pop(1), Some(6));
        assert_eq!(q.pop(1), Some(7));
        // Own chunk dry: steal the upper half of worker 0's [0, 4).
        assert_eq!(q.pop(1), Some(2));
        assert_eq!(q.pop(1), Some(3));
        // Worker 0 still owns its prefix.
        assert_eq!(q.pop(0), Some(0));
        assert_eq!(q.pop(0), Some(1));
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(1), None);
    }

    #[test]
    fn zero_total_is_immediately_empty() {
        let q = StealQueue::new(0, 4);
        for w in 0..4 {
            assert_eq!(q.pop(w), None);
        }
    }

    #[test]
    fn concurrent_workers_cover_each_index_exactly_once() {
        const TOTAL: u64 = 10_000;
        const WORKERS: usize = 8;
        let q = StealQueue::new(TOTAL, WORKERS);
        let seen = Mutex::new(HashSet::new());
        std::thread::scope(|scope| {
            for w in 0..WORKERS {
                let q = &q;
                let seen = &seen;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    while let Some(i) = q.pop(w) {
                        mine.push(i);
                    }
                    let mut s = seen.lock().unwrap();
                    for i in mine {
                        assert!(s.insert(i), "index {i} dispensed twice");
                    }
                });
            }
        });
        assert_eq!(seen.lock().unwrap().len(), TOTAL as usize);
    }

    #[test]
    fn fan_out_runs_each_index_once_in_order_while_a_straggler_is_robbed() {
        // Job 0 (the head of worker 0's chunk) blocks until every other
        // index has finished, so the rest of worker 0's chunk can only
        // complete by being stolen: the steal path is forced, not hoped
        // for. The deadline turns a broken steal into a failure instead
        // of a hang.
        const TOTAL: usize = 10_000;
        let runs: Vec<AtomicUsize> = (0..TOTAL).map(|_| AtomicUsize::new(0)).collect();
        let finished = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_secs(60);
        let out = fan_out(
            TOTAL,
            8,
            || (),
            |(), i| {
                runs[i].fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    while finished.load(Ordering::SeqCst) < TOTAL - 1 {
                        assert!(Instant::now() < deadline, "straggler's chunk never stolen");
                        std::thread::yield_now();
                    }
                } else {
                    finished.fetch_add(1, Ordering::SeqCst);
                }
                i * 3
            },
        );
        assert_eq!(out, (0..TOTAL).map(|i| i * 3).collect::<Vec<_>>());
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn fan_out_over_a_subset_maps_indices_through_the_callers_list() {
        // The resume seam: a caller with a sparse id list (every shard
        // not ≡ 0 mod 3 is still to run) fans out over the list's dense
        // indices and maps `index → residual[index]` itself. Each
        // residual id comes back exactly once, in list order, and a
        // journaled id is never dispensed.
        let residual: Vec<u64> = (0..50_000).filter(|s| s % 3 != 0).collect();
        for workers in [1, 8] {
            let got = fan_out(residual.len(), workers, || (), |(), i| residual[i]);
            assert_eq!(got, residual);
        }
        let none: Vec<u64> = fan_out(0, 4, || (), |(), _| unreachable!("no jobs to run"));
        assert!(none.is_empty());
    }

    #[test]
    fn worker_state_is_built_once_per_worker_and_reused() {
        // (total, workers) → states built: the clamped worker count.
        for (total, workers, expect_inits) in [(100, 4, 4), (3, 8, 3), (5, 1, 1), (0, 4, 0)] {
            let inits = AtomicUsize::new(0);
            let out = fan_out(
                total,
                workers,
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    0usize
                },
                |jobs_seen, _| {
                    *jobs_seen += 1;
                    *jobs_seen
                },
            );
            assert_eq!(inits.load(Ordering::SeqCst), expect_inits);
            if workers == 1 {
                // One worker, one state, carried from job to job.
                assert_eq!(out, (1..=total).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn jobs_never_run_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = fan_out(4, 1, || (), |(), _| std::thread::current().id());
        assert!(ids.iter().all(|&id| id != caller));
    }

    #[test]
    fn panicking_job_propagates_after_the_rest_have_run() {
        let ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fan_out(
                64,
                4,
                || (),
                |(), i| {
                    if i == 5 {
                        panic!("job five exploded");
                    }
                    ran.fetch_add(1, Ordering::SeqCst);
                },
            )
        }));
        let payload = result.expect_err("the job's panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("job five exploded")
        );
        // The dead worker's unclaimed indices were stolen and run.
        assert_eq!(ran.load(Ordering::SeqCst), 63);
    }
}
