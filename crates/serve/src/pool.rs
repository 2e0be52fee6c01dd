//! Poison-recovering worker pool: retries with deterministic backoff,
//! quarantines exhausted failures, and replaces crashed workers without
//! dropping queued requests.
//!
//! Each worker loops on the admission queue. A request is executed through
//! the [`Executor`] with the retry policy applied here (the executor runs
//! *one* attempt); every terminal outcome emits exactly one `done` response.
//! If the executor lets a panic escape (a genuine engine bug, or the chaos
//! harness's worker-bomb), the pop loop's `catch_unwind` treats the worker
//! as crashed: the request is reported `worker-lost`, a replacement thread
//! is spawned, and the poisoned thread exits — queued requests are unharmed.

use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::exec::{backoff_ms, Executor};
use crate::proto::{RequestStatus, Response, RunKind, RunRequest, ServeStats};
use crate::queue::AdmissionQueue;

/// Serialized response writer shared by the reader thread and all workers.
/// Every response is one jsonl line, flushed immediately so clients see
/// results stream. Write errors are swallowed: a vanished client must not
/// take the server down with it.
pub struct Sink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl Sink {
    pub fn new(out: Box<dyn Write + Send>) -> Sink {
        Sink {
            out: Mutex::new(out),
        }
    }

    pub fn emit(&self, resp: &Response) {
        let mut out = self.out.lock().expect("sink poisoned");
        let _ = writeln!(out, "{}", resp.render());
        let _ = out.flush();
    }
}

/// Counting gauge with a wait-for-zero condvar. Tracks in-flight requests
/// (drain waits for zero) and live worker threads (join waits for zero).
pub struct Gauge {
    n: Mutex<u64>,
    zero: Condvar,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge {
            n: Mutex::new(0),
            zero: Condvar::new(),
        }
    }

    pub fn inc(&self) {
        *self.n.lock().expect("gauge poisoned") += 1;
    }

    pub fn dec(&self) {
        let mut n = self.n.lock().expect("gauge poisoned");
        *n = n.checked_sub(1).expect("gauge underflow");
        if *n == 0 {
            self.zero.notify_all();
        }
    }

    pub fn get(&self) -> u64 {
        *self.n.lock().expect("gauge poisoned")
    }

    pub fn wait_zero(&self) {
        let mut n = self.n.lock().expect("gauge poisoned");
        while *n != 0 {
            n = self.zero.wait(n).expect("gauge poisoned");
        }
    }
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge::new()
    }
}

struct PoolCtx {
    queue: Arc<AdmissionQueue<RunRequest>>,
    exec: Arc<dyn Executor + Send + Sync>,
    sink: Arc<Sink>,
    stats: Arc<Mutex<ServeStats>>,
    /// Admitted-but-not-done requests. Incremented by the admitter (under
    /// the queue lock), decremented here after the `done` response.
    pending: Gauge,
    /// Live worker threads; zero only after close + all exits.
    live: Gauge,
}

/// Handle to a running worker pool.
pub struct Pool {
    ctx: Arc<PoolCtx>,
}

impl Pool {
    /// Spawn `workers` threads popping from `queue`.
    pub fn start(
        workers: usize,
        queue: Arc<AdmissionQueue<RunRequest>>,
        exec: Arc<dyn Executor + Send + Sync>,
        sink: Arc<Sink>,
        stats: Arc<Mutex<ServeStats>>,
    ) -> Pool {
        assert!(workers > 0, "worker pool needs at least one worker");
        let ctx = Arc::new(PoolCtx {
            queue,
            exec,
            sink,
            stats,
            pending: Gauge::new(),
            live: Gauge::new(),
        });
        for _ in 0..workers {
            spawn_worker(Arc::clone(&ctx));
        }
        Pool { ctx }
    }

    /// In-flight gauge; the admitter must `inc()` it inside the admission
    /// callback so drain can wait for every admitted request to finish.
    pub fn pending(&self) -> &Gauge {
        &self.ctx.pending
    }

    /// Block until every admitted request has emitted its `done`.
    pub fn wait_idle(&self) {
        self.ctx.pending.wait_zero();
    }

    /// Block until all worker threads exit. Only terminates after the
    /// queue has been closed.
    pub fn join(&self) {
        self.ctx.live.wait_zero();
    }
}

fn spawn_worker(ctx: Arc<PoolCtx>) {
    ctx.live.inc();
    let thread_ctx = Arc::clone(&ctx);
    let spawned = std::thread::Builder::new()
        .name("serve-worker".into())
        .spawn(move || {
            let ctx = thread_ctx;
            // Balances the `inc` above even if the thread dies abnormally.
            struct LiveGuard(Arc<PoolCtx>);
            impl Drop for LiveGuard {
                fn drop(&mut self) {
                    self.0.live.dec();
                }
            }
            let guard = LiveGuard(Arc::clone(&ctx));
            worker_main(ctx);
            drop(guard);
        });
    if spawned.is_err() {
        // Could not spawn a replacement; undo the live count so join()
        // still terminates. Remaining workers keep the pool alive.
        ctx.live.dec();
    }
}

/// Can this request be safely re-run after its worker died mid-attempt?
/// Only checkpointed campaigns: their journal makes a rerun *resume*
/// (recovering fsynced shards) instead of recompute, and the resumed
/// result is byte-identical — so requeueing loses nothing and repeats
/// nothing. Everything else is reported lost, as before.
fn is_resumable(req: &RunRequest) -> bool {
    matches!(
        req.kind,
        RunKind::Campaign {
            checkpoint: Some(_),
            ..
        }
    )
}

fn worker_main(ctx: Arc<PoolCtx>) {
    while let Some(req) = ctx.queue.pop() {
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(&ctx, &req)));
        if outcome.is_err() {
            // The executor let a panic escape: this worker is poisoned.
            // Hand our slot to a fresh thread and exit; the queue keeps
            // every other request. The crashed request itself is
            // requeued if it can resume from its checkpoint (and has
            // retry budget left), otherwise reported lost.
            {
                let mut stats = ctx.stats.lock().expect("stats poisoned");
                stats.workers_replaced += 1;
            }
            if is_resumable(&req) && req.retries > 0 {
                let mut again = req.clone();
                again.retries -= 1;
                {
                    let mut stats = ctx.stats.lock().expect("stats poisoned");
                    stats.retried += 1;
                }
                ctx.sink.emit(&Response::Retry {
                    req: req.req.clone(),
                    attempt: 1,
                    backoff_ms: 0,
                    cause: "worker-lost",
                });
                // Still pending: the in-flight gauge keeps counting this
                // request until its requeued incarnation emits `done`.
                ctx.queue.requeue(again);
            } else {
                ctx.stats.lock().expect("stats poisoned").quarantined += 1;
                ctx.sink.emit(&Response::Done {
                    req: req.req.clone(),
                    status: RequestStatus::WorkerLost,
                    attempts: 1,
                    flaky: false,
                });
                ctx.pending.dec();
            }
            spawn_worker(Arc::clone(&ctx));
            return;
        }
        ctx.pending.dec();
    }
}

/// Run one request to a terminal status: attempt, retry failed attempts with
/// deterministic jittered backoff until `req.retries` is exhausted, then emit
/// the single `done` response and account it in the session stats.
fn run_job(ctx: &PoolCtx, req: &RunRequest) {
    let sink = Arc::clone(&ctx.sink);
    let emit = move |resp: Response| sink.emit(&resp);
    let mut attempt: u32 = 0;
    loop {
        let status = ctx.exec.execute(req, attempt, &emit);
        if status.is_run_failure() && attempt < req.retries {
            attempt += 1;
            let wait = backoff_ms(req.seed, attempt);
            {
                let mut stats = ctx.stats.lock().expect("stats poisoned");
                stats.retried += 1;
            }
            ctx.sink.emit(&Response::Retry {
                req: req.req.clone(),
                attempt,
                backoff_ms: wait,
                cause: status.label(),
            });
            std::thread::sleep(Duration::from_millis(wait));
            continue;
        }
        let attempts = attempt + 1;
        let flaky = !status.is_run_failure() && attempt > 0;
        {
            let mut stats = ctx.stats.lock().expect("stats poisoned");
            if status.is_run_failure() {
                stats.quarantined += 1;
            } else if matches!(status, RequestStatus::Malformed { .. }) {
                // Engine-detected invalidity that slipped past pre-admission
                // validation; accounted as malformed, not completed.
                stats.malformed += 1;
            } else {
                stats.completed += 1;
            }
            if flaky {
                stats.flaky += 1;
            }
        }
        ctx.sink.emit(&Response::Done {
            req: req.req.clone(),
            status,
            attempts,
            flaky,
        });
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::RunKind;
    use crate::queue::Admit;
    use mpwifi_simcore::RunFailure;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Shared byte buffer usable as a `Sink` target while the test keeps a
    /// handle to read it back.
    #[derive(Clone, Default)]
    pub struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("buf poisoned").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        pub fn lines(&self) -> Vec<Response> {
            let bytes = self.0.lock().expect("buf poisoned").clone();
            String::from_utf8(bytes)
                .expect("sink output not utf8")
                .lines()
                .map(|l| Response::parse(l).expect("unparseable response line"))
                .collect()
        }
    }

    /// Mock executor scripted per request tag:
    /// - `"boom"` panics (escapes — simulates a worker crash),
    /// - `"resume-bomb"` panics the first time it is ever executed,
    ///   completes thereafter (a crash mid-campaign, then a resume),
    /// - `"flaky"` fails with `panicked` until attempt `FLAKY_OK_AT`,
    /// - `"doomed"` always fails with `stalled`,
    /// - anything else emits one section and completes.
    struct MockExec {
        calls: AtomicU32,
        bombed: AtomicU32,
    }

    const FLAKY_OK_AT: u32 = 2;

    impl Executor for MockExec {
        fn execute(
            &self,
            req: &RunRequest,
            attempt: u32,
            emit: &(dyn Fn(Response) + Sync),
        ) -> RequestStatus {
            self.calls.fetch_add(1, Ordering::SeqCst);
            match req.req.as_str() {
                "boom" => panic!("worker bomb"),
                "resume-bomb" if self.bombed.fetch_add(1, Ordering::SeqCst) == 0 => {
                    panic!("worker bomb mid-campaign")
                }
                "flaky" if attempt < FLAKY_OK_AT => RequestStatus::Failed(RunFailure::Panicked {
                    message: format!("flaky attempt {attempt}"),
                }),
                "doomed" => RequestStatus::Failed(RunFailure::Stalled {
                    forensics: "no progress".into(),
                }),
                _ => {
                    emit(Response::Section {
                        req: req.req.clone(),
                        text: format!("report for {}\n", req.req),
                    });
                    RequestStatus::Completed { claims_hold: true }
                }
            }
        }
    }

    fn request(tag: &str, retries: u32) -> RunRequest {
        RunRequest {
            req: tag.into(),
            kind: RunKind::Experiment {
                id: "mock".into(),
                full: false,
            },
            seed: 42,
            retries,
            max_events: None,
            wall_ms: None,
            stall_ttl_s: None,
        }
    }

    struct Rig {
        queue: Arc<AdmissionQueue<RunRequest>>,
        stats: Arc<Mutex<ServeStats>>,
        buf: SharedBuf,
        pool: Pool,
    }

    fn rig(workers: usize) -> Rig {
        let queue = Arc::new(AdmissionQueue::new(16));
        let stats = Arc::new(Mutex::new(ServeStats::default()));
        let buf = SharedBuf::default();
        let sink = Arc::new(Sink::new(Box::new(buf.clone())));
        let pool = Pool::start(
            workers,
            Arc::clone(&queue),
            Arc::new(MockExec {
                calls: AtomicU32::new(0),
                bombed: AtomicU32::new(0),
            }),
            sink,
            Arc::clone(&stats),
        );
        Rig {
            queue,
            stats,
            buf,
            pool,
        }
    }

    impl Rig {
        fn submit(&self, tag: &str, retries: u32) {
            let out = self
                .queue
                .try_admit_with(request(tag, retries), |_| self.pool.pending().inc());
            assert!(matches!(out, Admit::Admitted { .. }), "admission failed");
        }

        fn finish(self) -> (Vec<Response>, ServeStats) {
            self.pool.wait_idle();
            self.queue.close();
            self.pool.join();
            let stats = *self.stats.lock().expect("stats poisoned");
            (self.buf.lines(), stats)
        }
    }

    fn done_for<'r>(lines: &'r [Response], tag: &str) -> &'r Response {
        lines
            .iter()
            .find(|r| matches!(r, Response::Done { req, .. } if req == tag))
            .expect("no done response")
    }

    #[test]
    fn healthy_request_completes_with_section() {
        let rig = rig(2);
        rig.submit("ok", 0);
        let (lines, stats) = rig.finish();
        assert!(lines.iter().any(
            |r| matches!(r, Response::Section { req, text } if req == "ok" && text == "report for ok\n")
        ));
        match done_for(&lines, "ok") {
            Response::Done {
                status: RequestStatus::Completed { claims_hold: true },
                attempts: 1,
                flaky: false,
                ..
            } => {}
            other => panic!("unexpected done: {other:?}"),
        }
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.quarantined, 0);
    }

    #[test]
    fn flaky_request_retries_then_completes() {
        let rig = rig(1);
        rig.submit("flaky", 3);
        let (lines, stats) = rig.finish();
        let retries: Vec<&Response> = lines
            .iter()
            .filter(|r| matches!(r, Response::Retry { .. }))
            .collect();
        assert_eq!(retries.len(), FLAKY_OK_AT as usize);
        // Backoff in the emitted retries matches the deterministic schedule.
        for (i, r) in retries.iter().enumerate() {
            match r {
                Response::Retry {
                    attempt,
                    backoff_ms: ms,
                    cause,
                    ..
                } => {
                    assert_eq!(*attempt, i as u32 + 1);
                    assert_eq!(*ms, backoff_ms(42, i as u32 + 1));
                    assert_eq!(*cause, "panicked");
                }
                _ => unreachable!(),
            }
        }
        match done_for(&lines, "flaky") {
            Response::Done {
                status: RequestStatus::Completed { .. },
                attempts,
                flaky: true,
                ..
            } => assert_eq!(*attempts, FLAKY_OK_AT + 1),
            other => panic!("unexpected done: {other:?}"),
        }
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.retried, FLAKY_OK_AT as u64);
        assert_eq!(stats.flaky, 1);
    }

    #[test]
    fn doomed_request_quarantines_after_retries_exhausted() {
        let rig = rig(1);
        rig.submit("doomed", 2);
        let (lines, stats) = rig.finish();
        match done_for(&lines, "doomed") {
            Response::Done {
                status: RequestStatus::Failed(RunFailure::Stalled { .. }),
                attempts: 3,
                flaky: false,
                ..
            } => {}
            other => panic!("unexpected done: {other:?}"),
        }
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.retried, 2);
        assert_eq!(stats.completed, 0);
    }

    /// A checkpointed (resumable) campaign request.
    fn campaign_request(tag: &str, retries: u32, checkpoint: Option<&str>) -> RunRequest {
        RunRequest {
            req: tag.into(),
            kind: RunKind::Campaign {
                users: 1000,
                jobs: 1,
                full: false,
                checkpoint: checkpoint.map(String::from),
            },
            seed: 42,
            retries,
            max_events: None,
            wall_ms: None,
            stall_ttl_s: None,
        }
    }

    #[test]
    fn crashed_resumable_campaign_is_requeued_not_lost() {
        let rig = rig(1);
        let out = rig.queue.try_admit_with(
            campaign_request("resume-bomb", 1, Some("/tmp/x.journal")),
            |_| rig.pool.pending().inc(),
        );
        assert!(matches!(out, Admit::Admitted { .. }));
        let (lines, stats) = rig.finish();
        // The crash surfaced as a worker-lost retry, then the requeued
        // incarnation completed; nothing was quarantined.
        assert!(lines.iter().any(|r| matches!(
            r,
            Response::Retry { req, cause, .. } if req == "resume-bomb" && *cause == "worker-lost"
        )));
        match done_for(&lines, "resume-bomb") {
            Response::Done {
                status: RequestStatus::Completed { .. },
                ..
            } => {}
            other => panic!("unexpected done: {other:?}"),
        }
        assert_eq!(stats.workers_replaced, 1);
        assert_eq!(stats.retried, 1);
        assert_eq!(stats.quarantined, 0);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn crashed_resumable_campaign_without_retry_budget_is_lost() {
        let rig = rig(1);
        let out = rig.queue.try_admit_with(
            campaign_request("resume-bomb", 0, Some("/tmp/x.journal")),
            |_| rig.pool.pending().inc(),
        );
        assert!(matches!(out, Admit::Admitted { .. }));
        let (lines, stats) = rig.finish();
        match done_for(&lines, "resume-bomb") {
            Response::Done {
                status: RequestStatus::WorkerLost,
                ..
            } => {}
            other => panic!("unexpected done: {other:?}"),
        }
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.workers_replaced, 1);
    }

    #[test]
    fn escaped_panic_replaces_worker_and_keeps_serving() {
        // One worker: if the crashed worker were not replaced, the second
        // request would never run and wait_idle would hang.
        let rig = rig(1);
        rig.submit("boom", 0);
        rig.submit("after", 0);
        let (lines, stats) = rig.finish();
        match done_for(&lines, "boom") {
            Response::Done {
                status: RequestStatus::WorkerLost,
                ..
            } => {}
            other => panic!("unexpected done: {other:?}"),
        }
        match done_for(&lines, "after") {
            Response::Done {
                status: RequestStatus::Completed { .. },
                ..
            } => {}
            other => panic!("unexpected done: {other:?}"),
        }
        assert_eq!(stats.workers_replaced, 1);
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.completed, 1);
    }
}
