//! The serve loop: read jsonl requests, admit or shed, stream responses,
//! drain cleanly.
//!
//! One reader thread (the caller of [`serve`]) owns the input; the worker
//! pool owns execution. Lock order is strict: the reader takes
//! queue-lock → (stats, sink) inside the admission callback; workers take
//! stats or sink alone and never the queue lock while holding either — so
//! the `accepted` line for a request is always written before any of its
//! result lines, and there is no lock cycle.
//!
//! Drain has three triggers with identical semantics: an explicit
//! `shutdown` request, EOF on the input, or (via [`serve_with_stop`]) an
//! external stop flag — the CLI wires SIGINT/SIGTERM to it. All close
//! the admission queue (already admitted requests keep running, new runs
//! get a typed rejection), then the server waits for the in-flight gauge
//! to hit zero, joins the workers, and emits the final `stats` line.
//!
//! To honour a stop flag that flips while no input arrives, the input is
//! read on a dedicated thread and handed over an mpsc channel; the serve
//! loop polls the flag between `recv_timeout` slices. The reader thread
//! may stay blocked in `read` after a flag-triggered drain (stdin has no
//! portable interruptible read) — it holds nothing the drain needs, and
//! process exit reaps it.

use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use crate::exec::Executor;
use crate::pool::{Pool, Sink};
use crate::proto::{Request, Response, RunKind, ServeStats};
use crate::queue::{AdmissionQueue, Admit};
use mpwifi_simcore::json::JsonObj;

/// Server tunables. Defaults favour the test/chaos rigs; the CLI maps its
/// flags onto this.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Admission queue capacity (requests waiting, not counting in-flight).
    pub queue_capacity: usize,
    /// Retries for requests that don't set `"retries"`.
    pub default_retries: u32,
    /// Allow chaos-only request kinds (worker-bomb).
    pub chaos: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            default_retries: 2,
            chaos: false,
        }
    }
}

/// Salvage a request tag from a line that failed validation, so the client
/// can correlate the `malformed` response. Best-effort: raw garbage has no
/// tag to salvage.
fn salvage_tag(line: &str) -> Option<String> {
    let obj = JsonObj::parse(line).ok()?;
    obj.opt_str("req").ok().flatten().map(String::from)
}

/// How often the serve loop checks the stop flag while idle.
const STOP_POLL: Duration = Duration::from_millis(25);

/// Run the server over `input`/`output` until EOF (or shutdown + EOF), then
/// drain and return the session stats. Generic over the transport: the CLI
/// passes buffered stdin/stdout, tests pass in-memory channels.
pub fn serve<R: BufRead + Send + 'static>(
    cfg: &ServeConfig,
    exec: Arc<dyn Executor + Send + Sync>,
    input: R,
    output: Box<dyn Write + Send>,
) -> ServeStats {
    serve_with_stop(cfg, exec, input, output, &AtomicBool::new(false))
}

/// [`serve`] with an external stop flag: when `stop` becomes true (e.g.
/// from a SIGTERM/SIGINT handler — see [`crate::signal`]), the server
/// stops reading input, closes admission, finishes everything already
/// admitted, emits the `stats` line, and returns — the graceful-drain
/// path, identical to a `shutdown` request plus EOF.
pub fn serve_with_stop<R: BufRead + Send + 'static>(
    cfg: &ServeConfig,
    exec: Arc<dyn Executor + Send + Sync>,
    input: R,
    output: Box<dyn Write + Send>,
    stop: &AtomicBool,
) -> ServeStats {
    let sink = Arc::new(Sink::new(output));
    let stats = Arc::new(Mutex::new(ServeStats::default()));
    let queue = Arc::new(AdmissionQueue::new(cfg.queue_capacity));
    let pool_exec = Arc::clone(&exec);
    let pool = Pool::start(
        cfg.workers,
        Arc::clone(&queue),
        exec,
        Arc::clone(&sink),
        Arc::clone(&stats),
    );

    // Input on its own thread, so the loop below can notice `stop`
    // between lines instead of blocking forever in `read`.
    let (line_tx, line_rx) = mpsc::channel::<String>();
    let _reader = std::thread::Builder::new()
        .name("serve-reader".into())
        .spawn(move || {
            for line in input.lines() {
                let Ok(line) = line else { break };
                if line_tx.send(line).is_err() {
                    break;
                }
            }
            // Dropping the sender signals EOF to the serve loop.
        });

    let mut draining = false;
    loop {
        if stop.load(Ordering::SeqCst) {
            if !draining {
                sink.emit(&Response::Draining);
            }
            break;
        }
        let line = match line_rx.recv_timeout(STOP_POLL) {
            Ok(line) => line,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break, // EOF
        };
        if line.trim().is_empty() {
            continue;
        }
        match Request::parse(&line, cfg.default_retries) {
            Err(error) => {
                stats.lock().expect("stats poisoned").malformed += 1;
                sink.emit(&Response::Malformed {
                    req: salvage_tag(&line),
                    error,
                });
            }
            Ok(Request::Ping) => sink.emit(&Response::Pong),
            Ok(Request::Shutdown) => {
                if !draining {
                    draining = true;
                    queue.close();
                    sink.emit(&Response::Draining);
                }
            }
            Ok(Request::Run(run)) => {
                if matches!(run.kind, RunKind::WorkerBomb) && !cfg.chaos {
                    stats.lock().expect("stats poisoned").malformed += 1;
                    sink.emit(&Response::Malformed {
                        req: Some(run.req),
                        error: "worker-bomb requests need a chaos-mode server".into(),
                    });
                    continue;
                }
                if let Err(error) = pool_exec.validate(&run) {
                    stats.lock().expect("stats poisoned").malformed += 1;
                    sink.emit(&Response::Malformed {
                        req: Some(run.req),
                        error,
                    });
                    continue;
                }
                let tag = run.req.clone();
                let admit = queue.try_admit_with(run, |depth| {
                    // Under the queue lock: the `accepted` line is on the
                    // wire before any worker can pop this request.
                    pool.pending().inc();
                    stats.lock().expect("stats poisoned").admitted += 1;
                    sink.emit(&Response::Accepted {
                        req: tag.clone(),
                        depth,
                    });
                });
                match admit {
                    Admit::Admitted { .. } => {}
                    Admit::Shed { depth, capacity } => {
                        stats.lock().expect("stats poisoned").shed += 1;
                        sink.emit(&Response::Shed {
                            req: tag,
                            depth,
                            capacity,
                        });
                    }
                    Admit::Draining => {
                        stats.lock().expect("stats poisoned").rejected_draining += 1;
                        sink.emit(&Response::Rejected { req: tag });
                    }
                }
            }
        }
    }

    // Drain: no new admissions, finish everything admitted, then report.
    queue.close();
    pool.wait_idle();
    pool.join();
    let final_stats = *stats.lock().expect("stats poisoned");
    sink.emit(&Response::Stats { stats: final_stats });
    final_stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{RequestStatus, RunRequest};
    use std::io::Read;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Condvar;

    /// `Read` over an mpsc channel of lines: the test drip-feeds input so
    /// queue states (full, draining) are reached deterministically.
    struct ChanReader {
        rx: Receiver<String>,
        buf: Vec<u8>,
        pos: usize,
    }

    impl ChanReader {
        fn pair() -> (Sender<String>, ChanReader) {
            let (tx, rx) = channel();
            (
                tx,
                ChanReader {
                    rx,
                    buf: Vec::new(),
                    pos: 0,
                },
            )
        }
    }

    impl Read for ChanReader {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.pos == self.buf.len() {
                match self.rx.recv() {
                    Ok(line) => {
                        self.buf = line.into_bytes();
                        self.buf.push(b'\n');
                        self.pos = 0;
                    }
                    Err(_) => return Ok(0), // sender dropped = EOF
                }
            }
            let n = out.len().min(self.buf.len() - self.pos);
            out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

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
        fn lines(&self) -> Vec<Response> {
            let bytes = self.0.lock().expect("buf poisoned").clone();
            String::from_utf8(bytes)
                .expect("not utf8")
                .lines()
                .map(|l| Response::parse(l).expect("bad response line"))
                .collect()
        }

        fn wait_for(&self, pred: impl Fn(&[Response]) -> bool) {
            for _ in 0..2000 {
                if pred(&self.lines()) {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            panic!("timed out waiting for response condition");
        }
    }

    /// Executor whose requests block on a shared gate until the test opens
    /// it — lets tests hold a request in-flight to fill the queue behind it.
    struct GatedExec {
        gate: Mutex<bool>,
        opened: Condvar,
        started: AtomicBool,
    }

    impl GatedExec {
        fn new() -> GatedExec {
            GatedExec {
                gate: Mutex::new(false),
                opened: Condvar::new(),
                started: AtomicBool::new(false),
            }
        }

        fn open(&self) {
            *self.gate.lock().expect("gate poisoned") = true;
            self.opened.notify_all();
        }

        fn wait_started(&self) {
            for _ in 0..2000 {
                if self.started.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            panic!("executor never started");
        }
    }

    impl Executor for GatedExec {
        fn execute(
            &self,
            req: &RunRequest,
            _attempt: u32,
            _emit: &(dyn Fn(Response) + Sync),
        ) -> RequestStatus {
            if req.req.starts_with("slow") {
                self.started.store(true, Ordering::SeqCst);
                let mut open = self.gate.lock().expect("gate poisoned");
                while !*open {
                    open = self.opened.wait(open).expect("gate poisoned");
                }
            }
            RequestStatus::Completed { claims_hold: true }
        }

        fn validate(&self, req: &RunRequest) -> Result<(), String> {
            if req.req == "unknown" {
                return Err("unknown experiment: nope".into());
            }
            Ok(())
        }
    }

    fn run_line(tag: &str) -> String {
        format!("{{\"type\": \"run\", \"req\": \"{tag}\", \"id\": \"mock\"}}")
    }

    struct Harness {
        tx: Sender<String>,
        buf: SharedBuf,
        exec: Arc<GatedExec>,
        handle: std::thread::JoinHandle<ServeStats>,
    }

    fn start(cfg: ServeConfig) -> Harness {
        let (tx, reader) = ChanReader::pair();
        let buf = SharedBuf::default();
        let exec = Arc::new(GatedExec::new());
        let handle = {
            let buf = buf.clone();
            let exec = Arc::clone(&exec);
            std::thread::spawn(move || {
                serve(&cfg, exec, std::io::BufReader::new(reader), Box::new(buf))
            })
        };
        Harness {
            tx,
            buf,
            exec,
            handle,
        }
    }

    #[test]
    fn ping_answers_and_eof_drains_with_stats() {
        let h = start(ServeConfig::default());
        h.tx.send("{\"type\": \"ping\"}".into()).expect("send");
        h.tx.send(run_line("r1")).expect("send");
        drop(h.tx);
        let stats = h.handle.join().expect("server panicked");
        let lines = h.buf.lines();
        assert!(matches!(lines[0], Response::Pong));
        assert!(matches!(lines.last(), Some(Response::Stats { .. })));
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.completed, 1);
        // `accepted` precedes `done` for the same request.
        let acc = lines
            .iter()
            .position(|r| matches!(r, Response::Accepted { req, .. } if req == "r1"))
            .expect("no accepted");
        let done = lines
            .iter()
            .position(|r| matches!(r, Response::Done { req, .. } if req == "r1"))
            .expect("no done");
        assert!(acc < done);
    }

    #[test]
    fn rendered_request_with_a_derived_seed_is_admitted() {
        // Retry and `--derive-seeds` seeds are splitmix64 outputs, nearly
        // all above 2^53: the line the load client renders for one must
        // be a valid request, not a `malformed` refusal.
        let h = start(ServeConfig::default());
        let line = Request::Run(RunRequest {
            req: "replay".into(),
            kind: RunKind::Experiment {
                id: "mock".into(),
                full: false,
            },
            seed: mpwifi_simcore::derive_seed(42, "fig9#retry1"),
            retries: 0,
            max_events: None,
            wall_ms: None,
            stall_ttl_s: None,
        })
        .render();
        h.tx.send(line).expect("send");
        drop(h.tx);
        let stats = h.handle.join().expect("server panicked");
        assert_eq!((stats.admitted, stats.malformed), (1, 0));
        assert!(h.buf.lines().iter().any(|r| matches!(
            r,
            Response::Done { req, status: RequestStatus::Completed { .. }, .. } if req == "replay"
        )));
    }

    #[test]
    fn full_queue_sheds_with_typed_response() {
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        };
        let h = start(cfg);
        // First request occupies the single worker (blocked on the gate)...
        h.tx.send(run_line("slow-1")).expect("send");
        h.exec.wait_started();
        // ...second fills the queue, third must shed.
        h.tx.send(run_line("fits")).expect("send");
        h.buf.wait_for(|r| {
            r.iter()
                .any(|x| matches!(x, Response::Accepted { req, .. } if req == "fits"))
        });
        h.tx.send(run_line("dropped")).expect("send");
        h.buf
            .wait_for(|r| r.iter().any(|x| matches!(x, Response::Shed { .. })));
        let lines = h.buf.lines();
        match lines
            .iter()
            .find(|r| matches!(r, Response::Shed { .. }))
            .expect("no shed")
        {
            Response::Shed {
                req,
                depth,
                capacity,
            } => {
                assert_eq!(req, "dropped");
                assert_eq!((*depth, *capacity), (1, 1));
            }
            _ => unreachable!(),
        }
        h.exec.open();
        drop(h.tx);
        let stats = h.handle.join().expect("server panicked");
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn shutdown_rejects_new_but_finishes_admitted() {
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 4,
            ..ServeConfig::default()
        };
        let h = start(cfg);
        h.tx.send(run_line("slow-keep")).expect("send");
        h.exec.wait_started();
        h.tx.send("{\"type\": \"shutdown\"}".into()).expect("send");
        h.buf
            .wait_for(|r| r.iter().any(|x| matches!(x, Response::Draining)));
        h.tx.send(run_line("late")).expect("send");
        h.buf
            .wait_for(|r| r.iter().any(|x| matches!(x, Response::Rejected { .. })));
        h.exec.open();
        drop(h.tx);
        let stats = h.handle.join().expect("server panicked");
        let lines = h.buf.lines();
        match lines
            .iter()
            .find(|r| matches!(r, Response::Rejected { .. }))
            .expect("no rejected")
        {
            Response::Rejected { req } => assert_eq!(req, "late"),
            _ => unreachable!(),
        }
        // The in-flight request still completed after the drain began.
        assert!(lines.iter().any(
            |r| matches!(r, Response::Done { req, status: RequestStatus::Completed { .. }, .. } if req == "slow-keep")
        ));
        assert_eq!(stats.rejected_draining, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn stop_flag_drains_in_flight_work_then_reports_stats() {
        // The signal path: no shutdown request, no EOF — the flag flips
        // while a request is in flight, and the server must finish it,
        // emit stats, and return.
        let (tx, reader) = ChanReader::pair();
        let buf = SharedBuf::default();
        let exec = Arc::new(GatedExec::new());
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let buf = buf.clone();
            let exec = Arc::clone(&exec);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                serve_with_stop(
                    &ServeConfig::default(),
                    exec,
                    std::io::BufReader::new(reader),
                    Box::new(buf),
                    &stop,
                )
            })
        };
        tx.send(run_line("slow-drain")).expect("send");
        exec.wait_started();
        stop.store(true, Ordering::SeqCst);
        exec.open();
        let stats = handle.join().expect("server panicked");
        // The input was never closed — only the stop flag ended the loop.
        drop(tx);
        let lines = buf.lines();
        assert!(lines.iter().any(|r| matches!(r, Response::Draining)));
        assert!(lines.iter().any(
            |r| matches!(r, Response::Done { req, status: RequestStatus::Completed { .. }, .. } if req == "slow-drain")
        ));
        assert!(matches!(lines.last(), Some(Response::Stats { .. })));
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn malformed_lines_get_typed_errors_and_salvaged_tags() {
        let h = start(ServeConfig::default());
        h.tx.send("this is not json".into()).expect("send");
        h.tx.send("{\"type\": \"run\", \"req\": \"tagged\", \"kind\": \"nonsense\"}".into())
            .expect("send");
        // Worker-bomb without chaos mode is malformed, not executed.
        h.tx.send("{\"type\": \"run\", \"req\": \"bomb\", \"kind\": \"worker-bomb\"}".into())
            .expect("send");
        // Engine-side validation rejects before admission.
        h.tx.send(run_line("unknown")).expect("send");
        drop(h.tx);
        let stats = h.handle.join().expect("server panicked");
        let lines = h.buf.lines();
        let malformed: Vec<&Response> = lines
            .iter()
            .filter(|r| matches!(r, Response::Malformed { .. }))
            .collect();
        assert_eq!(malformed.len(), 4);
        assert!(matches!(
            malformed[0],
            Response::Malformed { req: None, .. }
        ));
        assert!(
            matches!(malformed[1], Response::Malformed { req: Some(tag), .. } if tag == "tagged")
        );
        assert!(
            matches!(malformed[2], Response::Malformed { req: Some(tag), error } if tag == "bomb" && error.contains("chaos"))
        );
        assert!(
            matches!(malformed[3], Response::Malformed { req: Some(tag), error } if tag == "unknown" && error.contains("unknown experiment"))
        );
        assert_eq!(stats.malformed, 4);
        assert_eq!(stats.admitted, 0);
    }
}
