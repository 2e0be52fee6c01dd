//! Chaos load client for `repro serve` — the proof harness behind
//! `scripts/check.sh --full`.
//!
//! Spawns a chaos-mode server and hammers it with a deterministic mixed
//! stream of requests: healthy experiments and campaigns, malformed
//! lines, planted panics, planted stalls, planted-flaky retry bait, and
//! worker bombs. Then it provokes admission-queue shedding with a burst
//! of slow campaigns, drains with `shutdown`, and asserts:
//!
//! - the server never dies: every admitted request gets exactly one
//!   `done`, the final `stats` line arrives, and the process exits 0;
//! - quarantine hits exactly the planted failures (panics → `panicked`,
//!   stalls → `stalled`, bombs → `worker-lost`) and nothing else;
//! - worker bombs are survived by pool replacement (`workers_replaced`);
//! - the full queue sheds with a typed response carrying depth=capacity;
//! - post-`shutdown` runs get typed `rejected` responses and the drain
//!   still finishes every in-flight request;
//! - healthy `section` responses are byte-identical to the same run via
//!   the one-shot CLI.
//!
//! Exit code 0 on success, 1 with a failure list otherwise.

mod harness;

use harness::{cli_section, fail_usage, repro_path, run_cli, Checker};
use mpwifi_serve::proto::{Request, Response, RunKind, RunRequest};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything the reader thread has seen so far, indexed for assertions.
#[derive(Default)]
struct Log {
    all: Vec<Response>,
    /// Terminal `done` status label per request tag.
    done: BTreeMap<String, (String, u32, bool)>,
    accepted: u64,
    shed: Vec<(String, usize, usize)>,
    rejected: Vec<String>,
    malformed: u64,
    retries: u64,
    progress: u64,
    sections: BTreeMap<String, String>,
    stats: Option<mpwifi_serve::proto::ServeStats>,
}

impl Log {
    fn ingest(&mut self, resp: Response) {
        match &resp {
            Response::Accepted { .. } => self.accepted += 1,
            Response::Shed {
                req,
                depth,
                capacity,
            } => self.shed.push((req.clone(), *depth, *capacity)),
            Response::Rejected { req } => self.rejected.push(req.clone()),
            Response::Malformed { .. } => self.malformed += 1,
            Response::Retry { .. } => self.retries += 1,
            Response::Progress { .. } => self.progress += 1,
            Response::Section { req, text } => {
                self.sections.insert(req.clone(), text.clone());
            }
            Response::Done {
                req,
                status,
                attempts,
                flaky,
            } => {
                self.done
                    .insert(req.clone(), (status.label().to_string(), *attempts, *flaky));
            }
            Response::Stats { stats } => self.stats = Some(*stats),
            _ => {}
        }
        self.all.push(resp);
    }

    fn outstanding(&self) -> u64 {
        self.accepted - self.done.len() as u64
    }
}

struct Server {
    child: Child,
    stdin: std::process::ChildStdin,
    log: Arc<Mutex<Log>>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    fn spawn(repro: &str, workers: u32, queue: u32) -> Server {
        let mut child = Command::new(repro)
            .args([
                "serve",
                "--jobs",
                &workers.to_string(),
                "--queue",
                &queue.to_string(),
                "--chaos",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| fail_usage(&format!("spawn server: {e}")));
        let stdin = child.stdin.take().expect("child stdin");
        let stdout = child.stdout.take().expect("child stdout");
        let log = Arc::new(Mutex::new(Log::default()));
        let reader = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    let Ok(line) = line else { break };
                    if line.trim().is_empty() {
                        continue;
                    }
                    let resp = Response::parse(&line)
                        .unwrap_or_else(|e| panic!("unparseable server line ({e}): {line}"));
                    log.lock().expect("log poisoned").ingest(resp);
                }
            })
        };
        Server {
            child,
            stdin,
            log,
            reader: Some(reader),
        }
    }

    fn send_raw(&mut self, line: &str) {
        writeln!(self.stdin, "{line}").expect("server stdin closed early");
    }

    fn send(&mut self, req: &Request) {
        self.send_raw(&req.render());
    }

    /// Poll the log until `pred` holds (10 s budget — generous; healthy
    /// responses arrive in milliseconds).
    fn wait_for(&self, what: &str, pred: impl Fn(&Log) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if pred(&self.log.lock().expect("log poisoned")) {
                return;
            }
            if Instant::now() > deadline {
                panic!("timed out waiting for {what}");
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Close stdin (EOF → drain), join the reader, reap the child.
    fn finish(mut self) -> (Log, i32) {
        drop(self.stdin);
        if let Some(r) = self.reader.take() {
            r.join().expect("reader thread panicked");
        }
        let status = self.child.wait().expect("wait on server");
        let log = Arc::try_unwrap(self.log)
            .unwrap_or_else(|_| panic!("log still shared"))
            .into_inner()
            .expect("log poisoned");
        (log, status.code().unwrap_or(-1))
    }
}

fn run(tag: &str, kind: RunKind, seed: u64) -> Request {
    run_with(tag, kind, seed, 0, None)
}

fn run_with(
    tag: &str,
    kind: RunKind,
    seed: u64,
    retries: u32,
    stall_ttl_s: Option<u64>,
) -> Request {
    Request::Run(RunRequest {
        req: tag.to_string(),
        kind,
        seed,
        retries,
        max_events: None,
        wall_ms: None,
        stall_ttl_s,
    })
}

fn experiment(id: &str) -> RunKind {
    RunKind::Experiment {
        id: id.to_string(),
        full: false,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let repro = repro_path(&args);
    let mut c = Checker::default();

    // ---- Reference captures: the same runs through the one-shot CLI.
    println!("chaos_load: capturing one-shot CLI references");
    let (cli_t2, _, cli_t2_code) = run_cli(&repro, &["table2", "--seed", "5"]);
    let cli_t2_section = cli_section(&cli_t2, "\n(table2 finished in ");
    let (cli_flaky, _, _) = run_cli(&repro, &["planted-flaky", "--seed", "7"]);
    let cli_flaky_section = cli_section(&cli_flaky, "\n(planted-flaky finished in ");
    let (cli_camp, _, cli_camp_code) = run_cli(
        &repro,
        &["campaign", "--users", "5000", "--seed", "9", "--jobs", "2"],
    );
    let cli_camp_section = cli_section(&cli_camp, "\n(campaign of 5000 users finished in ");

    // ---- Main mixed load.
    const WORKERS: u32 = 3;
    const QUEUE: u32 = 4;
    let mut srv = Server::spawn(&repro, WORKERS, QUEUE);
    println!("chaos_load: server up (workers={WORKERS}, queue={QUEUE}, chaos on)");

    let mut sent = 0u64;
    let mut expect_completed: Vec<String> = Vec::new();
    let mut expect_panicked: Vec<String> = Vec::new();
    let mut expect_stalled: Vec<String> = Vec::new();
    let mut expect_lost: Vec<String> = Vec::new();
    let mut expect_flaky: Vec<String> = Vec::new();
    let mut expect_malformed = 0u64;

    srv.send(&Request::Ping);

    // Windowed sends during the main stream: keep fewer runs in flight
    // than workers + queue so nothing in this phase gets shed — shedding
    // is provoked deliberately (and asserted) in the next phase. Every
    // admitted run ends in exactly one `done`, so sent-minus-done is the
    // in-flight count.
    const WINDOW: u64 = 4;
    let mut runs_sent = 0u64;
    let mut windowed = |srv: &mut Server, req: &Request| {
        let before = runs_sent;
        srv.wait_for("send window to open", move |log| {
            before - (log.done.len() as u64) < WINDOW
        });
        srv.send(req);
        runs_sent += 1;
    };

    // Byte-identity probes first (also healthy load).
    windowed(&mut srv, &run("bi-table2", experiment("table2"), 5));
    expect_completed.push("bi-table2".into());
    windowed(&mut srv, &run("bi-flaky", experiment("planted-flaky"), 7));
    expect_completed.push("bi-flaky".into());
    windowed(
        &mut srv,
        &run(
            "bi-campaign",
            RunKind::Campaign {
                users: 5000,
                jobs: 2,
                full: false,
                checkpoint: None,
            },
            9,
        ),
    );
    expect_completed.push("bi-campaign".into());
    sent += 3;

    // The deterministic mixed stream. planted-flaky at seed != 42 is a
    // cheap healthy run; every 7th slot plants a failure or garbage.
    let malformed_lines = [
        "complete garbage, not even json",
        "{\"type\": \"frobnicate\"}",
        "{\"type\": \"run\", \"req\": \"bad-kind\", \"kind\": \"nonsense\"}",
        "{\"type\": \"run\", \"req\": \"bad-seed\", \"seed\": -5}",
        "{\"type\": \"run\", \"req\": \"bad-id\", \"id\": \"definitely-not-real\"}",
        "{\"type\": \"run\", \"req\": \"bad-retries\", \"id\": \"fig9\", \"retries\": 4294967296}",
        "{\"type\": \"run\", \"req\": \"bad-users\", \"kind\": \"campaign\", \"users\": 0}",
        "{\"type\": \"run\", \"req\": \"bad-jobs\", \"kind\": \"campaign\", \"jobs\": 500}",
    ];
    for i in 0..100u64 {
        match i % 7 {
            1 => {
                let tag = format!("panic-{i}");
                windowed(&mut srv, &run(&tag, experiment("planted-panic"), i));
                expect_panicked.push(tag);
            }
            3 => {
                // Malformed lines are refused before admission — no
                // `done` ever comes, so they stay outside the window.
                let line = malformed_lines[(i as usize / 7) % malformed_lines.len()];
                srv.send_raw(line);
                expect_malformed += 1;
            }
            5 if i % 21 == 5 => {
                // Five worker bombs spread across the stream.
                let tag = format!("bomb-{i}");
                windowed(&mut srv, &run(&tag, RunKind::WorkerBomb, i));
                expect_lost.push(tag);
            }
            5 => {
                // Flaky retry bait: seed 42 dies, the retry's derived
                // seed completes.
                let tag = format!("flaky-{i}");
                windowed(
                    &mut srv,
                    &run_with(&tag, experiment("planted-flaky"), 42, 1, None),
                );
                expect_flaky.push(tag.clone());
                expect_completed.push(tag);
            }
            _ => {
                let tag = format!("ok-{i}");
                windowed(&mut srv, &run(&tag, experiment("planted-flaky"), 1000 + i));
                expect_completed.push(tag);
            }
        }
        sent += 1;
    }

    // Two planted stalls with a short sim-time TTL so the watchdog
    // kills them quickly.
    for i in 0..2u64 {
        let tag = format!("stall-{i}");
        windowed(
            &mut srv,
            &run_with(&tag, experiment("planted-stall"), i, 0, Some(5)),
        );
        expect_stalled.push(tag);
        sent += 1;
    }

    // Let the main stream finish before provoking the queue: shedding
    // needs a full queue, which needs slow work, not a busy stream.
    let want_done =
        expect_completed.len() + expect_panicked.len() + expect_stalled.len() + expect_lost.len();
    srv.wait_for("main stream to settle", |log| {
        log.done.len() >= want_done && log.malformed >= expect_malformed
    });
    println!("chaos_load: main stream settled ({sent} requests sent)");

    // ---- Shed phase: saturate the pool with slow campaigns, then probe
    // until a typed shed response appears. outstanding >= workers+queue
    // means the queue is full whenever no worker finished in between.
    // ~1s of work per request with one campaign thread: long enough to
    // hold the queue full while the probe round-trips, short enough
    // that the final drain stays a smoke test.
    let slow_kind = || RunKind::Campaign {
        users: 1_000_000,
        jobs: 1,
        full: false,
        checkpoint: None,
    };
    let mut slow_n = 0u64;
    let base_outstanding = {
        let log = srv.log.lock().expect("log poisoned");
        log.outstanding()
    };
    assert_eq!(
        base_outstanding, 0,
        "stream settled with requests in flight"
    );
    let mut shed_seen = false;
    // Fill workers + queue one at a time, waiting for each admission ack
    // before sending the next (a burst could out-race the worker pops
    // and shed one of the fillers themselves — which would also be a
    // valid typed shed, so count it if it happens).
    for _ in 0..(WORKERS + QUEUE) as u64 {
        let tag = format!("slow-{slow_n}");
        slow_n += 1;
        srv.send(&run(&tag, slow_kind(), slow_n));
        sent += 1;
        let t = tag.clone();
        srv.wait_for("slow filler ack", move |log| {
            log.shed.iter().any(|(x, _, _)| x == &t)
                || log
                    .all
                    .iter()
                    .any(|r| matches!(r, Response::Accepted { req, .. } if req == &tag))
        });
        let t2 = format!("slow-{}", slow_n - 1);
        let log = srv.log.lock().expect("log poisoned");
        if log.shed.iter().any(|(x, _, _)| x == &t2) {
            shed_seen = true;
        } else {
            drop(log);
            expect_completed.push(t2);
        }
    }
    for probe in 0..20u64 {
        if shed_seen {
            break;
        }
        srv.wait_for("slow burst admitted", |log| {
            log.outstanding() >= (WORKERS + QUEUE) as u64 || !log.shed.is_empty()
        });
        let tag = format!("probe-{probe}");
        srv.send(&run(&tag, experiment("planted-flaky"), 2000 + probe));
        sent += 1;
        let t = tag.clone();
        srv.wait_for("probe outcome", move |log| {
            log.shed.iter().any(|(x, _, _)| x == &t)
                || log
                    .all
                    .iter()
                    .any(|r| matches!(r, Response::Accepted { req, .. } if req == &tag))
        });
        let tag = format!("probe-{probe}");
        let log = srv.log.lock().expect("log poisoned");
        if log.shed.iter().any(|(x, _, _)| x == &tag) {
            shed_seen = true;
            break;
        }
        // The probe slipped in because a worker finished: it will
        // complete; top the pool back up and try again.
        drop(log);
        expect_completed.push(tag);
        let refill = format!("slow-{slow_n}");
        slow_n += 1;
        srv.send(&run(&refill, slow_kind(), slow_n));
        expect_completed.push(refill);
        sent += 1;
    }
    c.check(
        shed_seen,
        "full admission queue sheds with a typed response",
    );

    // ---- Drain: shutdown, then late requests must be rejected.
    srv.send(&Request::Shutdown);
    srv.wait_for("draining ack", |log| {
        log.all.iter().any(|r| matches!(r, Response::Draining))
    });
    for i in 0..3u64 {
        srv.send(&run(&format!("late-{i}"), experiment("planted-flaky"), i));
        sent += 1;
    }
    srv.wait_for("late rejections", |log| log.rejected.len() >= 3);

    // EOF; the server finishes every admitted request and exits.
    let (log, exit_code) = srv.finish();
    println!("chaos_load: server drained and exited ({sent} requests sent)");

    // ---- Assertions.
    c.check(sent >= 100, "load was at least 100 mixed requests");
    c.check(exit_code == 0, "server exited 0 after drain");
    c.check(
        log.all.iter().any(|r| matches!(r, Response::Pong)),
        "ping answered",
    );
    let done_of = |tags: &[String], want: &str| -> bool {
        tags.iter().all(|t| {
            log.done
                .get(t)
                .map(|(label, _, _)| label == want)
                .unwrap_or(false)
        })
    };
    c.check(
        done_of(&expect_completed, "completed"),
        "every healthy request completed",
    );
    c.check(
        done_of(&expect_panicked, "panicked"),
        "planted panics quarantined as panicked",
    );
    c.check(
        done_of(&expect_stalled, "stalled"),
        "planted stalls quarantined as stalled",
    );
    c.check(
        done_of(&expect_lost, "worker-lost"),
        "worker bombs reported worker-lost",
    );
    c.check(
        expect_flaky.iter().all(|t| {
            log.done
                .get(t)
                .map(|(label, attempts, flaky)| label == "completed" && *attempts == 2 && *flaky)
                .unwrap_or(false)
        }),
        "flaky requests completed on retry 1 and were flagged",
    );
    let quarantine_labels = [
        "panicked",
        "stalled",
        "deadline-exceeded",
        "budget-exhausted",
    ];
    let unexpected: Vec<&String> = log
        .done
        .iter()
        .filter(|(tag, (label, _, _))| {
            (quarantine_labels.contains(&label.as_str())
                && !expect_panicked.contains(tag)
                && !expect_stalled.contains(tag))
                || (label == "worker-lost" && !expect_lost.contains(tag))
        })
        .map(|(tag, _)| tag)
        .collect();
    c.check(
        unexpected.is_empty(),
        &format!("quarantine hit only the planted failures {unexpected:?}"),
    );
    c.check(
        log.done.len() as u64 == log.accepted,
        "every admitted request got exactly one done",
    );
    c.check(log.malformed == expect_malformed, "malformed tally matches");
    c.check(
        log.rejected.len() == 3,
        "post-shutdown requests were rejected",
    );
    c.check(
        log.shed.iter().all(|(_, depth, cap)| depth == cap),
        "shed responses carry depth == capacity",
    );
    c.check(log.progress > 0, "campaigns streamed progress");

    let stats = log.stats.expect("no final stats line");
    c.check(
        stats.admitted == log.accepted
            && stats.completed as usize == expect_completed.len()
            && stats.quarantined as usize
                == expect_panicked.len() + expect_stalled.len() + expect_lost.len()
            && stats.malformed == expect_malformed
            && stats.shed as usize == log.shed.len()
            && stats.rejected_draining == 3
            && stats.workers_replaced as usize == expect_lost.len()
            && stats.flaky as usize == expect_flaky.len(),
        "final stats line agrees with observed traffic",
    );

    c.check(
        log.sections.get("bi-table2") == Some(&cli_t2_section),
        "table2 section byte-identical to one-shot CLI",
    );
    c.check(
        log.sections.get("bi-flaky") == Some(&cli_flaky_section),
        "planted-flaky section byte-identical to one-shot CLI",
    );
    c.check(
        log.sections.get("bi-campaign") == Some(&cli_camp_section),
        "campaign section byte-identical to one-shot CLI",
    );
    c.check(
        cli_t2_code == 0 && cli_camp_code == 0,
        "reference CLI runs were healthy",
    );

    if c.failures.is_empty() {
        println!(
            "chaos_load: PASS — {sent} requests, {} completed, {} quarantined, \
             {} shed, {} malformed, {} workers replaced",
            stats.completed, stats.quarantined, stats.shed, stats.malformed, stats.workers_replaced
        );
    } else {
        println!("chaos_load: {} check(s) FAILED", c.failures.len());
        std::process::exit(1);
    }
}
