//! The campaign server's wire protocol: newline-delimited JSON.
//!
//! One request per line in, one response per line out. Every response
//! is a flat JSON object tagged with `"type"`; responses that belong to
//! a request echo its client-chosen `"req"` tag, so a client can
//! multiplex any number of in-flight requests over one stream and match
//! the interleaved replies (workers complete out of admission order).
//!
//! The line codec is the workspace's one flat-JSON scanner and writer,
//! [`mpwifi_simcore::json`]; this module owns the vocabulary — which
//! keys a request or response carries, and what they mean. Both
//! directions are round-trip tested against the exact wire bytes.
//!
//! Malformed input is part of the protocol, not an error path: an
//! unparseable or invalid line produces a typed
//! [`Response::Malformed`] and the server moves on. The request is the
//! failure domain.

use mpwifi_simcore::json::{object_line, JsonObj};
use mpwifi_simcore::{RunFailure, RunMetrics};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// What a `run` request asks for.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunKind {
    /// One registry (or planted) experiment.
    Experiment {
        /// Experiment id, e.g. `"fig9"`.
        id: String,
        /// Full scale (`"scale": "full"`)? Default quick.
        full: bool,
    },
    /// A crowd campaign over the Table 1 geography.
    Campaign {
        /// Synthetic users.
        users: u64,
        /// Campaign worker threads inside the request (`"jobs"`).
        /// Default 1: one serve worker runs the whole campaign.
        jobs: usize,
        /// Full scale adds the FullSim spot check.
        full: bool,
        /// Journal path for crash-consistent checkpointing. A
        /// checkpointed campaign is *resumable*: the engine recovers
        /// completed shards from the journal, and the pool requeues the
        /// request instead of reporting it lost if its worker dies.
        checkpoint: Option<String>,
    },
    /// Chaos-only: panic *outside* the supervised region, killing the
    /// worker thread itself. Exists to prove the pool replaces crashed
    /// workers; rejected unless the server runs with chaos mode on.
    WorkerBomb,
}

/// Most retries a request may ask for. Each retry re-runs the whole
/// request after a backoff sleep of up to 2 × `BACKOFF_CAP_MS`, so an
/// unbounded client value would pin a worker on a doomed request;
/// anything above this is refused as malformed.
pub const MAX_RETRIES: u32 = 16;

/// Most worker threads a campaign request may ask for (`"jobs"`); like
/// zero users, a value outside `1..=MAX_CAMPAIGN_JOBS` is refused as
/// malformed, not quietly replaced by one the client did not send.
pub const MAX_CAMPAIGN_JOBS: u64 = 64;

/// A validated `run` request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunRequest {
    /// Client-chosen tag echoed on every response for this request.
    pub req: String,
    /// What to run.
    pub kind: RunKind,
    /// Root seed (default 42). Retry seeds and backoff jitter derive
    /// from it deterministically.
    pub seed: u64,
    /// Retries after a failed attempt (default: server policy; at most
    /// [`MAX_RETRIES`] from a client).
    pub retries: u32,
    /// Per-request watchdog budget overrides; `None` = server default.
    pub max_events: Option<u64>,
    /// Wall-clock budget override, milliseconds.
    pub wall_ms: Option<u64>,
    /// Sim-time stall TTL override, seconds.
    pub stall_ttl_s: Option<u64>,
}

/// One parsed client line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run something (the only kind that enters the admission queue).
    Run(RunRequest),
    /// Liveness probe; answered inline with [`Response::Pong`].
    Ping,
    /// Graceful drain: finish everything admitted, reject new runs.
    Shutdown,
}

impl Request {
    /// Parse one jsonl line. `default_retries` fills in when the client
    /// doesn't set `"retries"`.
    pub fn parse(line: &str, default_retries: u32) -> Result<Request, String> {
        let obj = JsonObj::parse(line)?;
        match obj.str_field("type")? {
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "run" => {
                let req = obj.str_field("req")?.to_string();
                let seed = obj.opt_u64("seed")?.unwrap_or(42);
                let retries = match obj.opt_u64("retries")? {
                    None => default_retries,
                    Some(r) => u32::try_from(r)
                        .ok()
                        .filter(|&r| r <= MAX_RETRIES)
                        .ok_or_else(|| {
                            format!("field \"retries\" must be at most {MAX_RETRIES}, got {r}")
                        })?,
                };
                let full = match obj.opt_str("scale")? {
                    None | Some("quick") => false,
                    Some("full") => true,
                    Some(other) => return Err(format!("unknown scale {other:?}")),
                };
                let kind = match obj.opt_str("kind")?.unwrap_or("experiment") {
                    "experiment" => RunKind::Experiment {
                        id: obj.str_field("id")?.to_string(),
                        full,
                    },
                    "campaign" => {
                        let users = obj.opt_u64("users")?.unwrap_or(10_000);
                        if users == 0 {
                            return Err("field \"users\" must be at least 1, got 0".into());
                        }
                        let jobs = obj.opt_u64("jobs")?.unwrap_or(1);
                        if !(1..=MAX_CAMPAIGN_JOBS).contains(&jobs) {
                            return Err(format!(
                                "field \"jobs\" must be in 1..={MAX_CAMPAIGN_JOBS}, got {jobs}"
                            ));
                        }
                        RunKind::Campaign {
                            users,
                            jobs: jobs as usize,
                            full,
                            checkpoint: obj.opt_str("checkpoint")?.map(str::to_string),
                        }
                    }
                    "worker-bomb" => RunKind::WorkerBomb,
                    other => return Err(format!("unknown run kind {other:?}")),
                };
                Ok(Request::Run(RunRequest {
                    req,
                    kind,
                    seed,
                    retries,
                    max_events: obj.opt_u64("max_events")?,
                    wall_ms: obj.opt_u64("wall_ms")?,
                    stall_ttl_s: obj.opt_u64("stall_ttl_s")?,
                }))
            }
            other => Err(format!("unknown request type {other:?}")),
        }
    }

    /// Render a request as one jsonl line (the load client's encoder;
    /// round-trips through [`Request::parse`]).
    pub fn render(&self) -> String {
        let scale = |full: bool| if full { "full" } else { "quick" };
        object_line(|o| match self {
            Request::Ping => {
                o.str("type", "ping");
            }
            Request::Shutdown => {
                o.str("type", "shutdown");
            }
            Request::Run(r) => {
                o.str("type", "run")
                    .str("req", &r.req)
                    .val("seed", r.seed)
                    .val("retries", r.retries);
                match &r.kind {
                    RunKind::Experiment { id, full } => {
                        o.str("kind", "experiment")
                            .str("id", id)
                            .str("scale", scale(*full));
                    }
                    RunKind::Campaign {
                        users,
                        jobs,
                        full,
                        checkpoint,
                    } => {
                        o.str("kind", "campaign")
                            .val("users", users)
                            .val("jobs", jobs)
                            .str("scale", scale(*full));
                        if let Some(path) = checkpoint {
                            o.str("checkpoint", path);
                        }
                    }
                    RunKind::WorkerBomb => {
                        o.str("kind", "worker-bomb");
                    }
                }
                for (key, v) in [
                    ("max_events", r.max_events),
                    ("wall_ms", r.wall_ms),
                    ("stall_ttl_s", r.stall_ttl_s),
                ] {
                    if let Some(v) = v {
                        o.val(key, v);
                    }
                }
            }
        })
    }
}

// ---------------------------------------------------------------------
// Statuses and responses
// ---------------------------------------------------------------------

/// How a request ended: a completed run, a run failure in the shared
/// [`RunFailure`] vocabulary, or one of the states only a server has
/// (shed, draining, malformed, worker-lost).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestStatus {
    /// The run produced its report. `claims_hold` is the report's
    /// paper-vs-measured verdict — the report's business, not the
    /// server's.
    Completed {
        /// Did every claim in the report hold?
        claims_hold: bool,
    },
    /// Refused at admission: the bounded queue was full.
    Shed {
        /// Queue depth at refusal.
        depth: usize,
        /// Queue capacity.
        capacity: usize,
    },
    /// Refused at admission: the server is draining.
    Draining,
    /// The line never became a valid request (bad JSON, unknown id,
    /// chaos kind without chaos mode, ...).
    Malformed {
        /// What was wrong.
        error: String,
    },
    /// The supervised run panicked or breached a watchdog budget
    /// (quarantined).
    Failed(RunFailure),
    /// The worker thread itself died mid-request; the pool replaced it
    /// and the request is reported lost (quarantined).
    WorkerLost,
}

impl RequestStatus {
    /// Short stable label, shared with sidecars and stats.
    pub fn label(&self) -> &'static str {
        match self {
            RequestStatus::Completed { .. } => "completed",
            RequestStatus::Shed { .. } => "shed",
            RequestStatus::Draining => "draining",
            RequestStatus::Malformed { .. } => "malformed",
            RequestStatus::Failed(failure) => failure.label(),
            RequestStatus::WorkerLost => "worker-lost",
        }
    }

    /// Is this a failed *execution* (eligible for retry/quarantine)?
    /// Admission refusals (shed/draining/malformed) are not failures of
    /// a run — they never ran.
    pub fn is_run_failure(&self) -> bool {
        matches!(self, RequestStatus::Failed(_) | RequestStatus::WorkerLost)
    }

    /// The forensic text attached to a failure, if any.
    pub fn forensics(&self) -> Option<&str> {
        match self {
            RequestStatus::Failed(failure) => Some(failure.forensics()),
            RequestStatus::Malformed { error } => Some(error),
            _ => None,
        }
    }

    /// Decode a failed execution from its wire label and forensic text.
    fn decode_failure(label: &str, forensics: String) -> Result<RequestStatus, String> {
        if label == RequestStatus::WorkerLost.label() {
            return Ok(RequestStatus::WorkerLost);
        }
        RunFailure::from_label(label, forensics)
            .map(RequestStatus::Failed)
            .ok_or_else(|| format!("unknown failure status {label:?}"))
    }
}

/// Terminal counters for one serve session, emitted as the final
/// `stats` line on drain and returned by the server entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServeStats {
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Admitted requests that completed (claims holding or not).
    pub completed: u64,
    /// Requests refused because the queue was full.
    pub shed: u64,
    /// Requests refused because the server was draining.
    pub rejected_draining: u64,
    /// Lines that never became valid requests.
    pub malformed: u64,
    /// Admitted requests whose final status was a failure.
    pub quarantined: u64,
    /// Retry attempts dispatched (not requests-with-retries).
    pub retried: u64,
    /// Requests that completed only on a retry.
    pub flaky: u64,
    /// Crashed worker threads replaced by the pool.
    pub workers_replaced: u64,
}

impl ServeStats {
    /// Every counter by name, in declaration order, writable: the one
    /// list the `stats` line is rendered and parsed from.
    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); 9] {
        [
            ("admitted", &mut self.admitted),
            ("completed", &mut self.completed),
            ("shed", &mut self.shed),
            ("rejected_draining", &mut self.rejected_draining),
            ("malformed", &mut self.malformed),
            ("quarantined", &mut self.quarantined),
            ("retried", &mut self.retried),
            ("flaky", &mut self.flaky),
            ("workers_replaced", &mut self.workers_replaced),
        ]
    }

    /// Every counter as `(name, value)`, in declaration order.
    pub fn fields(&self) -> [(&'static str, u64); 9] {
        let mut copy = *self;
        copy.fields_mut().map(|(name, v)| (name, *v))
    }
}

/// One server→client line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request entered the admission queue at `depth`.
    Accepted {
        /// Request tag.
        req: String,
        /// Queue depth after admission.
        depth: usize,
    },
    /// Typed shed: the bounded queue was full; nothing was queued.
    Shed {
        /// Request tag.
        req: String,
        /// Queue depth at refusal (== capacity).
        depth: usize,
        /// Queue capacity.
        capacity: usize,
    },
    /// Refused because the server is draining.
    Rejected {
        /// Request tag.
        req: String,
    },
    /// The line was not a valid request.
    Malformed {
        /// Request tag when one could be salvaged from the line.
        req: Option<String>,
        /// What was wrong.
        error: String,
    },
    /// An attempt failed and a retry is scheduled after `backoff_ms`.
    Retry {
        /// Request tag.
        req: String,
        /// The attempt that just failed (1-based).
        attempt: u32,
        /// Deterministic jittered backoff before the next attempt.
        backoff_ms: u64,
        /// Failure label of the failed attempt.
        cause: &'static str,
    },
    /// Campaign progress: shards folded so far.
    Progress {
        /// Request tag.
        req: String,
        /// Shards completed.
        done_shards: u64,
        /// Total shards in the campaign.
        total_shards: u64,
        /// Users measured so far.
        users_done: u64,
    },
    /// One streamed result section (rendered report text, verbatim —
    /// byte-identical to the one-shot CLI's stdout section).
    Section {
        /// Request tag.
        req: String,
        /// Rendered section text.
        text: String,
    },
    /// Metrics sidecar for a completed run.
    Metrics {
        /// Request tag.
        req: String,
        /// Simulator counters for the run.
        metrics: RunMetrics,
    },
    /// Terminal response for an admitted request.
    Done {
        /// Request tag.
        req: String,
        /// Final status.
        status: RequestStatus,
        /// Attempts made.
        attempts: u32,
        /// Completed only on a retry?
        flaky: bool,
    },
    /// Answer to `ping`.
    Pong,
    /// Acknowledgement of `shutdown`: new runs will be rejected.
    Draining,
    /// Final line before the server exits.
    Stats {
        /// Session counters.
        stats: ServeStats,
    },
}

impl Response {
    /// Render as one jsonl line (no trailing newline).
    pub fn render(&self) -> String {
        object_line(|o| match self {
            Response::Accepted { req, depth } => {
                o.str("type", "accepted")
                    .str("req", req)
                    .val("depth", depth);
            }
            Response::Shed {
                req,
                depth,
                capacity,
            } => {
                o.str("type", "shed")
                    .str("req", req)
                    .str("status", "shed")
                    .val("depth", depth)
                    .val("capacity", capacity);
            }
            Response::Rejected { req } => {
                o.str("type", "rejected")
                    .str("req", req)
                    .str("status", "draining");
            }
            Response::Malformed { req, error } => {
                o.str("type", "malformed");
                if let Some(req) = req {
                    o.str("req", req);
                }
                o.str("status", "malformed").str("error", error);
            }
            Response::Retry {
                req,
                attempt,
                backoff_ms,
                cause,
            } => {
                o.str("type", "retry")
                    .str("req", req)
                    .val("attempt", attempt)
                    .val("backoff_ms", backoff_ms)
                    .str("cause", cause);
            }
            Response::Progress {
                req,
                done_shards,
                total_shards,
                users_done,
            } => {
                o.str("type", "progress")
                    .str("req", req)
                    .val("done_shards", done_shards)
                    .val("total_shards", total_shards)
                    .val("users_done", users_done);
            }
            Response::Section { req, text } => {
                o.str("type", "section").str("req", req).str("text", text);
            }
            Response::Metrics { req, metrics } => {
                o.str("type", "metrics")
                    .str("req", req)
                    .fields(metrics.fields());
            }
            Response::Done {
                req,
                status,
                attempts,
                flaky,
            } => {
                o.str("type", "done")
                    .str("req", req)
                    .str("status", status.label())
                    .val("attempts", attempts)
                    .val("flaky", flaky);
                if let RequestStatus::Completed { claims_hold } = status {
                    o.val("claims_hold", claims_hold);
                }
                if let Some(f) = status.forensics() {
                    o.str("forensics", f);
                }
            }
            Response::Pong => {
                o.str("type", "pong");
            }
            Response::Draining => {
                o.str("type", "draining");
            }
            Response::Stats { stats } => {
                o.str("type", "stats")
                    .fields(stats.fields())
                    .val("drained", true);
            }
        })
    }

    /// Parse one server line — the load client's decoder. Statuses
    /// carrying structured payloads (limits) collapse to their
    /// forensic-text form; labels and counters round-trip exactly.
    pub fn parse(line: &str) -> Result<Response, String> {
        let obj = JsonObj::parse(line)?;
        let req = |o: &JsonObj| -> Result<String, String> { Ok(o.str_field("req")?.to_string()) };
        match obj.str_field("type")? {
            "accepted" => Ok(Response::Accepted {
                req: req(&obj)?,
                depth: obj.opt_u64("depth")?.unwrap_or(0) as usize,
            }),
            "shed" => Ok(Response::Shed {
                req: req(&obj)?,
                depth: obj.opt_u64("depth")?.unwrap_or(0) as usize,
                capacity: obj.opt_u64("capacity")?.unwrap_or(0) as usize,
            }),
            "rejected" => Ok(Response::Rejected { req: req(&obj)? }),
            "malformed" => Ok(Response::Malformed {
                req: obj.opt_str("req")?.map(str::to_string),
                error: obj.str_field("error")?.to_string(),
            }),
            "retry" => Ok(Response::Retry {
                req: req(&obj)?,
                attempt: obj.opt_u64("attempt")?.unwrap_or(0) as u32,
                backoff_ms: obj.opt_u64("backoff_ms")?.unwrap_or(0),
                cause: RequestStatus::decode_failure(obj.str_field("cause")?, String::new())?
                    .label(),
            }),
            "progress" => Ok(Response::Progress {
                req: req(&obj)?,
                done_shards: obj.opt_u64("done_shards")?.unwrap_or(0),
                total_shards: obj.opt_u64("total_shards")?.unwrap_or(0),
                users_done: obj.opt_u64("users_done")?.unwrap_or(0),
            }),
            "section" => Ok(Response::Section {
                req: req(&obj)?,
                text: obj.str_field("text")?.to_string(),
            }),
            "metrics" => {
                let mut metrics = RunMetrics::default();
                obj.read_fields(metrics.fields_mut())?;
                Ok(Response::Metrics {
                    req: req(&obj)?,
                    metrics,
                })
            }
            "done" => {
                let forensics = obj.opt_str("forensics")?.unwrap_or("").to_string();
                let status = match obj.str_field("status")? {
                    "completed" => RequestStatus::Completed {
                        claims_hold: obj.opt_bool("claims_hold")?.unwrap_or(false),
                    },
                    failed => RequestStatus::decode_failure(failed, forensics)?,
                };
                Ok(Response::Done {
                    req: req(&obj)?,
                    status,
                    attempts: obj.opt_u64("attempts")?.unwrap_or(1) as u32,
                    flaky: obj.opt_bool("flaky")?.unwrap_or(false),
                })
            }
            "pong" => Ok(Response::Pong),
            "draining" => Ok(Response::Draining),
            "stats" => {
                let mut stats = ServeStats::default();
                obj.read_fields(stats.fields_mut())?;
                Ok(Response::Stats { stats })
            }
            other => Err(format!("unknown response type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpwifi_simcore::json::JsonValue;

    #[test]
    fn flat_object_parses_scalars_and_escapes() {
        let o = JsonObj::parse(
            r#"{"type": "run", "seed": 42, "frac": -1.5e2, "ok": true, "nul": null, "s": "a\"b\nc"}"#,
        )
        .unwrap();
        assert_eq!(o.str_field("type").unwrap(), "run");
        assert_eq!(o.opt_u64("seed").unwrap(), Some(42));
        assert_eq!(o.get("frac"), Some(&JsonValue::Num(-150.0)));
        assert_eq!(o.opt_bool("ok").unwrap(), Some(true));
        assert_eq!(o.get("nul"), Some(&JsonValue::Null));
        assert_eq!(o.str_field("s").unwrap(), "a\"b\nc");
    }

    #[test]
    fn malformed_lines_are_typed_errors_not_panics() {
        for bad in [
            "",
            "not json",
            "{",
            "{\"a\"}",
            "{\"a\": }",
            "{\"a\": 1} trailing",
            "{\"a\": {\"nested\": 1}}",
            "{\"a\": [1,2]}",
            "{\"a\": \"unterminated",
            "{\"a\": 1e}",
        ] {
            assert!(JsonObj::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn u64_fields_reject_negative_and_fractional() {
        let o = JsonObj::parse(r#"{"neg": -1, "frac": 1.5, "big": 1e300}"#).unwrap();
        for key in ["neg", "frac", "big"] {
            assert!(o.opt_u64(key).is_err(), "{key} accepted");
        }
    }

    #[test]
    fn requests_round_trip() {
        let run = |req: &str, kind, seed, retries| RunRequest {
            req: req.into(),
            kind,
            seed,
            retries,
            max_events: None,
            wall_ms: None,
            stall_ttl_s: None,
        };
        let campaign = |checkpoint: Option<&str>| RunKind::Campaign {
            users: 5000,
            jobs: 4,
            full: false,
            checkpoint: checkpoint.map(str::to_string),
        };
        let fig9 = || RunKind::Experiment {
            id: "fig9".into(),
            full: false,
        };
        // Every request shape with the exact line it renders to: the
        // wire bytes are part of the contract, not only the round trip.
        let reqs = [
            (Request::Ping, r#"{"type": "ping"}"#),
            (Request::Shutdown, r#"{"type": "shutdown"}"#),
            (
                Request::Run(RunRequest {
                    max_events: Some(1000),
                    stall_ttl_s: Some(30),
                    ..run(
                        "r-1",
                        RunKind::Experiment {
                            id: "fig9".into(),
                            full: true,
                        },
                        7,
                        2,
                    )
                }),
                r#"{"type": "run", "req": "r-1", "seed": 7, "retries": 2, "kind": "experiment", "id": "fig9", "scale": "full", "max_events": 1000, "stall_ttl_s": 30}"#,
            ),
            (
                Request::Run(RunRequest {
                    wall_ms: Some(250),
                    ..run(
                        "q\"1",
                        RunKind::Experiment {
                            id: "table2".into(),
                            full: false,
                        },
                        42,
                        0,
                    )
                }),
                r#"{"type": "run", "req": "q\"1", "seed": 42, "retries": 0, "kind": "experiment", "id": "table2", "scale": "quick", "wall_ms": 250}"#,
            ),
            (
                Request::Run(run("c", campaign(None), 42, 0)),
                r#"{"type": "run", "req": "c", "seed": 42, "retries": 0, "kind": "campaign", "users": 5000, "jobs": 4, "scale": "quick"}"#,
            ),
            (
                Request::Run(run(
                    "c-ckpt",
                    campaign(Some("/tmp/dir with \"quotes\"/c.journal")),
                    42,
                    1,
                )),
                r#"{"type": "run", "req": "c-ckpt", "seed": 42, "retries": 1, "kind": "campaign", "users": 5000, "jobs": 4, "scale": "quick", "checkpoint": "/tmp/dir with \"quotes\"/c.journal"}"#,
            ),
            // Full-range seeds: every derived seed is a splitmix64
            // output, and a rendered request must replay verbatim.
            (
                Request::Run(run("max", fig9(), u64::MAX, 0)),
                r#"{"type": "run", "req": "max", "seed": 18446744073709551615, "retries": 0, "kind": "experiment", "id": "fig9", "scale": "quick"}"#,
            ),
            (
                Request::Run(run(
                    "derived",
                    fig9(),
                    mpwifi_simcore::derive_seed(42, "fig9#retry1"),
                    0,
                )),
                r#"{"type": "run", "req": "derived", "seed": 16783496150503552297, "retries": 0, "kind": "experiment", "id": "fig9", "scale": "quick"}"#,
            ),
            (
                Request::Run(run("boom", RunKind::WorkerBomb, 42, 0)),
                r#"{"type": "run", "req": "boom", "seed": 42, "retries": 0, "kind": "worker-bomb"}"#,
            ),
        ];
        for (r, want) in reqs {
            let line = r.render();
            assert_eq!(line, want);
            assert_eq!(Request::parse(&line, 9).unwrap(), r, "line: {line}");
        }
    }

    #[test]
    fn request_defaults_apply() {
        let r = Request::parse(r#"{"type": "run", "req": "x", "id": "table2"}"#, 3).unwrap();
        let Request::Run(r) = r else { panic!() };
        assert_eq!(r.seed, 42);
        assert_eq!(r.retries, 3, "server default retries fill in");
        assert_eq!(
            r.kind,
            RunKind::Experiment {
                id: "table2".into(),
                full: false
            }
        );
    }

    #[test]
    fn invalid_requests_name_the_problem() {
        for (line, needle) in [
            (r#"{"type": "run"}"#, "req"),
            (r#"{"type": "run", "req": "x"}"#, "id"),
            (
                r#"{"type": "run", "req": "x", "id": "a", "scale": "big"}"#,
                "scale",
            ),
            (r#"{"type": "run", "req": "x", "kind": "?"}"#, "kind"),
            // 2^32 used to wrap to 0 retries and 2^32 - 1 to be taken
            // at its word; both are out of range now.
            (
                r#"{"type": "run", "req": "x", "id": "a", "retries": 4294967296}"#,
                "retries",
            ),
            (
                r#"{"type": "run", "req": "x", "id": "a", "retries": 4294967295}"#,
                "retries",
            ),
            (
                r#"{"type": "run", "req": "x", "id": "a", "retries": 17}"#,
                "retries",
            ),
            // Zero users used to become one and 500 workers 64; a client
            // is told, not given something it did not ask for.
            (
                r#"{"type": "run", "req": "x", "kind": "campaign", "users": 0}"#,
                "\"users\" must be at least 1",
            ),
            (
                r#"{"type": "run", "req": "x", "kind": "campaign", "jobs": 0}"#,
                "\"jobs\" must be in 1..=64",
            ),
            (
                r#"{"type": "run", "req": "x", "kind": "campaign", "jobs": 500}"#,
                "\"jobs\" must be in 1..=64",
            ),
            (r#"{"type": "nope"}"#, "type"),
            (r#"{"req": "x"}"#, "type"),
        ] {
            let err = Request::parse(line, 0).unwrap_err();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let m = RunMetrics {
            events_popped: 9,
            bytes_delivered: 1_000_000,
            redundant_dups: 4,
            dup_bytes_dropped: 5_600,
            ..RunMetrics::default()
        };
        let done = |req: &str, status, attempts, flaky| Response::Done {
            req: req.into(),
            status,
            attempts,
            flaky,
        };
        // Every response shape with the exact line it renders to.
        let cases = vec![
            (
                Response::Accepted {
                    req: "a".into(),
                    depth: 3,
                },
                r#"{"type": "accepted", "req": "a", "depth": 3}"#,
            ),
            (
                Response::Shed {
                    req: "b".into(),
                    depth: 8,
                    capacity: 8,
                },
                r#"{"type": "shed", "req": "b", "status": "shed", "depth": 8, "capacity": 8}"#,
            ),
            (
                Response::Rejected { req: "c".into() },
                r#"{"type": "rejected", "req": "c", "status": "draining"}"#,
            ),
            (
                Response::Malformed {
                    req: None,
                    error: "bad \"json\"".into(),
                },
                r#"{"type": "malformed", "status": "malformed", "error": "bad \"json\""}"#,
            ),
            (
                Response::Malformed {
                    req: Some("d".into()),
                    error: "unknown experiment".into(),
                },
                r#"{"type": "malformed", "req": "d", "status": "malformed", "error": "unknown experiment"}"#,
            ),
            (
                Response::Retry {
                    req: "e".into(),
                    attempt: 1,
                    backoff_ms: 35,
                    cause: "panicked",
                },
                r#"{"type": "retry", "req": "e", "attempt": 1, "backoff_ms": 35, "cause": "panicked"}"#,
            ),
            (
                Response::Retry {
                    req: "e2".into(),
                    attempt: 2,
                    backoff_ms: 6,
                    cause: "worker-lost",
                },
                r#"{"type": "retry", "req": "e2", "attempt": 2, "backoff_ms": 6, "cause": "worker-lost"}"#,
            ),
            (
                Response::Progress {
                    req: "f".into(),
                    done_shards: 2,
                    total_shards: 10,
                    users_done: 1024,
                },
                r#"{"type": "progress", "req": "f", "done_shards": 2, "total_shards": 10, "users_done": 1024}"#,
            ),
            (
                Response::Progress {
                    req: "f2".into(),
                    done_shards: mpwifi_simcore::derive_seed(42, "fig9#retry1"),
                    total_shards: u64::MAX,
                    users_done: u64::MAX,
                },
                r#"{"type": "progress", "req": "f2", "done_shards": 16783496150503552297, "total_shards": 18446744073709551615, "users_done": 18446744073709551615}"#,
            ),
            (
                Response::Section {
                    req: "g".into(),
                    text:
                        "== line one\nline two\t(tab)\r\n \"q\" back\\slash \u{1}\u{1f} caf\u{e9}\n"
                            .into(),
                },
                r#"{"type": "section", "req": "g", "text": "== line one\nline two\t(tab)\r\n \"q\" back\\slash \u0001\u001f café\n"}"#,
            ),
            (
                Response::Metrics {
                    req: "h".into(),
                    metrics: m,
                },
                r#"{"type": "metrics", "req": "h", "events_popped": 9, "frames_forwarded": 0, "bytes_delivered": 1000000, "tcp_retransmits": 0, "segments_encoded": 0, "enc_buffers_reused": 0, "enc_buffers_allocated": 0, "scratch_high_water": 0, "faults_injected": 0, "segments_corrupted_dropped": 0, "subflows_declared_dead": 0, "reinjections": 0, "recovery_time_us": 0, "segments_dropped_unroutable": 0, "sched_picks_rejected": 0, "redundant_dups": 4, "dup_bytes_dropped": 5600}"#,
            ),
            (
                done("i", RequestStatus::Completed { claims_hold: true }, 2, true),
                r#"{"type": "done", "req": "i", "status": "completed", "attempts": 2, "flaky": true, "claims_hold": true}"#,
            ),
            (
                done(
                    "i2",
                    RequestStatus::Completed { claims_hold: false },
                    1,
                    false,
                ),
                r#"{"type": "done", "req": "i2", "status": "completed", "attempts": 1, "flaky": false, "claims_hold": false}"#,
            ),
            (
                done(
                    "j",
                    RequestStatus::Failed(RunFailure::Stalled {
                        forensics: "iface lte stale\n  subflow lte: frozen\n".into(),
                    }),
                    1,
                    false,
                ),
                r#"{"type": "done", "req": "j", "status": "stalled", "attempts": 1, "flaky": false, "forensics": "iface lte stale\n  subflow lte: frozen\n"}"#,
            ),
            (
                done(
                    "j2",
                    RequestStatus::Failed(RunFailure::Panicked {
                        message: "boom (at src/x.rs:7)".into(),
                    }),
                    3,
                    false,
                ),
                r#"{"type": "done", "req": "j2", "status": "panicked", "attempts": 3, "flaky": false, "forensics": "boom (at src/x.rs:7)"}"#,
            ),
            // `done` carries the forensic text, not the limits, so the
            // limits round-trip as zero.
            (
                done(
                    "j3",
                    RequestStatus::Failed(RunFailure::DeadlineExceeded {
                        limit_ms: 0,
                        forensics: "t=1.0s".into(),
                    }),
                    1,
                    false,
                ),
                r#"{"type": "done", "req": "j3", "status": "deadline-exceeded", "attempts": 1, "flaky": false, "forensics": "t=1.0s"}"#,
            ),
            (
                done(
                    "j4",
                    RequestStatus::Failed(RunFailure::BudgetExhausted {
                        limit: 0,
                        forensics: "".into(),
                    }),
                    1,
                    false,
                ),
                r#"{"type": "done", "req": "j4", "status": "budget-exhausted", "attempts": 1, "flaky": false, "forensics": ""}"#,
            ),
            (
                done("k", RequestStatus::WorkerLost, 1, false),
                r#"{"type": "done", "req": "k", "status": "worker-lost", "attempts": 1, "flaky": false}"#,
            ),
            (Response::Pong, r#"{"type": "pong"}"#),
            (Response::Draining, r#"{"type": "draining"}"#),
            (
                Response::Stats {
                    stats: ServeStats {
                        admitted: 10,
                        completed: 8,
                        shed: 2,
                        rejected_draining: 1,
                        malformed: 3,
                        quarantined: 2,
                        retried: 1,
                        flaky: 1,
                        workers_replaced: 1,
                    },
                },
                r#"{"type": "stats", "admitted": 10, "completed": 8, "shed": 2, "rejected_draining": 1, "malformed": 3, "quarantined": 2, "retried": 1, "flaky": 1, "workers_replaced": 1, "drained": true}"#,
            ),
        ];
        for (r, want) in cases {
            let line = r.render();
            assert_eq!(line, want);
            let parsed = Response::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(parsed, r, "line: {line}");
        }
        // A retry cause is a failure label; the server never retries
        // a request for any other status, and none parses as one.
        for cause in ["completed", "shed", "draining", "malformed"] {
            let line = format!(
                r#"{{"type": "retry", "req": "e", "attempt": 1, "backoff_ms": 35, "cause": "{cause}"}}"#
            );
            assert!(Response::parse(&line).is_err(), "accepted: {line}");
        }
    }

    #[test]
    fn section_text_survives_exact_bytes() {
        // The byte-identity guarantee rides on escape/unescape being
        // lossless for rendered report text.
        let text = "fig9 — title\n  claim: 1.5× \"quoted\"\n\tdone\n";
        let line = Response::Section {
            req: "x".into(),
            text: text.into(),
        }
        .render();
        let Response::Section { text: back, .. } = Response::parse(&line).unwrap() else {
            panic!()
        };
        assert_eq!(back, text);
    }

    #[test]
    fn status_labels_are_stable() {
        assert_eq!(
            RequestStatus::Completed { claims_hold: true }.label(),
            "completed"
        );
        assert_eq!(
            RequestStatus::Shed {
                depth: 1,
                capacity: 1
            }
            .label(),
            "shed"
        );
        assert_eq!(RequestStatus::Draining.label(), "draining");
        assert_eq!(RequestStatus::WorkerLost.label(), "worker-lost");
        assert!(RequestStatus::WorkerLost.is_run_failure());
        assert!(!RequestStatus::Draining.is_run_failure());
        assert!(!RequestStatus::Completed { claims_hold: false }.is_run_failure());
    }
}
