//! The repro engine behind `repro serve`: plugs the experiment registry,
//! the crowd-campaign driver, and the PR 5 supervision layer into the
//! `mpwifi-serve` campaign server.
//!
//! The serve crate owns transport, admission, retry scheduling, and
//! worker replacement; this module owns everything simulation-shaped:
//!
//! - resolving experiment ids with [`registry::find`] (which knows the
//!   planted failure specs too, so the chaos harness can request them
//!   by name);
//! - arming per-request watchdog budgets around each attempt via
//!   [`supervise_call`] — a breached or panicking request is classified
//!   into the [`RequestStatus`] taxonomy instead of poisoning the
//!   long-lived worker;
//! - deriving per-attempt seeds along the [`attempt_seed`] chain, so a
//!   served retry replays bit-for-bit as `repro <id> --seed <derived>`;
//! - streaming results: one `section` response carrying the report's
//!   `render_text()` verbatim (byte-identical to the one-shot CLI), a
//!   `metrics` sidecar for experiments, and `progress` lines as campaign
//!   shards fold.

use crate::experiments::crowd_campaign;
use crate::registry;
use crate::report::Scale;
use crate::runner::{derive_seed, run_one};
use crate::supervise::{supervise_call, SuperviseConfig};
use mpwifi_serve::proto::{RequestStatus, Response, RunKind, RunRequest};
use mpwifi_serve::Executor;
use mpwifi_simcore::WatchdogConfig;

/// `mpwifi-serve` [`Executor`] backed by the repro registry.
pub struct ReproExecutor {
    /// Server-default supervision budgets; per-request overrides replace
    /// individual fields. The serve pool owns the retry loop.
    pub defaults: SuperviseConfig,
}

impl ReproExecutor {
    pub fn new(defaults: SuperviseConfig) -> ReproExecutor {
        ReproExecutor { defaults }
    }

    /// Watchdog budgets for one request: per-request overrides win,
    /// server defaults fill the gaps.
    fn watchdog_for(&self, req: &RunRequest) -> WatchdogConfig {
        let defaults = &self.defaults.watchdog;
        WatchdogConfig {
            max_events: req.max_events.or(defaults.max_events),
            wall_limit_ms: req.wall_ms.or(defaults.wall_limit_ms),
            stall_ttl_us: req
                .stall_ttl_s
                .map(|s| s.saturating_mul(1_000_000))
                .or(defaults.stall_ttl_us),
        }
    }
}

/// The seed for attempt `attempt` (0-based) of a request rooted at
/// `seed`: the root itself first, then `derive_seed(seed, "{id}#retryN")`.
/// The serve pool's retries walk this chain.
pub fn attempt_seed(seed: u64, id: &str, attempt: u32) -> u64 {
    if attempt == 0 {
        seed
    } else {
        derive_seed(seed, &format!("{id}#retry{attempt}"))
    }
}

impl Executor for ReproExecutor {
    fn validate(&self, req: &RunRequest) -> Result<(), String> {
        match &req.kind {
            RunKind::Experiment { id, .. } => {
                if registry::find(id).is_none() {
                    return Err(format!("unknown experiment: {id}"));
                }
                Ok(())
            }
            RunKind::Campaign { users, .. } => {
                if *users == 0 {
                    return Err("campaign needs at least one user".into());
                }
                Ok(())
            }
            RunKind::WorkerBomb => Ok(()), // chaos gating is the server's call
        }
    }

    fn execute(
        &self,
        req: &RunRequest,
        attempt: u32,
        emit: &(dyn Fn(Response) + Sync),
    ) -> RequestStatus {
        match &req.kind {
            RunKind::WorkerBomb => {
                // Deliberately escapes the supervised region: the serve
                // pool's worker-crash path is the only thing that can
                // contain this, which is exactly what the chaos harness
                // wants to prove.
                panic!("worker bomb: planted escape panic (chaos harness)");
            }
            RunKind::Experiment { id, full } => self.run_experiment(req, id, *full, attempt, emit),
            RunKind::Campaign {
                users,
                jobs,
                full,
                checkpoint,
            } => self.run_campaign(
                req,
                *users,
                *jobs,
                *full,
                checkpoint.as_deref(),
                attempt,
                emit,
            ),
        }
    }
}

impl ReproExecutor {
    fn run_experiment(
        &self,
        req: &RunRequest,
        id: &str,
        full: bool,
        attempt: u32,
        emit: &(dyn Fn(Response) + Sync),
    ) -> RequestStatus {
        let Some(spec) = registry::find(id) else {
            // validate() rejects these pre-admission; defensive anyway.
            return RequestStatus::Malformed {
                error: format!("unknown experiment: {id}"),
            };
        };
        let scale = if full { Scale::Full } else { Scale::Quick };
        let seed = attempt_seed(req.seed, id, attempt);
        // One attempt: the serve pool owns retries.
        match supervise_call(&self.watchdog_for(req), || run_one(spec, scale, seed)) {
            Ok(report) => {
                emit(Response::Section {
                    req: req.req.clone(),
                    text: report.render_text(),
                });
                emit(Response::Metrics {
                    req: req.req.clone(),
                    metrics: report.metrics.unwrap_or_default(),
                });
                RequestStatus::Completed {
                    claims_hold: report.all_hold(),
                }
            }
            Err(failure) => RequestStatus::Failed(failure),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_campaign(
        &self,
        req: &RunRequest,
        users: u64,
        jobs: usize,
        full: bool,
        checkpoint: Option<&str>,
        attempt: u32,
        emit: &(dyn Fn(Response) + Sync),
    ) -> RequestStatus {
        let scale = if full { Scale::Full } else { Scale::Quick };
        // Checkpointed campaigns keep the root seed on every attempt: a
        // retry must *resume* the journaled campaign, and the journal
        // refuses any other seed. Unjournaled campaigns keep the
        // documented decorrelating retry chain.
        let seed = if checkpoint.is_some() {
            req.seed
        } else {
            attempt_seed(req.seed, "campaign", attempt)
        };
        // The watchdog is thread-local and campaigns fan out to their own
        // scoped workers, so budgets bind the supervised thread only;
        // panic isolation (and classification) covers the whole call
        // because scoped-thread panics propagate to the scope owner.
        let on_shard = |done: u64, total: u64, users_done: u64| {
            emit(Response::Progress {
                req: req.req.clone(),
                done_shards: done,
                total_shards: total,
                users_done,
            });
        };
        let result = supervise_call(&self.watchdog_for(req), || {
            let journal = checkpoint.map(std::path::Path::new);
            crowd_campaign::campaign_report(users, jobs, seed, scale, journal, on_shard)
                .map(|(report, _resumed)| report)
        });
        match result {
            Ok(Ok(report)) => {
                emit(Response::Section {
                    req: req.req.clone(),
                    text: report.render_text(),
                });
                RequestStatus::Completed {
                    claims_hold: report.all_hold(),
                }
            }
            // A resume refusal is a property of the request (its journal
            // disagrees with its config), not a transient run failure:
            // report it malformed so the pool doesn't retry a journal
            // that will refuse identically every time.
            Ok(Err(resume_err)) => RequestStatus::Malformed {
                error: format!("cannot resume campaign checkpoint: {resume_err}"),
            },
            Err(failure) => RequestStatus::Failed(failure),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn request(kind: RunKind, seed: u64) -> RunRequest {
        RunRequest {
            req: "t".into(),
            kind,
            seed,
            retries: 0,
            max_events: None,
            wall_ms: None,
            stall_ttl_s: None,
        }
    }

    fn collect(resp: &Mutex<Vec<Response>>) -> Vec<Response> {
        resp.lock().unwrap().clone()
    }

    #[test]
    fn validate_knows_registry_planted_and_campaign_bounds() {
        let ex = ReproExecutor::new(SuperviseConfig::default());
        let exp = |id: &str| {
            request(
                RunKind::Experiment {
                    id: id.into(),
                    full: false,
                },
                1,
            )
        };
        assert!(ex.validate(&exp("table2")).is_ok());
        assert!(ex.validate(&exp("planted-panic")).is_ok());
        assert!(ex.validate(&exp("no-such-thing")).is_err());
        assert!(ex
            .validate(&request(
                RunKind::Campaign {
                    users: 0,
                    jobs: 1,
                    full: false,
                    checkpoint: None
                },
                1
            ))
            .is_err());
    }

    #[test]
    fn experiment_sections_match_direct_runner_output() {
        let ex = ReproExecutor::new(SuperviseConfig::default());
        let out = Mutex::new(Vec::new());
        let status = ex.execute(
            &request(
                RunKind::Experiment {
                    id: "table2".into(),
                    full: false,
                },
                42,
            ),
            0,
            &|r| out.lock().unwrap().push(r),
        );
        assert!(matches!(
            status,
            RequestStatus::Completed { claims_hold: true }
        ));
        let responses = collect(&out);
        let direct = crate::supervise::supervise_one(
            registry::find("table2").unwrap(),
            Scale::Quick,
            42,
            &SuperviseConfig::default(),
        );
        let direct_text = direct.result.expect("direct run completes").render_text();
        let Some(Response::Section { text, .. }) = responses
            .iter()
            .find(|r| matches!(r, Response::Section { .. }))
        else {
            panic!("no section response");
        };
        assert_eq!(text, &direct_text, "served section must be byte-identical");
        assert!(responses
            .iter()
            .any(|r| matches!(r, Response::Metrics { .. })));
    }

    #[test]
    fn planted_panic_is_classified_not_propagated() {
        let ex = ReproExecutor::new(SuperviseConfig::default());
        let status = ex.execute(
            &request(
                RunKind::Experiment {
                    id: "planted-panic".into(),
                    full: false,
                },
                1,
            ),
            0,
            &|_| {},
        );
        let RequestStatus::Failed(mpwifi_simcore::RunFailure::Panicked { message }) = status else {
            panic!("expected Panicked, got {}", status.label());
        };
        assert!(message.contains("planted panic"));
    }

    #[test]
    fn retry_attempts_walk_the_documented_seed_chain() {
        assert_eq!(attempt_seed(42, "fig9", 0), 42);
        assert_eq!(attempt_seed(42, "fig9", 1), derive_seed(42, "fig9#retry1"));
        assert_eq!(attempt_seed(42, "fig9", 3), derive_seed(42, "fig9#retry3"));
    }

    #[test]
    fn checkpointed_campaign_resumes_on_retry_with_a_fixed_seed() {
        let path = std::env::temp_dir().join(format!(
            "mpwifi_service_ckpt_{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let kind = || RunKind::Campaign {
            users: 2_000,
            jobs: 1,
            full: false,
            checkpoint: Some(path.to_string_lossy().into_owned()),
        };
        let ex = ReproExecutor::new(SuperviseConfig::default());
        let out = Mutex::new(Vec::new());
        // Attempt 1 (a retry after a simulated worker loss): the seed
        // must stay the root seed — the journal written on attempt 0
        // would refuse a derived one. Running attempt 1 *first* against
        // an empty journal proves the seed is attempt-independent.
        let status = ex.execute(&request(kind(), 7), 1, &|r| out.lock().unwrap().push(r));
        assert!(matches!(status, RequestStatus::Completed { .. }));
        // The journal is now complete; attempt 0 resumes it (no
        // recomputation) and must render the identical section.
        let status = ex.execute(&request(kind(), 7), 0, &|r| out.lock().unwrap().push(r));
        assert!(matches!(status, RequestStatus::Completed { .. }));
        let responses = collect(&out);
        let sections: Vec<&String> = responses
            .iter()
            .filter_map(|r| match r {
                Response::Section { text, .. } => Some(text),
                _ => None,
            })
            .collect();
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0], sections[1], "resumed section diverged");
        let (cli, _) =
            crowd_campaign::campaign_report(2_000, 1, 7, Scale::Quick, None, |_, _, _| {}).unwrap();
        assert_eq!(
            sections[0],
            &cli.render_text(),
            "checkpointed campaign must match the plain CLI report"
        );
        // A different seed against the same journal: typed refusal,
        // classified malformed (not retryable), never blended.
        let status = ex.execute(&request(kind(), 8), 0, &|_| {});
        let RequestStatus::Malformed { error } = status else {
            panic!("expected Malformed, got {}", status.label());
        };
        assert!(error.contains("seed"), "unhelpful refusal: {error}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn campaign_streams_progress_and_matches_cli_report() {
        let ex = ReproExecutor::new(SuperviseConfig::default());
        let out = Mutex::new(Vec::new());
        let status = ex.execute(
            &request(
                RunKind::Campaign {
                    users: 2_000,
                    jobs: 2,
                    full: false,
                    checkpoint: None,
                },
                7,
            ),
            0,
            &|r| out.lock().unwrap().push(r),
        );
        assert!(matches!(status, RequestStatus::Completed { .. }));
        let responses = collect(&out);
        let progress: Vec<&Response> = responses
            .iter()
            .filter(|r| matches!(r, Response::Progress { .. }))
            .collect();
        assert!(!progress.is_empty(), "campaign must stream progress");
        let (cli, _) =
            crowd_campaign::campaign_report(2_000, 2, 7, Scale::Quick, None, |_, _, _| {}).unwrap();
        let Some(Response::Section { text, .. }) = responses
            .iter()
            .find(|r| matches!(r, Response::Section { .. }))
        else {
            panic!("no section response");
        };
        assert_eq!(text, &cli.render_text(), "served campaign must match CLI");
    }
}
