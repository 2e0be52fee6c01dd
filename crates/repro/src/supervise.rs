//! Supervised campaign execution: panic isolation, run watchdogs, and
//! quarantine-and-continue.
//!
//! Every experiment run is wrapped in `catch_unwind` and (optionally) a
//! cooperative watchdog ([`mpwifi_simcore::supervise`]): a panicking,
//! livelocked, or runaway experiment is converted into a structured
//! [`RunStatus`] with forensics instead of killing the campaign. The
//! campaign completes; healthy sections render byte-identically to an
//! unsupervised run; failures land in a quarantine sidecar with a
//! paste-ready repro command.
//!
//! Determinism: supervision never perturbs a healthy run. The watchdog
//! is a per-step thread-local check in the simulator that raises only
//! on breach; `catch_unwind` is transparent on the success path; and
//! the failure taxonomy (except the wall-clock deadline, a documented
//! nondeterministic escape hatch set far above any healthy run) is a
//! pure function of `(scenario, seed)`.

use crate::registry::ExperimentSpec;
use crate::report::{Report, Scale};
use crate::runner::{derive_seed, RunOutcome};
use mpwifi_simcore::supervise as watchdog;
use mpwifi_simcore::{BreachReport, RunFailure, RunMetrics, WatchdogConfig};
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
use std::time::Duration;

/// Default event-loop step budget. The heaviest registry experiment
/// (`fig20` at Full scale) pops ~2.8 M events; 50 M flags only runs
/// more than an order of magnitude beyond anything healthy.
pub const DEFAULT_MAX_EVENTS: u64 = 50_000_000;

/// Default per-run wall-clock deadline. The slowest Full-scale
/// experiment finishes in seconds; five minutes is the nondeterministic
/// backstop for true hangs outside the simulator's event loop.
pub const DEFAULT_WALL_LIMIT_MS: u64 = 300_000;

/// Default stall TTL in simulated microseconds (300 sim-seconds): far
/// above the longest intentional idle window in any experiment
/// (`ext-mobility` idles ~54 s waiting out a dead WiFi link) while
/// still catching retransmit-into-a-black-hole livelocks.
pub const DEFAULT_STALL_TTL_US: u64 = 300_000_000;

/// Supervision policy for a campaign.
#[derive(Debug, Clone, Copy)]
pub struct SuperviseConfig {
    /// Simulator event budget per run (`None` = unlimited).
    pub max_events: Option<u64>,
    /// Wall-clock deadline per run in milliseconds (`None` = none).
    pub wall_limit_ms: Option<u64>,
    /// Sim-time stall TTL per run in microseconds (`None` = none).
    pub stall_ttl_us: Option<u64>,
    /// Retries per failed run, each with a seed derived from the
    /// original (`derive_seed(seed, "{id}#retryN")`) — a *documented
    /// determinism escape hatch*: a retried success is flagged
    /// [`SupervisedRun::flaky`] and ran under a different seed than the
    /// campaign's policy assigned.
    pub retries: u32,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            max_events: Some(DEFAULT_MAX_EVENTS),
            wall_limit_ms: Some(DEFAULT_WALL_LIMIT_MS),
            stall_ttl_us: Some(DEFAULT_STALL_TTL_US),
            retries: 0,
        }
    }
}

impl SuperviseConfig {
    /// Panic isolation only: no budgets, no retries. This is what the
    /// unsupervised runner path uses so a planted panic degrades into a
    /// failed section instead of a dead campaign.
    pub fn unlimited() -> SuperviseConfig {
        SuperviseConfig {
            max_events: None,
            wall_limit_ms: None,
            stall_ttl_us: None,
            retries: 0,
        }
    }

    fn watchdog(&self) -> WatchdogConfig {
        WatchdogConfig {
            max_events: self.max_events,
            wall_limit_ms: self.wall_limit_ms,
            stall_ttl_us: self.stall_ttl_us,
        }
    }
}

/// How one supervised run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// The experiment returned a report (its claims may still fail —
    /// that is the report's business, not the supervisor's).
    Completed,
    /// The experiment panicked or breached a watchdog budget.
    Failed(RunFailure),
}

impl RunStatus {
    /// Short stable label for reports and sidecars.
    pub fn label(&self) -> &'static str {
        match self {
            RunStatus::Completed => "completed",
            RunStatus::Failed(failure) => failure.label(),
        }
    }

    /// Anything but [`RunStatus::Completed`].
    pub fn is_failure(&self) -> bool {
        !matches!(self, RunStatus::Completed)
    }

    /// The forensic text attached to the failure, if any.
    pub fn forensics(&self) -> Option<&str> {
        match self {
            RunStatus::Completed => None,
            RunStatus::Failed(failure) => Some(failure.forensics()),
        }
    }
}

/// One experiment's supervised execution record.
pub struct SupervisedRun {
    /// Experiment id.
    pub id: &'static str,
    /// The seed the *final* attempt ran with.
    pub seed: u64,
    /// Attempts made (1 unless retries were configured and needed).
    pub attempts: u32,
    /// True when the run failed at least once and then completed on a
    /// derived-seed retry: the result is real but did not come from the
    /// seed the campaign policy assigned.
    pub flaky: bool,
    /// How the final attempt ended.
    pub status: RunStatus,
    /// The outcome, when the final attempt completed.
    pub outcome: Option<RunOutcome>,
    /// Wall-clock time across all attempts.
    pub wall: Duration,
    /// Simulator counters at the moment of failure (partial work the
    /// failed run did before it died). `None` when the run completed.
    pub partial_metrics: Option<RunMetrics>,
}

thread_local! {
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    static CAPTURED: RefCell<Option<String>> = const { RefCell::new(None) };
}

static HOOK: Once = Once::new();

/// Install (once, process-wide) a panic hook that, on supervising
/// threads, captures the panic message and location silently instead of
/// spraying a backtrace mid-campaign. Threads not inside a supervised
/// run fall through to the previous hook unchanged.
fn install_capture_hook() {
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CAPTURING.get() {
                prev(info);
                return;
            }
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned());
            let captured = match (msg, info.location()) {
                (Some(m), Some(l)) => format!("{m} (at {}:{})", l.file(), l.line()),
                (Some(m), None) => m,
                // Watchdog breaches panic with a BreachReport payload;
                // they are classified from the payload itself after
                // catch_unwind, so nothing is lost here.
                (None, _) => String::new(),
            };
            CAPTURED.with(|c| *c.borrow_mut() = Some(captured));
        }));
    });
}

/// Classify a caught panic payload: a watchdog breach carries its own
/// [`BreachReport`]; anything else is a plain panic.
fn classify_failure(payload: Box<dyn std::any::Any + Send>) -> RunFailure {
    match payload.downcast::<BreachReport>() {
        Ok(report) => RunFailure::from(*report),
        Err(payload) => {
            let hook_capture = CAPTURED
                .with(|c| c.borrow_mut().take())
                .filter(|m| !m.is_empty());
            let message = hook_capture.unwrap_or_else(|| {
                payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_string())
            });
            RunFailure::Panicked { message }
        }
    }
}

/// Supervise an arbitrary call: arm the watchdog for the closure's
/// scope, isolate panics, and classify any failure into a [`RunFailure`].
/// This is the core primitive behind [`supervise_one`] and the campaign
/// server's request execution — anything that runs simulator code on a
/// long-lived thread should go through here so a breach can never leak
/// an armed watchdog or a capturing panic hook into the next run.
pub fn supervise_call<T>(wd: &WatchdogConfig, f: impl FnOnce() -> T) -> Result<T, RunFailure> {
    install_capture_hook();
    CAPTURED.with(|c| *c.borrow_mut() = None);
    CAPTURING.set(true);
    let armed = watchdog::arm_scoped(wd);
    let result = catch_unwind(AssertUnwindSafe(f));
    drop(armed);
    CAPTURING.set(false);
    result.map_err(classify_failure)
}

/// One supervised attempt: arm, run, disarm, classify.
fn attempt(
    spec: &ExperimentSpec,
    scale: Scale,
    seed: u64,
    cfg: &SuperviseConfig,
) -> (RunStatus, Option<RunOutcome>) {
    match supervise_call(&cfg.watchdog(), || {
        crate::runner::run_one(spec, scale, seed)
    }) {
        Ok(outcome) => (RunStatus::Completed, Some(outcome)),
        Err(failure) => (RunStatus::Failed(failure), None),
    }
}

/// Run one spec under supervision, retrying per `cfg.retries` with
/// derived seeds. The first attempt uses `seed` exactly as the campaign
/// policy assigned it.
pub fn supervise_one(
    spec: &'static ExperimentSpec,
    scale: Scale,
    seed: u64,
    cfg: &SuperviseConfig,
) -> SupervisedRun {
    let start = std::time::Instant::now();
    let mut attempts = 0u32;
    let mut attempt_seed = seed;
    loop {
        attempts += 1;
        let (status, outcome) = attempt(spec, scale, attempt_seed, cfg);
        let failed = status.is_failure();
        if !failed || attempts > cfg.retries {
            return SupervisedRun {
                id: spec.id,
                seed: attempt_seed,
                attempts,
                flaky: !failed && attempts > 1,
                status,
                outcome,
                wall: start.elapsed(),
                partial_metrics: failed.then(mpwifi_simcore::metrics::snapshot),
            };
        }
        attempt_seed = derive_seed(seed, &format!("{}#retry{}", spec.id, attempts));
    }
}

/// The paste-ready single-run repro command for a quarantined run,
/// mirroring the campaign's flags so the failure replays in isolation.
pub fn repro_command(id: &str, root_seed: u64, scale: Scale, derive_seeds: bool) -> String {
    format!(
        "cargo run --release -p mpwifi-repro -- {id} --seed {root_seed}{}{} --supervise",
        if scale == Scale::Full { " --full" } else { "" },
        if derive_seeds { " --derive-seeds" } else { "" },
    )
}

/// A paste-ready `#[test]` that replays a quarantined run and asserts
/// it completes — the supervision analogue of the conformance
/// shrinker's reproducer, emitted by the same snippet renderer.
pub fn repro_test_snippet(id: &str, seed: u64, scale: Scale) -> String {
    let scale_lit = match scale {
        Scale::Quick => "Quick",
        Scale::Full => "Full",
    };
    mpwifi_conformance::test_snippet(
        &format!("supervised_repro_{}_seed_{seed}", id.replace('-', "_")),
        &[
            format!(
                "let report = mpwifi_repro::run_experiment(\"{id}\", \
                 mpwifi_repro::Scale::{scale_lit}, {seed});"
            ),
            format!("assert!(report.is_some(), \"unknown experiment {id}\");"),
            "// A quarantined run never got this far: reaching the assert".to_string(),
            "// below means the panic/stall no longer reproduces.".to_string(),
            "assert!(report.unwrap().all_hold());".to_string(),
        ],
    )
}

// ---------------------------------------------------------------------
// Planted failure specs — deliberately broken experiments used by the
// supervision smoke tests and `scripts/check.sh --supervise`. They are
// *not* in the registry: campaigns never run them unless named
// explicitly.
// ---------------------------------------------------------------------

fn run_planted_panic(_: Scale, _seed: u64) -> Report {
    panic!("planted panic: this experiment always dies (supervision smoke)");
}

/// A transient failure: panics unless `seed % 4 == 0`. Under retries the
/// derived-seed chain re-rolls the dice each attempt, so whether (and on
/// which attempt) it recovers is a pure function of the root seed — the
/// retry-path tests search the chain to plant a success at a chosen
/// attempt and assert the supervisor lands exactly there.
fn run_planted_transient(_: Scale, seed: u64) -> Report {
    assert!(
        seed.is_multiple_of(4),
        "planted transient failure: seed {seed} is not a multiple of 4"
    );
    let mut r = Report::new(
        "planted-transient",
        "PLANTED — fails unless seed % 4 == 0 (retry-path smoke)",
        "supervision retry smoke",
    );
    r.claim("run completed", "completes", "completed", true);
    r
}

fn run_planted_flaky(_: Scale, seed: u64) -> Report {
    assert!(seed != 42, "planted flaky panic: seed 42 always dies");
    let mut r = Report::new(
        "planted-flaky",
        "PLANTED — panics at seed 42, completes elsewhere",
        "supervision retry smoke",
    );
    r.claim("run completed", "completes", "completed", true);
    r
}

/// The Figure 15g livelock as an experiment: LTE-primary Backup-mode
/// download whose primary silently black-holes and whose client is
/// never notified — the backup never activates, the transfer freezes,
/// and scheduled wakeups keep the event loop alive for hours of sim
/// time. Under supervision the stall TTL kills it with forensics; run
/// unsupervised it burns the full deadline and reports a failed claim.
fn run_planted_stall(_: Scale, seed: u64) -> Report {
    use bytes::Bytes;
    use mpwifi_mptcp::{BackupActivation, Mode, MptcpConfig};
    use mpwifi_netem::FaultPlan;
    use mpwifi_sim::apps::{bulk, FlowDir};
    use mpwifi_sim::{
        LinkSpec, MptcpClientHost, MptcpServerHost, ScriptEvent, Sim, LTE_ADDR, SERVER_ADDR,
        SERVER_PORT, WIFI_ADDR,
    };
    use mpwifi_simcore::{Dur, Time};

    let wifi = LinkSpec::symmetric(8_000_000, Dur::from_millis(30));
    let lte = LinkSpec::symmetric(12_000_000, Dur::from_millis(60));
    let cfg = MptcpConfig {
        mode: Mode::Backup,
        backup_activation: BackupActivation::OnNotify,
        ..MptcpConfig::default()
    };
    let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], seed);
    let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), seed ^ 5);
    let mut b = Sim::builder(client, server)
        .wifi(&wifi)
        .lte(&lte)
        .seed(seed)
        .with_faults(
            LTE_ADDR,
            FaultPlan::new().blackout_forever(Time::from_millis(200)),
        );
    // Keep the event loop alive long past the stall: one wakeup per
    // simulated second for an hour.
    for s in 1..=3600u64 {
        b = b.event(Time::from_secs(s), ScriptEvent::Wakeup);
    }
    let mut sim = b.build();
    let id = sim.client.open(Time::ZERO, cfg, LTE_ADDR, SERVER_PORT);
    let payload = Bytes::from(vec![6u8; 2_000_000]);
    let deadline = Dur::from_secs(3600);
    let completed = bulk(&mut sim, id, FlowDir::Down, payload, deadline, |_, _| {})
        .completed
        .is_some();
    let mut r = Report::new(
        "planted-stall",
        "PLANTED — Figure 15g livelock (silent primary blackout, OnNotify backup)",
        "supervision stall-detection smoke",
    );
    r.claim(
        "transfer completes",
        "completes",
        if completed { "completed" } else { "froze" },
        completed,
    );
    r
}

/// The planted specs, resolvable by [`planted_find`] but absent from
/// [`crate::REGISTRY`].
pub static PLANTED: [ExperimentSpec; 4] = [
    ExperimentSpec {
        id: "planted-panic",
        title: "PLANTED — always panics (supervision smoke)",
        section: "ext",
        extension: true,
        run: run_planted_panic,
    },
    ExperimentSpec {
        id: "planted-stall",
        title: "PLANTED — always livelocks (supervision smoke)",
        section: "ext",
        extension: true,
        run: run_planted_stall,
    },
    ExperimentSpec {
        id: "planted-flaky",
        title: "PLANTED — panics at seed 42 only (retry smoke)",
        section: "ext",
        extension: true,
        run: run_planted_flaky,
    },
    ExperimentSpec {
        id: "planted-transient",
        title: "PLANTED — fails unless seed % 4 == 0 (retry-path smoke)",
        section: "ext",
        extension: true,
        run: run_planted_transient,
    },
];

/// Look a planted spec up by id.
pub fn planted_find(id: &str) -> Option<&'static ExperimentSpec> {
    PLANTED.iter().find(|s| s.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn completed_run_matches_unsupervised_output() {
        let spec = registry::find("table2").unwrap();
        let supervised = supervise_one(spec, Scale::Quick, 42, &SuperviseConfig::default());
        assert_eq!(supervised.status, RunStatus::Completed);
        assert_eq!(supervised.attempts, 1);
        assert!(!supervised.flaky);
        let direct = (spec.run)(Scale::Quick, 42);
        let outcome = supervised.outcome.expect("completed run has an outcome");
        assert_eq!(outcome.report.blocks, direct.blocks);
        assert_eq!(outcome.report.render_text(), {
            let mut d = direct;
            d.metrics = outcome.report.metrics;
            d.render_text()
        });
    }

    #[test]
    fn planted_panic_is_quarantined_with_message() {
        let spec = planted_find("planted-panic").unwrap();
        let run = supervise_one(spec, Scale::Quick, 1, &SuperviseConfig::default());
        let RunStatus::Failed(RunFailure::Panicked { message }) = &run.status else {
            panic!("expected Panicked, got {:?}", run.status);
        };
        assert!(
            message.contains("planted panic") && message.contains("supervise.rs"),
            "message must carry text and location: {message}"
        );
        assert!(run.outcome.is_none());
        assert!(run.partial_metrics.is_some());
    }

    #[test]
    fn planted_stall_is_classified_stalled_with_subflow_forensics() {
        let spec = planted_find("planted-stall").unwrap();
        let run = supervise_one(spec, Scale::Quick, 7, &SuperviseConfig::default());
        let RunStatus::Failed(RunFailure::Stalled { forensics }) = &run.status else {
            panic!("expected Stalled, got label {}", run.status.label());
        };
        assert!(
            forensics.contains("iface lte") && forensics.contains("stale"),
            "forensics must name the dead primary:\n{forensics}"
        );
        assert!(
            forensics.contains("subflow lte"),
            "health lines must list the frozen subflow:\n{forensics}"
        );
    }

    #[test]
    fn event_budget_exhaustion_is_classified() {
        let spec = registry::find("fig9").unwrap();
        let cfg = SuperviseConfig {
            max_events: Some(50),
            wall_limit_ms: None,
            stall_ttl_us: None,
            retries: 0,
        };
        let run = supervise_one(spec, Scale::Quick, 42, &cfg);
        assert!(
            matches!(
                run.status,
                RunStatus::Failed(RunFailure::BudgetExhausted { limit: 50, .. })
            ),
            "expected BudgetExhausted, got {}",
            run.status.label()
        );
    }

    #[test]
    fn retry_with_derived_seed_marks_flaky() {
        let spec = planted_find("planted-flaky").unwrap();
        // Seed 42 dies; the retry derives a different seed and passes.
        let cfg = SuperviseConfig {
            retries: 1,
            ..SuperviseConfig::default()
        };
        let run = supervise_one(spec, Scale::Quick, 42, &cfg);
        assert_eq!(run.status, RunStatus::Completed);
        assert_eq!(run.attempts, 2);
        assert!(run.flaky, "a retried success must be flagged flaky");
        assert_eq!(run.seed, derive_seed(42, "planted-flaky#retry1"));
        // Without retries the same spec+seed is quarantined.
        let no_retry = supervise_one(spec, Scale::Quick, 42, &SuperviseConfig::default());
        assert!(no_retry.status.is_failure());
        assert!(!no_retry.flaky);
    }

    /// The attempt-seed chain `supervise_one` walks for a spec, starting
    /// from the root seed: `[root, retry1, retry2, ...]`.
    fn transient_chain(root: u64, len: usize) -> Vec<u64> {
        let mut seeds = vec![root];
        for n in 1..len {
            seeds.push(derive_seed(root, &format!("planted-transient#retry{n}")));
        }
        seeds
    }

    /// First attempt index (0-based) at which `planted-transient` passes.
    fn first_success(chain: &[u64]) -> Option<usize> {
        chain.iter().position(|s| s % 4 == 0)
    }

    /// A root seed whose derived chain first succeeds exactly at attempt
    /// index `n` (so `supervise_one` needs `n` retries to complete).
    fn root_with_success_at(n: usize) -> u64 {
        (0u64..100_000)
            .find(|&root| first_success(&transient_chain(root, n + 2)) == Some(n))
            .expect("no root seed with the wanted retry profile")
    }

    #[test]
    fn transient_failure_succeeds_on_predicted_retry() {
        let spec = planted_find("planted-transient").unwrap();
        // Root and retry-1 seeds fail, retry-2 passes: three attempts.
        let root = root_with_success_at(2);
        let cfg = SuperviseConfig {
            retries: 4,
            ..SuperviseConfig::default()
        };
        let run = supervise_one(spec, Scale::Quick, root, &cfg);
        assert_eq!(run.status, RunStatus::Completed);
        assert_eq!(
            run.attempts, 3,
            "must complete on exactly the third attempt"
        );
        assert!(run.flaky, "a retried success must be flagged flaky");
        assert_eq!(
            run.seed,
            derive_seed(root, "planted-transient#retry2"),
            "final attempt must run under the documented derived seed"
        );
        assert!(run.outcome.is_some());
        assert!(run.partial_metrics.is_none());
    }

    #[test]
    fn transient_failure_quarantines_only_after_retries_exhausted() {
        let spec = planted_find("planted-transient").unwrap();
        let root = root_with_success_at(2);
        // One retry is not enough: both attempts fail, the run is
        // quarantined, and the attempt count proves no retry was skipped.
        let short = SuperviseConfig {
            retries: 1,
            ..SuperviseConfig::default()
        };
        let run = supervise_one(spec, Scale::Quick, root, &short);
        assert!(
            matches!(run.status, RunStatus::Failed(RunFailure::Panicked { .. })),
            "expected quarantine, got {}",
            run.status.label()
        );
        assert_eq!(
            run.attempts, 2,
            "retries must be exhausted before quarantine"
        );
        assert!(!run.flaky);
        assert!(run.outcome.is_none());
        // Two retries reach the planted success: same spec, same root
        // seed, now completes — quarantine was purely a retry-budget call.
        let enough = SuperviseConfig {
            retries: 2,
            ..SuperviseConfig::default()
        };
        let recovered = supervise_one(spec, Scale::Quick, root, &enough);
        assert_eq!(recovered.status, RunStatus::Completed);
        assert_eq!(recovered.attempts, 3);
    }

    #[test]
    fn supervise_call_isolates_panics_and_disarms() {
        let wd = WatchdogConfig {
            max_events: Some(1_000),
            ..WatchdogConfig::default()
        };
        let ok: Result<u64, RunFailure> = supervise_call(&wd, || 41 + 1);
        assert_eq!(ok, Ok(42));
        assert!(!watchdog::armed(), "success path must disarm");
        let err: Result<(), RunFailure> = supervise_call(&wd, || panic!("scoped boom"));
        let Err(RunFailure::Panicked { message }) = err else {
            panic!("expected Panicked, got {err:?}");
        };
        assert!(message.contains("scoped boom"));
        assert!(!watchdog::armed(), "unwind path must disarm");
    }

    #[test]
    fn repro_artifacts_are_paste_ready() {
        let cmd = repro_command("planted-stall", 42, Scale::Quick, false);
        assert_eq!(
            cmd,
            "cargo run --release -p mpwifi-repro -- planted-stall --seed 42 --supervise"
        );
        assert!(repro_command("fig9", 7, Scale::Full, true).contains("--full --derive-seeds"));
        let snip = repro_test_snippet("planted-stall", 42, Scale::Quick);
        assert!(snip.starts_with("#[test]\nfn supervised_repro_planted_stall_seed_42() {\n"));
        assert!(snip.contains("mpwifi_repro::run_experiment(\"planted-stall\""));
        assert!(snip.trim_end().ends_with('}'));
    }
}
