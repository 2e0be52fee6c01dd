//! Supervised campaign execution: panic isolation, run watchdogs, and
//! quarantine-and-continue.
//!
//! Every experiment run is wrapped in `catch_unwind` and a cooperative
//! watchdog ([`mpwifi_simcore::supervise`]): a panicking, livelocked,
//! or runaway experiment comes back as a [`RunFailure`] with forensics
//! instead of killing the campaign. The campaign completes; healthy
//! sections render byte-identically to a direct call of the experiment;
//! failures land in a quarantine sidecar with a paste-ready repro
//! command.
//!
//! Determinism: supervision never perturbs a healthy run. The watchdog
//! is a per-step thread-local check in the simulator that raises only
//! on breach; `catch_unwind` is transparent on the success path; and
//! the failure taxonomy (except the wall-clock deadline, a documented
//! nondeterministic escape hatch set far above any healthy run) is a
//! pure function of `(scenario, seed)`. Batch runs
//! ([`SuperviseConfig::batch`]) arm no wall-clock deadline, so which
//! runs are quarantined is a pure function of `(id, scale, seed)` too.

use crate::registry::ExperimentSpec;
use crate::report::{Report, Scale};
use crate::runner::{run_one, RunRecord};
use mpwifi_simcore::supervise as watchdog;
use mpwifi_simcore::{BreachReport, RunFailure, WatchdogConfig};
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

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
    /// The budgets armed around every run.
    pub watchdog: WatchdogConfig,
}

impl Default for SuperviseConfig {
    /// All three default budgets: what `repro serve` arms.
    fn default() -> Self {
        SuperviseConfig {
            watchdog: WatchdogConfig {
                max_events: Some(DEFAULT_MAX_EVENTS),
                wall_limit_ms: Some(DEFAULT_WALL_LIMIT_MS),
                stall_ttl_us: Some(DEFAULT_STALL_TTL_US),
            },
        }
    }
}

impl SuperviseConfig {
    /// The deterministic budgets only (events and stall TTL): what a
    /// `repro` batch run arms, so a report — and whether the run is
    /// quarantined at all — stays a pure function of `(id, scale, seed)`
    /// on any machine and under any load.
    pub fn batch() -> SuperviseConfig {
        let mut cfg = SuperviseConfig::default();
        cfg.watchdog.wall_limit_ms = None;
        cfg
    }
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

/// Run one spec under supervision, once, with `seed` exactly as the
/// campaign policy assigned it. A failure is final: the record is
/// quarantined, never re-run on another seed.
pub fn supervise_one(
    spec: &'static ExperimentSpec,
    scale: Scale,
    seed: u64,
    cfg: &SuperviseConfig,
) -> RunRecord {
    let start = std::time::Instant::now();
    let result = supervise_call(&cfg.watchdog, || run_one(spec, scale, seed))
        .map_err(|failure| (failure, mpwifi_simcore::metrics::snapshot()));
    RunRecord {
        id: spec.id,
        seed,
        wall: start.elapsed(),
        result,
    }
}

/// The paste-ready single-run repro command for a quarantined run,
/// mirroring the campaign's flags so the failure replays in isolation.
pub fn repro_command(id: &str, root_seed: u64, scale: Scale, derive_seeds: bool) -> String {
    format!(
        "cargo run --release -p mpwifi-repro -- {id} --seed {root_seed}{}{}",
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
// supervision tests and the supervise smoke of `scripts/check.sh
// --full`. They are *not* in the registry: `registry::find` resolves
// them by name, but `all` and `extensions` never run them.
// ---------------------------------------------------------------------

fn run_planted_panic(_: Scale, _seed: u64) -> Report {
    panic!("planted panic: this experiment always dies (supervision smoke)");
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
/// time. The supervisor's stall TTL kills it with forensics; called
/// directly (`run_experiment`, as a quarantine test snippet does) it
/// burns the full hour of simulated time and reports a failed claim.
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

/// The planted specs, resolvable by [`crate::registry::find`] but absent
/// from [`crate::REGISTRY`].
pub static PLANTED: [ExperimentSpec; 3] = [
    ExperimentSpec {
        id: "planted-panic",
        title: "PLANTED — always panics (supervision smoke)",
        section: "ext",
        run: run_planted_panic,
    },
    ExperimentSpec {
        id: "planted-stall",
        title: "PLANTED — always livelocks (supervision smoke)",
        section: "ext",
        run: run_planted_stall,
    },
    ExperimentSpec {
        id: "planted-flaky",
        title: "PLANTED — panics at seed 42 only (retry smoke)",
        section: "ext",
        run: run_planted_flaky,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::find;

    /// The failure of a quarantined run; panics on a completed one.
    fn failure(run: &RunRecord) -> &RunFailure {
        match &run.result {
            Err((failure, _)) => failure,
            Ok(_) => panic!("{} completed; expected a quarantine", run.id),
        }
    }

    #[test]
    fn completed_run_matches_a_direct_call() {
        let spec = find("table2").unwrap();
        let supervised = supervise_one(spec, Scale::Quick, 42, &SuperviseConfig::default());
        let report = supervised.result.expect("table2 completes");
        let mut direct = (spec.run)(Scale::Quick, 42);
        assert_eq!(report.blocks, direct.blocks);
        direct.metrics = report.metrics;
        assert_eq!(report.render_text(), direct.render_text());
    }

    #[test]
    fn planted_panic_is_quarantined_with_message() {
        let spec = find("planted-panic").unwrap();
        let run = supervise_one(spec, Scale::Quick, 1, &SuperviseConfig::default());
        let RunFailure::Panicked { message } = failure(&run) else {
            panic!("expected Panicked, got {:?}", run.result);
        };
        assert!(
            message.contains("planted panic") && message.contains("supervise.rs"),
            "message must carry text and location: {message}"
        );
    }

    #[test]
    fn planted_stall_is_classified_stalled_with_subflow_forensics() {
        let spec = find("planted-stall").unwrap();
        let run = supervise_one(spec, Scale::Quick, 7, &SuperviseConfig::batch());
        let RunFailure::Stalled { forensics } = failure(&run) else {
            panic!("expected Stalled, got label {}", failure(&run).label());
        };
        assert!(
            forensics.contains("iface lte") && forensics.contains("stale"),
            "forensics must name the dead primary:\n{forensics}"
        );
        assert!(
            forensics.contains("subflow lte"),
            "health lines must list the frozen subflow:\n{forensics}"
        );
        assert!(
            run.metrics().events_popped > 0,
            "partial work before the stall"
        );
    }

    #[test]
    fn event_budget_exhaustion_is_classified() {
        let spec = find("fig9").unwrap();
        let cfg = SuperviseConfig {
            watchdog: WatchdogConfig {
                max_events: Some(50),
                ..WatchdogConfig::default()
            },
        };
        let run = supervise_one(spec, Scale::Quick, 42, &cfg);
        assert!(
            matches!(failure(&run), RunFailure::BudgetExhausted { limit: 50, .. }),
            "expected BudgetExhausted, got {}",
            failure(&run).label()
        );
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
            "cargo run --release -p mpwifi-repro -- planted-stall --seed 42"
        );
        assert!(repro_command("fig9", 7, Scale::Full, true).ends_with("--full --derive-seeds"));
        let snip = repro_test_snippet("planted-stall", 42, Scale::Quick);
        assert!(snip.starts_with("#[test]\nfn supervised_repro_planted_stall_seed_42() {\n"));
        assert!(snip.contains("mpwifi_repro::run_experiment(\"planted-stall\""));
        assert!(snip.trim_end().ends_with('}'));
    }
}
