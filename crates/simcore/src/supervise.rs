//! Cooperative per-run watchdog: event budgets, wall-clock deadlines,
//! and a sim-time stall TTL.
//!
//! The experiment supervisor (`mpwifi-repro`'s `supervise` module) arms
//! this thread-local watchdog around a run; the simulator's event loop
//! calls [`tick`] once per step. When a budget is breached the *caller*
//! (the sim, which owns the forensic context) raises a panic carrying a
//! [`BreachReport`], and the supervisor's `catch_unwind` converts it
//! into a structured outcome. Disarmed, [`tick`] is a single
//! thread-local boolean read — measurement runs pay nothing.
//!
//! All three budgets are *cooperative*: enforcement happens at event-
//! loop granularity, which is exactly where panics, livelocks and
//! stalls in this workspace can occur (experiment code outside a `Sim`
//! is straight-line and terminates). Determinism note: the event budget
//! and stall TTL are functions of simulated state only, so a breach is
//! reproducible bit-for-bit from `(scenario, seed)`; the wall-clock
//! deadline is the lone nondeterministic escape hatch and is set far
//! above any healthy run.

use std::cell::Cell;
use std::time::Instant;

/// What the watchdog enforces while armed. `None` disables that check.
#[derive(Debug, Clone, Copy, Default)]
pub struct WatchdogConfig {
    /// Maximum simulator event-loop steps for the run.
    pub max_events: Option<u64>,
    /// Maximum wall-clock time for the run, in milliseconds.
    pub wall_limit_ms: Option<u64>,
    /// Maximum *simulated* time without delivery-watermark progress, in
    /// microseconds. Catches livelocks that keep scheduling events
    /// (retransmit backoff into a black hole) without delivering bytes.
    pub stall_ttl_us: Option<u64>,
}

impl WatchdogConfig {
    /// Does any check need the watchdog armed at all?
    pub fn is_active(&self) -> bool {
        self.max_events.is_some() || self.wall_limit_ms.is_some() || self.stall_ttl_us.is_some()
    }
}

/// A budget violation detected by [`tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Breach {
    /// The run consumed its event-loop step budget.
    EventBudget {
        /// The configured step limit.
        limit: u64,
    },
    /// The run exceeded its wall-clock deadline.
    WallClock {
        /// The configured limit in milliseconds.
        limit_ms: u64,
    },
    /// Simulated time advanced `stall_ttl` past the last delivery-
    /// watermark advance: the run is live (events keep firing) but no
    /// payload progress is being made.
    Stall {
        /// Sim time of the last watermark advance, in microseconds.
        last_advance_us: u64,
        /// Current sim time, in microseconds.
        now_us: u64,
    },
}

impl Breach {
    /// Short stable label for reports and sidecars.
    pub fn label(&self) -> &'static str {
        match self {
            Breach::EventBudget { .. } => "event-budget",
            Breach::WallClock { .. } => "wall-clock",
            Breach::Stall { .. } => "stall",
        }
    }
}

/// The panic payload the simulator raises on a breach: the breach plus
/// a rendered forensic snapshot captured at the point of failure.
/// Owned data only, so it satisfies the `Any + Send + 'static` panic
/// payload bound and survives `catch_unwind`.
#[derive(Debug)]
pub struct BreachReport {
    /// Which budget was breached.
    pub breach: Breach,
    /// Rendered forensic snapshot (see `mpwifi-sim`'s `StallSnapshot`).
    pub forensics: String,
}

/// Why a supervised run did not complete — the one failure vocabulary
/// the batch supervisor (`repro::RunRecord`) and the campaign server
/// (`serve::RequestStatus`) both carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunFailure {
    /// The run panicked.
    Panicked {
        /// Panic message, plus `file:line` when available.
        message: String,
    },
    /// The sim-time stall TTL fired: events kept firing but the
    /// delivery watermark was flat for the whole TTL.
    Stalled {
        /// Forensic snapshot rendered at the breach.
        forensics: String,
    },
    /// The wall-clock deadline fired.
    DeadlineExceeded {
        /// The configured limit in milliseconds.
        limit_ms: u64,
        /// Forensic snapshot rendered at the breach.
        forensics: String,
    },
    /// The event budget fired.
    BudgetExhausted {
        /// The configured step limit.
        limit: u64,
        /// Forensic snapshot rendered at the breach.
        forensics: String,
    },
}

impl RunFailure {
    /// Short stable label for reports, sidecars and the wire.
    pub fn label(&self) -> &'static str {
        match self {
            RunFailure::Panicked { .. } => "panicked",
            RunFailure::Stalled { .. } => "stalled",
            RunFailure::DeadlineExceeded { .. } => "deadline-exceeded",
            RunFailure::BudgetExhausted { .. } => "budget-exhausted",
        }
    }

    /// The forensic text: the panic message or the breach snapshot.
    pub fn forensics(&self) -> &str {
        match self {
            RunFailure::Panicked { message } => message,
            RunFailure::Stalled { forensics }
            | RunFailure::DeadlineExceeded { forensics, .. }
            | RunFailure::BudgetExhausted { forensics, .. } => forensics,
        }
    }

    /// The inverse of [`label`](Self::label) + [`forensics`](Self::forensics),
    /// for decoding a wire line. The wire carries no limits, so they
    /// come back as zero; `None` for a label that names no failure.
    pub fn from_label(label: &str, forensics: String) -> Option<RunFailure> {
        Some(match label {
            "panicked" => RunFailure::Panicked { message: forensics },
            "stalled" => RunFailure::Stalled { forensics },
            "deadline-exceeded" => RunFailure::DeadlineExceeded {
                limit_ms: 0,
                forensics,
            },
            "budget-exhausted" => RunFailure::BudgetExhausted {
                limit: 0,
                forensics,
            },
            _ => return None,
        })
    }
}

impl From<BreachReport> for RunFailure {
    fn from(report: BreachReport) -> RunFailure {
        let forensics = report.forensics;
        match report.breach {
            Breach::Stall { .. } => RunFailure::Stalled { forensics },
            Breach::EventBudget { limit } => RunFailure::BudgetExhausted { limit, forensics },
            Breach::WallClock { limit_ms } => RunFailure::DeadlineExceeded {
                limit_ms,
                forensics,
            },
        }
    }
}

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static EVENTS_LEFT: Cell<u64> = const { Cell::new(u64::MAX) };
    static EVENT_LIMIT: Cell<u64> = const { Cell::new(u64::MAX) };
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
    static WALL_LIMIT_MS: Cell<u64> = const { Cell::new(0) };
    static STALL_TTL_US: Cell<u64> = const { Cell::new(u64::MAX) };
    static LAST_NOW_US: Cell<u64> = const { Cell::new(0) };
    static LAST_ADVANCE_US: Cell<u64> = const { Cell::new(0) };
    static LAST_WATERMARK: Cell<u64> = const { Cell::new(0) };
}

/// Arm the watchdog for the current thread. Overwrites any previous
/// arming; a no-op config leaves the watchdog disarmed.
fn arm(cfg: &WatchdogConfig) {
    if !cfg.is_active() {
        disarm();
        return;
    }
    EVENT_LIMIT.set(cfg.max_events.unwrap_or(u64::MAX));
    EVENTS_LEFT.set(cfg.max_events.unwrap_or(u64::MAX));
    WALL_LIMIT_MS.set(cfg.wall_limit_ms.unwrap_or(0));
    DEADLINE.set(
        cfg.wall_limit_ms
            .map(|ms| Instant::now() + std::time::Duration::from_millis(ms)),
    );
    STALL_TTL_US.set(cfg.stall_ttl_us.unwrap_or(u64::MAX));
    LAST_NOW_US.set(0);
    LAST_ADVANCE_US.set(0);
    LAST_WATERMARK.set(0);
    ARMED.set(true);
}

/// Disarm the watchdog for the current thread.
fn disarm() {
    ARMED.set(false);
}

/// RAII guard returned by [`arm_scoped`]; disarms on drop.
#[derive(Debug)]
pub struct Armed {
    // Thread-local watchdog: the guard must stay on the arming thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for Armed {
    fn drop(&mut self) {
        disarm();
    }
}

/// Arm the watchdog for the current scope. The guard disarms even when
/// the scope unwinds — the shape long-running hosts (the campaign server)
/// need so a breached request can never leak an armed watchdog into the
/// worker's next request.
#[must_use = "dropping the guard disarms the watchdog immediately"]
pub fn arm_scoped(cfg: &WatchdogConfig) -> Armed {
    arm(cfg);
    Armed {
        _not_send: std::marker::PhantomData,
    }
}

/// Is the watchdog armed on this thread?
pub fn armed() -> bool {
    ARMED.get()
}

/// One event-loop step: `now_us` is the current simulated time,
/// `watermark` the driver's cumulative delivered-payload count. Returns
/// the breach to raise, if any. Disarmed cost: one thread-local read.
///
/// A `now_us`/`watermark` pair that moves backwards marks a *new*
/// simulator instance inside the same run (experiments drive several
/// sims); the stall baseline resets so idle windows never accumulate
/// across instances.
#[inline]
pub fn tick(now_us: u64, watermark: u64) -> Option<Breach> {
    if !ARMED.get() {
        return None;
    }
    tick_armed(now_us, watermark)
}

#[cold]
fn tick_armed(now_us: u64, watermark: u64) -> Option<Breach> {
    let left = EVENTS_LEFT.get();
    if left == 0 {
        return Some(Breach::EventBudget {
            limit: EVENT_LIMIT.get(),
        });
    }
    EVENTS_LEFT.set(left - 1);

    if now_us < LAST_NOW_US.get() || watermark < LAST_WATERMARK.get() {
        // A fresh Sim started (time restarted from zero): reset the
        // stall baseline to the new clock.
        LAST_ADVANCE_US.set(now_us);
        LAST_WATERMARK.set(watermark);
    } else if watermark > LAST_WATERMARK.get() {
        LAST_ADVANCE_US.set(now_us);
        LAST_WATERMARK.set(watermark);
    }
    LAST_NOW_US.set(now_us);

    let ttl = STALL_TTL_US.get();
    if ttl != u64::MAX {
        let last = LAST_ADVANCE_US.get();
        if now_us.saturating_sub(last) >= ttl {
            return Some(Breach::Stall {
                last_advance_us: last,
                now_us,
            });
        }
    }

    if let Some(deadline) = DEADLINE.get() {
        if Instant::now() >= deadline {
            return Some(Breach::WallClock {
                limit_ms: WALL_LIMIT_MS.get(),
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_tick_is_a_no_op() {
        disarm();
        for i in 0..10_000 {
            assert_eq!(tick(i, 0), None);
        }
    }

    #[test]
    fn event_budget_breaches_after_exactly_limit_steps() {
        arm(&WatchdogConfig {
            max_events: Some(3),
            ..WatchdogConfig::default()
        });
        assert_eq!(tick(1, 0), None);
        assert_eq!(tick(2, 0), None);
        assert_eq!(tick(3, 0), None);
        assert_eq!(tick(4, 0), Some(Breach::EventBudget { limit: 3 }));
        disarm();
    }

    #[test]
    fn stall_ttl_fires_only_without_watermark_progress() {
        arm(&WatchdogConfig {
            stall_ttl_us: Some(1_000_000),
            ..WatchdogConfig::default()
        });
        // Progress every 0.5 s: never stalls.
        for i in 1..=10u64 {
            assert_eq!(tick(i * 500_000, i), None, "progressing run breached");
        }
        // Watermark freezes; sim time keeps advancing.
        assert_eq!(tick(5_400_000, 10), None);
        let breach = tick(6_100_000, 10);
        assert_eq!(
            breach,
            Some(Breach::Stall {
                last_advance_us: 5_000_000,
                now_us: 6_100_000
            })
        );
        disarm();
    }

    #[test]
    fn new_sim_instance_resets_the_stall_baseline() {
        arm(&WatchdogConfig {
            stall_ttl_us: Some(1_000_000),
            ..WatchdogConfig::default()
        });
        assert_eq!(tick(900_000, 5), None);
        // Clock restarts (a second Sim inside the same experiment): the
        // old idle window must not count against the new instance.
        assert_eq!(tick(100, 0), None);
        assert_eq!(tick(900_000, 0), None, "idle windows must not accumulate");
        assert!(tick(1_200_000, 0).is_some(), "but a real stall still fires");
        disarm();
    }

    #[test]
    fn failure_labels_round_trip_and_breaches_classify() {
        let report = |breach| BreachReport {
            breach,
            forensics: "snap".into(),
        };
        let failures = [
            RunFailure::Panicked {
                message: "snap".into(),
            },
            RunFailure::from(report(Breach::Stall {
                last_advance_us: 1,
                now_us: 2,
            })),
            RunFailure::from(report(Breach::WallClock { limit_ms: 0 })),
            RunFailure::from(report(Breach::EventBudget { limit: 0 })),
        ];
        let labels = failures.each_ref().map(RunFailure::label);
        assert_eq!(
            labels,
            [
                "panicked",
                "stalled",
                "deadline-exceeded",
                "budget-exhausted"
            ]
        );
        for f in failures {
            assert_eq!(f.forensics(), "snap");
            assert_eq!(
                RunFailure::from_label(f.label(), "snap".into()).as_ref(),
                Some(&f)
            );
        }
        assert_eq!(RunFailure::from_label("completed", String::new()), None);
        assert_eq!(
            RunFailure::from(report(Breach::EventBudget { limit: 50 })),
            RunFailure::BudgetExhausted {
                limit: 50,
                forensics: "snap".into()
            }
        );
    }

    #[test]
    fn inactive_config_does_not_arm() {
        arm(&WatchdogConfig::default());
        assert!(!armed());
    }

    #[test]
    fn scoped_guard_disarms_on_drop_and_on_unwind() {
        {
            let _armed = arm_scoped(&WatchdogConfig {
                max_events: Some(10),
                ..WatchdogConfig::default()
            });
            assert!(armed());
        }
        assert!(!armed(), "guard drop must disarm");

        let unwound = std::panic::catch_unwind(|| {
            let _armed = arm_scoped(&WatchdogConfig {
                max_events: Some(10),
                ..WatchdogConfig::default()
            });
            panic!("breach");
        });
        assert!(unwound.is_err());
        assert!(!armed(), "unwind past the guard must disarm");
    }
}
