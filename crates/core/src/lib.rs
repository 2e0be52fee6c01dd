//! # mpwifi-core
//!
//! The paper-facing API of the reproduction: orchestration of every
//! study in "WiFi, LTE, or Both?" over the substrate crates.
//!
//! * [`flowstudy`] — the Section 3 MPTCP measurements: all six transport
//!   configurations at the 20 locations, throughput as a function of
//!   flow size, primary-subflow and congestion-control comparisons
//!   (Figures 7–14);
//! * [`appstudy`] — the Section 5 app replays: six transports × emulated
//!   network conditions, app response times and oracle analyses
//!   (Figures 18–21);
//! * [`oracle`] — the paper's five oracle schemes (best-network /
//!   best-CC selectors given partial knowledge);
//! * [`policy`] — network-selection policies answering the paper's
//!   motivating question ("which network should an application use?"),
//!   including today's default (always WiFi) and measurement-driven
//!   selectors.
//!
//! Figure 2's measurement run (1 MB up, 1 MB down and pings on each
//! network) is `mpwifi-crowd`'s `measure::measure_pair`.

pub mod appstudy;
pub mod flowstudy;
pub mod oracle;
pub mod policy;

pub use appstudy::{run_app_study, AppStudyResult, ConditionResult};
pub use flowstudy::{run_location_study, FlowDir, LocationStudy, StudyTransport};
pub use oracle::{OracleKind, OracleReport};
pub use policy::{AlwaysWifi, BestMeasured, NetworkChoice, NetworkSelector};
