//! # mpwifi-radio
//!
//! Radio-layer models: synthetic-but-calibrated WiFi/LTE link
//! conditions, Mahimahi-style variable-rate trace generation, the
//! paper's 20 measurement locations (Table 2), and the LTE RRC
//! power/energy model behind Figure 16.
//!
//! This crate is the substitution for the hardware the paper used —
//! real phones on Verizon/Sprint LTE and public WiFi. The distributions
//! here are calibrated to the paper's published aggregates:
//!
//! * throughput differences spanning −15..+25 Mbit/s with LTE winning
//!   ≈40% of runs overall (Figures 3 and 6);
//! * LTE ping RTT lower than WiFi in ≈20% of runs (Figure 4);
//! * per-location-cluster LTE win rates of Table 1 (consumed by
//!   `mpwifi-crowd`).

pub mod conditions;
pub mod energy;
pub mod locations;
pub mod tracegen;

pub use conditions::{CellKind, EnvKind, LinkDraw, WirelessWorld};
pub use energy::{EnergyBreakdown, PowerModel, RadioKind};
pub use locations::{paper_locations, LocationCondition};
pub use tracegen::{lte_trace, wifi_trace};

/// Cap all generated rates into a sane band (bits/s).
pub const MIN_RATE_BPS: f64 = 100_000.0;
/// Upper rate cap (bits/s) — matches the paper's observed ceiling of
/// roughly 25 Mbit/s above the other network.
pub const MAX_RATE_BPS: f64 = 60_000_000.0;
