//! # mpwifi — "WiFi, LTE, or Both?" reproduced in Rust
//!
//! A full reproduction of Deng, Netravali, Sivaraman and Balakrishnan,
//! *"WiFi, LTE, or Both? Measuring Multi-Homed Wireless Internet
//! Performance"* (IMC 2014), built as a deterministic packet-level
//! simulation stack. This facade crate re-exports the workspace so a
//! downstream user can depend on one crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`simcore`] | `mpwifi-simcore` | simulated time, event queue, deterministic RNG |
//! | [`netem`] | `mpwifi-netem` | Mahimahi-style link emulation (queues, traces, delay, loss) |
//! | [`tcp`] | `mpwifi-tcp` | a from-scratch TCP (handshake, SACK recovery, Reno/CUBIC) |
//! | [`mptcp`] | `mpwifi-mptcp` | MPTCP: subflows, DSS, LIA coupled CC, backup mode |
//! | [`sim`] | `mpwifi-sim` | the testbed (a table of access links, WiFi and LTE its two rows), driver loop, workload runners |
//! | [`radio`] | `mpwifi-radio` | WiFi/LTE condition synthesis, traces, LTE tail-energy model |
//! | [`measure`] | `mpwifi-measure` | CDFs, quantiles, geographic k-means, renderers |
//! | [`crowd`] | `mpwifi-crowd` | the Cell vs WiFi crowd study (Table 1, Figures 3/4/6) |
//! | [`apps`] | `mpwifi-apps` | app traffic patterns and the replay engine (Figures 17–21) |
//! | [`core`] | `mpwifi-core` | study orchestration, oracles, network-selection policies |
//!
//! ## Quick start
//!
//! Run one MPTCP download over an emulated WiFi/LTE pair and compare it
//! with single-path TCP:
//!
//! ```
//! use mpwifi::sim::{apps::run_tcp_download, apps::run_mptcp_download, LinkSpec, WIFI_ADDR};
//! use mpwifi::mptcp::MptcpConfig;
//! use mpwifi::simcore::Dur;
//!
//! let wifi = LinkSpec::symmetric(8_000_000, Dur::from_millis(25));
//! let lte = LinkSpec::symmetric(7_000_000, Dur::from_millis(55));
//!
//! let tcp = run_tcp_download(&wifi, &lte, WIFI_ADDR, 1_000_000,
//!     Default::default(), Dur::from_secs(60), 42);
//! let mptcp = run_mptcp_download(&wifi, &lte, WIFI_ADDR, 1_000_000,
//!     MptcpConfig::default(), Dur::from_secs(60), 42);
//!
//! // On comparable links, MPTCP pools both paths for a 1 MB flow.
//! assert!(mptcp.avg_throughput_bps().unwrap() > tcp.avg_throughput_bps().unwrap());
//! ```
//!
//! The `repro` binary (crate `mpwifi-repro`) regenerates every table and
//! figure: `cargo run --release -p mpwifi-repro -- all`.

pub use mpwifi_apps as apps;
pub use mpwifi_core as core;
pub use mpwifi_crowd as crowd;
pub use mpwifi_measure as measure;
pub use mpwifi_mptcp as mptcp;
pub use mpwifi_netem as netem;
pub use mpwifi_radio as radio;
pub use mpwifi_sim as sim;
pub use mpwifi_simcore as simcore;
pub use mpwifi_tcp as tcp;
