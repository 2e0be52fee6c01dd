//! The Section 3 flow-level MPTCP study.
//!
//! At each location the paper ran, per measurement run: single-path TCP
//! on each network, and MPTCP in Full mode with each choice of primary
//! subflow (and, at 7 locations, each congestion control). Throughput
//! as a function of flow size is derived by prefix-truncating a 1 MB
//! transfer's progress curve — a 10 kB "flow" is the first 10 kB of the
//! big transfer, exactly how slow-start cost shows up in Figures 7/11/12.

use mpwifi_mptcp::{BackupActivation, CcKind, Mode, MptcpConfig};
pub use mpwifi_sim::apps::FlowDir;
use mpwifi_sim::apps::{
    run_mptcp_download, run_mptcp_upload, run_tcp_download, run_tcp_upload, BulkResult,
};
use mpwifi_sim::{LinkSpec, LTE_ADDR, WIFI_ADDR};
use mpwifi_simcore::Dur;
use mpwifi_tcp::cc::CcKind as TcpCcKind;
use mpwifi_tcp::conn::TcpConfig;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The six measured transport configurations, in a form usable as a map
/// key (ordered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StudyTransport {
    /// Single-path TCP over WiFi.
    TcpWifi,
    /// Single-path TCP over LTE.
    TcpLte,
    /// MPTCP, WiFi primary, coupled (LIA).
    MpWifiCoupled,
    /// MPTCP, LTE primary, coupled (LIA).
    MpLteCoupled,
    /// MPTCP, WiFi primary, decoupled (Reno per subflow).
    MpWifiDecoupled,
    /// MPTCP, LTE primary, decoupled (Reno per subflow).
    MpLteDecoupled,
}

impl StudyTransport {
    /// All six, in the paper's legend order.
    pub const ALL: [StudyTransport; 6] = [
        StudyTransport::TcpLte,
        StudyTransport::TcpWifi,
        StudyTransport::MpLteDecoupled,
        StudyTransport::MpWifiDecoupled,
        StudyTransport::MpLteCoupled,
        StudyTransport::MpWifiCoupled,
    ];

    /// Paper-style label.
    pub fn label(&self) -> &'static str {
        match self {
            StudyTransport::TcpWifi => "WiFi",
            StudyTransport::TcpLte => "LTE",
            StudyTransport::MpWifiCoupled => "MPTCP(WiFi, Coupled)",
            StudyTransport::MpLteCoupled => "MPTCP(LTE, Coupled)",
            StudyTransport::MpWifiDecoupled => "MPTCP(WiFi, Decoupled)",
            StudyTransport::MpLteDecoupled => "MPTCP(LTE, Decoupled)",
        }
    }

    /// Is this an MPTCP configuration?
    pub fn is_mptcp(&self) -> bool {
        !matches!(self, StudyTransport::TcpWifi | StudyTransport::TcpLte)
    }
}

/// MPTCP config for a study transport (Full mode, min-RTT scheduler —
/// the paper's Section 3 setup).
fn mptcp_config(coupled: bool) -> MptcpConfig {
    MptcpConfig {
        cc: if coupled { CcKind::Lia } else { CcKind::Reno },
        mode: Mode::Full,
        backup_activation: BackupActivation::OnNotify,
        ..MptcpConfig::default()
    }
}

/// Single-path TCP config (CUBIC, the Linux default the paper ran).
fn tcp_config() -> TcpConfig {
    TcpConfig {
        cc: TcpCcKind::Cubic,
        ..TcpConfig::default()
    }
}

/// Run one transfer of `bytes` and return the full [`BulkResult`].
pub fn run_transfer(
    wifi: &LinkSpec,
    lte: &LinkSpec,
    transport: StudyTransport,
    dir: FlowDir,
    bytes: u64,
    seed: u64,
) -> BulkResult {
    let deadline = Dur::from_secs(300);
    // Interface (TCP) or primary subflow (MPTCP), and the MPTCP coupling.
    let (iface, coupled) = match transport {
        StudyTransport::TcpWifi => (WIFI_ADDR, None),
        StudyTransport::TcpLte => (LTE_ADDR, None),
        StudyTransport::MpWifiCoupled => (WIFI_ADDR, Some(true)),
        StudyTransport::MpLteCoupled => (LTE_ADDR, Some(true)),
        StudyTransport::MpWifiDecoupled => (WIFI_ADDR, Some(false)),
        StudyTransport::MpLteDecoupled => (LTE_ADDR, Some(false)),
    };
    match (coupled, dir) {
        (None, FlowDir::Down) => {
            run_tcp_download(wifi, lte, iface, bytes, tcp_config(), deadline, seed)
        }
        (None, FlowDir::Up) => {
            run_tcp_upload(wifi, lte, iface, bytes, tcp_config(), deadline, seed)
        }
        (Some(c), FlowDir::Down) => {
            run_mptcp_download(wifi, lte, iface, bytes, mptcp_config(c), deadline, seed)
        }
        (Some(c), FlowDir::Up) => {
            run_mptcp_upload(wifi, lte, iface, bytes, mptcp_config(c), deadline, seed)
        }
    }
}

/// One location's measured results.
#[derive(Debug)]
pub struct LocationStudy {
    /// Location id (Table 2 numbering).
    pub location_id: usize,
    /// Full transfer results per `(transport, direction)`.
    pub results: BTreeMap<(StudyTransport, FlowDir), BulkResult>,
}

impl LocationStudy {
    /// Average throughput (bits/s) a flow of `bytes` would have seen
    /// under the given configuration, or `None` if the transfer never
    /// got that far.
    pub fn throughput(&self, transport: StudyTransport, dir: FlowDir, bytes: u64) -> Option<f64> {
        self.results
            .get(&(transport, dir))?
            .throughput_at_flow_size(bytes)
    }

    /// The relative difference the paper computes between two
    /// configurations at a flow size: `|a − b| / b`.
    pub fn relative_difference(
        &self,
        a: StudyTransport,
        b: StudyTransport,
        dir: FlowDir,
        bytes: u64,
    ) -> Option<f64> {
        let ta = self.throughput(a, dir, bytes)?;
        let tb = self.throughput(b, dir, bytes)?;
        if tb <= 0.0 {
            return None;
        }
        Some(((ta - tb) / tb).abs())
    }

    /// The best single-path throughput (the "right network" baseline).
    pub fn best_single_path(&self, dir: FlowDir, bytes: u64) -> Option<f64> {
        let w = self.throughput(StudyTransport::TcpWifi, dir, bytes);
        let l = self.throughput(StudyTransport::TcpLte, dir, bytes);
        match (w, l) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }

    /// The best MPTCP throughput across the four variants.
    pub fn best_mptcp(&self, dir: FlowDir, bytes: u64) -> Option<f64> {
        StudyTransport::ALL
            .iter()
            .filter(|t| t.is_mptcp())
            .filter_map(|&t| self.throughput(t, dir, bytes))
            .max_by(|a, b| a.partial_cmp(b).unwrap())
    }
}

/// Run the study at one location: all transports, both directions when
/// `both_dirs` (the paper plots downlink; uplink supported for Figure 6
/// parity), one `transfer_bytes` transfer each.
pub fn run_location_study(
    location_id: usize,
    wifi: &LinkSpec,
    lte: &LinkSpec,
    transfer_bytes: u64,
    both_dirs: bool,
    seed: u64,
) -> LocationStudy {
    let mut results = BTreeMap::new();
    for (k, &transport) in StudyTransport::ALL.iter().enumerate() {
        let dirs: &[FlowDir] = if both_dirs {
            &[FlowDir::Down, FlowDir::Up]
        } else {
            &[FlowDir::Down]
        };
        for &dir in dirs {
            let r = run_transfer(
                wifi,
                lte,
                transport,
                dir,
                transfer_bytes,
                seed ^ ((location_id as u64) << 24) ^ ((k as u64) << 8) ^ (dir as u64),
            );
            results.insert((transport, dir), r);
        }
    }
    LocationStudy {
        location_id,
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wifi_fast() -> LinkSpec {
        LinkSpec::symmetric(20_000_000, Dur::from_millis(20))
    }

    fn lte_slow() -> LinkSpec {
        LinkSpec::symmetric(5_000_000, Dur::from_millis(60))
    }

    #[test]
    fn six_transports_have_labels() {
        for t in StudyTransport::ALL {
            assert!(!t.label().is_empty());
        }
        assert!(StudyTransport::MpLteCoupled.is_mptcp());
        assert!(!StudyTransport::TcpWifi.is_mptcp());
    }

    #[test]
    fn location_study_covers_all_configs() {
        let s = run_location_study(1, &wifi_fast(), &lte_slow(), 300_000, false, 42);
        assert_eq!(s.results.len(), 6);
        for t in StudyTransport::ALL {
            let tput = s.throughput(t, FlowDir::Down, 100_000);
            assert!(tput.is_some(), "{} missing", t.label());
            assert!(tput.unwrap() > 100_000.0, "{} too slow", t.label());
        }
    }

    #[test]
    fn single_path_wifi_beats_lte_when_wifi_faster() {
        let s = run_location_study(1, &wifi_fast(), &lte_slow(), 300_000, false, 42);
        let w = s
            .throughput(StudyTransport::TcpWifi, FlowDir::Down, 300_000)
            .unwrap();
        let l = s
            .throughput(StudyTransport::TcpLte, FlowDir::Down, 300_000)
            .unwrap();
        assert!(w > l);
        assert_eq!(s.best_single_path(FlowDir::Down, 300_000), Some(w.max(l)));
    }

    #[test]
    fn primary_choice_matters_more_for_small_flows() {
        // The paper's central Section 3.4 finding, on one location.
        let s = run_location_study(2, &wifi_fast(), &lte_slow(), 1_000_000, false, 7);
        let rel_small = s
            .relative_difference(
                StudyTransport::MpLteDecoupled,
                StudyTransport::MpWifiDecoupled,
                FlowDir::Down,
                10_000,
            )
            .unwrap();
        let rel_big = s
            .relative_difference(
                StudyTransport::MpLteDecoupled,
                StudyTransport::MpWifiDecoupled,
                FlowDir::Down,
                1_000_000,
            )
            .unwrap();
        assert!(
            rel_small > rel_big,
            "primary choice: small {rel_small:.2} should exceed large {rel_big:.2}"
        );
    }

    #[test]
    fn mptcp_short_flows_lose_to_best_single_path() {
        // Section 3.3: for 10 kB flows, picking the right network for
        // plain TCP beats every MPTCP variant.
        let s = run_location_study(3, &wifi_fast(), &lte_slow(), 1_000_000, false, 9);
        let best_sp = s.best_single_path(FlowDir::Down, 10_000).unwrap();
        let best_mp = s.best_mptcp(FlowDir::Down, 10_000).unwrap();
        assert!(
            best_sp >= best_mp,
            "10 kB: best single-path {best_sp} must beat best MPTCP {best_mp}"
        );
    }

    #[test]
    fn mptcp_long_flows_can_beat_single_path_on_comparable_links() {
        // Figure 7b's regime: both links decent and similar.
        let wifi = LinkSpec::symmetric(8_000_000, Dur::from_millis(25));
        let lte = LinkSpec::symmetric(7_000_000, Dur::from_millis(50));
        let s = run_location_study(4, &wifi, &lte, 2_000_000, false, 11);
        let best_sp = s.best_single_path(FlowDir::Down, 2_000_000).unwrap();
        let best_mp = s.best_mptcp(FlowDir::Down, 2_000_000).unwrap();
        assert!(
            best_mp > best_sp,
            "2 MB on comparable links: MPTCP {best_mp} should beat single-path {best_sp}"
        );
    }

    #[test]
    fn uplink_direction_also_measured() {
        let s = run_location_study(5, &wifi_fast(), &lte_slow(), 200_000, true, 13);
        assert_eq!(s.results.len(), 12);
        assert!(s
            .throughput(StudyTransport::TcpWifi, FlowDir::Up, 100_000)
            .is_some());
    }
}
