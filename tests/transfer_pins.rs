//! Byte-level pins on the measurement drivers, recorded at the commit
//! *before* the transfer-engine refactor (PR 14) and never edited by
//! it: if the one bulk engine or the generic replay host moved a single
//! event, a completion time, an event count or a retransmit count here
//! changes.

use mpwifi::apps::patterns::cnn_launch;
use mpwifi::apps::replay::{replay, Transport};
use mpwifi::core::flowstudy::{run_transfer, FlowDir, StudyTransport};
use mpwifi::radio::paper_locations;
use mpwifi::sim::{LTE_ADDR, WIFI_ADDR};
use mpwifi::simcore::{metrics, Dur};

/// `(completed ns, events popped, TCP retransmits)` of one 1 MB
/// transfer at paper location 14, seed 42.
fn transfer_pin(transport: StudyTransport, dir: FlowDir) -> (u64, u64, u64) {
    let loc = &paper_locations(42)[13];
    let before = metrics::snapshot();
    let r = run_transfer(&loc.wifi, &loc.lte, transport, dir, 1_000_000, 42);
    let m = metrics::snapshot().since(&before);
    (
        r.completed.map_or(0, Dur::as_nanos),
        m.events_popped,
        m.tcp_retransmits,
    )
}

#[test]
fn all_six_transports_both_directions_are_pinned() {
    use FlowDir::{Down, Up};
    use StudyTransport::*;
    let expected = [
        (TcpWifi, Down, (3_831_406_963, 7253, 434)),
        (TcpWifi, Up, (5_125_413_697, 4030, 60)),
        (TcpLte, Down, (3_069_528_593, 1765, 0)),
        (TcpLte, Up, (4_154_528_593, 1756, 0)),
        (MpWifiCoupled, Down, (3_459_528_593, 5448, 270)),
        (MpWifiCoupled, Up, (4_139_528_593, 2227, 5)),
        (MpLteCoupled, Down, (2_041_036_593, 3063, 121)),
        (MpLteCoupled, Up, (3_335_528_593, 2072, 4)),
        (MpWifiDecoupled, Down, (3_459_528_593, 5448, 270)),
        (MpWifiDecoupled, Up, (3_213_814_307, 3823, 170)),
        (MpLteDecoupled, Down, (2_041_036_593, 3063, 121)),
        (MpLteDecoupled, Up, (3_062_028_593, 2250, 32)),
    ];
    let actual = expected.map(|(t, d, _)| (t, d, transfer_pin(t, d)));
    assert_eq!(actual, expected);
}

#[test]
fn replay_is_pinned_for_both_transport_kinds() {
    let loc = &paper_locations(42)[13];
    let pattern = cnn_launch(42);
    let expected = [
        (Transport::Tcp(WIFI_ADDR), (2_443_999_556, 4054, 81)),
        (
            Transport::Mptcp {
                primary: LTE_ADDR,
                coupled: true,
            },
            (2_779_528_593, 3179, 32),
        ),
    ];
    let actual = expected.map(|(t, _)| {
        let before = metrics::snapshot();
        let r = replay(&pattern, &loc.wifi, &loc.lte, t, Dur::from_secs(120), 42);
        let m = metrics::snapshot().since(&before);
        assert!(r.completed, "{} incomplete", t.label());
        (
            t,
            (
                r.response_time.as_nanos(),
                m.events_popped,
                m.tcp_retransmits,
            ),
        )
    });
    assert_eq!(actual, expected);
}

/// `(completed ns, events popped, TCP retransmits, reinjections)` of one
/// 1 MB `run_mptcp_download` with a zoo cell's config.
fn zoo_pin(
    loc: &mpwifi::radio::LocationCondition,
    sched: mpwifi::mptcp::SchedKind,
    cc: mpwifi::mptcp::CcKind,
) -> (u64, u64, u64, u64) {
    let cfg = mpwifi::mptcp::MptcpConfig {
        cc,
        sched,
        ..mpwifi::mptcp::MptcpConfig::default()
    };
    let before = metrics::snapshot();
    let r = mpwifi::sim::apps::run_mptcp_download(
        &loc.wifi,
        &loc.lte,
        WIFI_ADDR,
        1_000_000,
        cfg,
        Dur::from_secs(300),
        42,
    );
    let m = metrics::snapshot().since(&before);
    (
        r.completed.map_or(0, Dur::as_nanos),
        m.events_popped,
        m.tcp_retransmits,
        m.reinjections,
    )
}

/// The scheduler zoo at one WiFi-faster and one LTE-faster location,
/// recorded at the commit *before* the MPTCP bulk-path optimisation
/// (PR 15) and never edited by it. BLEST and ECF count `pick` calls in
/// `defer_streak`, so a dropped or added `pump_send` poll moves their
/// rows first.
#[test]
fn scheduler_zoo_is_pinned_at_contrasting_locations() {
    use mpwifi::mptcp::CcKind::{Cubic, Lia};
    use mpwifi::mptcp::SchedKind::*;
    let locations = paper_locations(42);
    let wifi_faster = locations.iter().find(|l| !l.lte_faster()).unwrap();
    let lte_faster = locations.iter().find(|l| l.lte_faster()).unwrap();
    let cells = [
        (MinRtt, Lia),
        (RoundRobin, Lia),
        (Blest, Lia),
        (Ecf, Lia),
        (Redundant, Lia),
        (Blest, Cubic),
        (Ecf, Cubic),
    ];
    let expected = [
        [
            (2_628_678_180, 5528, 287, 0),
            (2_628_678_180, 5528, 287, 0),
            (2_628_678_180, 5607, 289, 0),
            (2_628_678_180, 5667, 291, 0),
            (2_512_809_884, 5416, 251, 94),
            (2_578_011_513, 5659, 288, 0),
            (2_578_011_513, 5702, 301, 0),
        ],
        [
            (2_625_250_240, 1774, 4, 0),
            (2_625_250_240, 1774, 4, 0),
            (2_625_250_240, 1775, 4, 0),
            (2_638_583_573, 1785, 4, 0),
            (2_597_846_331, 1801, 4, 38),
            (2_582_461_716, 1750, 4, 0),
            (2_579_384_793, 1743, 4, 0),
        ],
    ];
    let actual = [wifi_faster, lte_faster].map(|loc| cells.map(|(s, c)| zoo_pin(loc, s, c)));
    assert_eq!(actual, expected);
}
