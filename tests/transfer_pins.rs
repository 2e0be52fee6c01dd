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
/// rows first. The three `MinRtt` rows for OLIA, BALIA and per-subflow
/// Reno were recorded at the commit before the controllers became rules
/// of one window (PR 20); `crates/mptcp/tests/cc_pins.rs` holds the
/// same five controllers' arithmetic step by step.
#[test]
fn scheduler_zoo_is_pinned_at_contrasting_locations() {
    use mpwifi::mptcp::CcKind::{Balia, Cubic, Lia, Olia, Reno};
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
        (MinRtt, Olia),
        (MinRtt, Balia),
        (MinRtt, Reno),
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
            (2_628_678_180, 5528, 287, 0),
            (2_632_678_180, 5581, 289, 0),
            (2_628_678_180, 5528, 287, 0),
        ],
        [
            (2_625_250_240, 1774, 4, 0),
            (2_625_250_240, 1774, 4, 0),
            (2_625_250_240, 1775, 4, 0),
            (2_638_583_573, 1785, 4, 0),
            (2_597_846_331, 1801, 4, 38),
            (2_582_461_716, 1750, 4, 0),
            (2_579_384_793, 1743, 4, 0),
            (2_625_250_240, 1774, 4, 0),
            (2_581_916_907, 1736, 4, 0),
            (2_625_250_240, 1774, 4, 0),
        ],
    ];
    let actual = [wifi_faster, lte_faster].map(|loc| cells.map(|(s, c)| zoo_pin(loc, s, c)));
    assert_eq!(actual, expected);
}

/// `(completed µs, WiFi packets, LTE packets, subflows opened,
/// reinjections, subflows declared dead, recovery µs)` of one 2 MB
/// download on `failure_injection.rs`'s links, seed 42, with `script`
/// played against it and the teardown drained into the packet logs.
fn control_plane_pin(
    mode: mpwifi::mptcp::Mode,
    activation: mpwifi::mptcp::BackupActivation,
    primary: mpwifi::netem::Addr,
    script: &[(u64, mpwifi::sim::ScriptEvent)],
) -> (Option<u64>, usize, usize, usize, u64, u64, u64) {
    use mpwifi::sim::apps::{bulk, close_and_drain, make_payload, FlowDir};
    use mpwifi::sim::endpoint::{MptcpClientHost, MptcpServerHost};
    use mpwifi::sim::{LinkSpec, Sim, SERVER_ADDR, SERVER_PORT};
    use mpwifi::simcore::Time;
    let cfg = mpwifi::mptcp::MptcpConfig {
        mode,
        backup_activation: activation,
        ..mpwifi::mptcp::MptcpConfig::default()
    };
    let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], 42 | 1);
    let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), 42 ^ 0xAB);
    let mut sim = Sim::builder(client, server)
        .wifi(&LinkSpec::symmetric(4_000_000, Dur::from_millis(30)))
        .lte(&LinkSpec::symmetric(3_000_000, Dur::from_millis(60)))
        .seed(42)
        .build();
    for &(ms, ev) in script {
        sim.schedule(Time::from_millis(ms), ev);
    }
    let before = metrics::snapshot();
    let id = sim.client.open(Time::ZERO, cfg, primary, SERVER_PORT);
    let payload = make_payload(2_000_000);
    let r = bulk(
        &mut sim,
        id,
        FlowDir::Down,
        payload,
        Dur::from_secs(60),
        |_, _| {},
    );
    close_and_drain(&mut sim, id);
    let m = metrics::snapshot().since(&before);
    (
        r.completed.map(Dur::as_micros),
        sim.ifaces[0].log.len(),
        sim.ifaces[1].log.len(),
        sim.client.conn(id).subflow_count(),
        m.reinjections,
        m.subflows_declared_dead,
        m.recovery_time_us,
    )
}

/// The control plane — which subflows exist, when, with which flags,
/// and when one counts as dead — recorded at the commit *before* the
/// path-manager seam (PR 17) and never edited by it: every mode against
/// a notified WiFi cut (either primary), a silent one under
/// RTO-count activation, and a notified cut followed by a restore.
#[test]
fn control_plane_is_pinned_across_modes_and_failures() {
    use mpwifi::mptcp::BackupActivation::{OnNotify, OnRtoCount};
    use mpwifi::mptcp::Mode::{Backup, Full, SinglePath};
    use mpwifi::sim::ScriptEvent::{CutIface, NotifyIfaceDown, NotifyIfaceUp, RestoreIface};
    let notified = [
        (1_000, CutIface(WIFI_ADDR)),
        (1_000, NotifyIfaceDown(WIFI_ADDR)),
    ];
    let silent = [(1_000, CutIface(WIFI_ADDR))];
    let restored = [
        (1_000, CutIface(WIFI_ADDR)),
        (1_000, NotifyIfaceDown(WIFI_ADDR)),
        (3_000, RestoreIface(WIFI_ADDR)),
        (3_000, NotifyIfaceUp(WIFI_ADDR)),
    ];
    type Pin = (Option<u64>, usize, usize, usize, u64, u64, u64);
    // Columns: WiFi primary under `notified`, `silent` (RTO-count 3)
    // and `restored`; then LTE primary under `notified`.
    let expected: [(mpwifi::mptcp::Mode, [Pin; 4]); 3] = [
        (
            Full,
            [
                (Some(4_626_982), 478, 1720, 2, 159, 2, 889_621),
                (Some(4_556_006), 483, 1679, 2, 159, 2, 371_201),
                (Some(4_623_035), 505, 1677, 3, 159, 2, 889_621),
                (Some(4_710_635), 448, 1800, 2, 149, 2, 923_338),
            ],
        ),
        (
            Backup,
            [
                (Some(5_536_363), 478, 1720, 2, 159, 2, 132_127),
                (Some(8_120_602), 483, 1741, 2, 165, 2, 68_021),
                (Some(4_648_917), 800, 1370, 3, 159, 2, 132_127),
                (Some(6_846_401), 4, 2985, 2, 0, 2, 8_735),
            ],
        ),
        // A silent cut under a download starves the client of anything
        // to retransmit, so only the server declares the subflow dead
        // and Single-Path never opens its replacement.
        (
            SinglePath,
            [
                (Some(5_596_704), 478, 1719, 2, 159, 2, 192_469),
                (None, 477, 0, 1, 0, 1, 0),
                (Some(5_596_704), 481, 1719, 2, 159, 2, 192_469),
                (Some(6_846_401), 0, 2984, 1, 0, 0, 0),
            ],
        ),
    ];
    let actual = expected.map(|(mode, _)| {
        (
            mode,
            [
                control_plane_pin(mode, OnNotify, WIFI_ADDR, &notified),
                control_plane_pin(mode, OnRtoCount(3), WIFI_ADDR, &silent),
                control_plane_pin(mode, OnNotify, WIFI_ADDR, &restored),
                control_plane_pin(mode, OnNotify, LTE_ADDR, &notified),
            ],
        )
    });
    assert_eq!(actual, expected);
}

/// One link-layer pin: `(completed ns, events popped, frames forwarded,
/// TCP retransmits, corrupted segments dropped, faults injected)` and
/// each pipeline's `(pushed, delivered, bytes delivered, dropped in
/// stages, dropped down)` in the order WiFi up, WiFi down, LTE up, LTE
/// down.
type LinkPin = (
    (u64, u64, u64, u64, u64, u64),
    [(u64, u64, u64, u64, u64); 4],
);

/// 1 MB down over an already-built world, then the pin read off it.
fn link_layer_pin<C, S>(mut sim: mpwifi::sim::Sim<C, S>, id: C::Id) -> LinkPin
where
    C: mpwifi::sim::SocketHost,
    S: mpwifi::sim::Accept,
{
    use mpwifi::sim::apps::{bulk, make_payload, FlowDir};
    let before = metrics::snapshot();
    let payload = make_payload(1_000_000);
    let r = bulk(
        &mut sim,
        id,
        FlowDir::Down,
        payload,
        Dur::from_secs(300),
        |_, _| {},
    );
    let m = metrics::snapshot().since(&before);
    let [wifi, lte] = &sim.ifaces[..] else {
        panic!("the pinned worlds have two interfaces");
    };
    let pipes = [&wifi.link.up, &wifi.link.down, &lte.link.up, &lte.link.down].map(|p| {
        let s = p.stats();
        (
            s.pushed,
            s.delivered,
            s.bytes_delivered,
            s.dropped_in_stages,
            s.dropped_down,
        )
    });
    (
        (
            r.completed.map_or(0, Dur::as_nanos),
            m.events_popped,
            m.frames_forwarded,
            m.tcp_retransmits,
            m.segments_corrupted_dropped,
            m.faults_injected,
        ),
        pipes,
    )
}

/// The link layer below the transports — what a direction's tail does
/// to a frame and what a scripted rate or delay change does to the
/// queue and the delay — recorded at the commit *before* the
/// queue → delay → tail shape (PR 19) and never edited by it. Paper
/// location 14, seed 42, over `TcpWifi`'s and `MpWifiCoupled`'s worlds:
/// (a) a burst-loss, a corruption, a delay-spike and a rate-crush
/// episode per interface, staggered inside the transfer; (b) links that
/// lose *and* reorder (a loss decision ahead of a frame-holding stage);
/// (c) both at once (episode decisions behind the frame-holding stage,
/// taken at its exit instants).
#[test]
fn link_layer_is_pinned_across_filters_and_script_events() {
    use mpwifi::mptcp::{BackupActivation, CcKind, Mode, MptcpConfig};
    use mpwifi::netem::{FaultPlan, GilbertElliott};
    use mpwifi::sim::endpoint::{MptcpClientHost, MptcpServerHost, TcpClientHost, TcpServerHost};
    use mpwifi::sim::{LinkSpec, Sim, SERVER_ADDR, SERVER_PORT};
    use mpwifi::simcore::Time;
    use mpwifi::tcp::cc::CcKind as TcpCcKind;
    use mpwifi::tcp::conn::TcpConfig;

    let loc = &paper_locations(42)[13];
    assert!(loc.wifi.loss > 0.0 && loc.lte.loss > 0.0);
    let reordering = |spec: &LinkSpec| LinkSpec {
        reorder_prob: 0.05,
        reorder_extra: Dur::from_millis(15),
        ..spec.clone()
    };
    let ms = Time::from_millis;
    let dms = Dur::from_millis;
    let wifi_plan = || {
        FaultPlan::new()
            .burst_loss(ms(400), dms(300), GilbertElliott::default())
            .corruption(ms(900), dms(400), 0.1)
            .delay_spike(ms(1_500), dms(300), dms(80))
            .rate_crush(ms(2_000), dms(400), 0.25)
    };
    let lte_plan = || {
        FaultPlan::new()
            .rate_crush(ms(300), dms(350), 0.2)
            .delay_spike(ms(800), dms(250), dms(120))
            .corruption(ms(1_200), dms(500), 0.15)
            .burst_loss(ms(1_900), dms(400), GilbertElliott::default())
    };

    // `core::flowstudy::run_transfer`'s worlds, salts and configs for
    // TcpWifi and MpWifiCoupled, with fault plans attached.
    let tcp = |wifi: &LinkSpec, lte: &LinkSpec, faults: bool| {
        let cfg = TcpConfig {
            cc: TcpCcKind::Cubic,
            ..TcpConfig::default()
        };
        let client = TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, 42 | 1);
        let server = TcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), 42 ^ 0xBEEF);
        let mut b = Sim::builder(client, server).wifi(wifi).lte(lte).seed(42);
        if faults {
            b = b
                .with_faults(WIFI_ADDR, wifi_plan())
                .with_faults(LTE_ADDR, lte_plan());
        }
        let mut sim = b.build();
        let id = sim.client.connect(Time::ZERO, cfg, SERVER_PORT);
        link_layer_pin(sim, id)
    };
    let mptcp = |wifi: &LinkSpec, lte: &LinkSpec, faults: bool| {
        let cfg = MptcpConfig {
            cc: CcKind::Lia,
            mode: Mode::Full,
            backup_activation: BackupActivation::OnNotify,
            ..MptcpConfig::default()
        };
        let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], 42 | 1);
        let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), 42 ^ 0xBEEF);
        let mut b = Sim::builder(client, server).wifi(wifi).lte(lte).seed(42);
        if faults {
            b = b
                .with_faults(WIFI_ADDR, wifi_plan())
                .with_faults(LTE_ADDR, lte_plan());
        }
        let mut sim = b.build();
        let id = sim.client.open(Time::ZERO, cfg, WIFI_ADDR, SERVER_PORT);
        link_layer_pin(sim, id)
    };

    let (rw, rl) = (reordering(&loc.wifi), reordering(&loc.lte));
    // Rows: (a) faults, (b) loss + reordering, (c) both; columns: TCP
    // over WiFi, MPTCP with WiFi primary.
    let expected: [[LinkPin; 2]; 3] = [
        [
            (
                (6_266_872_780, 4457, 2194, 123, 7, 8),
                [
                    (867, 840, 45_328, 19, 0),
                    (1392, 1354, 1_613_652, 37, 0),
                    (0, 0, 0, 0, 0),
                    (0, 0, 0, 0, 0),
                ],
            ),
            (
                (7_150_922_916, 6247, 3099, 349, 18, 8),
                [
                    (350, 341, 22_312, 8, 0),
                    (599, 583, 641_464, 16, 0),
                    (928, 916, 58_972, 3, 0),
                    (1393, 1259, 1_642_401, 9, 0),
                ],
            ),
        ],
        [
            (
                (6_828_444_000, 4928, 2372, 170, 0, 0),
                [
                    (968, 934, 50_384, 19, 0),
                    (1476, 1438, 1_798_906, 37, 0),
                    (0, 0, 0, 0, 0),
                    (0, 0, 0, 0, 0),
                ],
            ),
            (
                (7_689_528_593, 5766, 3295, 369, 0, 0),
                [
                    (394, 383, 25_112, 10, 0),
                    (597, 574, 611_464, 23, 0),
                    (1072, 948, 61_188, 0, 0),
                    (1587, 1390, 1_852_741, 3, 0),
                ],
            ),
        ],
        [
            (
                (6_937_303_494, 4524, 2176, 124, 6, 8),
                [
                    (878, 856, 46_512, 19, 0),
                    (1366, 1320, 1_604_486, 33, 0),
                    (0, 0, 0, 0, 0),
                    (0, 0, 0, 0, 0),
                ],
            ),
            (
                (7_145_728_081, 7098, 3415, 370, 12, 8),
                [
                    (360, 351, 23_280, 8, 0),
                    (580, 565, 622_089, 15, 0),
                    (1081, 1069, 68_956, 1, 0),
                    (1553, 1430, 1_873_402, 9, 0),
                ],
            ),
        ],
    ];
    let actual = [
        [
            tcp(&loc.wifi, &loc.lte, true),
            mptcp(&loc.wifi, &loc.lte, true),
        ],
        [tcp(&rw, &rl, false), mptcp(&rw, &rl, false)],
        [tcp(&rw, &rl, true), mptcp(&rw, &rl, true)],
    ];
    assert_eq!(actual, expected);
}
