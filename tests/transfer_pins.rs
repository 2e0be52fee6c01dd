//! Byte-level pins on the measurement drivers, recorded at the commit
//! *before* the transfer-engine refactor (PR 14) and never edited by
//! it: if the one bulk engine or the generic replay host moved a single
//! event, a completion time, an event count or a retransmit count here
//! changes.
//!
//! Every row that loses a packet was recorded again, on purpose, when
//! TCP loss recovery became RFC 6675's one send loop (PR 22; before and
//! after rows in CHANGES.md) — the "recorded at the commit before" notes
//! below name what each table guards, and hold from that re-recording
//! on. The retransmit column counts retransmitted segments since then;
//! it used to count repair triggers. The rows that lose nothing (both
//! `TcpLte` rows, the silent Single-Path cut) did not move.
//!
//! The events column of every table was recorded again, alone and on
//! purpose, when a link began reporting when a frame next *leaves* it
//! rather than when one next moves from its queue into its delay: a
//! step is now a delivery, a due timer or a script event, so the counts
//! about halved, and no other column moved.

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
        (TcpWifi, Down, (4_936_063_048, 1638, 23)),
        (TcpWifi, Up, (6_687_231_879, 1669, 21)),
        (TcpLte, Down, (3_069_528_593, 882, 0)),
        (TcpLte, Up, (4_154_528_593, 874, 0)),
        (MpWifiCoupled, Down, (4_074_528_593, 1167, 8)),
        (MpWifiCoupled, Up, (4_147_028_593, 1171, 6)),
        (MpLteCoupled, Down, (1_852_861_926, 1015, 4)),
        (MpLteCoupled, Up, (3_426_195_259, 1124, 6)),
        (MpWifiDecoupled, Down, (3_644_528_593, 1050, 8)),
        (MpWifiDecoupled, Up, (3_210_957_164, 1034, 9)),
        (MpLteDecoupled, Down, (1_814_528_593, 917, 3)),
        (MpLteDecoupled, Up, (3_074_528_593, 969, 6)),
    ];
    let actual = expected.map(|(t, d, _)| (t, d, transfer_pin(t, d)));
    assert_eq!(actual, expected);
}

/// Both rows' event counts were re-recorded, one step fewer each, when
/// the replay began stopping at the step its last flow finished rather
/// than one step after it; the response times did not move.
#[test]
fn replay_is_pinned_for_both_transport_kinds() {
    let loc = &paper_locations(42)[13];
    let pattern = cnn_launch(42);
    let expected = [
        (Transport::Tcp(WIFI_ADDR), (2_443_999_556, 1523, 24)),
        (
            Transport::Mptcp {
                primary: LTE_ADDR,
                coupled: true,
            },
            (3_112_861_926, 1543, 26),
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
/// (PR 15) and never edited by it. The BLEST and ECF rows were
/// re-recorded when their deferral became a bound in simulated time
/// (PR 23) — a deferral may cost one slow-path RTT of simulated time,
/// however often the connection is polled — and part from the MinRtt
/// rows since. The three `MinRtt` rows for OLIA, BALIA and per-subflow
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
            (2_823_249_608, 1299, 4, 0),
            (2_823_249_608, 1299, 4, 0),
            (3_229_198_773, 1416, 4, 0),
            (3_006_698_773, 1352, 4, 0),
            (2_823_249_608, 1299, 4, 28),
            (2_832_254_328, 1451, 4, 0),
            (2_982_254_328, 1480, 4, 0),
            (2_814_678_180, 1288, 4, 0),
            (2_823_249_608, 1299, 4, 0),
            (2_887_809_884, 1079, 3, 0),
        ],
        [
            (2_590_154_023, 912, 2, 0),
            (2_590_154_023, 912, 2, 0),
            (2_590_154_023, 912, 2, 0),
            (2_610_293_883, 898, 2, 0),
            (2_590_154_023, 912, 2, 5),
            (2_580_923_254, 917, 10, 0),
            (2_651_692_485, 923, 2, 0),
            (2_590_154_023, 912, 2, 0),
            (2_590_154_023, 912, 2, 0),
            (2_590_154_023, 912, 2, 0),
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
                (Some(4_594_267), 478, 1690, 2, 159, 2, 889_621),
                (Some(4_556_006), 483, 1679, 2, 159, 2, 371_201),
                (Some(4_674_811), 505, 1669, 3, 159, 2, 889_621),
                (Some(4_617_376), 448, 1730, 2, 149, 2, 923_338),
            ],
        ),
        (
            Backup,
            [
                (Some(5_503_648), 478, 1690, 2, 159, 2, 132_127),
                (Some(8_087_866), 483, 1700, 2, 165, 2, 68_021),
                (Some(4_648_917), 800, 1370, 3, 159, 2, 132_127),
                (Some(5_866_720), 4, 2322, 2, 0, 2, 8_735),
            ],
        ),
        // A silent cut under a download starves the client of anything
        // to retransmit, so only the server declares the subflow dead
        // and Single-Path never opens its replacement.
        (
            SinglePath,
            [
                (Some(5_563_990), 478, 1689, 2, 159, 2, 192_469),
                (None, 477, 0, 1, 0, 1, 0),
                (Some(5_563_990), 481, 1689, 2, 159, 2, 192_469),
                (Some(5_866_720), 0, 2321, 1, 0, 0, 0),
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
                (6_503_059_991, 1680, 1619, 34, 6, 8),
                [
                    (646, 627, 35_308, 18, 0),
                    (1018, 992, 1_062_792, 26, 0),
                    (0, 0, 0, 0, 0),
                    (0, 0, 0, 0, 0),
                ],
            ),
            (
                (5_257_346_572, 1677, 1605, 39, 19, 8),
                [
                    (363, 354, 24_152, 8, 0),
                    (579, 563, 612_087, 16, 0),
                    (263, 251, 16_748, 9, 0),
                    (444, 437, 480_625, 7, 0),
                ],
            ),
        ],
        [
            (
                (8_052_147_704, 1746, 1612, 70, 0, 0),
                [
                    (648, 628, 35_328, 18, 0),
                    (1016, 984, 1_100_949, 31, 0),
                    (0, 0, 0, 0, 0),
                    (0, 0, 0, 0, 0),
                ],
            ),
            (
                (5_523_528_593, 1576, 1585, 71, 0, 0),
                [
                    (317, 308, 21_040, 8, 0),
                    (488, 472, 510_192, 16, 0),
                    (292, 284, 18_308, 0, 0),
                    (521, 521, 635_537, 0, 0),
                ],
            ),
        ],
        [
            (
                (7_951_691_042, 1817, 1658, 70, 6, 8),
                [
                    (655, 636, 35_520, 18, 0),
                    (1051, 1022, 1_108_127, 29, 0),
                    (0, 0, 0, 0, 0),
                    (0, 0, 0, 0, 0),
                ],
            ),
            (
                (6_255_058_780, 1746, 1598, 64, 12, 8),
                [
                    (400, 387, 26_288, 10, 0),
                    (636, 620, 702_758, 16, 0),
                    (218, 217, 14_356, 1, 0),
                    (376, 374, 428_188, 2, 0),
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
