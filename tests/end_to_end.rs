//! Cross-crate integration: the full stack (netem links → TCP/MPTCP →
//! workload runners) exercised through the public facade.

use mpwifi::core::flowstudy::{run_location_study, run_transfer, FlowDir, StudyTransport};
use mpwifi::mptcp::MptcpConfig;
use mpwifi::sim::apps::{make_payload, run_mptcp_download, run_tcp_download, run_tcp_upload};
use mpwifi::sim::endpoint::{TcpClientHost, TcpServerHost};
use mpwifi::sim::{LinkSpec, ServiceSpec, Sim, Socket, SocketHost};
use mpwifi::sim::{LTE_ADDR, SERVER_ADDR, SERVER_PORT, WIFI_ADDR};
use mpwifi::simcore::{DetRng, Dur, Time};
use mpwifi::tcp::conn::TcpConfig;

fn wifi() -> LinkSpec {
    LinkSpec::symmetric(12_000_000, Dur::from_millis(25))
}

fn lte() -> LinkSpec {
    LinkSpec::asymmetric(3_000_000, 8_000_000, Dur::from_millis(60))
}

#[test]
fn tcp_download_is_deterministic_end_to_end() {
    let run = || {
        run_tcp_download(
            &wifi(),
            &lte(),
            WIFI_ADDR,
            500_000,
            TcpConfig::default(),
            Dur::from_secs(60),
            1234,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.progress.progress(), b.progress.progress());
    assert_eq!(a.wifi_log.len(), b.wifi_log.len());
}

#[test]
fn a_queue_overrun_is_repaired_without_resending_what_arrived() {
    // 1 MB through a 64 KB drop-tail queue with no random loss: slow
    // start overruns the queue, and what the burst cost is all that
    // should be sent twice.
    let link = LinkSpec {
        queue_bytes: 64 << 10,
        ..LinkSpec::symmetric(20_000_000, Dur::from_millis(20))
    };
    let client = TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, 1);
    let server = TcpServerHost::new(SERVER_ADDR, SERVER_PORT, TcpConfig::default(), 2);
    let mut sim = Sim::builder(client, server)
        .wifi(&link)
        .lte(&lte())
        .seed(42)
        .build();
    let id = sim
        .client
        .connect(Time::ZERO, TcpConfig::default(), SERVER_PORT);
    let mut accepted = None;
    let done = sim.run_until(
        |sim| {
            if accepted.is_none() {
                accepted = sim.server.stack.take_accepted().first().copied();
                if let Some(sid) = accepted {
                    sim.server.socket(sid).send(make_payload(1_000_000));
                }
            }
            sim.client.socket(id).read() >= 1_000_000
        },
        Time::from_secs(60),
    );
    assert!(done, "download did not complete");
    let stats = *sim.server.socket(accepted.unwrap()).stats();
    assert!(
        stats.bytes_sent <= 1_150_000,
        "{} payload bytes sent for 1 MB ({} retransmitted segments)",
        stats.bytes_sent,
        stats.retransmits
    );
    assert_eq!(stats.rtos, 0, "the burst was repaired without a timeout");
}

#[test]
fn mptcp_download_is_deterministic_end_to_end() {
    let run = || {
        run_mptcp_download(
            &wifi(),
            &lte(),
            LTE_ADDR,
            500_000,
            MptcpConfig::default(),
            Dur::from_secs(60),
            77,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.progress.progress(), b.progress.progress());
}

#[test]
fn throughput_respects_link_capacity() {
    for (spec, cap) in [
        (LinkSpec::symmetric(2_000_000, Dur::from_millis(40)), 2e6),
        (LinkSpec::symmetric(20_000_000, Dur::from_millis(10)), 20e6),
    ] {
        let r = run_tcp_download(
            &spec,
            &lte(),
            WIFI_ADDR,
            1_000_000,
            TcpConfig::default(),
            Dur::from_secs(120),
            5,
        );
        let tput = r.avg_throughput_bps().expect("complete");
        assert!(tput < cap, "throughput {tput} exceeds link capacity {cap}");
        assert!(
            tput > cap * 0.3,
            "throughput {tput} unreasonably low for {cap}"
        );
    }
}

#[test]
fn mptcp_aggregates_comparable_links() {
    let a = LinkSpec::symmetric(6_000_000, Dur::from_millis(30));
    let b = LinkSpec::symmetric(5_000_000, Dur::from_millis(50));
    let mp = run_mptcp_download(
        &a,
        &b,
        WIFI_ADDR,
        2_000_000,
        MptcpConfig::default(),
        Dur::from_secs(120),
        9,
    );
    let sp = run_tcp_download(
        &a,
        &b,
        WIFI_ADDR,
        2_000_000,
        TcpConfig::default(),
        Dur::from_secs(120),
        9,
    );
    let mp_t = mp.avg_throughput_bps().unwrap();
    let sp_t = sp.avg_throughput_bps().unwrap();
    assert!(
        mp_t > sp_t * 1.3,
        "MPTCP ({mp_t}) should clearly beat one path ({sp_t}) on comparable links"
    );
    // But never exceed the sum of capacities.
    assert!(mp_t < 11_000_000.0);
}

#[test]
fn uplink_and_downlink_are_independent_directions() {
    let asym = LinkSpec::asymmetric(1_000_000, 10_000_000, Dur::from_millis(30));
    let down = run_tcp_download(
        &asym,
        &lte(),
        WIFI_ADDR,
        500_000,
        TcpConfig::default(),
        Dur::from_secs(120),
        3,
    );
    let up = run_tcp_upload(
        &asym,
        &lte(),
        WIFI_ADDR,
        500_000,
        TcpConfig::default(),
        Dur::from_secs(120),
        3,
    );
    let d = down.avg_throughput_bps().unwrap();
    let u = up.avg_throughput_bps().unwrap();
    assert!(d > 3.0 * u, "10:1 asymmetric link: down {d} vs up {u}");
}

#[test]
fn trace_driven_lte_link_carries_tcp() {
    let mut rng = DetRng::seed_from_u64(4);
    let trace = mpwifi::radio::lte_trace(&mut rng, 6_000_000.0, 0.1, Dur::from_secs(4));
    let spec = LinkSpec {
        down: ServiceSpec::Trace(trace.clone()),
        up: ServiceSpec::Trace(trace),
        rtt: Dur::from_millis(60),
        queue_bytes: 1 << 20,
        loss: 0.0,
        reorder_prob: 0.0,
        reorder_extra: Dur::ZERO,
    };
    let r = run_tcp_download(
        &spec,
        &lte(),
        WIFI_ADDR,
        1_000_000,
        TcpConfig::default(),
        Dur::from_secs(120),
        8,
    );
    assert!(r.is_complete());
    let tput = r.avg_throughput_bps().unwrap();
    // A 1 MB transfer covers only part of the 4 s trace period, so it can
    // ride a local swell or fade of the random-walk rate; bound loosely.
    assert!(
        tput > 2_000_000.0 && tput < 11_000_000.0,
        "trace-driven link throughput {tput}"
    );
}

#[test]
fn tcp_survives_packet_reordering_intact() {
    // A reordering path triggers duplicate ACKs and possibly spurious
    // fast retransmits, but the delivered stream must stay intact and
    // the transfer must finish.
    let reordering = LinkSpec {
        reorder_prob: 0.15,
        reorder_extra: Dur::from_millis(8),
        ..LinkSpec::symmetric(10_000_000, Dur::from_millis(30))
    };
    let r = run_tcp_download(
        &reordering,
        &lte(),
        WIFI_ADDR,
        800_000,
        TcpConfig::default(),
        Dur::from_secs(120),
        6,
    );
    assert!(r.is_complete(), "transfer must survive reordering");
    // Reordering costs some throughput but not collapse.
    let tput = r.avg_throughput_bps().unwrap();
    assert!(tput > 1_000_000.0, "reordering collapse: {tput}");
}

#[test]
fn mptcp_survives_reordering_on_both_paths() {
    let wifi = LinkSpec {
        reorder_prob: 0.1,
        reorder_extra: Dur::from_millis(5),
        ..LinkSpec::symmetric(8_000_000, Dur::from_millis(25))
    };
    let lte_r = LinkSpec {
        reorder_prob: 0.1,
        reorder_extra: Dur::from_millis(10),
        ..LinkSpec::symmetric(6_000_000, Dur::from_millis(55))
    };
    let r = run_mptcp_download(
        &wifi,
        &lte_r,
        WIFI_ADDR,
        600_000,
        MptcpConfig::default(),
        Dur::from_secs(120),
        14,
    );
    assert!(
        r.is_complete(),
        "MPTCP must survive reordering on both paths"
    );
}

#[test]
fn full_location_study_runs_through_facade() {
    let study = run_location_study(1, &wifi(), &lte(), 400_000, true, 21);
    assert_eq!(study.results.len(), 12);
    // Every configuration completed its 400 kB transfer.
    for ((t, d), r) in &study.results {
        assert!(r.is_complete(), "{} {:?} did not complete", t.label(), d);
    }
}

#[test]
fn mptcp_subflow_shares_track_link_capacities() {
    // On equal links, the two subflows should carry roughly equal shares
    // (high Jain fairness); on a 4:1 split, the shares should skew.
    use mpwifi::measure::jain_fairness;
    let share_fairness = |wifi_bps: u64, lte_bps: u64| {
        let wifi = LinkSpec::symmetric(wifi_bps, Dur::from_millis(30));
        let lte_s = LinkSpec::symmetric(lte_bps, Dur::from_millis(40));
        let r = run_mptcp_download(
            &wifi,
            &lte_s,
            WIFI_ADDR,
            2_000_000,
            MptcpConfig::default(),
            Dur::from_secs(120),
            17,
        );
        assert!(r.is_complete());
        let shares: Vec<f64> = r
            .subflow_progress
            .iter()
            .map(|(_, s)| s.total_bytes() as f64)
            .collect();
        jain_fairness(&shares)
    };
    let equal = share_fairness(6_000_000, 6_000_000);
    let skewed = share_fairness(12_000_000, 3_000_000);
    assert!(equal > 0.9, "equal links should split evenly: J = {equal}");
    assert!(
        skewed < equal,
        "unequal links should skew the shares: J {skewed} vs {equal}"
    );
}

#[test]
fn mid_run_rate_change_shifts_mptcp_traffic() {
    use bytes::Bytes;
    use mpwifi::sim::endpoint::{MptcpClientHost, MptcpServerHost};
    use mpwifi::sim::{ScriptEvent, Sim, SERVER_ADDR, SERVER_PORT};
    use mpwifi::simcore::Time;

    // Both links start comparable; at t = 1 s the WiFi downlink
    // collapses to 300 kbit/s. MPTCP should finish mostly over LTE.
    let wifi = LinkSpec::symmetric(8_000_000, Dur::from_millis(25));
    let lte_s = LinkSpec::symmetric(8_000_000, Dur::from_millis(45));
    let cfg = MptcpConfig::default();
    let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], 3);
    let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), 5);
    let mut sim = Sim::builder(client, server)
        .wifi(&wifi)
        .lte(&lte_s)
        .seed(9)
        .build();
    sim.schedule(
        Time::from_secs(1),
        ScriptEvent::SetDownRate(WIFI_ADDR, 300_000),
    );
    let id = sim.client.open(Time::ZERO, cfg, WIFI_ADDR, SERVER_PORT);
    const BYTES: u64 = 6_000_000;
    let mut sent = false;
    let done = sim.run_until(
        |sim| {
            if !sent {
                for sid in sim.server.take_accepted() {
                    let c = sim.server.conn_mut(sid);
                    c.send(Bytes::from(vec![4u8; BYTES as usize]));
                    c.close(sim.now);
                    sent = true;
                }
            }
            let _ = sim.client.conn_mut(id).take_delivered();
            sim.client.conn(id).delivered_bytes() >= BYTES
        },
        Time::from_secs(120),
    );
    assert!(done, "transfer survives the degradation");
    let stats = sim.client.conn(id).subflow_stats();
    let wifi_bytes = stats
        .iter()
        .find(|s| s.iface == WIFI_ADDR)
        .unwrap()
        .bytes_delivered;
    let lte_bytes = stats
        .iter()
        .find(|s| s.iface == LTE_ADDR)
        .unwrap()
        .bytes_delivered;
    assert!(
        lte_bytes > wifi_bytes * 2,
        "LTE should dominate after WiFi collapses: lte {lte_bytes} vs wifi {wifi_bytes}"
    );
}

#[test]
fn transfer_seeds_differ_but_shapes_agree() {
    // Different seeds give different packet schedules yet similar
    // throughput (no chaotic sensitivity in a clean scenario).
    let t1 = run_transfer(
        &wifi(),
        &lte(),
        StudyTransport::TcpWifi,
        FlowDir::Down,
        500_000,
        1,
    )
    .avg_throughput_bps()
    .unwrap();
    let t2 = run_transfer(
        &wifi(),
        &lte(),
        StudyTransport::TcpWifi,
        FlowDir::Down,
        500_000,
        2,
    )
    .avg_throughput_bps()
    .unwrap();
    assert!((t1 - t2).abs() / t1 < 0.2, "seed sensitivity: {t1} vs {t2}");
}
