//! The paper's five key findings, asserted end-to-end at test scale.
//! (The full-scale reproductions live in the `repro` binary; these are
//! fast distilled versions that gate the build.)

use mpwifi::apps::patterns::{cnn_launch, dropbox_click, AppClass};
use mpwifi::apps::replay::{replay, Transport, ALL_TRANSPORTS};
use mpwifi::core::flowstudy::{run_location_study, FlowDir};
use mpwifi::crowd::measure::RunMode;
use mpwifi::crowd::{analysis, generate_dataset};
use mpwifi::sim::{LinkSpec, LTE_ADDR, WIFI_ADDR};
use mpwifi::simcore::Dur;

/// Finding 1: cellular outperforms WiFi a substantial fraction of the
/// time (paper: ~40%).
#[test]
fn finding1_lte_wins_a_large_minority_of_runs() {
    let ds = generate_dataset(RunMode::Analytic, 42);
    let a = analysis::differences(&ds);
    assert!(
        (0.25..=0.50).contains(&a.lte_win_combined),
        "combined LTE-win rate {}",
        a.lte_win_combined
    );
    // And per the same analysis, LTE sometimes even wins on latency.
    assert!(a.lte_rtt_lower > 0.08, "LTE-RTT-lower {}", a.lte_rtt_lower);
}

/// Finding 2: for short flows MPTCP is no better than the best
/// single-path TCP, and the primary subflow choice matters a lot.
#[test]
fn finding2_short_flows_favor_single_path_and_primary_choice() {
    let wifi = LinkSpec::symmetric(16_000_000, Dur::from_millis(20));
    let lte = LinkSpec::symmetric(5_000_000, Dur::from_millis(60));
    let study = run_location_study(1, &wifi, &lte, 1_000_000, false, 7);
    let sp = study.best_single_path(FlowDir::Down, 10_000).unwrap();
    let mp = study.best_mptcp(FlowDir::Down, 10_000).unwrap();
    assert!(sp >= mp * 0.99, "10 kB: single-path {sp} vs MPTCP {mp}");

    let rel = study
        .relative_difference(
            mpwifi::core::flowstudy::StudyTransport::MpLteDecoupled,
            mpwifi::core::flowstudy::StudyTransport::MpWifiDecoupled,
            FlowDir::Down,
            10_000,
        )
        .unwrap();
    assert!(
        rel > 0.3,
        "primary-subflow choice should move short-flow throughput by >30%, got {rel}"
    );
}

/// Finding 3: app traffic splits into short-flow and long-flow
/// dominated classes.
#[test]
fn finding3_app_classes() {
    assert_eq!(cnn_launch(1).class(), AppClass::ShortFlowDominated);
    assert_eq!(dropbox_click(1).class(), AppClass::LongFlowDominated);
}

/// Finding 4: the short-flow app gains more from picking the right
/// network than from MPTCP.
#[test]
fn finding4_short_flow_app_wants_the_right_network() {
    let pattern = cnn_launch(3);
    // LTE much better than a congested WiFi.
    let wifi = LinkSpec {
        loss: 0.02,
        ..LinkSpec::symmetric(2_500_000, Dur::from_millis(180))
    };
    let lte = LinkSpec::symmetric(9_000_000, Dur::from_millis(55));
    let deadline = Dur::from_secs(180);
    let t_wifi = replay(
        &pattern,
        &wifi,
        &lte,
        Transport::Tcp(WIFI_ADDR),
        deadline,
        5,
    )
    .response_time;
    let t_lte = replay(&pattern, &wifi, &lte, Transport::Tcp(LTE_ADDR), deadline, 5).response_time;
    assert!(
        t_lte.as_secs_f64() < t_wifi.as_secs_f64() * 0.8,
        "right network should cut response time markedly: WiFi {t_wifi} vs LTE {t_lte}"
    );
    // The best MPTCP variant should not dramatically beat the best
    // single path for this app.
    let best_mp = ALL_TRANSPORTS[2..]
        .iter()
        .map(|t| replay(&pattern, &wifi, &lte, *t, deadline, 5).response_time)
        .min()
        .unwrap();
    let best_sp = t_wifi.min(t_lte);
    assert!(
        best_mp.as_secs_f64() > best_sp.as_secs_f64() * 0.85,
        "MPTCP should not be a big win for short flows: MPTCP {best_mp} vs SP {best_sp}"
    );
}

/// Finding 5: the long-flow app benefits markedly from MPTCP when the
/// links are comparable.
#[test]
fn finding5_long_flow_app_benefits_from_mptcp() {
    let pattern = dropbox_click(3);
    // Comparable, moderately fast links with roomy queues: the PDF's
    // elephant flow doesn't starve later SYNs behind a full drop-tail
    // queue (which would add 1-2-4-8 s SYN backoffs to every transport
    // and swamp the comparison).
    let wifi = LinkSpec {
        queue_bytes: 1 << 20,
        ..LinkSpec::symmetric(8_000_000, Dur::from_millis(30))
    };
    let lte = LinkSpec {
        queue_bytes: 1 << 20,
        ..LinkSpec::symmetric(7_000_000, Dur::from_millis(55))
    };
    let deadline = Dur::from_secs(300);
    let best_sp = [Transport::Tcp(WIFI_ADDR), Transport::Tcp(LTE_ADDR)]
        .iter()
        .map(|t| replay(&pattern, &wifi, &lte, *t, deadline, 5).response_time)
        .min()
        .unwrap();
    let best_mp = ALL_TRANSPORTS[2..]
        .iter()
        .map(|t| replay(&pattern, &wifi, &lte, *t, deadline, 5).response_time)
        .min()
        .unwrap();
    assert!(
        best_mp.as_secs_f64() < best_sp.as_secs_f64() * 0.85,
        "MPTCP should cut the long-flow app's response time: MPTCP {best_mp} vs SP {best_sp}"
    );
}
