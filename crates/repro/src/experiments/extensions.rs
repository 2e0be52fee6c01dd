//! Extension experiments beyond the paper's figures — the studies its
//! conclusion calls for ("how can we automatically decide when to use
//! single path TCP and when to use MPTCP?... when trying to minimize
//! energy consumption?") plus design ablations.

use crate::report::{Report, Scale};
use mpwifi_core::flowstudy::{run_transfer, FlowDir, StudyTransport};
use mpwifi_core::policy::{AlwaysWifi, BestMeasured, NetworkChoice, NetworkSelector, PaperGuided};
use mpwifi_crowd::measure::{measure_pair, RunMode};
use mpwifi_measure::render::fmt_bps;
use mpwifi_measure::TextTable;
use mpwifi_mptcp::{BackupActivation, CcKind, Mode, MptcpConfig, SchedKind};
use mpwifi_radio::{PowerModel, RadioKind};
use mpwifi_sim::apps::{bulk, close_and_drain, make_payload, run_mptcp_download};
use mpwifi_sim::endpoint::{MptcpClientHost, MptcpServerHost};
use mpwifi_sim::{LinkSpec, ScriptEvent, Sim, LTE_ADDR, SERVER_ADDR, SERVER_PORT, WIFI_ADDR};
use mpwifi_simcore::{Dur, Time};

/// Handover ablation: Backup mode vs Single-Path (break-before-make)
/// mode — failover gap and LTE radio energy. The paper's Section 3.6
/// ends exactly here: Backup mode wastes LTE tail energy on idle
/// subflows; Single-Path mode avoids it at the cost of a handshake at
/// failure time.
pub fn ext_handover(seed: u64) -> Report {
    const BYTES: u64 = 3_000_000;
    let wifi = LinkSpec::symmetric(2_500_000, Dur::from_millis(30));
    let lte = LinkSpec::symmetric(2_000_000, Dur::from_millis(60));
    let model = PowerModel::default();

    let mut rows: Vec<(&str, Dur, f64, bool)> = Vec::new();
    for (label, mode) in [("Backup", Mode::Backup), ("Single-Path", Mode::SinglePath)] {
        let cfg = MptcpConfig {
            mode,
            cc: CcKind::Lia,
            backup_activation: BackupActivation::OnNotify,
            ..MptcpConfig::default()
        };
        let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], seed | 1);
        let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), seed ^ 0xCE);
        let mut sim = Sim::builder(client, server)
            .wifi(&wifi)
            .lte(&lte)
            .seed(seed)
            .build();
        // WiFi (primary) dies, with notification, at t = 4 s.
        let fail_at = Time::from_secs(4);
        sim.schedule(fail_at, ScriptEvent::CutIface(WIFI_ADDR));
        sim.schedule(fail_at, ScriptEvent::NotifyIfaceDown(WIFI_ADDR));
        let id = sim.client.open(Time::ZERO, cfg, WIFI_ADDR, SERVER_PORT);
        let mut first_progress_after_fail: Option<Time> = None;
        let mut before_fail = 0u64;
        let payload = make_payload(BYTES);
        let deadline = Dur::from_secs(120);
        let run = bulk(&mut sim, id, FlowDir::Down, payload, deadline, |sim, d| {
            if sim.now < fail_at {
                before_fail = d;
            } else if d > before_fail && first_progress_after_fail.is_none() {
                first_progress_after_fail = Some(sim.now);
            }
        });
        // Close and drain teardown so FIN tails are charged.
        close_and_drain(&mut sim, id);
        let gap = first_progress_after_fail.map_or(Dur::MAX, |t| t - fail_at);
        let horizon = sim.now + Dur::from_secs(16);
        let lte_j = model
            .energy(RadioKind::Lte, &sim.iface(LTE_ADDR).log, horizon)
            .radio_j();
        rows.push((label, gap, lte_j, run.completed.is_some()));
    }

    let mut r = Report::new(
        "ext-handover",
        "EXTENSION — Backup vs Single-Path (break-before-make) handover",
        "3 MB download, WiFi primary dies (notified) at t=4 s; gap = time to first post-failure delivery; energy = LTE radio joules incl. tails",
    );
    let mut t = TextTable::new(vec![
        "Mode",
        "Failover gap",
        "LTE radio energy",
        "Completed",
    ]);
    for (label, gap, j, done) in &rows {
        t.row(vec![
            label.to_string(),
            format!("{gap}"),
            format!("{j:.1} J"),
            done.to_string(),
        ]);
    }
    r.block(t.render());
    let (backup, single) = (&rows[0], &rows[1]);
    r.claim(
        "both modes complete after the failure",
        "failover works",
        format!("backup {} / single-path {}", backup.3, single.3),
        backup.3 && single.3,
    );
    r.claim(
        "Single-Path saves substantial LTE energy before the failure",
        "no idle SYN/FIN tails (Paasch et al.)",
        format!("{:.1} J vs {:.1} J", single.2, backup.2),
        single.2 < backup.2,
    );
    r.claim(
        "Backup mode fails over faster (subflow already established)",
        "Single-Path pays ~2 extra RTTs",
        format!("backup gap {} vs single-path gap {}", backup.1, single.1),
        backup.1 <= single.1,
    );
    r
}

/// Policy evaluation: the adaptive decision the paper's conclusion asks
/// for, evaluated against the oracle across the 20 locations.
pub fn ext_policy(scale: Scale, seed: u64) -> Report {
    let locs = super::locations(seed);
    let flow_bytes = 1_000_000u64;
    let mode = scale.run_mode();

    // For each location: measure (like the app), let each policy choose,
    // then score the choice with a real transfer of that kind.
    let policies: Vec<(&str, Box<dyn NetworkSelector>)> = vec![
        ("always-wifi (today's default)", Box::new(AlwaysWifi)),
        ("best-measured single path", Box::new(BestMeasured)),
        (
            "paper-guided (flows+comparability)",
            Box::new(PaperGuided::default()),
        ),
    ];
    let mut totals = vec![0.0f64; policies.len() + 1]; // + oracle
    let mut t = TextTable::new(vec![
        "Location",
        "always-wifi",
        "best-measured",
        "paper-guided",
        "oracle",
    ]);
    for loc in &locs {
        let m = measure_pair(&loc.wifi, &loc.lte, mode, seed ^ loc.id as u64);
        let wifi_measured_better = m.wifi_down_bps >= m.lte_down_bps;
        let tput_of = |choice: NetworkChoice| -> f64 {
            let transport = match choice {
                NetworkChoice::Wifi => StudyTransport::TcpWifi,
                NetworkChoice::Lte => StudyTransport::TcpLte,
                // "Both": the device sets its default route (the MPTCP
                // primary) to the measured-best network, per Section 3.4.
                NetworkChoice::Both if wifi_measured_better => StudyTransport::MpWifiDecoupled,
                NetworkChoice::Both => StudyTransport::MpLteDecoupled,
            };
            run_transfer(
                &loc.wifi,
                &loc.lte,
                transport,
                FlowDir::Down,
                flow_bytes,
                seed,
            )
            .avg_throughput_bps()
            .unwrap_or(0.0)
        };
        let mut row = vec![format!("loc {:2} ({})", loc.id, loc.description)];
        let mut best_here = 0.0f64;
        let mut per_policy = Vec::new();
        for (_, p) in &policies {
            let tput = tput_of(p.select(&m, flow_bytes));
            per_policy.push(tput);
            best_here = best_here.max(tput);
        }
        // Oracle: best of the three possible choices.
        let oracle = [NetworkChoice::Wifi, NetworkChoice::Lte, NetworkChoice::Both]
            .into_iter()
            .map(tput_of)
            .fold(0.0, f64::max);
        for (k, tput) in per_policy.iter().enumerate() {
            totals[k] += tput;
            row.push(fmt_bps(*tput));
        }
        totals[policies.len()] += oracle;
        row.push(fmt_bps(oracle));
        t.row(row);
    }
    let n = locs.len() as f64;
    let mut r = Report::new(
        "ext-policy",
        "EXTENSION — network-selection policies vs the oracle (the paper's open question)",
        "per location: one Cell-vs-WiFi measurement, policy picks {WiFi, LTE, MPTCP}, scored by a real 1 MB transfer",
    );
    r.block(t.render());
    let wifi_mean = totals[0] / n;
    let best_measured_mean = totals[1] / n;
    let guided_mean = totals[2] / n;
    let oracle_mean = totals[3] / n;
    r.block(format!(
        "mean achieved throughput:\n  always-wifi    {}\n  best-measured  {}\n  paper-guided   {}\n  oracle         {}",
        fmt_bps(wifi_mean),
        fmt_bps(best_measured_mean),
        fmt_bps(guided_mean),
        fmt_bps(oracle_mean)
    ));
    r.claim(
        "measurement-driven selection beats today's always-WiFi default",
        "LTE wins ~40% of the time, so it must",
        format!("{} vs {}", fmt_bps(best_measured_mean), fmt_bps(wifi_mean)),
        best_measured_mean > wifi_mean,
    );
    r.claim(
        "the paper-guided policy (MPTCP for long comparable flows) beats single-path selection",
        "MPTCP helps 1 MB flows on comparable links",
        format!(
            "{} vs {}",
            fmt_bps(guided_mean),
            fmt_bps(best_measured_mean)
        ),
        guided_mean >= best_measured_mean,
    );
    r.claim(
        "paper-guided closes most of the gap to the oracle",
        "adaptive policy ≈ oracle",
        format!(
            "{:.0}% of oracle throughput",
            100.0 * guided_mean / oracle_mean
        ),
        guided_mean > 0.8 * oracle_mean,
    );
    r
}

/// Mobility scenario: the user walks away from the AP — WiFi decays in
/// steps until it is unusable. This is the handover case the paper's
/// related work (Raiciu et al., Paasch et al.) studies and its
/// conclusion highlights ("high mobility of devices and rapidly-changing
/// network conditions").
pub fn ext_mobility(seed: u64) -> Report {
    use mpwifi_tcp::conn::TcpConfig;
    const BYTES: u64 = 5_000_000;
    let wifi = LinkSpec::symmetric(10_000_000, Dur::from_millis(25));
    let lte = LinkSpec::symmetric(5_000_000, Dur::from_millis(55));
    // WiFi decay schedule: 10 M → 3 M → 600 k → cut.
    let decay: [(u64, ScriptEvent); 4] = [
        (2_000, ScriptEvent::SetDownRate(WIFI_ADDR, 3_000_000)),
        (4_000, ScriptEvent::SetDownRate(WIFI_ADDR, 600_000)),
        (6_000, ScriptEvent::CutIface(WIFI_ADDR)),
        (6_000, ScriptEvent::NotifyIfaceDown(WIFI_ADDR)),
    ];

    // Single-path TCP over WiFi: doomed.
    let tcp_client = mpwifi_sim::endpoint::TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, 1);
    let tcp_server =
        mpwifi_sim::endpoint::TcpServerHost::new(SERVER_ADDR, SERVER_PORT, TcpConfig::default(), 2);
    let mut sim = Sim::builder(tcp_client, tcp_server)
        .wifi(&wifi)
        .lte(&lte)
        .seed(seed)
        .build();
    for (ms, ev) in decay {
        sim.schedule(Time::from_millis(ms), ev);
    }
    let id = sim
        .client
        .connect(Time::ZERO, TcpConfig::default(), SERVER_PORT);
    let deadline = Dur::from_secs(60);
    let payload = make_payload(BYTES);
    let tcp = bulk(&mut sim, id, FlowDir::Down, payload, deadline, |_, _| {});
    let tcp_done = tcp.completed.is_some();
    let tcp_delivered = tcp.progress.total_bytes();

    // MPTCP: hands over to LTE and finishes.
    let cfg = MptcpConfig::default();
    let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], seed | 1);
    let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), seed ^ 3);
    let mut sim = Sim::builder(client, server)
        .wifi(&wifi)
        .lte(&lte)
        .seed(seed)
        .build();
    for (ms, ev) in decay {
        sim.schedule(Time::from_millis(ms), ev);
    }
    let id = sim.client.open(Time::ZERO, cfg, WIFI_ADDR, SERVER_PORT);
    let payload = make_payload(BYTES);
    let mp = bulk(&mut sim, id, FlowDir::Down, payload, deadline, |_, _| {});
    let mp_done = mp.completed.is_some();
    let mp_time = sim.now;

    let mut r = Report::new(
        "ext-mobility",
        "EXTENSION — walking out of WiFi range: TCP vs MPTCP handover",
        "5 MB download; WiFi decays 10 M → 3 M → 0.6 M and dies at t=6 s (notified); LTE stays at 5 M",
    );
    r.block(format!(
        "TCP-over-WiFi : completed = {tcp_done}, delivered {:.1} MB before dying
MPTCP         : completed = {mp_done} at t = {mp_time}",
        tcp_delivered as f64 / 1e6
    ));
    r.claim(
        "single-path TCP on the dying WiFi cannot finish",
        "connection dies with the AP",
        format!("completed = {tcp_done}"),
        !tcp_done,
    );
    r.claim(
        "MPTCP survives the walk-away and completes",
        "seamless handover to LTE",
        format!("completed = {mp_done} at {mp_time}"),
        mp_done,
    );
    r
}

/// Temporal stability of the app's recommendation: if Cell vs WiFi told
/// you "use LTE here", is that still right on your next visit? The
/// paper's conclusion flags "rapidly-changing network conditions" as the
/// hard part of automatic selection.
pub fn ext_stability(seed: u64) -> Report {
    let locs = super::locations(seed);
    let visits = 12;
    let mut stable = 0usize;
    let mut total = 0usize;
    for (i, loc) in locs.iter().enumerate() {
        let world = mpwifi_radio::WirelessWorld::from_env(loc.env);
        let mut rng = mpwifi_simcore::DetRng::seed_from_u64(seed ^ ((i as u64) << 16));
        let mut prev_lte_better: Option<bool> = None;
        for v in 0..visits {
            let draw = world.draw(&mut rng);
            let m = measure_pair(&draw.wifi, &draw.lte, RunMode::Analytic, seed ^ v);
            let lte_better = m.lte_down_bps > m.wifi_down_bps;
            if let Some(prev) = prev_lte_better {
                total += 1;
                if prev == lte_better {
                    stable += 1;
                }
            }
            prev_lte_better = Some(lte_better);
        }
    }
    let frac = stable as f64 / total as f64;
    let mut r = Report::new(
        "ext-stability",
        "EXTENSION — how long does a 'use LTE here' recommendation stay valid?",
        format!("{visits} visits to each of the 20 locations; consecutive-visit agreement of the measured winner"),
    );
    r.block(format!(
        "recommendation from the previous visit is still correct {:.0}% of the time ({stable}/{total})",
        frac * 100.0
    ));
    r.claim(
        "recommendations are usefully but not perfectly stable",
        "conditions change quickly (paper's conclusion)",
        format!("{:.0}% consecutive-visit agreement", frac * 100.0),
        (0.55..=0.97).contains(&frac),
    );
    r
}

/// Scheduler ablation: Linux's min-RTT default vs round-robin across
/// the 20 locations.
pub fn ext_sched(seed: u64) -> Report {
    let locs = super::locations(seed);
    let mut minrtt_total = 0.0;
    let mut rr_total = 0.0;
    let mut minrtt_wins = 0usize;
    for loc in &locs {
        let run = |sched: SchedKind| {
            let cfg = MptcpConfig {
                sched,
                cc: CcKind::Reno,
                ..MptcpConfig::default()
            };
            run_mptcp_download(
                &loc.wifi,
                &loc.lte,
                WIFI_ADDR,
                1_000_000,
                cfg,
                Dur::from_secs(120),
                seed ^ (loc.id as u64) << 3,
            )
            .avg_throughput_bps()
            .unwrap_or(0.0)
        };
        let a = run(SchedKind::MinRtt);
        let b = run(SchedKind::RoundRobin);
        minrtt_total += a;
        rr_total += b;
        if a >= b {
            minrtt_wins += 1;
        }
    }
    let n = locs.len();
    let mut r = Report::new(
        "ext-sched",
        "EXTENSION — MPTCP packet-scheduler ablation: min-RTT vs round-robin",
        "1 MB MPTCP downloads (decoupled, WiFi primary) at the 20 locations",
    );
    r.block(format!(
        "mean throughput: min-RTT {} vs round-robin {}\nmin-RTT wins at {minrtt_wins}/{n} locations",
        fmt_bps(minrtt_total / n as f64),
        fmt_bps(rr_total / n as f64)
    ));
    r.claim(
        "min-RTT (the Linux default) is the better scheduler overall",
        "min-RTT avoids scheduling onto the slow path's queue",
        format!(
            "{} vs {} mean; wins {minrtt_wins}/{n}",
            fmt_bps(minrtt_total / n as f64),
            fmt_bps(rr_total / n as f64)
        ),
        minrtt_total >= rr_total && minrtt_wins * 2 >= n,
    );
    r
}
