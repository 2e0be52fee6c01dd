//! The scheduler & congestion-control zoo: head-to-head studies across
//! the full `(SchedKind, CcKind)` matrix that PR 9 grows the stack to.
//!
//! Two experiments extend the paper's Figures 9 and 15 beyond the
//! Linux-default min-RTT/LIA pairing the paper measured:
//!
//! * [`sched_matrix`] — bulk-download throughput for every scheduler ×
//!   congestion-control cell, on the paper's asymmetric WiFi+LTE pair
//!   and on the dual-LTE / dual-WiFi pairs the paper could not test
//!   (one device, one carrier). Flow-size columns come from
//!   prefix-truncating each transfer, exactly like Figure 9.
//! * [`sched_failover`] — the Figure 15e-h failover timeline replayed
//!   once per scheduler: primary dies mid-transfer, and the gap until
//!   the first post-failure delivery plus the reinjection bill are
//!   compared across the zoo. The measured surprise is honest: on a
//!   *bulk* flow Redundant's failover gap is the zoo's worst — the
//!   surviving path is head-of-line blocked behind queued copies of
//!   data the dead path already delivered; redundancy buys its latency
//!   robustness on thin flows, not saturated ones. BLEST's is the
//!   best: it had stopped scheduling onto the slow path, so the
//!   survivor's pipe is empty when the reinjections arrive.

use crate::report::Report;
use mpwifi_measure::render::fmt_bps;
use mpwifi_measure::TextTable;
use mpwifi_mptcp::{BackupActivation, CcKind, Mode, MptcpConfig, SchedKind};
use mpwifi_sim::apps::{bulk, make_payload, run_mptcp_download, FlowDir};
use mpwifi_sim::endpoint::{MptcpClientHost, MptcpServerHost};
use mpwifi_sim::{LinkSpec, ScriptEvent, Sim, LTE_ADDR, SERVER_ADDR, SERVER_PORT, WIFI_ADDR};
use mpwifi_simcore::{metrics, Dur, Time};

/// Transfer size for the matrix cells: long enough that slow start is
/// over and both subflows carry weight, small enough that the 75-cell
/// sweep stays cheap.
const MATRIX_BYTES: u64 = 500_000;

/// Flow-size column (prefix truncation) for the short-flow view.
const SHORT_FLOW: u64 = 50_000;

/// The three path pairs: the paper's asymmetric WiFi+LTE location plus
/// the homogeneous pairs (two LTE modems / two WiFi radios) its
/// single-device testbed could not measure.
fn path_pairs() -> [(&'static str, LinkSpec, LinkSpec); 3] {
    let wifi = LinkSpec::symmetric(8_000_000, Dur::from_millis(25));
    let lte = LinkSpec::symmetric(4_000_000, Dur::from_millis(60));
    [
        ("WiFi+LTE", wifi.clone(), lte.clone()),
        ("2xLTE", lte.clone(), lte),
        ("2xWiFi", wifi.clone(), wifi),
    ]
}

fn zoo_config(sched: SchedKind, cc: CcKind) -> MptcpConfig {
    MptcpConfig {
        sched,
        cc,
        mode: Mode::Full,
        backup_activation: BackupActivation::OnNotify,
        ..MptcpConfig::default()
    }
}

/// Scheduler × congestion-control throughput matrix over the three
/// path pairs.
pub fn sched_matrix(seed: u64) -> Report {
    let pairs = path_pairs();
    let deadline = Dur::from_secs(120);
    // tput[pair][sched][cc] at the full transfer size; None = DNF.
    let mut tput = [[[None::<f64>; 5]; 5]; 3];
    let mut short = [[[None::<f64>; 5]; 5]; 3];
    let mut all_complete = true;
    let before = metrics::snapshot();
    for (p, (_, first, second)) in pairs.iter().enumerate() {
        for (s, &sched) in SchedKind::ALL.iter().enumerate() {
            for (c, &cc) in CcKind::ALL.iter().enumerate() {
                let r = run_mptcp_download(
                    first,
                    second,
                    WIFI_ADDR,
                    MATRIX_BYTES,
                    zoo_config(sched, cc),
                    deadline,
                    seed ^ ((p as u64) << 20) ^ ((s as u64) << 12) ^ ((c as u64) << 4),
                );
                all_complete &= r.is_complete();
                tput[p][s][c] = r.avg_throughput_bps();
                short[p][s][c] = r.throughput_at_flow_size(SHORT_FLOW);
            }
        }
    }
    let delta = metrics::snapshot().since(&before);

    let mut r = Report::new(
        "sched-matrix",
        "EXTENSION — scheduler × congestion-control matrix over three path pairs",
        format!(
            "{} kB MPTCP downloads, every (scheduler, CC) cell, on WiFi+LTE / 2xLTE / 2xWiFi; \
             short-flow column = first {} kB of the same transfer (Fig 9's prefix truncation)",
            MATRIX_BYTES / 1_000,
            SHORT_FLOW / 1_000
        ),
    );
    for (p, (pair, _, _)) in pairs.iter().enumerate() {
        let mut t = TextTable::new(vec!["sched \\ cc", "lia", "olia", "balia", "reno", "cubic"]);
        for (s, sched) in SchedKind::ALL.iter().enumerate() {
            let mut row = vec![format!("{pair} {}", sched.label())];
            for cell in &tput[p][s] {
                row.push(cell.map_or("DNF".into(), fmt_bps));
            }
            t.row(row);
        }
        r.block(t.render());
    }
    // Short-flow view on the asymmetric pair only (where primary/sched
    // choice matters most, per Section 3.4).
    let mut t = TextTable::new(vec![
        "WiFi+LTE, 50 kB",
        "lia",
        "olia",
        "balia",
        "reno",
        "cubic",
    ]);
    for (s, sched) in SchedKind::ALL.iter().enumerate() {
        let mut row = vec![sched.label().to_string()];
        for cell in &short[0][s] {
            row.push(cell.map_or("DNF".into(), fmt_bps));
        }
        t.row(row);
    }
    r.block(t.render());

    // Mean over CCs per scheduler on the asymmetric pair.
    let mean = |p: usize, s: usize| -> f64 {
        let vals: Vec<f64> = (0..5).filter_map(|c| tput[p][s][c]).collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let idx = |k: SchedKind| SchedKind::ALL.iter().position(|&s| s == k).unwrap();
    let (minrtt, rr) = (idx(SchedKind::MinRtt), idx(SchedKind::RoundRobin));
    let (blest, ecf) = (idx(SchedKind::Blest), idx(SchedKind::Ecf));
    let red = idx(SchedKind::Redundant);

    r.claim(
        "every (scheduler, CC) cell completes on every path pair",
        "75/75 transfers finish",
        format!("all complete = {all_complete}"),
        all_complete,
    );
    let best_non_red = [minrtt, rr, blest, ecf]
        .into_iter()
        .map(|s| mean(0, s))
        .fold(0.0, f64::max);
    r.claim(
        "Redundant trades aggregate throughput for latency robustness",
        "duplicates burn capacity: ≤ best non-redundant scheduler",
        format!(
            "{} vs best {}",
            fmt_bps(mean(0, red)),
            fmt_bps(best_non_red)
        ),
        mean(0, red) <= best_non_red,
    );
    let parts = |s: usize| (mean(0, s) - mean(0, minrtt)).abs() > 0.01 * mean(0, minrtt);
    r.claim(
        "BLEST and ECF part from min-RTT on the asymmetric pair",
        "a deferral that may last a slow-path RTT is a schedule of its own, \
         not min-RTT with a hiccup",
        format!(
            "blest {} / ecf {} vs minrtt {}",
            fmt_bps(mean(0, blest)),
            fmt_bps(mean(0, ecf)),
            fmt_bps(mean(0, minrtt))
        ),
        parts(blest) && parts(ecf),
    );
    let latency_aware = mean(0, blest).min(mean(0, ecf));
    let head = |s: usize| short[0][s][0].map_or("DNF".into(), fmt_bps);
    r.claim(
        "latency-aware schedulers (BLEST/ECF) stay competitive on bulk flows",
        "deferral only bites near the flow's tail: the first 50 kB go as \
         under min-RTT, the whole flow keeps at least 80 %",
        format!(
            "min(blest, ecf) {} vs minrtt {}; first 50 kB (lia) {} / {} vs {}",
            fmt_bps(latency_aware),
            fmt_bps(mean(0, minrtt)),
            head(blest),
            head(ecf),
            head(minrtt)
        ),
        latency_aware >= 0.8 * mean(0, minrtt)
            && short[0][blest] == short[0][minrtt]
            && short[0][ecf] == short[0][minrtt],
    );
    r.claim(
        "round-robin matches min-RTT on homogeneous pairs",
        "no slow path to mis-schedule onto (2xLTE)",
        format!(
            "rr {} vs minrtt {}",
            fmt_bps(mean(1, rr)),
            fmt_bps(mean(1, minrtt))
        ),
        mean(1, rr) >= 0.85 * mean(1, minrtt),
    );
    r.claim(
        "Redundant's duplication is real and the receiver drops the copies",
        "dup transmissions > 0 and dup bytes discarded by DSN",
        format!(
            "{} dups, {} dup bytes dropped",
            delta.redundant_dups, delta.dup_bytes_dropped
        ),
        delta.redundant_dups > 0 && delta.dup_bytes_dropped > 0,
    );
    r
}

/// Figure 15e-h's failover timeline, once per scheduler (LIA coupling
/// throughout): the WiFi primary dies — with notification — at t = 3 s
/// of a 3 MB download.
pub fn sched_failover(seed: u64) -> Report {
    const BYTES: u64 = 3_000_000;
    let wifi = LinkSpec::symmetric(4_000_000, Dur::from_millis(25));
    let lte = LinkSpec::symmetric(3_000_000, Dur::from_millis(60));
    let fail_at = Time::from_secs(3);

    struct Row {
        sched: SchedKind,
        done: bool,
        finish: Time,
        gap: Dur,
        reinjections: u64,
        dups: u64,
    }
    let mut rows: Vec<Row> = Vec::new();
    for &sched in &SchedKind::ALL {
        let cfg = zoo_config(sched, CcKind::Lia);
        let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], seed | 1);
        let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), seed ^ 0xF0);
        let mut sim = Sim::builder(client, server)
            .wifi(&wifi)
            .lte(&lte)
            .seed(seed ^ sched as u64)
            .build();
        sim.schedule(fail_at, ScriptEvent::CutIface(WIFI_ADDR));
        sim.schedule(fail_at, ScriptEvent::NotifyIfaceDown(WIFI_ADDR));
        let id = sim.client.open(Time::ZERO, cfg, WIFI_ADDR, SERVER_PORT);
        let before = metrics::snapshot();
        let mut before_fail = 0u64;
        let mut first_after: Option<Time> = None;
        let payload = make_payload(BYTES);
        let deadline = Dur::from_secs(60);
        let r = bulk(&mut sim, id, FlowDir::Down, payload, deadline, |sim, d| {
            if sim.now < fail_at {
                before_fail = d;
            } else if d > before_fail && first_after.is_none() {
                first_after = Some(sim.now);
            }
        });
        let delta = metrics::snapshot().since(&before);
        rows.push(Row {
            sched,
            done: r.completed.is_some(),
            finish: sim.now,
            gap: first_after.map_or(Dur::MAX, |t| t - fail_at),
            reinjections: delta.reinjections,
            dups: delta.redundant_dups,
        });
    }

    let mut r = Report::new(
        "sched-failover",
        "EXTENSION — Fig 15-style failover across the scheduler zoo",
        "3 MB download, LIA coupling; WiFi primary dies (notified) at t=3 s; gap = time to first post-failure delivery",
    );
    let mut t = TextTable::new(vec![
        "Scheduler",
        "Completed",
        "Finish",
        "Failover gap",
        "Reinjections",
        "Dup sends",
    ]);
    for row in &rows {
        t.row(vec![
            row.sched.label().to_string(),
            row.done.to_string(),
            format!("{}", row.finish),
            format!("{}", row.gap),
            row.reinjections.to_string(),
            row.dups.to_string(),
        ]);
    }
    r.block(t.render());

    let by = |k: SchedKind| rows.iter().find(|r| r.sched == k).unwrap();
    r.claim(
        "every scheduler survives the primary's death and completes",
        "failover is scheduler-independent (Fig 15f)",
        format!(
            "completed = {:?}",
            rows.iter().map(|r| r.done).collect::<Vec<_>>()
        ),
        rows.iter().all(|r| r.done),
    );
    let max_single_path_gap = [
        SchedKind::MinRtt,
        SchedKind::RoundRobin,
        SchedKind::Blest,
        SchedKind::Ecf,
    ]
    .into_iter()
    .map(|k| by(k).gap)
    .max()
    .unwrap();
    r.claim(
        "bulk Redundant pays for its duplicates at failover, not the reverse",
        "the survivor is head-of-line blocked behind queued copies of data \
         the dead path already delivered",
        format!(
            "redundant gap {} vs worst non-redundant {}",
            by(SchedKind::Redundant).gap,
            max_single_path_gap
        ),
        by(SchedKind::Redundant).gap >= max_single_path_gap,
    );
    r.claim(
        "BLEST's failover gap is below min-RTT's",
        "the survivor's pipe is not full of data scheduled onto the slow \
         path — the HoL effect BLEST/ECF exist to avoid",
        format!(
            "blest gap {} vs minrtt {}",
            by(SchedKind::Blest).gap,
            by(SchedKind::MinRtt).gap
        ),
        by(SchedKind::Blest).gap < by(SchedKind::MinRtt).gap,
    );
    r.claim(
        "non-redundant schedulers pay for failover with reinjections",
        "unacked primary data must be re-sent on the survivor",
        format!(
            "minrtt {} / rr {} / blest {} / ecf {}",
            by(SchedKind::MinRtt).reinjections,
            by(SchedKind::RoundRobin).reinjections,
            by(SchedKind::Blest).reinjections,
            by(SchedKind::Ecf).reinjections
        ),
        [
            SchedKind::MinRtt,
            SchedKind::RoundRobin,
            SchedKind::Blest,
            SchedKind::Ecf,
        ]
        .into_iter()
        .all(|k| by(k).reinjections > 0),
    );
    r.claim(
        "only Redundant duplicates in steady state",
        "dup counter isolates the redundant path",
        format!(
            "redundant dups {} vs others {}",
            by(SchedKind::Redundant).dups,
            rows.iter()
                .filter(|r| r.sched != SchedKind::Redundant)
                .map(|r| r.dups)
                .sum::<u64>()
        ),
        by(SchedKind::Redundant).dups > 0
            && rows
                .iter()
                .filter(|r| r.sched != SchedKind::Redundant)
                .all(|r| r.dups == 0),
    );
    r
}
