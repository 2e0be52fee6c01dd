//! Fault-injection robustness studies (the `fault-*` extension family).
//!
//! Figure 15 shows eight hand-scripted failover timelines. These
//! experiments re-express those scenarios through the deterministic
//! [`mpwifi_netem::FaultPlan`] timeline and sweep the parameters the
//! paper could only sample: blackout *onset* (15e–h cut at one fixed
//! time each), blackout *duration* (the paper never restores a link),
//! and link-noise episodes (burst loss, segment corruption) that the
//! testbed hardware could not inject on demand.

use super::mode_figs::{lte_link, wifi_link};
use crate::report::{Report, Scale};
use mpwifi_mptcp::{BackupActivation, Mode, MptcpConfig};
use mpwifi_netem::{Addr, FaultPlan, GilbertElliott};
use mpwifi_sim::apps::{bulk, make_payload, FlowDir};
use mpwifi_sim::endpoint::{MptcpClientHost, MptcpServerHost, TcpClientHost, TcpServerHost};
use mpwifi_sim::{iface_name, Sim, LTE_ADDR, SERVER_ADDR, SERVER_PORT, WIFI_ADDR};
use mpwifi_simcore::{metrics, Dur, RunMetrics, Time};
use mpwifi_tcp::conn::TcpConfig;
use std::fmt::Write as _;

/// Outcome of one faulted MPTCP download.
struct FaultRun {
    delivered: u64,
    done: bool,
    finish: Time,
    subflows: usize,
    /// Metric deltas attributable to this run alone.
    delta: RunMetrics,
}

/// Run one MPTCP download with fault plans attached.
fn run_faulted(
    bytes: u64,
    cfg: &MptcpConfig,
    primary: Addr,
    plans: &[(Addr, FaultPlan)],
    seed: u64,
    deadline: Dur,
) -> FaultRun {
    let before = metrics::snapshot();
    let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], seed | 1);
    let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), seed ^ 0xFE);
    let (wifi, lte) = (wifi_link(), lte_link());
    let mut builder = Sim::builder(client, server)
        .wifi(&wifi)
        .lte(&lte)
        .seed(seed);
    for (iface, plan) in plans {
        builder = builder.with_faults(*iface, plan.clone());
    }
    let mut sim = builder.build();
    let id = sim
        .client
        .open(Time::ZERO, cfg.clone(), primary, SERVER_PORT);
    let payload = make_payload(bytes);
    let r = bulk(&mut sim, id, FlowDir::Down, payload, deadline, |_, _| {});
    FaultRun {
        delivered: r.progress.total_bytes(),
        done: r.completed.is_some(),
        finish: sim.now,
        subflows: sim.client.conn(id).subflow_stats().len(),
        delta: metrics::snapshot().since(&before),
    }
}

fn backup_cfg(activation: BackupActivation) -> MptcpConfig {
    MptcpConfig {
        mode: Mode::Backup,
        backup_activation: activation,
        ..MptcpConfig::default()
    }
}

/// `fault-sweep`: Figure 15e–h as a parameter sweep over blackout onset.
///
/// For every onset and both primaries, three variants of a permanent
/// primary blackout run in Backup mode:
///
/// * **notified** — the OS reports the interface down (15e/f/h);
/// * **silent / notify-activation** — a cable-pull with the paper's
///   stock configuration, which stalls (15g's anomaly);
/// * **silent / RTO-activation** — the hardened configuration that
///   detects death from consecutive RTOs and fails over anyway.
pub fn fault_sweep(scale: Scale, seed: u64) -> Report {
    let (bytes, onsets_ms, deadline): (u64, &[u64], Dur) = match scale {
        Scale::Quick => (1_000_000, &[1_000, 3_000], Dur::from_secs(30)),
        Scale::Full => (
            4_000_000,
            &[1_000, 3_000, 5_000, 7_000, 9_000, 11_000],
            Dur::from_secs(90),
        ),
    };
    let mut r = Report::new(
        "fault-sweep",
        "Failover (Fig 15e-h) swept over blackout onset",
        format!(
            "{} MB Backup-mode download; primary blacked out forever at each onset; \
             notified vs silent cut, notify- vs RTO-count activation",
            bytes / 1_000_000
        ),
    );
    let mut table =
        String::from("onset_ms primary variant completed delivered_kB finish_s recovery_ms\n");
    let mut notified_all_done = true;
    let mut silent_notify_all_stall = true;
    let mut silent_rto_all_done = true;
    let mut silent_rto_all_timed = true;
    let mut injected_once_each = true;
    for &onset in onsets_ms {
        for primary in [LTE_ADDR, WIFI_ADDR] {
            let variants: [(&str, MptcpConfig, FaultPlan); 3] = [
                (
                    "notified",
                    backup_cfg(BackupActivation::OnNotify),
                    FaultPlan::new().notified_blackout_forever(Time::from_millis(onset)),
                ),
                (
                    "silent+notify",
                    backup_cfg(BackupActivation::OnNotify),
                    FaultPlan::new().blackout_forever(Time::from_millis(onset)),
                ),
                (
                    "silent+rto",
                    backup_cfg(BackupActivation::OnRtoCount(2)),
                    FaultPlan::new().blackout_forever(Time::from_millis(onset)),
                ),
            ];
            for (name, cfg, plan) in variants {
                let run = run_faulted(bytes, &cfg, primary, &[(primary, plan)], seed, deadline);
                let complete = run.done && run.delivered == bytes;
                match name {
                    "notified" => notified_all_done &= complete,
                    "silent+notify" => silent_notify_all_stall &= !run.done,
                    _ => {
                        silent_rto_all_done &= complete;
                        silent_rto_all_timed &=
                            run.delta.recovery_time_us > 0 && run.delta.subflows_declared_dead >= 1;
                    }
                }
                injected_once_each &= run.delta.faults_injected == 1;
                let _ = writeln!(
                    table,
                    "{onset} {} {name} {} {} {:.2} {:.1}",
                    iface_name(primary),
                    run.done,
                    run.delivered / 1000,
                    run.finish.as_secs_f64(),
                    run.delta.recovery_time_us as f64 / 1e3,
                );
            }
        }
    }
    r.block(table);
    r.claim(
        "notified blackout fails over at every onset",
        "15e/f/h complete on the backup path",
        format!("all completed: {notified_all_done}"),
        notified_all_done,
    );
    r.claim(
        "silent blackout with notify-only activation stalls",
        "15g halts until replug",
        format!("all stalled: {silent_notify_all_stall}"),
        silent_notify_all_stall,
    );
    r.claim(
        "RTO-count activation rescues silent blackouts",
        "(extension) transfer completes without stream corruption",
        format!("all completed intact: {silent_rto_all_done}"),
        silent_rto_all_done,
    );
    r.claim(
        "recovery time measured for every RTO-driven failover",
        "(extension) recovery_time_us > 0, subflow declared dead",
        format!("all timed: {silent_rto_all_timed}"),
        silent_rto_all_timed,
    );
    r.claim(
        "every scheduled blackout fired exactly once",
        "(determinism) faults_injected == 1 per run",
        format!("held in every cell: {injected_once_each}"),
        injected_once_each,
    );
    r
}

/// `fault-restore`: blackout *duration* sweep with restore and rejoin.
///
/// The paper's testbed never plugs the dead interface back in. Here a
/// notified WiFi blackout of varying duration interrupts a Full-MPTCP
/// download; on restore the client opens a fresh MP_JOIN on the
/// recovered interface (a third subflow, on a new port) and finishes on
/// both paths.
pub fn fault_restore(scale: Scale, seed: u64) -> Report {
    let (bytes, durations_ms, deadline): (u64, &[u64], Dur) = match scale {
        Scale::Quick => (2_000_000, &[1_000, 4_000], Dur::from_secs(60)),
        Scale::Full => (
            4_000_000,
            &[500, 1_000, 2_000, 4_000, 8_000],
            Dur::from_secs(120),
        ),
    };
    let onset = Time::from_millis(2_000);
    let cfg = MptcpConfig::default(); // Full mode, notify activation
    let mut r = Report::new(
        "fault-restore",
        "Blackout-duration sweep with restore and subflow rejoin",
        format!(
            "{} MB Full-MPTCP download, WiFi primary; notified WiFi blackout at t=2 s \
             for each duration, then restore",
            bytes / 1_000_000
        ),
    );
    let mut table = String::from("duration_ms completed finish_s subflows dead reinjected\n");
    let mut all_complete = true;
    let mut all_rejoined = true;
    let mut all_reinjected = true;
    let mut finishes: Vec<f64> = Vec::new();
    for &d in durations_ms {
        let plan = FaultPlan::new().notified_blackout(onset, Dur::from_millis(d));
        let run = run_faulted(bytes, &cfg, WIFI_ADDR, &[(WIFI_ADDR, plan)], seed, deadline);
        all_complete &= run.done && run.delivered == bytes;
        all_rejoined &= run.subflows == 3;
        all_reinjected &= run.delta.reinjections >= 1;
        finishes.push(run.finish.as_secs_f64());
        let _ = writeln!(
            table,
            "{d} {} {:.2} {} {} {}",
            run.done,
            run.finish.as_secs_f64(),
            run.subflows,
            run.delta.subflows_declared_dead,
            run.delta.reinjections,
        );
    }
    r.block(table);
    r.claim(
        "transfer completes for every blackout duration",
        "(extension) no stream corruption, full payload",
        format!("all completed: {all_complete}"),
        all_complete,
    );
    r.claim(
        "the client rejoins the restored interface",
        "(extension) a third subflow on a fresh port",
        format!("3 subflows in every run: {all_rejoined}"),
        all_rejoined,
    );
    r.claim(
        "unacked data is reinjected when the subflow dies",
        "(extension) reinjections >= 1 per run",
        format!("held in every run: {all_reinjected}"),
        all_reinjected,
    );
    let monotone_cost = finishes.last() >= finishes.first();
    r.claim(
        "longer blackouts delay completion",
        "(extension) finish time grows with the outage",
        format!(
            "{:.2} s at {} ms vs {:.2} s at {} ms",
            finishes[0],
            durations_ms[0],
            finishes[finishes.len() - 1],
            durations_ms[durations_ms.len() - 1]
        ),
        monotone_cost,
    );
    r
}

/// `fault-noise`: burst-loss and corruption episodes on single-path TCP.
///
/// Exercises the Gilbert–Elliott burst-loss stage and the byte-flip
/// corruption stage against the plain TCP stack: the transfer must
/// survive on retransmissions alone, corrupted wire images must be
/// checksum-rejected (counted, never delivered), and the counters must
/// attribute per episode.
pub fn fault_noise(scale: Scale, seed: u64) -> Report {
    let (bytes, burst_ms, deadline): (u64, &[u64], Dur) = match scale {
        Scale::Quick => (300_000, &[500], Dur::from_secs(60)),
        Scale::Full => (1_000_000, &[250, 500, 1_000], Dur::from_secs(120)),
    };
    let mut r = Report::new(
        "fault-noise",
        "Burst-loss and corruption episodes on single-path TCP",
        format!(
            "{} kB download over WiFi; Gilbert-Elliott burst at t=1 s per duration, \
             plus a corruption episode run (p=0.05 both directions)",
            bytes / 1000
        ),
    );

    // One clean baseline, then one run per burst duration, then one
    // corruption run; all over the same links and seed.
    let run_tcp = |plan: Option<FaultPlan>| -> (bool, u64, Time, RunMetrics) {
        let before = metrics::snapshot();
        let client = TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, 1);
        let server = TcpServerHost::new(SERVER_ADDR, SERVER_PORT, TcpConfig::default(), 2);
        let (wifi, lte) = (wifi_link(), lte_link());
        let mut builder = Sim::builder(client, server)
            .wifi(&wifi)
            .lte(&lte)
            .seed(seed);
        if let Some(p) = plan {
            builder = builder.with_faults(WIFI_ADDR, p);
        }
        let mut sim = builder.build();
        let id = sim
            .client
            .connect(Time::ZERO, TcpConfig::default(), SERVER_PORT);
        let payload = make_payload(bytes);
        let r = bulk(&mut sim, id, FlowDir::Down, payload, deadline, |_, _| {});
        (
            r.completed.is_some(),
            r.progress.total_bytes(),
            sim.now,
            metrics::snapshot().since(&before),
        )
    };

    let (clean_done, _, clean_finish, clean_delta) = run_tcp(None);
    let mut table = String::from("scenario completed finish_s retransmits corrupted_dropped\n");
    let _ = writeln!(
        table,
        "clean {} {:.2} {} {}",
        clean_done,
        clean_finish.as_secs_f64(),
        clean_delta.tcp_retransmits,
        clean_delta.segments_corrupted_dropped,
    );
    let mut bursts_complete = true;
    let mut bursts_retransmit = true;
    for &d in burst_ms {
        let plan = FaultPlan::new().burst_loss(
            Time::from_secs(1),
            Dur::from_millis(d),
            GilbertElliott::default(),
        );
        let (done, delivered, finish, delta) = run_tcp(Some(plan));
        bursts_complete &= done && delivered >= bytes;
        bursts_retransmit &= delta.tcp_retransmits > clean_delta.tcp_retransmits;
        let _ = writeln!(
            table,
            "burst_{d}ms {} {:.2} {} {}",
            done,
            finish.as_secs_f64(),
            delta.tcp_retransmits,
            delta.segments_corrupted_dropped,
        );
    }
    let corrupt_plan = FaultPlan::new().corruption(Time::ZERO, Dur::from_secs(60), 0.05);
    let (c_done, c_delivered, c_finish, c_delta) = run_tcp(Some(corrupt_plan));
    let _ = writeln!(
        table,
        "corrupt_p05 {} {:.2} {} {}",
        c_done,
        c_finish.as_secs_f64(),
        c_delta.tcp_retransmits,
        c_delta.segments_corrupted_dropped,
    );
    r.block(table);
    r.claim(
        "clean baseline completes without noise counters",
        "(sanity) zero corrupted drops",
        format!(
            "done {clean_done}, corrupted {}",
            clean_delta.segments_corrupted_dropped
        ),
        clean_done && clean_delta.segments_corrupted_dropped == 0,
    );
    r.claim(
        "burst-loss episodes are survived on retransmissions",
        "(extension) full payload after every burst",
        format!("all completed: {bursts_complete}"),
        bursts_complete,
    );
    r.claim(
        "burst-loss episodes force extra retransmissions",
        "(extension) retransmits above the clean baseline",
        format!("held for every burst: {bursts_retransmit}"),
        bursts_retransmit,
    );
    r.claim(
        "corrupted wire images are rejected, counted, and recovered",
        "(extension) checksum drops > 0, payload intact",
        format!(
            "done {c_done}, delivered {c_delivered}, corrupted {}",
            c_delta.segments_corrupted_dropped
        ),
        c_done && c_delivered >= bytes && c_delta.segments_corrupted_dropped > 0,
    );
    r
}
