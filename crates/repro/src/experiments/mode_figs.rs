//! Section 3.6 reproductions: Figure 15 (Full vs Backup packet
//! timelines with failure injection) and Figure 16 (power levels and
//! tail energy).

use crate::report::Report;
use mpwifi_mptcp::{BackupActivation, CcKind, Mode, MptcpConfig};
use mpwifi_netem::Addr;
use mpwifi_radio::{EnergyBreakdown, PowerModel, RadioKind};
use mpwifi_sim::apps::{bulk, close_and_drain, make_payload, FlowDir};
use mpwifi_sim::endpoint::{MptcpClientHost, MptcpServerHost};
use mpwifi_sim::{
    LinkSpec, PacketLog, ScriptEvent, Sim, LTE_ADDR, SERVER_ADDR, SERVER_PORT, WIFI_ADDR,
};
use mpwifi_simcore::{Dur, Time};
use std::fmt::Write as _;

/// Links sized so a 4 MB transfer takes roughly the paper's ~20 s
/// (Figure 15's testbed; the `fault-*` family reuses it).
pub(super) fn wifi_link() -> LinkSpec {
    LinkSpec::symmetric(2_000_000, Dur::from_millis(30))
}

pub(super) fn lte_link() -> LinkSpec {
    LinkSpec::asymmetric(1_000_000, 1_600_000, Dur::from_millis(60))
}

/// One Figure 15 panel scenario.
struct Panel {
    label: &'static str,
    primary: Addr,
    mode: Mode,
    activation: BackupActivation,
    /// (time, event) injections.
    events: Vec<(u64, ScriptEvent)>,
    /// Expected paper behaviour, asserted as a claim.
    expect: Expect,
}

enum Expect {
    /// Both interfaces carry data throughout.
    BothActive,
    /// The backup interface carries only handshake/teardown packets.
    BackupQuiet,
    /// Failover: transfer completes despite the primary dying.
    FailsOver,
    /// Stall: the transfer does NOT complete (Figure 15g's anomaly).
    Stalls,
}

/// Run one scenario; returns (wifi log, lte log, delivered, done).
fn run_panel(p: &Panel, seed: u64) -> (PacketLog, PacketLog, u64, bool) {
    const BYTES: u64 = 4_000_000;
    let cfg = MptcpConfig {
        cc: CcKind::Lia,
        mode: p.mode,
        backup_activation: p.activation,
        ..MptcpConfig::default()
    };
    let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], seed | 1);
    let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), seed ^ 0xFE);
    let mut sim = Sim::builder(client, server)
        .wifi(&wifi_link())
        .lte(&lte_link())
        .seed(seed)
        .build();
    for (ms, ev) in &p.events {
        sim.schedule(Time::from_millis(*ms), *ev);
    }
    let id = sim.client.open(Time::ZERO, cfg, p.primary, SERVER_PORT);
    let payload = make_payload(BYTES);
    let deadline = Dur::from_secs(90);
    let r = bulk(&mut sim, id, FlowDir::Down, payload, deadline, |_, _| {});
    // Close our side and drain the teardown, so the FIN exchange on
    // every subflow (including the backup) appears in the logs — the
    // paper's Figure 15 timelines end with FINs, and Figure 16's tail
    // energy accounting depends on them.
    close_and_drain(&mut sim, id);
    let delivered = sim.client.conn(id).delivered_bytes();
    let r = r.with_logs(&mut sim);
    (r.wifi_log, r.lte_log, delivered, r.completed.is_some())
}

/// Render a packet log as the paper's vertical-line timeline (1 char =
/// 500 ms; `|` = activity in that bin).
fn ascii_timeline(log: &PacketLog, span_s: u64) -> String {
    let bins = (span_s * 2) as usize;
    let mut marks = vec![false; bins];
    for e in log.events() {
        let b = (e.at.as_millis() / 500) as usize;
        if b < bins {
            marks[b] = true;
        }
    }
    marks.iter().map(|&m| if m { '|' } else { '.' }).collect()
}

/// Figure 15: the eight packet-timeline panels.
pub fn fig15(seed: u64) -> Report {
    let panels = vec![
        Panel {
            label: "(a) Full-MPTCP, LTE primary",
            primary: LTE_ADDR,
            mode: Mode::Full,
            activation: BackupActivation::OnNotify,
            events: vec![],
            expect: Expect::BothActive,
        },
        Panel {
            label: "(b) Full-MPTCP, WiFi primary",
            primary: WIFI_ADDR,
            mode: Mode::Full,
            activation: BackupActivation::OnNotify,
            events: vec![],
            expect: Expect::BothActive,
        },
        Panel {
            label: "(c) Backup, LTE primary (WiFi backup)",
            primary: LTE_ADDR,
            mode: Mode::Backup,
            activation: BackupActivation::OnNotify,
            events: vec![],
            expect: Expect::BackupQuiet,
        },
        Panel {
            label: "(d) Backup, WiFi primary (LTE backup)",
            primary: WIFI_ADDR,
            mode: Mode::Backup,
            activation: BackupActivation::OnNotify,
            events: vec![],
            expect: Expect::BackupQuiet,
        },
        Panel {
            label: "(e) Backup, LTE primary; LTE 'multipath off' at t=7s",
            primary: LTE_ADDR,
            mode: Mode::Backup,
            activation: BackupActivation::OnNotify,
            events: vec![(7_000, ScriptEvent::NotifyIfaceDown(LTE_ADDR))],
            expect: Expect::FailsOver,
        },
        Panel {
            label: "(f) Backup, WiFi primary; WiFi 'multipath off' at t=11s",
            primary: WIFI_ADDR,
            mode: Mode::Backup,
            activation: BackupActivation::OnNotify,
            events: vec![(11_000, ScriptEvent::NotifyIfaceDown(WIFI_ADDR))],
            expect: Expect::FailsOver,
        },
        Panel {
            label: "(g) Backup, LTE primary; LTE unplugged at t=3s (silent)",
            primary: LTE_ADDR,
            mode: Mode::Backup,
            activation: BackupActivation::OnNotify,
            events: vec![(3_000, ScriptEvent::CutIface(LTE_ADDR))],
            expect: Expect::Stalls,
        },
        Panel {
            label: "(h) Backup, WiFi primary; WiFi unplugged at t=6s (notified)",
            primary: WIFI_ADDR,
            mode: Mode::Backup,
            activation: BackupActivation::OnNotify,
            events: vec![
                (6_000, ScriptEvent::CutIface(WIFI_ADDR)),
                // The tethered phone's removal IS a local interface event.
                (6_000, ScriptEvent::NotifyIfaceDown(WIFI_ADDR)),
            ],
            expect: Expect::FailsOver,
        },
    ];

    let mut r = Report::new(
        "fig15",
        "Full-MPTCP and Backup Mode packet timelines (8 panels)",
        "4 MB downlink, ~2 Mbit/s links (≈20 s transfers); '|' = packet activity in a 500 ms bin",
    );
    for p in &panels {
        let (wifi_log, lte_log, delivered, done) = run_panel(p, seed);
        let mut block = String::new();
        let _ = writeln!(block, "{}", p.label);
        let _ = writeln!(block, "  LTE : {}", ascii_timeline(&lte_log, 45));
        let _ = writeln!(block, "  WiFi: {}", ascii_timeline(&wifi_log, 45));
        let _ = writeln!(
            block,
            "  delivered {:.1} MB, completed: {}",
            delivered as f64 / 1e6,
            done
        );
        r.block(block);
        match p.expect {
            Expect::BothActive => {
                let both = wifi_log.len() > 100 && lte_log.len() > 100;
                r.claim(
                    format!("{}: both interfaces carry data", p.label),
                    "packets on both throughout",
                    format!("wifi {} pkts, lte {} pkts", wifi_log.len(), lte_log.len()),
                    both && done,
                );
            }
            Expect::BackupQuiet => {
                let (active, quiet) = if p.primary == LTE_ADDR {
                    (&lte_log, &wifi_log)
                } else {
                    (&wifi_log, &lte_log)
                };
                r.claim(
                    format!("{}: backup carries only SYN/FIN-scale traffic", p.label),
                    "a handful of packets at start and end",
                    format!("active {} pkts, backup {} pkts", active.len(), quiet.len()),
                    done && quiet.len() < 30 && active.len() > 100,
                );
            }
            Expect::FailsOver => {
                r.claim(
                    format!("{}: backup takes over and completes", p.label),
                    "transfer finishes on the other path",
                    format!("completed: {done}"),
                    done,
                );
            }
            Expect::Stalls => {
                r.claim(
                    format!("{}: transfer stalls (paper's observed anomaly)", p.label),
                    "halts until replug",
                    format!(
                        "completed: {done}, delivered {:.1} MB",
                        delivered as f64 / 1e6
                    ),
                    !done,
                );
            }
        }
    }
    r
}

/// Figure 16: power levels for LTE/WiFi as backup/non-backup.
pub fn fig16(seed: u64) -> Report {
    let model = PowerModel::default();
    let mut r = Report::new(
        "fig16",
        "Power level for LTE and WiFi as non-backup/backup subflow",
        "packet logs from Backup-mode runs fed into the RRC power model (base 1 W; LTE tail 2 W / 15 s)",
    );

    // (c)/(a): LTE backup and WiFi active <- WiFi-primary backup run.
    let wifi_primary = Panel {
        label: "",
        primary: WIFI_ADDR,
        mode: Mode::Backup,
        activation: BackupActivation::OnNotify,
        events: vec![],
        expect: Expect::BackupQuiet,
    };
    let (wifi_log_wp, lte_log_wp, _, _) = run_panel(&wifi_primary, seed);
    // (a)/(d): LTE active and WiFi backup <- LTE-primary backup run.
    let lte_primary = Panel {
        label: "",
        primary: LTE_ADDR,
        mode: Mode::Backup,
        activation: BackupActivation::OnNotify,
        events: vec![],
        expect: Expect::BackupQuiet,
    };
    let (wifi_log_lp, lte_log_lp, _, _) = run_panel(&lte_primary, seed ^ 1);

    let horizon = Time::from_secs(50);
    let panels: [(&str, RadioKind, &PacketLog); 4] = [
        (
            "(a) LTE, non-backup (active) subflow",
            RadioKind::Lte,
            &lte_log_lp,
        ),
        (
            "(b) WiFi, non-backup (active) subflow",
            RadioKind::Wifi,
            &wifi_log_wp,
        ),
        ("(c) LTE, backup subflow", RadioKind::Lte, &lte_log_wp),
        ("(d) WiFi, backup subflow", RadioKind::Wifi, &wifi_log_lp),
    ];
    let mut energies: Vec<EnergyBreakdown> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    for (label, kind, log) in panels {
        let ts = model.power_timeline(kind, log, horizon);
        let pts: Vec<(f64, f64)> = ts
            .points()
            .iter()
            .map(|&(t, w)| (t.as_secs_f64(), w))
            .collect();
        peaks.push(pts.iter().map(|&(_, w)| w).fold(0.0, f64::max));
        r.block(mpwifi_measure::render::series_block(
            &format!("fig16{label}: x = time s, y = power W"),
            &pts,
        ));
        energies.push(model.energy(kind, log, horizon));
    }

    r.claim(
        "LTE active power well above WiFi active power",
        "≈3–4 W vs ≈1.5–2 W",
        format!("LTE peak {:.1} W, WiFi peak {:.1} W", peaks[0], peaks[1]),
        peaks[0] > peaks[1] + 1.0,
    );
    r.claim(
        "LTE backup subflow still burns tail energy",
        "2 W for ~15 s after SYN and FIN",
        format!("backup LTE radio energy {:.1} J", energies[2].radio_j()),
        energies[2].radio_j() > 20.0,
    );
    r.claim(
        "WiFi backup subflow costs almost nothing",
        "negligible",
        format!("backup WiFi radio energy {:.1} J", energies[3].radio_j()),
        energies[3].radio_j() < 3.0,
    );
    let saving = 1.0 - energies[2].radio_j() / energies[0].radio_j().max(1e-9);
    r.claim(
        "little energy saved by LTE-backup for flows shorter than the tail",
        "little to none for <15 s flows",
        format!("saving {:.0}% for a ~20 s flow", saving * 100.0),
        saving < 0.85,
    );
    r
}
