//! Failure-injection integration tests: interface cuts, notifications,
//! and recovery through the full public stack (Sim + MPTCP endpoints).

use bytes::Bytes;
use mpwifi::mptcp::{BackupActivation, CcKind, Mode, MptcpConfig};
use mpwifi::sim::endpoint::{MptcpClientHost, MptcpServerHost};
use mpwifi::sim::{LinkSpec, ScriptEvent, Sim, LTE_ADDR, SERVER_ADDR, SERVER_PORT, WIFI_ADDR};
use mpwifi::simcore::{Dur, Time};

const BYTES: u64 = 1_500_000;

fn links() -> (LinkSpec, LinkSpec) {
    (
        LinkSpec::symmetric(4_000_000, Dur::from_millis(30)),
        LinkSpec::symmetric(3_000_000, Dur::from_millis(60)),
    )
}

fn build(cfg: &MptcpConfig, seed: u64) -> Sim<MptcpClientHost, MptcpServerHost> {
    let (wifi, lte) = links();
    let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], seed | 1);
    let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), seed ^ 0xAB);
    Sim::builder(client, server)
        .wifi(&wifi)
        .lte(&lte)
        .seed(seed)
        .build()
}

/// Drive a download, returning (completed, delivered bytes).
fn drive(
    sim: &mut Sim<MptcpClientHost, MptcpServerHost>,
    id: usize,
    deadline: Time,
) -> (bool, u64) {
    let mut sent = false;
    let done = sim.run_until(
        |sim| {
            if !sent {
                for sid in sim.server.take_accepted() {
                    let c = sim.server.conn_mut(sid);
                    c.send(Bytes::from(vec![3u8; BYTES as usize]));
                    c.close(sim.now);
                    sent = true;
                }
            }
            sim.client.conn(id).delivered_bytes() >= BYTES
        },
        deadline,
    );
    (done.held(), sim.client.conn(id).delivered_bytes())
}

#[test]
fn full_mode_survives_either_interface_dying_with_notification() {
    for iface in [WIFI_ADDR, LTE_ADDR] {
        let cfg = MptcpConfig::default(); // Full mode
        let mut sim = build(&cfg, 11);
        sim.schedule(Time::from_millis(800), ScriptEvent::CutIface(iface));
        sim.schedule(Time::from_millis(800), ScriptEvent::NotifyIfaceDown(iface));
        let id = sim.client.open(Time::ZERO, cfg, WIFI_ADDR, SERVER_PORT);
        let (done, delivered) = drive(&mut sim, id, Time::from_secs(90));
        assert!(
            done,
            "Full-MPTCP must survive losing {iface}: delivered {delivered}"
        );
    }
}

#[test]
fn backup_mode_silent_cut_with_rto_activation_recovers() {
    let cfg = MptcpConfig {
        mode: Mode::Backup,
        backup_activation: BackupActivation::OnRtoCount(2),
        cc: CcKind::Lia,
        ..MptcpConfig::default()
    };
    let mut sim = build(&cfg, 13);
    sim.schedule(Time::from_millis(700), ScriptEvent::CutIface(WIFI_ADDR));
    let id = sim.client.open(Time::ZERO, cfg, WIFI_ADDR, SERVER_PORT);
    let (done, _) = drive(&mut sim, id, Time::from_secs(120));
    assert!(done, "RTO-count activation must rescue the silent cut");
}

#[test]
fn backup_mode_silent_cut_without_activation_stalls() {
    let cfg = MptcpConfig {
        mode: Mode::Backup,
        backup_activation: BackupActivation::OnNotify,
        cc: CcKind::Lia,
        ..MptcpConfig::default()
    };
    let mut sim = build(&cfg, 13);
    sim.schedule(Time::from_millis(700), ScriptEvent::CutIface(WIFI_ADDR));
    let id = sim.client.open(Time::ZERO, cfg, WIFI_ADDR, SERVER_PORT);
    let (done, delivered) = drive(&mut sim, id, Time::from_secs(60));
    assert!(!done, "no activation, no rescue (the paper's Figure 15g)");
    assert!(delivered < BYTES);
}

#[test]
fn cut_and_restore_lets_transfer_finish() {
    // Like the paper's replug at t = 68 s (Figure 15g), compressed.
    let cfg = MptcpConfig {
        mode: Mode::Backup,
        backup_activation: BackupActivation::OnNotify,
        ..MptcpConfig::default()
    };
    let mut sim = build(&cfg, 17);
    sim.schedule(Time::from_millis(600), ScriptEvent::CutIface(WIFI_ADDR));
    sim.schedule(Time::from_secs(8), ScriptEvent::RestoreIface(WIFI_ADDR));
    let id = sim.client.open(Time::ZERO, cfg, WIFI_ADDR, SERVER_PORT);
    let (done, _) = drive(&mut sim, id, Time::from_secs(120));
    assert!(done, "transfer resumes after replug");
    assert!(
        sim.now >= Time::from_secs(8),
        "completion can only happen after the restore"
    );
}

#[test]
fn double_failure_kills_the_connection() {
    let cfg = MptcpConfig::default();
    let mut sim = build(&cfg, 19);
    sim.schedule(Time::from_millis(500), ScriptEvent::CutIface(WIFI_ADDR));
    sim.schedule(Time::from_millis(900), ScriptEvent::CutIface(LTE_ADDR));
    let id = sim.client.open(Time::ZERO, cfg, WIFI_ADDR, SERVER_PORT);
    let (done, delivered) = drive(&mut sim, id, Time::from_secs(30));
    assert!(!done, "both paths dead: no progress possible");
    assert!(delivered < BYTES);
}

#[test]
fn notification_failover_preserves_stream_integrity() {
    // Byte-level check across a failover: payload pattern must survive.
    let cfg = MptcpConfig::default();
    let (wifi, lte) = links();
    let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], 23);
    let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), 29);
    let mut sim = Sim::builder(client, server)
        .wifi(&wifi)
        .lte(&lte)
        .seed(31)
        .build();
    sim.schedule(Time::from_millis(900), ScriptEvent::CutIface(LTE_ADDR));
    sim.schedule(
        Time::from_millis(900),
        ScriptEvent::NotifyIfaceDown(LTE_ADDR),
    );
    let id = sim.client.open(Time::ZERO, cfg, LTE_ADDR, SERVER_PORT);
    let payload: Vec<u8> = (0..BYTES).map(|i| (i % 253) as u8).collect();
    let expected = payload.clone();
    let mut sent = false;
    let done = sim.run_until(
        |sim| {
            if !sent {
                for sid in sim.server.take_accepted() {
                    let c = sim.server.conn_mut(sid);
                    c.send(Bytes::from(payload.clone()));
                    c.close(sim.now);
                    sent = true;
                }
            }
            sim.client.conn(id).delivered_bytes() >= BYTES
        },
        Time::from_secs(120),
    );
    assert!(done.held());
    let got: Vec<u8> = sim.client.conn_mut(id).take_delivered().concat();
    assert_eq!(got, expected, "stream corrupted across failover");
}
