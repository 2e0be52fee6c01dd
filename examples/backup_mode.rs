//! MPTCP Backup mode, failover, and the energy bill (paper Section 3.6):
//! run a download with LTE as the backup subflow, kill WiFi mid-flow,
//! watch the failover, and price the LTE tail energy.
//!
//! ```text
//! cargo run --release --example backup_mode
//! ```

use bytes::Bytes;
use mpwifi::mptcp::{BackupActivation, CcKind, Mode, MptcpConfig};
use mpwifi::radio::{PowerModel, RadioKind};
use mpwifi::sim::apps::{bulk, close_and_drain, FlowDir};
use mpwifi::sim::endpoint::{MptcpClientHost, MptcpServerHost};
use mpwifi::sim::{LinkSpec, ScriptEvent, Sim, LTE_ADDR, SERVER_ADDR, SERVER_PORT, WIFI_ADDR};
use mpwifi::simcore::{Dur, Time};

const BYTES: u64 = 3_000_000;

fn main() {
    let cfg = MptcpConfig {
        cc: CcKind::Lia,
        mode: Mode::Backup,
        backup_activation: BackupActivation::OnNotify,
        ..MptcpConfig::default()
    };
    let wifi = LinkSpec::symmetric(2_500_000, Dur::from_millis(30));
    let lte = LinkSpec::asymmetric(1_200_000, 2_000_000, Dur::from_millis(60));

    let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], 1);
    let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), 2);
    let mut sim = Sim::builder(client, server)
        .wifi(&wifi)
        .lte(&lte)
        .seed(42)
        .build();

    // WiFi primary, LTE backup; WiFi dies (with notification) at t = 5 s.
    sim.schedule(Time::from_secs(5), ScriptEvent::CutIface(WIFI_ADDR));
    sim.schedule(Time::from_secs(5), ScriptEvent::NotifyIfaceDown(WIFI_ADDR));
    let id = sim.client.open(Time::ZERO, cfg, WIFI_ADDR, SERVER_PORT);

    // One download through the shared transfer engine: it feeds the
    // accepted server socket, reads the client's every step, and calls
    // the probe (unused here) after each read.
    let payload = Bytes::from(vec![9u8; BYTES as usize]);
    let deadline = Dur::from_secs(120);
    let r = bulk(&mut sim, id, FlowDir::Down, payload, deadline, |_, _| {});
    // Close our side and let the FINs play out, so the world's packet
    // logs end the way a tcpdump would.
    close_and_drain(&mut sim, id);
    let done = r.completed.is_some();

    println!("3 MB download, WiFi primary, LTE backup, WiFi cut at t = 5 s");
    println!("  completed: {done} at t = {}", sim.now);
    for st in sim.client.conn(id).subflow_stats() {
        println!(
            "  subflow on {}: backup={}, dead={}, delivered {} bytes",
            st.iface, st.is_backup, st.dead, st.bytes_delivered
        );
    }
    let r = r.with_logs(&mut sim);
    println!(
        "  WiFi iface saw {} packets; LTE iface saw {} packets",
        r.wifi_log.len(),
        r.lte_log.len()
    );

    // Energy: what did keeping LTE as a "mostly idle" backup cost?
    let model = PowerModel::default();
    let horizon = sim.now + Dur::from_secs(16); // include the final tail
    let lte_energy = model.energy(RadioKind::Lte, &r.lte_log, horizon);
    let wifi_energy = model.energy(RadioKind::Wifi, &r.wifi_log, horizon);
    println!("\nenergy over {} (1 W base device power):", horizon);
    println!(
        "  LTE : {:>6.1} J radio ({:.1} J in RRC tails)",
        lte_energy.radio_j(),
        lte_energy.tail_j
    );
    println!("  WiFi: {:>6.1} J radio", wifi_energy.radio_j());
    println!(
        "\n(the paper's Figure 16 point: even a backup LTE subflow that only \
         carries SYN/FIN pays ~15 s of 2 W tail per touch)"
    );
}
