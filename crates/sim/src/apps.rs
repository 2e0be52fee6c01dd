//! Reusable workload drivers: the measurement actions of the Cell vs
//! WiFi app and the MPTCP study, expressed over [`crate::Sim`].
//!
//! [`bulk`] is the one transfer loop, generic over the socket seam in
//! [`crate::socket`]; the four `run_*` drivers build a fresh testbed,
//! open one connection and call it. Every transfer returns a
//! [`BulkResult`] with the progress curve (throughput vs time and vs
//! flow size — Figures 7 and 9–12 derive from these), per-subflow
//! curves for MPTCP downloads, and the per-interface packet logs.

use crate::endpoint::{Endpoint, MptcpClientHost, MptcpServerHost, TcpClientHost, TcpServerHost};
use crate::link::LinkSpec;
use crate::log::PacketLog;
use crate::socket::{Accept, Socket, SocketHost};
use crate::world::Sim;
use crate::{LTE_ADDR, SERVER_ADDR, SERVER_PORT, WIFI_ADDR};
use bytes::Bytes;
use mpwifi_mptcp::MptcpConfig;
use mpwifi_netem::{Addr, Frame};
use mpwifi_simcore::{DetRng, Dur, RateSeries, Time};
use mpwifi_tcp::conn::TcpConfig;
use serde::{Deserialize, Serialize};

/// Outcome of one bulk transfer.
#[derive(Debug, Clone)]
pub struct BulkResult {
    /// Receiver-side progress (cumulative delivered bytes), measured from
    /// the first SYN — the paper's throughput curves divide by time since
    /// session start.
    pub progress: RateSeries,
    /// Handshake completion, relative to the first SYN.
    pub established: Option<Dur>,
    /// Transfer completion (all bytes delivered), relative to first SYN.
    pub completed: Option<Dur>,
    /// Per-subflow receiver progress, labeled by interface (MPTCP only).
    pub subflow_progress: Vec<(&'static str, RateSeries)>,
    /// Client WiFi interface packet log.
    pub wifi_log: PacketLog,
    /// Client LTE interface packet log.
    pub lte_log: PacketLog,
    /// Bytes the transfer was asked to move.
    pub requested_bytes: u64,
}

impl BulkResult {
    /// Average throughput over the whole transfer in bits/second.
    pub fn avg_throughput_bps(&self) -> Option<f64> {
        self.completed?;
        self.progress.average_bps()
    }

    /// Average throughput a flow of exactly `bytes` would have seen
    /// (prefix truncation — how the paper derives throughput vs flow
    /// size from a single 1 MB transfer).
    pub fn throughput_at_flow_size(&self, bytes: u64) -> Option<f64> {
        self.progress.throughput_at_flow_size(bytes)
    }

    /// Did all requested bytes arrive?
    pub fn is_complete(&self) -> bool {
        self.progress.total_bytes() >= self.requested_bytes
    }

    /// Move the world's packet logs into the result, once the caller is
    /// done stepping `sim`.
    pub fn with_logs<C: Endpoint, S: Endpoint>(mut self, sim: &mut Sim<C, S>) -> BulkResult {
        self.wifi_log = std::mem::take(&mut sim.iface(WIFI_ADDR).log);
        self.lte_log = std::mem::take(&mut sim.iface(LTE_ADDR).log);
        self
    }
}

/// Transfer direction (the paper reports downlink in Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FlowDir {
    /// Server to client.
    Down,
    /// Client to server.
    Up,
}

/// The one bulk-transfer driver: push `payload` across an already-built
/// world, in `dir`, over the client connection `id` the caller just
/// opened, and sample receiver progress every step until everything
/// arrived or `deadline` (sim time since zero) passed.
///
/// The sender is the client (`Up`, queued before the first step) or the
/// server's accepted socket (`Down`, queued the step the SYN arrives);
/// either way it closes behind the payload. The receiving application
/// always reads its socket. After each read `on_step(sim, delivered)`
/// runs: the caller's probe may observe anything and may act on the
/// hosts, but what it does is part of the run, so a probe that only
/// looks leaves the transfer byte-identical to one without it.
///
/// Callers build the hosts and the [`Sim`] themselves, so seed salts,
/// fault plans and scripted events stay theirs. The packet logs stay in
/// the world (the result's are empty), so a caller may keep stepping it
/// — [`close_and_drain`] — and take them when done:
/// [`BulkResult::with_logs`], or read each row's `log` in `sim.ifaces`.
pub fn bulk<C, S, P>(
    sim: &mut Sim<C, S>,
    id: C::Id,
    dir: FlowDir,
    payload: Bytes,
    deadline: Dur,
    mut on_step: P,
) -> BulkResult
where
    C: SocketHost,
    S: Accept,
    P: FnMut(&mut Sim<C, S>, u64),
{
    let bytes = payload.len() as u64;
    if dir == FlowDir::Up {
        let conn = sim.client.socket(id);
        conn.send(payload.clone());
        conn.close(Time::ZERO);
    }
    let mut progress = RateSeries::new();
    progress.mark_start(Time::ZERO);
    let mut accepted: Option<S::Id> = None;
    sim.run_until(
        |sim| {
            if accepted.is_none() {
                accepted = sim.server.take_accepted().first().copied();
                if let (Some(sid), FlowDir::Down) = (accepted, dir) {
                    let conn = sim.server.socket(sid);
                    conn.send(payload.clone());
                    conn.close(sim.now);
                }
            }
            let delivered = match dir {
                FlowDir::Down => sim.client.socket(id).read(),
                FlowDir::Up => accepted.map_or(0, |sid| sim.server.socket(sid).read()),
            };
            progress.record(sim.now, delivered);
            on_step(sim, delivered);
            delivered >= bytes
        },
        Time::ZERO + deadline,
    );
    let established = sim
        .client
        .socket(id)
        .established_at()
        .map(|t| t - Time::ZERO);
    let completed = progress
        .end()
        .filter(|_| progress.total_bytes() >= bytes)
        .map(|t| t - Time::ZERO);
    BulkResult {
        progress,
        established,
        completed,
        subflow_progress: Vec::new(),
        wifi_log: PacketLog::new(),
        lte_log: PacketLog::new(),
        requested_bytes: bytes,
    }
}

/// Sim time [`close_and_drain`] gives a teardown before giving up: the
/// bound Figures 15/16 and `ext-handover` were recorded with.
const TEARDOWN_GRACE: Dur = Dur::from_secs(10);

/// After [`bulk`]: close the client's side of `id` and keep the world
/// running until that connection is fully closed (or `TEARDOWN_GRACE`,
/// 10 s, passed), so the FIN exchange on every subflow (an idle backup's
/// included) lands in the world's packet logs. Figure 15's timelines end
/// with those FINs and Figure 16's tail energy is charged from them.
pub fn close_and_drain<C: SocketHost, S: Endpoint>(sim: &mut Sim<C, S>, id: C::Id) {
    let now = sim.now;
    sim.client.socket(id).close(now);
    sim.run_until(
        |sim| sim.client.socket(id).is_closed(),
        now + TEARDOWN_GRACE,
    );
}

/// A fresh single-path TCP testbed with the client bound to `iface`,
/// under the seed salts every campaign and golden was recorded with
/// (and [`crate::ResetEndpoint`] replays).
pub(crate) fn tcp_world(
    wifi: &LinkSpec,
    lte: &LinkSpec,
    iface: Addr,
    cfg: &TcpConfig,
    seed: u64,
) -> Sim<TcpClientHost, TcpServerHost> {
    let client = TcpClientHost::new(iface, SERVER_ADDR, seed as u32 | 1);
    let server = TcpServerHost::new(
        SERVER_ADDR,
        SERVER_PORT,
        cfg.clone(),
        (seed as u32) ^ 0xBEEF,
    );
    Sim::builder(client, server)
        .wifi(wifi)
        .lte(lte)
        .seed(seed)
        .build()
}

/// A fresh dual-homed MPTCP testbed, same salts as [`tcp_world`].
fn mptcp_world(
    wifi: &LinkSpec,
    lte: &LinkSpec,
    cfg: &MptcpConfig,
    seed: u64,
) -> Sim<MptcpClientHost, MptcpServerHost> {
    let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], seed | 1);
    let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), seed ^ 0xBEEF);
    Sim::builder(client, server)
        .wifi(wifi)
        .lte(lte)
        .seed(seed)
        .build()
}

/// Run a single-path TCP bulk download of `bytes` over `iface`
/// (`WIFI_ADDR` or `LTE_ADDR`).
pub fn run_tcp_download(
    wifi: &LinkSpec,
    lte: &LinkSpec,
    iface: Addr,
    bytes: u64,
    cfg: TcpConfig,
    deadline: Dur,
    seed: u64,
) -> BulkResult {
    let mut sim = tcp_world(wifi, lte, iface, &cfg, seed);
    let id = sim.client.connect(Time::ZERO, cfg, SERVER_PORT);
    let payload = make_payload(bytes);
    bulk(&mut sim, id, FlowDir::Down, payload, deadline, |_, _| {}).with_logs(&mut sim)
}

/// Run a single-path TCP bulk upload of `bytes` over `iface`.
pub fn run_tcp_upload(
    wifi: &LinkSpec,
    lte: &LinkSpec,
    iface: Addr,
    bytes: u64,
    cfg: TcpConfig,
    deadline: Dur,
    seed: u64,
) -> BulkResult {
    let mut sim = tcp_world(wifi, lte, iface, &cfg, seed);
    let id = sim.client.connect(Time::ZERO, cfg, SERVER_PORT);
    let payload = make_payload(bytes);
    bulk(&mut sim, id, FlowDir::Up, payload, deadline, |_, _| {}).with_logs(&mut sim)
}

/// Run an MPTCP bulk download with the given configuration and primary
/// interface, sampling per-subflow receiver progress alongside the
/// connection's.
pub fn run_mptcp_download(
    wifi: &LinkSpec,
    lte: &LinkSpec,
    primary: Addr,
    bytes: u64,
    cfg: MptcpConfig,
    deadline: Dur,
    seed: u64,
) -> BulkResult {
    let mut sim = mptcp_world(wifi, lte, &cfg, seed);
    let id = sim.client.open(Time::ZERO, cfg, primary, SERVER_PORT);
    let mut sub_wifi = RateSeries::new();
    let mut sub_lte = RateSeries::new();
    sub_wifi.mark_start(Time::ZERO);
    sub_lte.mark_start(Time::ZERO);
    let payload = make_payload(bytes);
    let r = bulk(&mut sim, id, FlowDir::Down, payload, deadline, |sim, _| {
        for st in sim.client.conn(id).subflow_stats_iter() {
            if st.iface == WIFI_ADDR {
                sub_wifi.record(sim.now, st.bytes_delivered);
            } else if st.iface == LTE_ADDR {
                sub_lte.record(sim.now, st.bytes_delivered);
            }
        }
    });
    BulkResult {
        subflow_progress: vec![("wifi", sub_wifi), ("lte", sub_lte)],
        ..r.with_logs(&mut sim)
    }
}

/// Run an MPTCP bulk upload.
pub fn run_mptcp_upload(
    wifi: &LinkSpec,
    lte: &LinkSpec,
    primary: Addr,
    bytes: u64,
    cfg: MptcpConfig,
    deadline: Dur,
    seed: u64,
) -> BulkResult {
    let mut sim = mptcp_world(wifi, lte, &cfg, seed);
    let id = sim.client.open(Time::ZERO, cfg, primary, SERVER_PORT);
    let payload = make_payload(bytes);
    bulk(&mut sim, id, FlowDir::Up, payload, deadline, |_, _| {}).with_logs(&mut sim)
}

/// Measure the average round-trip time of `n` sequential 64-byte pings
/// through a link — the Cell vs WiFi app's ping test (Figure 4). Lost
/// probes (random loss on the link) are excluded from the average, like
/// `ping` itself does; if every probe is lost the result is a 1 s
/// timeout sentinel.
pub fn measure_ping(spec: &LinkSpec, n: usize, seed: u64) -> Dur {
    assert!(n > 0);
    let mut rng = DetRng::seed_from_u64(seed);
    let mut pair = crate::link::PathPair::build(spec, "ping", &mut rng, None);
    let mut total = Dur::ZERO;
    let mut received = 0u64;
    let mut now = Time::ZERO;
    // Scratch buffers reused across probes (no per-poll allocation).
    let mut ups: Vec<Frame> = Vec::new();
    let mut downs: Vec<Frame> = Vec::new();
    for i in 0..n {
        let start = now;
        // 64-byte ICMP-ish probe + 20-byte IP header.
        let probe = Frame::new(
            i as u64,
            WIFI_ADDR,
            SERVER_ADDR,
            Bytes::from(vec![0u8; 84]),
            now,
        );
        pair.up.push(now, probe);
        // Walk the echo through both directions; a probe can be lost in
        // either one.
        let up_exit = loop {
            let Some(t) = pair.up.next_ready() else {
                break None;
            };
            now = now.max(t);
            ups.clear();
            pair.up.poll_into(now, &mut ups);
            if let Some(f) = ups.drain(..).next() {
                break Some(f);
            }
        };
        let echoed = up_exit.is_some_and(|up_exit| {
            let echo = Frame::new(
                u64::MAX - i as u64,
                SERVER_ADDR,
                WIFI_ADDR,
                up_exit.payload,
                now,
            );
            pair.down.push(now, echo);
            loop {
                let Some(t) = pair.down.next_ready() else {
                    break false;
                };
                now = now.max(t);
                downs.clear();
                pair.down.poll_into(now, &mut downs);
                if !downs.is_empty() {
                    downs.clear();
                    break true;
                }
            }
        });
        if echoed {
            total += now - start;
            received += 1;
        }
        now += Dur::from_millis(200); // inter-ping spacing
    }
    if received == 0 {
        Dur::from_secs(1)
    } else {
        total / received
    }
}

/// Deterministic payload bytes (cheap to create; integrity checked via
/// byte counts in the harnesses and via content in the protocol tests).
/// Every payload is a view of one per-thread buffer of `0xA5` bytes,
/// grown to the largest length asked for: a transfer writes no payload
/// bytes and frees no large buffer (which would raise the allocator's
/// mmap threshold and grow the heap for every later one).
pub fn make_payload(bytes: u64) -> Bytes {
    thread_local! {
        static FILL: std::cell::RefCell<Bytes> = const { std::cell::RefCell::new(Bytes::new()) };
    }
    let len = bytes as usize;
    FILL.with_borrow_mut(|fill| {
        if fill.len() < len {
            *fill = Bytes::from(vec![0xA5u8; len]);
        }
        fill.slice(..len)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wifi_fast() -> LinkSpec {
        LinkSpec::symmetric(20_000_000, Dur::from_millis(20))
    }

    fn lte_slow() -> LinkSpec {
        LinkSpec::symmetric(5_000_000, Dur::from_millis(60))
    }

    #[test]
    fn tcp_download_throughput_sane() {
        let r = run_tcp_download(
            &wifi_fast(),
            &lte_slow(),
            WIFI_ADDR,
            1_000_000,
            TcpConfig::default(),
            Dur::from_secs(60),
            7,
        );
        assert!(r.is_complete());
        let tput = r.avg_throughput_bps().unwrap();
        // Must be below the 20 Mbit/s link rate but within a factor of a
        // few for a 1 MB flow (slow start costs the early RTTs).
        assert!(tput < 20_000_000.0, "tput {tput}");
        assert!(tput > 4_000_000.0, "tput {tput}");
        // LTE never used.
        assert_eq!(r.lte_log.len(), 0);
    }

    #[test]
    fn tcp_download_lte_uses_lte_only() {
        let r = run_tcp_download(
            &wifi_fast(),
            &lte_slow(),
            LTE_ADDR,
            100_000,
            TcpConfig::default(),
            Dur::from_secs(60),
            7,
        );
        assert!(r.is_complete());
        assert_eq!(r.wifi_log.len(), 0);
        assert!(!r.lte_log.is_empty());
    }

    #[test]
    fn tcp_upload_completes() {
        let r = run_tcp_upload(
            &wifi_fast(),
            &lte_slow(),
            WIFI_ADDR,
            200_000,
            TcpConfig::default(),
            Dur::from_secs(60),
            7,
        );
        assert!(r.is_complete());
        assert!(r.avg_throughput_bps().unwrap() > 1_000_000.0);
    }

    #[test]
    fn mptcp_download_beats_slower_link_alone() {
        let cfg = MptcpConfig::default();
        let mp = run_mptcp_download(
            &wifi_fast(),
            &lte_slow(),
            WIFI_ADDR,
            1_000_000,
            cfg,
            Dur::from_secs(60),
            7,
        );
        assert!(mp.is_complete());
        let single_lte = run_tcp_download(
            &wifi_fast(),
            &lte_slow(),
            LTE_ADDR,
            1_000_000,
            TcpConfig::default(),
            Dur::from_secs(60),
            7,
        );
        assert!(
            mp.avg_throughput_bps().unwrap() > single_lte.avg_throughput_bps().unwrap(),
            "MPTCP(primary=WiFi) should beat TCP over the slow LTE link"
        );
        // Both interfaces saw traffic.
        assert!(!mp.wifi_log.is_empty() && !mp.lte_log.is_empty());
    }

    #[test]
    fn mptcp_upload_completes_intact() {
        let r = run_mptcp_upload(
            &wifi_fast(),
            &lte_slow(),
            LTE_ADDR,
            500_000,
            MptcpConfig::default(),
            Dur::from_secs(60),
            9,
        );
        assert!(r.is_complete());
    }

    #[test]
    fn step_probe_sees_monotone_delivery_up_to_the_total() {
        for dir in [FlowDir::Down, FlowDir::Up] {
            let cfg = TcpConfig::default();
            let mut sim = tcp_world(&wifi_fast(), &lte_slow(), WIFI_ADDR, &cfg, 7);
            let id = sim.client.connect(Time::ZERO, cfg, SERVER_PORT);
            let mut seen: Vec<u64> = Vec::new();
            let payload = make_payload(200_000);
            let r = bulk(&mut sim, id, dir, payload, Dur::from_secs(60), |_, d| {
                seen.push(d)
            });
            assert!(r.is_complete(), "{dir:?}");
            assert!(
                seen.windows(2).all(|w| w[0] <= w[1]),
                "{dir:?} went backwards"
            );
            assert_eq!(
                seen.first(),
                Some(&0),
                "{dir:?} probe runs from the first step"
            );
            assert_eq!(
                seen.last(),
                Some(&200_000),
                "{dir:?} probe sees the last byte"
            );
            // The logs stay with the world until the caller takes them.
            let packets = sim.ifaces[0].log.len();
            assert!(packets > 0 && r.wifi_log.is_empty(), "{dir:?}");
            assert_eq!(r.with_logs(&mut sim).wifi_log.len(), packets);
            assert_eq!(sim.ifaces[0].log.len(), 0);
        }
    }

    #[test]
    fn undeliverable_transfer_reports_none_and_stops_at_the_deadline() {
        let cfg = TcpConfig::default();
        let mut sim = tcp_world(&wifi_fast(), &lte_slow(), WIFI_ADDR, &cfg, 7);
        // The only path dies mid-transfer and never comes back.
        sim.schedule(
            Time::from_millis(100),
            crate::ScriptEvent::CutIface(WIFI_ADDR),
        );
        let id = sim.client.connect(Time::ZERO, cfg, SERVER_PORT);
        let deadline = Dur::from_secs(20);
        let mut last_step = Time::ZERO;
        let payload = make_payload(1_000_000);
        let r = bulk(&mut sim, id, FlowDir::Down, payload, deadline, |sim, _| {
            last_step = sim.now
        });
        assert_eq!(r.completed, None);
        assert!(!r.is_complete());
        assert!(
            r.progress.total_bytes() > 0,
            "some bytes landed before the cut"
        );
        assert!(r.progress.total_bytes() < r.requested_bytes);
        assert!(
            sim.now <= Time::ZERO + deadline,
            "clock overran: {}",
            sim.now
        );
        assert_eq!(last_step, sim.now, "the probe saw the final step");
        assert!(
            sim.now > Time::from_secs(1),
            "RTO backoff kept the run alive"
        );
    }

    #[test]
    fn throughput_at_flow_size_monotone_data() {
        let r = run_tcp_download(
            &wifi_fast(),
            &lte_slow(),
            WIFI_ADDR,
            1_000_000,
            TcpConfig::default(),
            Dur::from_secs(60),
            7,
        );
        // Throughput grows with flow size on a clean link (slow start
        // amortization) — the core effect behind Figure 7.
        let t10k = r.throughput_at_flow_size(10_000).unwrap();
        let t100k = r.throughput_at_flow_size(100_000).unwrap();
        let t1m = r.throughput_at_flow_size(1_000_000).unwrap();
        assert!(t10k < t100k && t100k < t1m, "{t10k} {t100k} {t1m}");
    }

    #[test]
    fn ping_measures_rtt_plus_serialization() {
        let spec = LinkSpec::symmetric(10_000_000, Dur::from_millis(50));
        let rtt = measure_ping(&spec, 10, 3);
        // 50 ms propagation + ~0.13 ms serialization總.
        assert!(rtt >= Dur::from_millis(50), "rtt {rtt}");
        assert!(rtt < Dur::from_millis(52), "rtt {rtt}");
    }
}
