//! Plain-data scenario specs, a deterministic generator, and the
//! harness that realizes a spec with the matching checker attached.
//!
//! A [`ScenarioSpec`] is deliberately dumb data — integers and enums
//! only — so a violating case can be shrunk field-by-field and emitted
//! as a Rust literal ([`ScenarioSpec::to_rust_literal`]) that replays
//! the exact run.

use crate::checkers::{
    pattern_byte, pattern_bytes, MptcpConformance, SchedWitness, TcpConformance, Violation,
    ViolationLog,
};
use crate::fuzz::splitmix64;
use bytes::Bytes;
use mpwifi_mptcp::{BackupActivation, CcKind, Mode, MptcpConfig, MptcpConnection, SchedKind};
use mpwifi_netem::{Addr, FaultPlan, GilbertElliott};
use mpwifi_sim::{
    Accept, Endpoint, LinkSpec, MptcpClientHost, MptcpServerHost, Sim, Socket, SocketHost,
    TcpClientHost, TcpServerHost, LTE_ADDR, SERVER_ADDR, SERVER_PORT, WIFI_ADDR,
};
use mpwifi_simcore::{DetRng, Dur, Time};
use mpwifi_tcp::conn::TcpConfig;
use std::fmt::Write as _;

/// One of the client's two interfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IfaceSpec {
    /// The WiFi interface ([`WIFI_ADDR`]).
    Wifi,
    /// The LTE interface ([`LTE_ADDR`]).
    Lte,
}

impl IfaceSpec {
    /// The interface address in the sim.
    pub fn addr(self) -> Addr {
        match self {
            IfaceSpec::Wifi => WIFI_ADDR,
            IfaceSpec::Lte => LTE_ADDR,
        }
    }

    fn literal(self) -> &'static str {
        match self {
            IfaceSpec::Wifi => "mpwifi_conformance::IfaceSpec::Wifi",
            IfaceSpec::Lte => "mpwifi_conformance::IfaceSpec::Lte",
        }
    }
}

/// One emulated access link, reduced to plain integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpecLite {
    /// Uplink rate, kbit/s.
    pub up_kbps: u64,
    /// Downlink rate, kbit/s.
    pub down_kbps: u64,
    /// Two-way propagation delay, ms.
    pub rtt_ms: u64,
    /// Independent per-direction loss probability, parts per million.
    pub loss_ppm: u32,
}

impl LinkSpecLite {
    fn to_link_spec(self) -> LinkSpec {
        let mut spec = LinkSpec::asymmetric(
            self.up_kbps * 1_000,
            self.down_kbps * 1_000,
            Dur::from_millis(self.rtt_ms),
        );
        spec.loss = f64::from(self.loss_ppm) / 1e6;
        spec
    }

    fn literal(&self) -> String {
        format!(
            "mpwifi_conformance::LinkSpecLite {{ up_kbps: {}, down_kbps: {}, rtt_ms: {}, loss_ppm: {} }}",
            self.up_kbps, self.down_kbps, self.rtt_ms, self.loss_ppm
        )
    }
}

/// Which transport stack the scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportSpec {
    /// Single-path TCP bound to one interface.
    Tcp {
        /// The client's only interface.
        iface: IfaceSpec,
    },
    /// MPTCP over both interfaces.
    Mptcp {
        /// Primary-subflow interface.
        primary: IfaceSpec,
        /// Operating mode.
        mode: Mode,
        /// Congestion control.
        cc: CcKind,
        /// Scheduler.
        sched: SchedKind,
        /// Silent-death policy: `0` = notification only,
        /// `n > 0` = declare a subflow dead after `n` consecutive RTOs.
        rto_activation: u32,
    },
}

impl TransportSpec {
    fn literal(&self) -> String {
        match self {
            TransportSpec::Tcp { iface } => format!(
                "mpwifi_conformance::TransportSpec::Tcp {{ iface: {} }}",
                iface.literal()
            ),
            TransportSpec::Mptcp {
                primary,
                mode,
                cc,
                sched,
                rto_activation,
            } => format!(
                "mpwifi_conformance::TransportSpec::Mptcp {{ primary: {}, mode: mpwifi_mptcp::Mode::{mode:?}, cc: mpwifi_mptcp::CcKind::{cc:?}, sched: mpwifi_mptcp::SchedKind::{sched:?}, rto_activation: {rto_activation} }}",
                primary.literal()
            ),
        }
    }
}

/// The byte streams the workload moves (either may be zero, not both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Server-to-client bytes.
    pub down_bytes: u64,
    /// Client-to-server bytes.
    pub up_bytes: u64,
}

/// One fault episode on one interface (lowered to a [`FaultPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEp {
    /// Cut the interface for a while. `notify` models `multipath off`
    /// (the client stack is told); silent models a physical unplug.
    Blackout {
        /// Affected interface.
        iface: IfaceSpec,
        /// Onset, ms.
        at_ms: u64,
        /// Duration, ms.
        dur_ms: u64,
        /// Notified (iproute) vs silent (unplug).
        notify: bool,
    },
    /// Gilbert-Elliott burst loss episode.
    BurstLoss {
        /// Affected interface.
        iface: IfaceSpec,
        /// Onset, ms.
        at_ms: u64,
        /// Duration, ms.
        dur_ms: u64,
    },
    /// Extra one-way propagation delay for a while.
    DelaySpike {
        /// Affected interface.
        iface: IfaceSpec,
        /// Onset, ms.
        at_ms: u64,
        /// Duration, ms.
        dur_ms: u64,
        /// Extra one-way delay, ms.
        extra_ms: u64,
    },
    /// Crush the link rate to a percentage of nominal for a while.
    RateCrush {
        /// Affected interface.
        iface: IfaceSpec,
        /// Onset, ms.
        at_ms: u64,
        /// Duration, ms.
        dur_ms: u64,
        /// Remaining rate, percent of nominal.
        pct: u32,
    },
    /// Random frame corruption episode (bit flips; dropped at decode).
    Corruption {
        /// Affected interface.
        iface: IfaceSpec,
        /// Onset, ms.
        at_ms: u64,
        /// Duration, ms.
        dur_ms: u64,
        /// Per-frame corruption probability, parts per million.
        prob_ppm: u32,
    },
}

impl FaultEp {
    /// The interface the episode applies to.
    pub fn iface(&self) -> IfaceSpec {
        match *self {
            FaultEp::Blackout { iface, .. }
            | FaultEp::BurstLoss { iface, .. }
            | FaultEp::DelaySpike { iface, .. }
            | FaultEp::RateCrush { iface, .. }
            | FaultEp::Corruption { iface, .. } => iface,
        }
    }

    /// Lower to a single-event [`FaultPlan`].
    pub fn to_plan(&self) -> FaultPlan {
        match *self {
            FaultEp::Blackout {
                at_ms,
                dur_ms,
                notify,
                ..
            } => {
                let (at, dur) = (Time::from_millis(at_ms), Dur::from_millis(dur_ms));
                if notify {
                    FaultPlan::new().notified_blackout(at, dur)
                } else {
                    FaultPlan::new().blackout(at, dur)
                }
            }
            FaultEp::BurstLoss { at_ms, dur_ms, .. } => FaultPlan::new().burst_loss(
                Time::from_millis(at_ms),
                Dur::from_millis(dur_ms),
                GilbertElliott::default(),
            ),
            FaultEp::DelaySpike {
                at_ms,
                dur_ms,
                extra_ms,
                ..
            } => FaultPlan::new().delay_spike(
                Time::from_millis(at_ms),
                Dur::from_millis(dur_ms),
                Dur::from_millis(extra_ms),
            ),
            FaultEp::RateCrush {
                at_ms, dur_ms, pct, ..
            } => FaultPlan::new().rate_crush(
                Time::from_millis(at_ms),
                Dur::from_millis(dur_ms),
                f64::from(pct) / 100.0,
            ),
            FaultEp::Corruption {
                at_ms,
                dur_ms,
                prob_ppm,
                ..
            } => FaultPlan::new().corruption(
                Time::from_millis(at_ms),
                Dur::from_millis(dur_ms),
                f64::from(prob_ppm) / 1e6,
            ),
        }
    }

    fn literal(&self) -> String {
        match *self {
            FaultEp::Blackout {
                iface,
                at_ms,
                dur_ms,
                notify,
            } => format!(
                "mpwifi_conformance::FaultEp::Blackout {{ iface: {}, at_ms: {at_ms}, dur_ms: {dur_ms}, notify: {notify} }}",
                iface.literal()
            ),
            FaultEp::BurstLoss {
                iface,
                at_ms,
                dur_ms,
            } => format!(
                "mpwifi_conformance::FaultEp::BurstLoss {{ iface: {}, at_ms: {at_ms}, dur_ms: {dur_ms} }}",
                iface.literal()
            ),
            FaultEp::DelaySpike {
                iface,
                at_ms,
                dur_ms,
                extra_ms,
            } => format!(
                "mpwifi_conformance::FaultEp::DelaySpike {{ iface: {}, at_ms: {at_ms}, dur_ms: {dur_ms}, extra_ms: {extra_ms} }}",
                iface.literal()
            ),
            FaultEp::RateCrush {
                iface,
                at_ms,
                dur_ms,
                pct,
            } => format!(
                "mpwifi_conformance::FaultEp::RateCrush {{ iface: {}, at_ms: {at_ms}, dur_ms: {dur_ms}, pct: {pct} }}",
                iface.literal()
            ),
            FaultEp::Corruption {
                iface,
                at_ms,
                dur_ms,
                prob_ppm,
            } => format!(
                "mpwifi_conformance::FaultEp::Corruption {{ iface: {}, at_ms: {at_ms}, dur_ms: {dur_ms}, prob_ppm: {prob_ppm} }}",
                iface.literal()
            ),
        }
    }
}

/// A complete scenario: everything [`run_scenario`] needs, nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Root seed (link RNGs, ISS/key seeds, payload salts).
    pub seed: u64,
    /// Transport stack and its configuration.
    pub transport: TransportSpec,
    /// WiFi link.
    pub wifi: LinkSpecLite,
    /// LTE link.
    pub lte: LinkSpecLite,
    /// Bytes to move in each direction.
    pub workload: WorkloadSpec,
    /// Fault timeline.
    pub faults: Vec<FaultEp>,
    /// Give up (and flag `e2e-incomplete`) past this simulated time.
    pub deadline_ms: u64,
    /// Test-only fault injection: shift every n-th DSS mapping's DSN
    /// (see `MptcpConnection::set_test_dss_double_send`). `0` = off.
    /// Exists so the checkers can be proven to catch a planted bug.
    pub dss_double_every: u64,
    /// Test-only fault injection: stop assigning connection-level data
    /// past this DSN (see `MptcpConnection::set_test_sched_stall_after`).
    /// `0` = off. Proves the `mptcp-sched-wedged` oracle fires.
    pub sched_stall_after: u64,
    /// Test-only fault injection: make a Redundant scheduler skip its
    /// duplication pass (see
    /// `MptcpConnection::set_test_redundant_suppress`). Proves the
    /// `mptcp-redundant-no-dup` oracle fires.
    pub suppress_redundant: bool,
}

impl ScenarioSpec {
    /// Render as a Rust expression that reconstructs this exact spec
    /// (`Debug` output is not valid Rust; this is).
    pub fn to_rust_literal(&self, indent: usize) -> String {
        let pad = "    ".repeat(indent);
        let inner = "    ".repeat(indent + 1);
        let mut faults = String::new();
        if self.faults.is_empty() {
            faults.push_str("vec![]");
        } else {
            faults.push_str("vec![\n");
            for f in &self.faults {
                let _ = writeln!(faults, "{inner}    {},", f.literal());
            }
            let _ = write!(faults, "{inner}]");
        }
        format!(
            "mpwifi_conformance::ScenarioSpec {{\n\
             {inner}seed: {},\n\
             {inner}transport: {},\n\
             {inner}wifi: {},\n\
             {inner}lte: {},\n\
             {inner}workload: mpwifi_conformance::WorkloadSpec {{ down_bytes: {}, up_bytes: {} }},\n\
             {inner}faults: {faults},\n\
             {inner}deadline_ms: {},\n\
             {inner}dss_double_every: {},\n\
             {inner}sched_stall_after: {},\n\
             {inner}suppress_redundant: {},\n\
             {pad}}}",
            self.seed,
            self.transport.literal(),
            self.wifi.literal(),
            self.lte.literal(),
            self.workload.down_bytes,
            self.workload.up_bytes,
            self.deadline_ms,
            self.dss_double_every,
            self.sched_stall_after,
            self.suppress_redundant,
        )
    }
}

/// The verdict of one conformance case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Both byte streams fully delivered and verified before the
    /// deadline.
    pub completed: bool,
    /// Simulated end time, µs.
    pub end_us: u64,
    /// Server-to-client bytes verified.
    pub delivered_down: u64,
    /// Client-to-server bytes verified.
    pub delivered_up: u64,
    /// Stored violations (a bounded prefix; see `violations_total`).
    pub violations: Vec<Violation>,
    /// Total violations, including beyond the storage cap.
    pub violations_total: u64,
}

impl CaseReport {
    /// True when no invariant was violated.
    pub fn clean(&self) -> bool {
        self.violations_total == 0
    }

    /// Category of the first recorded violation, if any (the shrink
    /// target).
    pub fn first_category(&self) -> Option<&'static str> {
        self.violations.first().map(|v| v.category)
    }

    /// A compact deterministic digest of the verdict. Campaign
    /// fingerprints hash these, so anything sharding-dependent must
    /// stay out.
    pub fn fingerprint(&self) -> String {
        let mut cats: Vec<&str> = Vec::new();
        for v in &self.violations {
            if !cats.contains(&v.category) {
                cats.push(v.category);
            }
        }
        format!(
            "completed={} end_us={} down={} up={} violations={} cats=[{}]",
            self.completed,
            self.end_us,
            self.delivered_down,
            self.delivered_up,
            self.violations_total,
            cats.join(",")
        )
    }
}

/// Deterministically generate a scenario from a case seed. Every
/// scenario this emits is *completable*: fault durations and rates are
/// bounded so the transport's recovery machinery (retransmission,
/// reinjection, RTO-based death detection, rejoin) can always finish
/// the transfer before the deadline — which is what lets the harness
/// treat a missed deadline as a violation rather than bad luck.
pub fn generate(seed: u64) -> ScenarioSpec {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x5CE7_A210_F00D_CAFE);
    let loss = |rng: &mut DetRng| -> u32 {
        if rng.chance(0.2) {
            rng.uniform_u64(100, 5_000) as u32
        } else {
            0
        }
    };
    let wifi = LinkSpecLite {
        up_kbps: rng.uniform_u64(2_000, 20_000),
        down_kbps: rng.uniform_u64(2_000, 20_000),
        rtt_ms: rng.uniform_u64(10, 80),
        loss_ppm: loss(&mut rng),
    };
    let lte = LinkSpecLite {
        up_kbps: rng.uniform_u64(1_000, 10_000),
        down_kbps: rng.uniform_u64(1_500, 15_000),
        rtt_ms: rng.uniform_u64(30, 120),
        loss_ppm: loss(&mut rng),
    };
    let size = |rng: &mut DetRng| -> u64 {
        if rng.chance(0.3) {
            // Borrow a realistic transfer size from the app-workload
            // models (clamped so every case stays quick).
            let patterns = mpwifi_apps::patterns::all_patterns(rng.next_u64());
            let pick = rng.index(patterns.len());
            patterns[pick].total_bytes().clamp(2_000, 300_000)
        } else {
            rng.uniform_u64(2_000, 400_000)
        }
    };
    let workload = match rng.index(4) {
        0 | 1 => WorkloadSpec {
            down_bytes: size(&mut rng),
            up_bytes: 0,
        },
        2 => WorkloadSpec {
            down_bytes: 0,
            up_bytes: size(&mut rng),
        },
        _ => WorkloadSpec {
            down_bytes: size(&mut rng),
            up_bytes: size(&mut rng),
        },
    };
    let pick_iface = |rng: &mut DetRng| {
        if rng.chance(0.5) {
            IfaceSpec::Wifi
        } else {
            IfaceSpec::Lte
        }
    };
    let is_mptcp = !rng.chance(0.34);
    let mut faults = Vec::new();
    let mut has_blackout = false;
    let mut has_silent_blackout = false;
    for _ in 0..rng.index(3) {
        let iface = pick_iface(&mut rng);
        let at_ms = rng.uniform_u64(700, 8_000);
        let ep = match rng.index(5) {
            // At most one blackout per scenario keeps every case
            // recoverable (two overlapping blackouts can sever both
            // paths at once, which no transport survives).
            0 if !has_blackout => {
                has_blackout = true;
                let notify = is_mptcp && rng.chance(0.5);
                if !notify {
                    has_silent_blackout = true;
                }
                FaultEp::Blackout {
                    iface,
                    at_ms,
                    dur_ms: rng.uniform_u64(300, 1_800),
                    notify,
                }
            }
            0 | 1 => FaultEp::BurstLoss {
                iface,
                at_ms,
                dur_ms: rng.uniform_u64(200, 1_200),
            },
            2 => FaultEp::DelaySpike {
                iface,
                at_ms,
                dur_ms: rng.uniform_u64(300, 1_500),
                extra_ms: rng.uniform_u64(50, 350),
            },
            3 => FaultEp::RateCrush {
                iface,
                at_ms,
                dur_ms: rng.uniform_u64(500, 2_500),
                pct: rng.uniform_u64(5, 40) as u32,
            },
            _ => FaultEp::Corruption {
                iface,
                at_ms,
                dur_ms: rng.uniform_u64(200, 1_200),
                prob_ppm: rng.uniform_u64(5_000, 80_000) as u32,
            },
        };
        faults.push(ep);
    }
    let transport = if is_mptcp {
        let mode = match rng.index(3) {
            0 => Mode::Full,
            1 => Mode::Backup,
            _ => Mode::SinglePath,
        };
        // A silent blackout is only survivable with RTO-count death
        // detection (the paper's Figure 15g stall is exactly the
        // OnNotify + silent-unplug combination).
        let rto_activation = if has_silent_blackout || rng.chance(0.5) {
            2
        } else {
            0
        };
        TransportSpec::Mptcp {
            primary: pick_iface(&mut rng),
            mode,
            cc: CcKind::ALL[rng.index(CcKind::ALL.len())],
            sched: SchedKind::ALL[rng.index(SchedKind::ALL.len())],
            rto_activation,
        }
    } else {
        TransportSpec::Tcp {
            iface: pick_iface(&mut rng),
        }
    };
    ScenarioSpec {
        seed,
        transport,
        wifi,
        lte,
        workload,
        faults,
        deadline_ms: 120_000,
        dss_double_every: 0,
        sched_stall_after: 0,
        suppress_redundant: false,
    }
}

/// E2E stream verifier state for one direction.
struct StreamOracle {
    salt: u64,
    expected: u64,
    cursor: u64,
    flagged: bool,
}

impl StreamOracle {
    fn new(salt: u64, expected: u64) -> StreamOracle {
        StreamOracle {
            salt,
            expected,
            cursor: 0,
            flagged: false,
        }
    }

    fn feed(&mut self, log: &ViolationLog, now: Time, dir: &str, chunk: &[u8]) {
        for &b in chunk {
            let off = self.cursor;
            self.cursor += 1;
            if self.flagged {
                continue;
            }
            if off >= self.expected {
                log.report(
                    now,
                    "e2e-overrun",
                    format!(
                        "{dir}: delivered byte at offset {off}, stream is {} bytes",
                        self.expected
                    ),
                );
                self.flagged = true;
            } else if b != pattern_byte(self.salt, off) {
                log.report(
                    now,
                    "e2e-payload",
                    format!(
                        "{dir}: byte at offset {off} is {b:#04x}, expected {:#04x}",
                        pattern_byte(self.salt, off)
                    ),
                );
                self.flagged = true;
            }
        }
    }

    fn done(&self) -> bool {
        self.cursor >= self.expected
    }
}

/// Run one scenario with the matching invariant checker attached and
/// the end-to-end byte-stream oracle engaged. Pure function of the
/// spec.
pub fn run_scenario(spec: &ScenarioSpec) -> CaseReport {
    let up_salt = splitmix64(spec.seed ^ 0x55AA) % 251;
    let down_salt = splitmix64(spec.seed ^ 0xAA55) % 251;
    match spec.transport {
        TransportSpec::Tcp { iface } => run_tcp(spec, iface, up_salt, down_salt),
        TransportSpec::Mptcp { .. } => run_mptcp(spec, up_salt, down_salt),
    }
}

/// Build the spec's world around the given hosts: links, seed, faults.
fn build_world<C: Endpoint, S: Endpoint>(spec: &ScenarioSpec, client: C, server: S) -> Sim<C, S> {
    let wifi = spec.wifi.to_link_spec();
    let lte = spec.lte.to_link_spec();
    let mut b = Sim::builder(client, server)
        .wifi(&wifi)
        .lte(&lte)
        .seed(spec.seed);
    for f in &spec.faults {
        b = b.with_faults(f.iface().addr(), f.to_plan());
    }
    b.build()
}

/// The workload both transports run, once, over the socket seam: the
/// client (connection `id`, already opened) uploads while the server
/// answers every accepted connection with the download, each side
/// half-closing only if it has nothing to receive; every delivered
/// chunk goes through the end-to-end stream oracles. `on_accept` sees
/// each server socket first (the MPTCP caller plants its test knobs
/// there). Returns `(completed, down oracle, up oracle)` for
/// [`finish`].
fn drive<C: SocketHost, S: Accept>(
    spec: &ScenarioSpec,
    sim: &mut Sim<C, S>,
    id: C::Id,
    log: &ViolationLog,
    (up_salt, down_salt): (u64, u64),
    mut on_accept: impl FnMut(&mut S::Conn),
) -> (bool, StreamOracle, StreamOracle) {
    let dn = spec.workload.down_bytes;
    let up = spec.workload.up_bytes;
    if up > 0 {
        let c = sim.client.socket(id);
        c.send(Bytes::from(pattern_bytes(up_salt, up)));
        if dn == 0 {
            c.close(Time::ZERO);
        }
    }
    let mut down_oracle = StreamOracle::new(down_salt, dn);
    let mut up_oracle = StreamOracle::new(up_salt, up);
    let mut accepted: Vec<S::Id> = Vec::new();
    let completed = sim.run_until(
        |sim| {
            for sid in sim.server.take_accepted() {
                let c = sim.server.socket(sid);
                on_accept(c);
                if dn > 0 {
                    c.send(Bytes::from(pattern_bytes(down_salt, dn)));
                    if up == 0 {
                        c.close(Time::ZERO);
                    }
                }
                accepted.push(sid);
            }
            let now = sim.now;
            for chunk in sim.client.socket(id).take_delivered() {
                down_oracle.feed(log, now, "down", &chunk);
            }
            for &sid in &accepted {
                for chunk in sim.server.socket(sid).take_delivered() {
                    up_oracle.feed(log, now, "up", &chunk);
                }
            }
            down_oracle.done() && up_oracle.done()
        },
        Time::from_millis(spec.deadline_ms),
    );
    (completed.held(), down_oracle, up_oracle)
}

/// Close a case once the caller's witnesses had their last word: flag
/// an incomplete run, then snapshot the violation log into the report.
fn finish(
    log: &ViolationLog,
    now: Time,
    (completed, down, up): (bool, StreamOracle, StreamOracle),
) -> CaseReport {
    if !completed {
        log.report(
            now,
            "e2e-incomplete",
            format!(
                "deadline passed with down {}/{} and up {}/{} bytes verified",
                down.cursor, down.expected, up.cursor, up.expected
            ),
        );
    }
    CaseReport {
        completed,
        end_us: now.as_micros(),
        delivered_down: down.cursor.min(down.expected),
        delivered_up: up.cursor.min(up.expected),
        violations: log.snapshot(),
        violations_total: log.total(),
    }
}

fn run_tcp(spec: &ScenarioSpec, iface: IfaceSpec, up_salt: u64, down_salt: u64) -> CaseReport {
    let client = TcpClientHost::new(iface.addr(), SERVER_ADDR, (spec.seed as u32) | 1);
    let server = TcpServerHost::new(
        SERVER_ADDR,
        SERVER_PORT,
        TcpConfig::default(),
        (spec.seed >> 32) as u32 ^ 0x5EED,
    );
    let mut sim = build_world(spec, client, server);
    let log = ViolationLog::new();
    sim.set_observer(Box::new(TcpConformance::new(
        log.clone(),
        (spec.workload.up_bytes > 0).then_some(up_salt),
        (spec.workload.down_bytes > 0).then_some(down_salt),
    )));
    let id = sim
        .client
        .connect(Time::ZERO, TcpConfig::default(), SERVER_PORT);
    let end = drive(spec, &mut sim, id, &log, (up_salt, down_salt), |_| {});
    finish(&log, sim.now, end)
}

fn run_mptcp(spec: &ScenarioSpec, up_salt: u64, down_salt: u64) -> CaseReport {
    let TransportSpec::Mptcp {
        primary,
        mode,
        cc,
        sched,
        rto_activation,
    } = spec.transport
    else {
        unreachable!("run_mptcp called with a TCP spec");
    };
    let cfg = MptcpConfig {
        cc,
        sched,
        mode,
        backup_activation: if rto_activation > 0 {
            BackupActivation::OnRtoCount(rto_activation)
        } else {
            BackupActivation::OnNotify
        },
        ..MptcpConfig::default()
    };
    let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], spec.seed | 1);
    let server = MptcpServerHost::new(
        SERVER_ADDR,
        SERVER_PORT,
        cfg.clone(),
        spec.seed ^ 0x00C0_FFEE,
    );
    let mut sim = build_world(spec, client, server);
    let log = ViolationLog::new();
    let witness = SchedWitness::new(sched);
    sim.set_observer(Box::new(MptcpConformance::new(
        log.clone(),
        (spec.workload.up_bytes > 0).then_some(up_salt),
        (spec.workload.down_bytes > 0).then_some(down_salt),
        witness.clone(),
    )));
    // The planted-bug knobs go on both ends of the connection.
    let plant_knobs = |conn: &mut MptcpConnection| {
        if spec.dss_double_every > 0 {
            conn.set_test_dss_double_send(spec.dss_double_every);
        }
        if spec.sched_stall_after > 0 {
            conn.set_test_sched_stall_after(spec.sched_stall_after);
        }
        if spec.suppress_redundant {
            conn.set_test_redundant_suppress(true);
        }
    };
    let id = sim
        .client
        .open(Time::ZERO, cfg, primary.addr(), SERVER_PORT);
    plant_knobs(sim.client.conn_mut(id));
    let end = drive(spec, &mut sim, id, &log, (up_salt, down_salt), plant_knobs);
    witness.finalize(&log, sim.now);
    finish(&log, sim.now, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            assert_eq!(generate(seed), generate(seed));
        }
    }

    #[test]
    fn generator_covers_both_transports() {
        let (mut tcp, mut mptcp) = (0, 0);
        for seed in 0..40u64 {
            match generate(seed).transport {
                TransportSpec::Tcp { .. } => tcp += 1,
                TransportSpec::Mptcp { .. } => mptcp += 1,
            }
        }
        assert!(tcp > 3, "TCP scenarios too rare: {tcp}/40");
        assert!(mptcp > 10, "MPTCP scenarios too rare: {mptcp}/40");
    }

    #[test]
    fn spec_literal_is_lossless_for_a_generated_case() {
        // The emitter is hand-written; pin its shape on a case with
        // faults so a drifting field name breaks loudly here rather
        // than in a pasted reproducer.
        let spec = (0..200u64)
            .map(generate)
            .find(|s| !s.faults.is_empty())
            .expect("some generated case has faults");
        let lit = spec.to_rust_literal(0);
        assert!(lit.contains("mpwifi_conformance::ScenarioSpec {"));
        assert!(lit.contains(&format!("seed: {}", spec.seed)));
        assert!(lit.contains("faults: vec!["));
    }

    #[test]
    fn clean_fault_free_scenario_has_no_violations() {
        let spec = ScenarioSpec {
            seed: 7,
            transport: TransportSpec::Tcp {
                iface: IfaceSpec::Wifi,
            },
            wifi: LinkSpecLite {
                up_kbps: 10_000,
                down_kbps: 10_000,
                rtt_ms: 20,
                loss_ppm: 0,
            },
            lte: LinkSpecLite {
                up_kbps: 5_000,
                down_kbps: 8_000,
                rtt_ms: 60,
                loss_ppm: 0,
            },
            workload: WorkloadSpec {
                down_bytes: 100_000,
                up_bytes: 0,
            },
            faults: vec![],
            deadline_ms: 30_000,
            dss_double_every: 0,
            sched_stall_after: 0,
            suppress_redundant: false,
        };
        let report = run_scenario(&spec);
        assert!(report.completed, "clean download must finish");
        assert!(
            report.clean(),
            "violations on a clean run: {:#?}",
            report.violations
        );
        assert_eq!(report.delivered_down, 100_000);
    }

    #[test]
    fn run_scenario_is_deterministic() {
        let spec = generate(42);
        let a = run_scenario(&spec);
        let b = run_scenario(&spec);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
