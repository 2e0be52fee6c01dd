//! The replay engine: run an app pattern over emulated links under one
//! of the six transport configurations and measure app response time.
//!
//! This is the Mahimahi ReplayShell + MpShell substitute. Each recorded
//! flow becomes a live connection; requests are issued at their recorded
//! offsets (never before the previous exchange completed, matching HTTP
//! request/response causality); the server answers after the recorded
//! think time. **App response time** is the paper's metric: from the
//! start of the first connection to the end of the last one.

use crate::patterns::{AppPattern, FlowPattern};
use mpwifi_mptcp::{CcKind, MptcpConfig};
use mpwifi_netem::Addr;
use mpwifi_sim::apps::make_payload;
use mpwifi_sim::endpoint::{MptcpClientHost, MptcpServerHost, TcpClientHost, TcpServerHost};
use mpwifi_sim::{
    Accept, LinkSpec, ScriptEvent, Sim, Socket, SocketHost, LTE_ADDR, SERVER_ADDR, SERVER_PORT,
    WIFI_ADDR,
};
use mpwifi_simcore::{Dur, RateSeries, Time};
use mpwifi_tcp::conn::TcpConfig;
use serde::{Deserialize, Serialize};

/// One of the paper's six transport configurations (Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Transport {
    /// Single-path TCP over the given interface.
    Tcp(
        /// Interface address (WiFi or LTE).
        Addr,
    ),
    /// Full-MPTCP with the given primary interface and congestion
    /// control.
    Mptcp {
        /// Primary-subflow interface.
        primary: Addr,
        /// Coupled (LIA) or decoupled (Reno per subflow).
        coupled: bool,
    },
}

impl Transport {
    /// The paper's label for this configuration.
    pub fn label(&self) -> &'static str {
        match self {
            Transport::Tcp(a) if *a == WIFI_ADDR => "WiFi-TCP",
            Transport::Tcp(_) => "LTE-TCP",
            Transport::Mptcp {
                primary,
                coupled: true,
            } if *primary == WIFI_ADDR => "MPTCP-Coupled-WiFi",
            Transport::Mptcp { coupled: true, .. } => "MPTCP-Coupled-LTE",
            Transport::Mptcp {
                primary,
                coupled: false,
            } if *primary == WIFI_ADDR => "MPTCP-Decoupled-WiFi",
            Transport::Mptcp { coupled: false, .. } => "MPTCP-Decoupled-LTE",
        }
    }
}

/// The six configurations in the paper's presentation order.
pub const ALL_TRANSPORTS: [Transport; 6] = [
    Transport::Tcp(WIFI_ADDR),
    Transport::Tcp(LTE_ADDR),
    Transport::Mptcp {
        primary: WIFI_ADDR,
        coupled: true,
    },
    Transport::Mptcp {
        primary: LTE_ADDR,
        coupled: true,
    },
    Transport::Mptcp {
        primary: WIFI_ADDR,
        coupled: false,
    },
    Transport::Mptcp {
        primary: LTE_ADDR,
        coupled: false,
    },
];

/// Outcome of one replay.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Start of first connection to end of last (the paper's app
    /// response time). Equal to the deadline when incomplete.
    pub response_time: Dur,
    /// Did every flow finish before the deadline?
    pub completed: bool,
    /// Per-flow `(id, start, end)` relative to replay start.
    pub flow_spans: Vec<(usize, Dur, Dur)>,
    /// Per-flow average rate in bits/s over its span.
    pub flow_rates: Vec<(usize, f64)>,
    /// Per-flow delivered-byte progress over time (client side), for
    /// Figure 17's rate-over-time strips.
    pub flow_progress: Vec<(usize, RateSeries)>,
}

/// Per-flow runtime state.
struct FlowRt {
    pat: FlowPattern,
    /// The flow's socket handle, once its start time came.
    sock: Option<usize>,
    /// Next exchange to issue.
    next_exchange: usize,
    /// Cumulative request bytes issued.
    req_issued: u64,
    /// Cumulative response bytes expected for issued exchanges.
    resp_expected: u64,
    /// Cumulative request bytes after which the server owes a response,
    /// with its size and think time — queued at issue time.
    server_plan: Vec<(u64, u64, Dur)>,
    /// Server responses already sent (count of plan entries fired).
    server_fired: usize,
    /// A response scheduled to fire at this time.
    server_pending: Option<(Time, u64)>,
    /// Response bytes of every exchange: read them all and the flow is
    /// done.
    resp_total: u64,
    done_at: Option<Time>,
}

impl FlowRt {
    fn new(pat: FlowPattern) -> FlowRt {
        FlowRt {
            resp_total: pat.exchanges.iter().map(|e| e.response_bytes).sum(),
            pat,
            sock: None,
            next_exchange: 0,
            req_issued: 0,
            resp_expected: 0,
            server_plan: Vec::new(),
            server_fired: 0,
            server_pending: None,
            done_at: None,
        }
    }
}

/// The live sockets of one replay, generic over the socket seam: the
/// world, how this transport opens a flow's connection, and which
/// accepted server socket belongs to which flow.
struct Host<C: SocketHost, S: Accept, O> {
    sim: Sim<C, S>,
    open: O,
    /// Per opened flow: the client socket and, once its SYN arrived,
    /// the server's.
    socks: Vec<(C::Id, Option<S::Id>)>,
    /// Accepted server sockets no flow has claimed yet.
    unclaimed: Vec<S::Id>,
}

impl<C: SocketHost, S: Accept, O: FnMut(&mut C, Time) -> C::Id> Host<C, S, O> {
    /// Open a flow's connection; returns its handle.
    fn open(&mut self) -> usize {
        let id = (self.open)(&mut self.sim.client, self.sim.now);
        self.socks.push((id, None));
        self.socks.len() - 1
    }

    fn client(&mut self, h: usize) -> &mut C::Conn {
        self.sim.client.socket(self.socks[h].0)
    }

    /// The server side of flow `h`: `None` until the server accepted
    /// the connection whose peer port is the client's local port (SYN
    /// loss can reorder accepts, so arrival order will not do).
    fn server(&mut self, h: usize) -> Option<&mut S::Conn> {
        if self.socks[h].1.is_none() {
            self.unclaimed.extend(self.sim.server.take_accepted());
            let (local, remote) = self.client(h).ports()?;
            let server = &mut self.sim.server;
            let at = self
                .unclaimed
                .iter()
                .position(|&sid| server.socket(sid).ports() == Some((remote, local)))?;
            self.socks[h].1 = Some(self.unclaimed.swap_remove(at));
        }
        self.socks[h].1.map(|sid| self.sim.server.socket(sid))
    }
}

/// The replay loop, once for every transport: replay `pattern` over an
/// already-built world, opening each flow's connection with `open`.
/// [`replay`] builds the world for one of the six transports and calls
/// this; a caller that builds its own (its own seed salts, fault plans
/// or scripted events) calls it directly.
pub fn run_replay<C: SocketHost, S: Accept>(
    sim: Sim<C, S>,
    open: impl FnMut(&mut C, Time) -> C::Id,
    pattern: &AppPattern,
    deadline: Dur,
) -> ReplayResult {
    let mut host = Host {
        sim,
        open,
        socks: Vec::new(),
        unclaimed: Vec::new(),
    };
    let mut flows: Vec<FlowRt> = pattern.flows.iter().cloned().map(FlowRt::new).collect();
    let mut progress: Vec<RateSeries> = pattern
        .flows
        .iter()
        .map(|f| {
            let mut rs = RateSeries::new();
            rs.mark_start(Time::ZERO + f.start);
            rs
        })
        .collect();
    let deadline_t = Time::ZERO + deadline;

    // Schedule a wakeup at every flow start so connections open on time.
    for f in &flows {
        host.sim
            .schedule(Time::ZERO + f.pat.start, ScriptEvent::Wakeup);
    }

    loop {
        let now = host.sim.now;
        for (i, f) in flows.iter_mut().enumerate() {
            if f.done_at.is_some() {
                continue;
            }
            // Open on time.
            let h = match f.sock {
                Some(h) => h,
                None if now >= Time::ZERO + f.pat.start => *f.sock.insert(host.open()),
                None => continue,
            };
            let delivered = host.client(h).read();
            // Issue the next exchange when its offset passed and all
            // prior responses arrived.
            if f.next_exchange < f.pat.exchanges.len() {
                let e = f.pat.exchanges[f.next_exchange];
                let due = Time::ZERO + f.pat.start + e.offset;
                if delivered >= f.resp_expected && now >= due {
                    host.client(h).send(make_payload(e.request_bytes));
                    f.req_issued += e.request_bytes;
                    f.resp_expected += e.response_bytes;
                    f.server_plan
                        .push((f.req_issued, e.response_bytes, e.server_delay));
                    f.next_exchange += 1;
                } else if delivered >= f.resp_expected && due > now {
                    host.sim.schedule(due, ScriptEvent::Wakeup);
                }
            }
            // Progress counts a request from the step that issues it,
            // not from whichever step happens to come next.
            progress[i].record(now, delivered + f.req_issued);
            // Server side: schedule/fire responses.
            if let Some(srv_delivered) = host.server(h).map(|c| c.read()) {
                if f.server_pending.is_none() && f.server_fired < f.server_plan.len() {
                    let (req_needed, resp_bytes, delay) = f.server_plan[f.server_fired];
                    if srv_delivered >= req_needed {
                        let at = now + delay;
                        f.server_pending = Some((at, resp_bytes));
                        host.sim.schedule(at, ScriptEvent::Wakeup);
                    }
                }
                if let Some((at, bytes)) = f.server_pending {
                    if now >= at {
                        host.server(h)
                            .expect("server socket was just read")
                            .send(make_payload(bytes));
                        f.server_fired += 1;
                        f.server_pending = None;
                    }
                }
            }
            // Completion: all exchanges issued and all responses read
            // (`delivered` is this step's one read: a send since cannot
            // deliver anything).
            if f.next_exchange == f.pat.exchanges.len() && delivered >= f.resp_total {
                f.done_at = Some(now);
                host.client(h).close(now);
                if let Some(conn) = host.server(h) {
                    conn.close(now);
                }
            }
        }
        // Stop at the step the last flow finished: one more step would
        // carry whatever the closes queued as far as the next event,
        // which is how densely the world steps, not what the app did.
        if flows.iter().all(|f| f.done_at.is_some()) {
            break;
        }
        if host.sim.now >= deadline_t {
            break;
        }
        if !host.sim.step() {
            break;
        }
    }

    let completed = flows.iter().all(|f| f.done_at.is_some());
    let end = flows
        .iter()
        .filter_map(|f| f.done_at)
        .max()
        .unwrap_or(deadline_t);
    let first_start = flows.iter().map(|f| f.pat.start).min().unwrap_or(Dur::ZERO);
    let response_time = if completed {
        end - (Time::ZERO + first_start)
    } else {
        deadline
    };
    let flow_spans: Vec<(usize, Dur, Dur)> = flows
        .iter()
        .map(|f| {
            let end = f.done_at.unwrap_or(deadline_t) - Time::ZERO;
            (f.pat.id, f.pat.start, end)
        })
        .collect();
    let flow_rates = flows
        .iter()
        .map(|f| {
            let end = f.done_at.unwrap_or(deadline_t) - Time::ZERO;
            let span = (end.saturating_sub(f.pat.start)).as_secs_f64().max(1e-3);
            (f.pat.id, f.pat.total_bytes() as f64 * 8.0 / span)
        })
        .collect();
    ReplayResult {
        response_time,
        completed,
        flow_spans,
        flow_rates,
        flow_progress: pattern.flows.iter().map(|f| f.id).zip(progress).collect(),
    }
}

/// Replay `pattern` over the given links with the given transport.
pub fn replay(
    pattern: &AppPattern,
    wifi: &LinkSpec,
    lte: &LinkSpec,
    transport: Transport,
    deadline: Dur,
    seed: u64,
) -> ReplayResult {
    match transport {
        Transport::Tcp(iface) => {
            let client = TcpClientHost::new(iface, SERVER_ADDR, seed as u32 | 1);
            let server = TcpServerHost::new(
                SERVER_ADDR,
                SERVER_PORT,
                TcpConfig::default(),
                seed as u32 ^ 7,
            );
            let sim = Sim::builder(client, server)
                .wifi(wifi)
                .lte(lte)
                .seed(seed)
                .build();
            let open =
                |c: &mut TcpClientHost, now| c.connect(now, TcpConfig::default(), SERVER_PORT);
            run_replay(sim, open, pattern, deadline)
        }
        Transport::Mptcp { primary, coupled } => {
            let cfg = MptcpConfig {
                cc: if coupled { CcKind::Lia } else { CcKind::Reno },
                ..MptcpConfig::default()
            };
            let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], seed | 1);
            let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), seed ^ 0xF7);
            let sim = Sim::builder(client, server)
                .wifi(wifi)
                .lte(lte)
                .seed(seed)
                .build();
            let open =
                |c: &mut MptcpClientHost, now| c.open(now, cfg.clone(), primary, SERVER_PORT);
            run_replay(sim, open, pattern, deadline)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::{cnn_launch, dropbox_click, AppPattern, Exchange, FlowPattern};

    fn fast_wifi() -> LinkSpec {
        LinkSpec::symmetric(20_000_000, Dur::from_millis(20))
    }

    fn slow_lte() -> LinkSpec {
        LinkSpec::symmetric(4_000_000, Dur::from_millis(70))
    }

    fn tiny_pattern() -> AppPattern {
        AppPattern {
            app: "Tiny",
            kind: crate::patterns::PatternKind::Launch,
            flows: vec![
                FlowPattern {
                    id: 1,
                    start: Dur::ZERO,
                    exchanges: vec![Exchange {
                        offset: Dur::ZERO,
                        request_bytes: 400,
                        response_bytes: 20_000,
                        server_delay: Dur::from_millis(50),
                    }],
                },
                FlowPattern {
                    id: 2,
                    start: Dur::from_millis(500),
                    exchanges: vec![
                        Exchange {
                            offset: Dur::ZERO,
                            request_bytes: 400,
                            response_bytes: 5_000,
                            server_delay: Dur::from_millis(30),
                        },
                        Exchange {
                            offset: Dur::from_millis(200),
                            request_bytes: 400,
                            response_bytes: 8_000,
                            server_delay: Dur::from_millis(30),
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn tiny_pattern_completes_over_tcp() {
        let r = replay(
            &tiny_pattern(),
            &fast_wifi(),
            &slow_lte(),
            Transport::Tcp(WIFI_ADDR),
            Dur::from_secs(30),
            1,
        );
        assert!(r.completed, "replay must finish");
        // Flow 2 starts at 0.5 s and does two exchanges; response time is
        // at least that but well under 3 s on a fast link.
        assert!(
            r.response_time > Dur::from_millis(700),
            "{}",
            r.response_time
        );
        assert!(r.response_time < Dur::from_secs(3), "{}", r.response_time);
        assert_eq!(r.flow_spans.len(), 2);
    }

    #[test]
    fn tiny_pattern_completes_over_mptcp_all_variants() {
        for transport in [
            Transport::Mptcp {
                primary: WIFI_ADDR,
                coupled: true,
            },
            Transport::Mptcp {
                primary: LTE_ADDR,
                coupled: true,
            },
            Transport::Mptcp {
                primary: WIFI_ADDR,
                coupled: false,
            },
            Transport::Mptcp {
                primary: LTE_ADDR,
                coupled: false,
            },
        ] {
            let r = replay(
                &tiny_pattern(),
                &fast_wifi(),
                &slow_lte(),
                transport,
                Dur::from_secs(30),
                1,
            );
            assert!(r.completed, "{} did not finish", transport.label());
            assert!(
                r.response_time < Dur::from_secs(5),
                "{}: {}",
                transport.label(),
                r.response_time
            );
        }
    }

    #[test]
    fn request_causality_respected() {
        // Flow 2's second exchange can't start before its first response
        // arrived, so its completion is strictly after one full
        // round-trip + server delay past the first.
        let r = replay(
            &tiny_pattern(),
            &fast_wifi(),
            &slow_lte(),
            Transport::Tcp(WIFI_ADDR),
            Dur::from_secs(30),
            1,
        );
        let f2_end = r.flow_spans.iter().find(|s| s.0 == 2).unwrap().2;
        // The second exchange is issued no earlier than start (0.5 s) +
        // offset (0.2 s); add its server delay (30 ms) and one RTT
        // (20 ms each way) for the response to land.
        assert!(f2_end > Dur::from_millis(500 + 200 + 30 + 20), "{f2_end}");
    }

    #[test]
    fn cnn_launch_replays_on_all_six() {
        let pattern = cnn_launch(1);
        for transport in ALL_TRANSPORTS {
            let r = replay(
                &pattern,
                &fast_wifi(),
                &slow_lte(),
                transport,
                Dur::from_secs(120),
                3,
            );
            assert!(r.completed, "{} incomplete", transport.label());
            // The pattern's own timing (second asset wave + beacons to
            // ~2.5 s) bounds below; fast links finish close to that.
            assert!(
                r.response_time > Dur::from_millis(2_000),
                "{}: {}",
                transport.label(),
                r.response_time
            );
            assert!(
                r.response_time < Dur::from_secs(30),
                "{}: {}",
                transport.label(),
                r.response_time
            );
        }
    }

    #[test]
    fn single_path_uses_correct_network() {
        // On LTE-TCP, a much slower LTE link must hurt response time
        // relative to WiFi-TCP.
        let pattern = dropbox_click(1);
        let wifi = fast_wifi();
        let lte = LinkSpec::symmetric(1_500_000, Dur::from_millis(80));
        let on_wifi = replay(
            &pattern,
            &wifi,
            &lte,
            Transport::Tcp(WIFI_ADDR),
            Dur::from_secs(300),
            5,
        );
        let on_lte = replay(
            &pattern,
            &wifi,
            &lte,
            Transport::Tcp(LTE_ADDR),
            Dur::from_secs(300),
            5,
        );
        assert!(on_wifi.completed && on_lte.completed);
        assert!(
            on_lte.response_time > on_wifi.response_time,
            "LTE {} should be slower than WiFi {}",
            on_lte.response_time,
            on_wifi.response_time
        );
    }

    #[test]
    fn transport_labels() {
        let labels: Vec<&str> = ALL_TRANSPORTS.iter().map(|t| t.label()).collect();
        assert_eq!(
            labels,
            vec![
                "WiFi-TCP",
                "LTE-TCP",
                "MPTCP-Coupled-WiFi",
                "MPTCP-Coupled-LTE",
                "MPTCP-Decoupled-WiFi",
                "MPTCP-Decoupled-LTE"
            ]
        );
    }

    #[test]
    fn uplink_dominated_pattern_feels_the_uplink_rate() {
        use crate::patterns::dropbox_upload;
        let pattern = dropbox_upload(1);
        // Same downlink, very different uplinks.
        let fast_up = LinkSpec::asymmetric(8_000_000, 10_000_000, Dur::from_millis(30));
        let slow_up = LinkSpec::asymmetric(1_000_000, 10_000_000, Dur::from_millis(30));
        let lte = slow_lte();
        let deadline = Dur::from_secs(300);
        let fast = replay(
            &pattern,
            &fast_up,
            &lte,
            Transport::Tcp(WIFI_ADDR),
            deadline,
            3,
        );
        let slow = replay(
            &pattern,
            &slow_up,
            &lte,
            Transport::Tcp(WIFI_ADDR),
            deadline,
            3,
        );
        assert!(fast.completed && slow.completed);
        assert!(
            slow.response_time.as_secs_f64() > fast.response_time.as_secs_f64() * 2.0,
            "2.5 MB upload: 8 Mbit/s up {} vs 1 Mbit/s up {}",
            fast.response_time,
            slow.response_time
        );
    }

    #[test]
    fn incomplete_replay_reports_deadline() {
        // Absurdly slow links and a short deadline.
        let wifi = LinkSpec::symmetric(200_000, Dur::from_millis(300));
        let lte = LinkSpec::symmetric(200_000, Dur::from_millis(300));
        let r = replay(
            &dropbox_click(1),
            &wifi,
            &lte,
            Transport::Tcp(WIFI_ADDR),
            Dur::from_secs(5),
            1,
        );
        assert!(!r.completed);
        assert_eq!(r.response_time, Dur::from_secs(5));
    }
}
