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
    /// Its connection is open: its start time came.
    opened: bool,
    /// Next exchange to issue.
    next_exchange: usize,
    /// The next exchange's instant, once its responses are all in and
    /// only the clock holds it back (a `Wakeup` is scheduled there).
    exchange_wait: Option<Time>,
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
    /// Visit the flow at the next step: one of its sockets is ready, or
    /// its last visit left it something to do that needs no input.
    visit: bool,
    done_at: Option<Time>,
}

impl FlowRt {
    fn new(pat: FlowPattern) -> FlowRt {
        FlowRt {
            resp_total: pat.exchanges.iter().map(|e| e.response_bytes).sum(),
            pat,
            opened: false,
            next_exchange: 0,
            exchange_wait: None,
            req_issued: 0,
            resp_expected: 0,
            server_plan: Vec::new(),
            server_fired: 0,
            server_pending: None,
            visit: false,
            done_at: None,
        }
    }

    /// Has a time this flow waits for come: its start, its next
    /// exchange's instant, its server's think time? Each is a scheduled
    /// `Wakeup`, so the world steps at it.
    fn due(&self, now: Time) -> bool {
        if !self.opened {
            return now >= Time::ZERO + self.pat.start;
        }
        self.exchange_wait.is_some_and(|t| now >= t)
            || self.server_pending.is_some_and(|(at, _)| now >= at)
    }
}

/// The flow whose sockets `is` names.
fn flow_of<C, S>(socks: &[Option<Sock<C, S>>], is: impl Fn(&Sock<C, S>) -> bool) -> Option<usize> {
    socks.iter().position(|s| s.as_ref().is_some_and(&is))
}

/// One opened flow's sockets.
struct Sock<C, S> {
    client: C,
    /// The client socket's `(local, remote)` ports, read at open: how
    /// an accepted server socket finds its flow.
    ports: Option<(u16, u16)>,
    /// The server's socket, once its SYN arrived.
    server: Option<S>,
}

/// The live sockets of one replay, generic over the socket seam: the
/// world, how this transport opens a flow's connection, and which
/// accepted server socket belongs to which flow.
struct Host<C: SocketHost, S: Accept, O> {
    sim: Sim<C, S>,
    open: O,
    /// Per flow, once it opened.
    socks: Vec<Option<Sock<C::Id, S::Id>>>,
    /// Scratch for the ids the hosts report ready.
    ready_client: Vec<C::Id>,
    ready_server: Vec<S::Id>,
}

impl<C: SocketHost, S: Accept, O: FnMut(&mut C, Time) -> C::Id> Host<C, S, O> {
    /// Open flow `i`'s connection.
    fn open(&mut self, i: usize) {
        let client = (self.open)(&mut self.sim.client, self.sim.now);
        let ports = self.sim.client.socket(client).ports();
        self.socks[i] = Some(Sock {
            client,
            ports,
            server: None,
        });
    }

    fn sock(&self, i: usize) -> &Sock<C::Id, S::Id> {
        self.socks[i].as_ref().expect("the flow is open")
    }

    fn client(&mut self, i: usize) -> &mut C::Conn {
        self.sim.client.socket(self.sock(i).client)
    }

    /// The server side of flow `i`: `None` until the server accepted
    /// the connection whose peer port is the client's local port.
    fn server(&mut self, i: usize) -> Option<&mut S::Conn> {
        let sid = self.sock(i).server?;
        Some(self.sim.server.socket(sid))
    }

    /// Mark every flow a segment reached since the last call. A
    /// connection the server accepted is paired with its flow here, by
    /// ports (SYN loss can reorder accepts, so arrival order will not
    /// do); one no flow opened is never read.
    fn mark_ready(&mut self, flows: &mut [FlowRt]) {
        for sid in self.sim.server.take_accepted() {
            let ports = self.sim.server.socket(sid).ports();
            let peer = ports.map(|(local, remote)| (remote, local));
            if let Some(i) = flow_of(&self.socks, |s| peer.is_some() && s.ports == peer) {
                self.socks[i].as_mut().expect("the flow is open").server = Some(sid);
            }
        }
        self.sim.client.take_ready(&mut self.ready_client);
        for id in self.ready_client.drain(..) {
            if let Some(i) = flow_of(&self.socks, |s| s.client == id) {
                flows[i].visit = true;
            }
        }
        self.sim.server.take_ready(&mut self.ready_server);
        for id in self.ready_server.drain(..) {
            if let Some(i) = flow_of(&self.socks, |s| s.server == Some(id)) {
                flows[i].visit = true;
            }
        }
    }
}

/// The replay loop, once for every transport: replay `pattern` over an
/// already-built world, opening each flow's connection with `open`.
/// [`replay`] builds the world for one of the six transports and calls
/// this; a caller that builds its own (its own seed salts, fault plans
/// or scripted events) calls it directly.
///
/// A step visits, in flow order, only the flows with something to do:
/// one whose socket a segment reached ([`SocketHost::take_ready`]), one
/// whose start, next exchange or server think time has come, and one
/// whose last visit left it work that needs no input (a response of
/// zero bytes lets the next exchange go at once). Any other flow's
/// visit would read the counts it read last time and change nothing
/// ([`RateSeries::record`] ignores a repeat), so every read, send,
/// close and `schedule` happens at the step, and in the order, it would
/// if every flow were visited at every step.
pub fn run_replay<C: SocketHost, S: Accept>(
    sim: Sim<C, S>,
    open: impl FnMut(&mut C, Time) -> C::Id,
    pattern: &AppPattern,
    deadline: Dur,
) -> ReplayResult {
    let mut host = Host {
        sim,
        open,
        socks: (0..pattern.flows.len()).map(|_| None).collect(),
        ready_client: Vec::new(),
        ready_server: Vec::new(),
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
    let mut running = flows.len();

    // Schedule a wakeup at every flow start so connections open on time.
    for f in &flows {
        host.sim
            .schedule(Time::ZERO + f.pat.start, ScriptEvent::Wakeup);
    }

    loop {
        let now = host.sim.now;
        host.mark_ready(&mut flows);
        for (i, f) in flows.iter_mut().enumerate() {
            if f.done_at.is_some() || !(std::mem::take(&mut f.visit) || f.due(now)) {
                continue;
            }
            // Open on time.
            if !f.opened {
                if now < Time::ZERO + f.pat.start {
                    continue;
                }
                host.open(i);
                f.opened = true;
            }
            let delivered = host.client(i).read();
            // Issue the next exchange when its offset passed and all
            // prior responses arrived.
            if f.next_exchange < f.pat.exchanges.len() {
                let e = f.pat.exchanges[f.next_exchange];
                let due = Time::ZERO + f.pat.start + e.offset;
                if delivered >= f.resp_expected && now >= due {
                    host.client(i).send(make_payload(e.request_bytes));
                    f.req_issued += e.request_bytes;
                    f.resp_expected += e.response_bytes;
                    f.server_plan
                        .push((f.req_issued, e.response_bytes, e.server_delay));
                    f.next_exchange += 1;
                    f.exchange_wait = None;
                    // With every response in, the next exchange needs
                    // no input: the next step issues or schedules it.
                    f.visit |=
                        f.next_exchange < f.pat.exchanges.len() && delivered >= f.resp_expected;
                } else if delivered >= f.resp_expected && due > now {
                    host.sim.schedule(due, ScriptEvent::Wakeup);
                    f.exchange_wait = Some(due);
                }
            }
            // Progress counts a request from the step that issues it,
            // not from whichever step happens to come next.
            progress[i].record(now, delivered + f.req_issued);
            // Server side: schedule/fire responses.
            if let Some(srv_delivered) = host.server(i).map(|c| c.read()) {
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
                        host.server(i)
                            .expect("server socket was just read")
                            .send(make_payload(bytes));
                        f.server_fired += 1;
                        f.server_pending = None;
                        // A request already in for the next response
                        // needs no input: the next step schedules it.
                        f.visit |= f
                            .server_plan
                            .get(f.server_fired)
                            .is_some_and(|&(req_needed, ..)| srv_delivered >= req_needed);
                    }
                }
            }
            // Completion: all exchanges issued and all responses read
            // (`delivered` is this step's one read: a send since cannot
            // deliver anything).
            if f.next_exchange == f.pat.exchanges.len() && delivered >= f.resp_total {
                f.done_at = Some(now);
                running -= 1;
                host.client(i).close(now);
                if let Some(conn) = host.server(i) {
                    conn.close(now);
                }
            }
        }
        // Stop at the step the last flow finished: one more step would
        // carry whatever the closes queued as far as the next event,
        // which is how densely the world steps, not what the app did.
        if running == 0 {
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
    fn an_empty_response_lets_the_next_exchange_go_without_input() {
        // Nothing arrives for the client between its first exchange and
        // its second, whose offset has already passed: the flow must be
        // visited again at the next step anyway (the flow start's own
        // wakeup, still at t = 0, long before anything reaches the
        // client), and the server must answer the second request though
        // its first response carried no bytes.
        let exchange = |offset_ms, response_bytes| Exchange {
            offset: Dur::from_millis(offset_ms),
            request_bytes: 300,
            response_bytes,
            server_delay: Dur::ZERO,
        };
        let pattern = AppPattern {
            app: "Empty",
            kind: crate::patterns::PatternKind::Click,
            flows: vec![FlowPattern {
                id: 1,
                start: Dur::ZERO,
                exchanges: vec![exchange(0, 0), exchange(0, 0), exchange(50, 4_000)],
            }],
        };
        for transport in ALL_TRANSPORTS {
            let r = replay(
                &pattern,
                &fast_wifi(),
                &slow_lte(),
                transport,
                Dur::from_secs(30),
                1,
            );
            assert!(r.completed, "{} did not finish", transport.label());
            assert!(
                r.response_time < Dur::from_secs(2),
                "{}: {}",
                transport.label(),
                r.response_time
            );
        }
        let r = replay(
            &pattern,
            &fast_wifi(),
            &slow_lte(),
            Transport::Tcp(WIFI_ADDR),
            Dur::from_secs(30),
            1,
        );
        let progress = r.flow_progress[0].1.progress();
        assert_eq!(progress[..2], [(Time::ZERO, 300), (Time::ZERO, 600)]);
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
