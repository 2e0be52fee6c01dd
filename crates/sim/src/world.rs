//! The simulation driver: one multi-homed client, one server, a table
//! of emulated access links between them (the paper's testbed is two
//! rows: WiFi, then LTE), scripted failures, deterministic time.

use crate::arena::CampaignRun;
use crate::check::{SimObserver, TxHost};
use crate::endpoint::{Endpoint, ResetEndpoint};
use crate::link::{LinkSpec, PathPair};
use crate::log::{PacketDir, PacketLog};
use crate::{LTE_ADDR, WIFI_ADDR};
use mpwifi_netem::{Addr, FaultKind, FaultPlan, Frame};
use mpwifi_simcore::{metrics, supervise, DetRng, Dur, Time};
use mpwifi_tcp::segment::Segment;
use std::fmt::Write as _;

/// A scripted mid-run event (the paper's Figure 15 failure injections).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptEvent {
    /// Physically unplug an interface: both directions black-hole, no
    /// notification to anyone.
    CutIface(Addr),
    /// Re-plug an interface.
    RestoreIface(Addr),
    /// `multipath off` via iproute: the client stack is told the
    /// interface is gone (the path itself keeps working, but the client
    /// stops using it and informs the peer).
    NotifyIfaceDown(Addr),
    /// No-op that forces the event loop to visit this instant (workload
    /// drivers schedule these to act at exact times, e.g. a server's
    /// response delay expiring).
    Wakeup,
    /// Change an interface's downlink rate mid-run (a WiFi AP degrading,
    /// an LTE cell emptying out).
    SetDownRate(Addr, u64),
    /// Change an interface's uplink rate mid-run.
    SetUpRate(Addr, u64),
    /// Tell the client a previously-downed interface is back (the
    /// restore half of `multipath off`/airplane-mode toggles).
    NotifyIfaceUp(Addr),
    /// Change an interface's one-way propagation delay mid-run (both
    /// directions). Compiled from [`FaultKind::DelaySpike`].
    SetOneWayDelay(Addr, Dur),
    /// Count one injected fault in the run metrics. The fault-plan
    /// compiler schedules one at every fault onset so RunMetrics'
    /// `faults_injected` reflects the plan regardless of fault kind.
    FaultMark,
}

/// An interface whose last packet is at least this much simulated time
/// before a snapshot is rendered "stale" in it.
const STALE_AFTER: Dur = Dur::from_secs(5);

/// Forensic state captured when the supervision watchdog (see
/// [`mpwifi_simcore::supervise`]) breaks a run off. Everything here is a
/// deterministic function of `(scenario, seed)`, so a snapshot is stable
/// evidence, not a heisen-log.
#[derive(Debug, Clone)]
pub(crate) struct StallSnapshot {
    /// Why the snapshot was taken: a watchdog breach label
    /// (`event-budget`, `wall-clock`, `stall`).
    pub reason: &'static str,
    /// Sim time at capture.
    pub now: Time,
    /// Sim time of the last delivery-watermark advance.
    pub last_advance: Time,
    /// Cumulative payload bytes this sim delivered to its endpoints.
    pub delivered_bytes: u64,
    /// Scripted events already fired (fault-plan position numerator).
    pub script_fired: u64,
    /// Scripted events still pending.
    pub script_pending: usize,
    /// Time of the next pending scripted event.
    pub next_script: Option<Time>,
    /// One entry per interface, in table order.
    pub ifaces: Vec<IfaceSnapshot>,
    /// Next pending client-side timer.
    pub client_timer: Option<Time>,
    /// Next pending server-side timer.
    pub server_timer: Option<Time>,
    /// Transport-layer health lines from the client endpoint.
    pub client_state: String,
    /// Transport-layer health lines from the server endpoint.
    pub server_state: String,
}

/// One interface's part of a `StallSnapshot`.
#[derive(Debug, Clone)]
pub(crate) struct IfaceSnapshot {
    /// The row's name.
    pub name: &'static str,
    /// Frames inside the link, both directions (queued, in the delay or
    /// in a tail stage), and the earliest instant one can leave it — a
    /// lower bound, see [`mpwifi_netem::Pipeline::next_ready`].
    pub queue: (usize, Option<Time>),
    /// Last packet seen on the client's side of the interface.
    pub last_activity: Option<Time>,
}

impl StallSnapshot {
    fn render_opt(t: Option<Time>) -> String {
        t.map_or_else(|| "-".to_string(), |t| t.to_string())
    }

    fn render_iface(&self, out: &mut String, name: &str, last: Option<Time>) {
        let stale = match last {
            Some(t) => self.now >= t + STALE_AFTER,
            None => self.now >= Time::ZERO + STALE_AFTER,
        };
        let _ = writeln!(
            out,
            "iface {name}: last activity {}{}",
            last.map_or_else(|| "never".to_string(), |t| t.to_string()),
            if stale {
                format!(
                    " (stale for {})",
                    self.now.saturating_since(last.unwrap_or(Time::ZERO))
                )
            } else {
                String::new()
            }
        );
    }

    /// Multi-line forensic rendering: the failure artifact embedded in
    /// quarantine sidecars and printed for stalled runs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "stall[{}]: now {}, last delivery advance {} (idle {}), {} payload bytes delivered",
            self.reason,
            self.now,
            self.last_advance,
            self.now.saturating_since(self.last_advance),
            self.delivered_bytes,
        );
        out.push_str("event queue: ");
        for iface in &self.ifaces {
            let (frames, next) = iface.queue;
            let next = Self::render_opt(next);
            let _ = write!(out, "{} {frames} frames (next {next}), ", iface.name);
        }
        let _ = writeln!(
            out,
            "client timer {}, server timer {}",
            Self::render_opt(self.client_timer),
            Self::render_opt(self.server_timer),
        );
        let _ = writeln!(
            out,
            "fault plan: {} scripted events fired, {} pending (next {})",
            self.script_fired,
            self.script_pending,
            Self::render_opt(self.next_script),
        );
        for iface in &self.ifaces {
            self.render_iface(&mut out, iface.name, iface.last_activity);
        }
        for (host, state) in [
            ("client", &self.client_state),
            ("server", &self.server_state),
        ] {
            if state.is_empty() {
                let _ = writeln!(out, "{host}: (no health report)");
            } else {
                let _ = writeln!(out, "{host}:");
                for line in state.lines() {
                    let _ = writeln!(out, "  {line}");
                }
            }
        }
        out
    }
}

/// One client interface and the access link behind it: a row of
/// [`Sim::ifaces`].
pub struct Iface {
    /// The interface's address; frames are routed to a row by it.
    pub addr: Addr,
    /// Names the row in pipeline labels and forensics.
    pub name: &'static str,
    /// The access link. [`Sim`] keeps each direction's exit horizon
    /// beside it and refreshes it wherever the simulator changes the
    /// link (a push, a poll, a script event, a build or reset), so a
    /// caller reads the link here and changes it only through the
    /// script; debug builds check the stored horizons at every step.
    pub link: PathPair,
    /// Packet log of the client's side of the interface.
    pub log: PacketLog,
    /// Scratch buffers for link polling, one per direction, reused
    /// across steps so the hot loop never allocates frame `Vec`s.
    to_server: Vec<Frame>,
    to_client: Vec<Frame>,
    /// `link.up.next_ready()` and `link.down.next_ready()` as of the
    /// last change to each direction: what [`Sim::next_event`] reads,
    /// and the test for whether a step polls the direction at all.
    up_ready: Option<Time>,
    down_ready: Option<Time>,
}

impl Iface {
    /// Store both directions' exit horizons afresh.
    fn refresh(&mut self) {
        self.up_ready = self.link.up.next_ready();
        self.down_ready = self.link.down.next_ready();
    }

    /// Row `i`'s link at t = 0: the one place the link constructor is
    /// called from, so a fresh world ([`SimBuilder::build`]) and a
    /// re-armed one ([`Sim::reset`]) get their pipelines, and the RNG
    /// chain behind them (`root` seeded with the run seed and walked in
    /// row order, `derive(i + 1)` for row `i`, then
    /// `LinkSpec::build_direction`'s own per-element derives), from the
    /// same code. A `None` plan adds no filter and draws nothing.
    fn link_up(
        root: &mut DetRng,
        i: usize,
        name: &str,
        spec: &LinkSpec,
        faults: Option<&FaultPlan>,
    ) -> PathPair {
        PathPair::build(spec, name, &mut root.derive(i as u64 + 1), faults)
    }
}

/// The testbed: client ⇄ {one access link per interface} ⇄ server.
pub struct Sim<C: Endpoint, S: Endpoint> {
    /// Current simulated time.
    pub now: Time,
    /// The multi-homed client endpoint.
    pub client: C,
    /// The server endpoint.
    pub server: S,
    /// The interface table. Everything that touches more than one row
    /// walks it in index order, which is therefore the delivery order
    /// the reports were captured under: WiFi is row 0, LTE row 1.
    pub ifaces: Vec<Iface>,
    frame_seq: u64,
    /// Pending script events, sorted ascending by time.
    script: Vec<(Time, ScriptEvent)>,
    /// Scratch buffer for endpoint TX drains ([`Sim::drain_tx`] runs
    /// twice per step), reused so the hot loop never allocates segment
    /// `Vec`s either.
    tx_scratch: Vec<(Addr, Addr, Segment)>,
    /// Optional conformance witness (see [`crate::check`]). `None` in
    /// every measurement run; costs one branch per step when absent.
    observer: Option<Box<dyn SimObserver<C, S>>>,
    /// Cumulative payload bytes delivered to either endpoint — the
    /// delivery watermark the watchdog observes.
    delivered_bytes: u64,
    /// Sim time of the last watermark advance.
    last_advance: Time,
    /// Scripted events fired so far (fault-plan position for forensics).
    script_fired: u64,
}

/// Named-setter builder for [`Sim`] — the only way to construct one.
///
/// Each [`SimBuilder::iface`] call adds one row to the table, in call
/// order; [`SimBuilder::build`] panics on an empty table so a
/// misconfigured scenario fails loudly at setup rather than producing
/// silently wrong measurements. The seed defaults to `0` and script
/// events may be queued up front with [`SimBuilder::event`].
///
/// ```ignore
/// let sim = Sim::builder(client, server)
///     .wifi(&wifi_spec)
///     .lte(&lte_spec)
///     .seed(42)
///     .event(Time::from_secs(5), ScriptEvent::CutIface(WIFI_ADDR))
///     .build();
/// ```
pub struct SimBuilder<'a, C: Endpoint, S: Endpoint> {
    client: C,
    server: S,
    rows: Vec<Row<'a>>,
    seed: u64,
    script: Vec<(Time, ScriptEvent)>,
}

/// One interface as the builder holds it.
struct Row<'a> {
    addr: Addr,
    name: &'static str,
    spec: &'a LinkSpec,
    faults: FaultPlan,
}

impl<'a, C: Endpoint, S: Endpoint> SimBuilder<'a, C, S> {
    /// Add the next interface: its address, the name its pipelines and
    /// forensics carry, and its access link.
    pub fn iface(mut self, addr: Addr, name: &'static str, spec: &'a LinkSpec) -> Self {
        assert!(
            self.rows.iter().all(|r| r.addr != addr),
            "interface {addr} added twice"
        );
        self.rows.push(Row {
            addr,
            name,
            spec,
            faults: FaultPlan::new(),
        });
        self
    }

    /// The WiFi access link: the first row of the paper's testbed.
    pub fn wifi(self, spec: &'a LinkSpec) -> Self {
        self.iface(WIFI_ADDR, "wifi", spec)
    }

    /// The LTE access link: the second row of the paper's testbed.
    pub fn lte(self, spec: &'a LinkSpec) -> Self {
        self.iface(LTE_ADDR, "lte", spec)
    }

    /// Root seed for the link RNGs (defaults to 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Queue a scripted event for time `at`.
    pub fn event(mut self, at: Time, ev: ScriptEvent) -> Self {
        self.script.push((at, ev));
        self
    }

    /// Attach a deterministic fault timeline to an interface already
    /// added. May be called repeatedly — plans merge. The plan
    /// is compiled at [`SimBuilder::build`] time: blackouts, delay
    /// spikes and rate crushes become scripted link events; burst-loss
    /// and corruption episodes become episode-gated pipeline filters with
    /// RNG streams derived from the run seed. An empty plan changes
    /// nothing — runs without faults are bit-identical to builds that
    /// never called this.
    pub fn with_faults(mut self, iface: Addr, plan: FaultPlan) -> Self {
        let mut rows = self.rows.iter_mut();
        let Some(row) = rows.find(|r| r.addr == iface) else {
            panic!("with_faults: unknown interface {iface}");
        };
        row.faults.events.extend(plan.events);
        self
    }

    /// Construct the [`Sim`]. Panics if no interface was added.
    pub fn build(self) -> Sim<C, S> {
        assert!(!self.rows.is_empty(), "SimBuilder: no interface added");
        let mut root = DetRng::seed_from_u64(self.seed);
        let mut sim = Sim {
            now: Time::ZERO,
            client: self.client,
            server: self.server,
            ifaces: (self.rows.iter().enumerate())
                .map(|(i, row)| {
                    let mut iface = Iface {
                        addr: row.addr,
                        name: row.name,
                        link: Iface::link_up(&mut root, i, row.name, row.spec, Some(&row.faults)),
                        log: PacketLog::new(),
                        to_server: Vec::new(),
                        to_client: Vec::new(),
                        up_ready: None,
                        down_ready: None,
                    };
                    iface.refresh();
                    iface
                })
                .collect(),
            frame_seq: 0,
            script: Vec::new(),
            tx_scratch: Vec::new(),
            observer: None,
            delivered_bytes: 0,
            last_advance: Time::ZERO,
            script_fired: 0,
        };
        for (at, ev) in self.script {
            sim.schedule(at, ev);
        }
        for row in &self.rows {
            sim.schedule_fault_plan(row.addr, row.spec, &row.faults);
        }
        sim
    }
}

impl<C: ResetEndpoint, S: ResetEndpoint> Sim<C, S> {
    /// Re-arm this built world for a new, fault-free campaign run.
    ///
    /// The links come from `Iface::link_up`, the constructor a fresh
    /// [`Sim::builder`] build calls, and every other piece of run state
    /// goes back to its t = 0 value, so a re-armed world *is* a fresh
    /// one at the same parameters. What it keeps is allocations: the
    /// table and each row's frame scratch and the TX scratch keep their
    /// capacity, and both hosts are re-seeded in place through
    /// [`ResetEndpoint::reset_run`]. Panics unless the world is the
    /// two-row one a [`CampaignRun`] describes.
    pub fn reset(&mut self, run: &CampaignRun<'_>) {
        // No `..` in this pattern: a field added to `Sim` does not
        // compile until it is sorted here into kept or re-armed.
        let Sim {
            // Kept: the hosts (re-seeded) and the buffers (emptied).
            client,
            server,
            tx_scratch,
            script,
            // Re-armed: what `SimBuilder::build` gives a fresh world.
            // The table: each row keeps its address, name and scratch
            // and gets a fresh link and log.
            ifaces,
            now,
            frame_seq,
            observer,
            delivered_bytes,
            last_advance,
            script_fired,
        } = self;
        client.reset_run(run.seed);
        server.reset_run(run.seed);
        let specs = [run.wifi, run.lte];
        assert_eq!(ifaces.len(), specs.len(), "a CampaignRun is two rows");
        let mut root = DetRng::seed_from_u64(run.seed);
        for (i, (row, spec)) in ifaces.iter_mut().zip(specs).enumerate() {
            row.link = Iface::link_up(&mut root, i, row.name, spec, None);
            row.log = PacketLog::new();
            row.to_server.clear();
            row.to_client.clear();
            row.refresh();
        }
        tx_scratch.clear();
        script.clear();
        *now = Time::ZERO;
        *frame_seq = 0;
        *observer = None;
        *delivered_bytes = 0;
        *last_advance = Time::ZERO;
        *script_fired = 0;
    }
}

impl<C: Endpoint, S: Endpoint> Sim<C, S> {
    /// Start building a testbed; see [`SimBuilder`].
    pub fn builder<'a>(client: C, server: S) -> SimBuilder<'a, C, S> {
        SimBuilder {
            client,
            server,
            rows: Vec::new(),
            seed: 0,
            script: Vec::new(),
        }
    }

    /// Attach a conformance observer (replacing any previous one). The
    /// observer sees every transmitted segment and every completed step
    /// through shared references only; it cannot perturb the run.
    pub fn set_observer(&mut self, obs: Box<dyn SimObserver<C, S>>) {
        self.observer = Some(obs);
    }

    /// Schedule a scripted event. Keeps the script sorted via binary
    /// insertion. A [`ScriptEvent::Wakeup`] at an instant the script
    /// already wakes at is not inserted again: every event at one
    /// instant is applied in one step, so the steps are the same either
    /// way (a replay re-asks for its next exchange's instant on every
    /// step it waits).
    pub fn schedule(&mut self, at: Time, ev: ScriptEvent) {
        let pos = self.script.partition_point(|&(t, _)| t <= at);
        if ev == ScriptEvent::Wakeup && pos > 0 && self.script[pos - 1].0 == at {
            return;
        }
        self.script.insert(pos, (at, ev));
    }

    /// Compile a fault plan's blackout / delay-spike / rate-crush events
    /// into scripted link events (burst loss and corruption were already
    /// realized as pipeline filters at build time), plus one
    /// [`ScriptEvent::FaultMark`] per fault onset for the metrics.
    ///
    /// Rate crushes scale the spec's *average* rate; on a trace-driven
    /// link this replaces the trace with a fixed-rate service for the
    /// rest of the run (crushed, then restored to the trace's average) —
    /// an accepted approximation, since every fault-sweep scenario uses
    /// fixed-rate links.
    fn schedule_fault_plan(&mut self, iface: Addr, spec: &LinkSpec, plan: &FaultPlan) {
        for ev in &plan.events {
            self.schedule(ev.at, ScriptEvent::FaultMark);
            match ev.kind {
                FaultKind::Blackout { duration, notify } => {
                    self.schedule(ev.at, ScriptEvent::CutIface(iface));
                    if notify {
                        self.schedule(ev.at, ScriptEvent::NotifyIfaceDown(iface));
                    }
                    if let Some(d) = duration {
                        self.schedule(ev.at + d, ScriptEvent::RestoreIface(iface));
                        if notify {
                            self.schedule(ev.at + d, ScriptEvent::NotifyIfaceUp(iface));
                        }
                    }
                }
                FaultKind::BurstLoss { .. } | FaultKind::Corruption { .. } => {}
                FaultKind::DelaySpike { duration, extra } => {
                    let base = spec.rtt / 2;
                    self.schedule(ev.at, ScriptEvent::SetOneWayDelay(iface, base + extra));
                    self.schedule(ev.at + duration, ScriptEvent::SetOneWayDelay(iface, base));
                }
                FaultKind::RateCrush { duration, factor } => {
                    let up = spec.up.average_bps();
                    let down = spec.down.average_bps();
                    let crush = |bps: f64| ((bps * factor) as u64).max(1);
                    self.schedule(ev.at, ScriptEvent::SetUpRate(iface, crush(up)));
                    self.schedule(ev.at, ScriptEvent::SetDownRate(iface, crush(down)));
                    let end = ev.at + duration;
                    self.schedule(end, ScriptEvent::SetUpRate(iface, up as u64));
                    self.schedule(end, ScriptEvent::SetDownRate(iface, down as u64));
                }
            }
        }
    }

    /// The row for interface `addr`. Panics on an address no row has:
    /// a frame or a script event for an interface that does not exist is
    /// a scenario bug.
    pub fn iface(&mut self, addr: Addr) -> &mut Iface {
        let mut rows = self.ifaces.iter_mut();
        let Some(row) = rows.find(|r| r.addr == addr) else {
            panic!("unknown interface {addr}");
        };
        row
    }

    /// Push endpoint output into the pipelines, each segment typed in its
    /// frame (nothing is encoded here; see [`mpwifi_netem::Payload`]).
    /// When an observer is attached it witnesses each segment first; with
    /// `obs == None` this is the exact pre-observer code path.
    fn drain_tx(&mut self, mut obs: Option<&mut (dyn SimObserver<C, S> + 'static)>) {
        let now = self.now;
        // The scratch is moved out so the observer can borrow `self`
        // immutably while we iterate it; restored (drained, capacity
        // kept) at the end.
        let mut tx = std::mem::take(&mut self.tx_scratch);
        // Client: src interface selects the link's uplink.
        self.client.take_tx_into(now, &mut tx);
        if let Some(o) = obs.as_deref_mut() {
            for (src_iface, _dst, seg) in &tx {
                o.on_transmit(now, TxHost::Client, *src_iface, seg, self);
            }
        }
        for (src_iface, dst, seg) in tx.drain(..) {
            metrics::count(|m| m.segments_encoded += 1);
            self.frame_seq += 1;
            let frame = Frame::new(self.frame_seq, src_iface, dst, seg, now);
            let row = self.iface(src_iface);
            row.log.record(now, PacketDir::Tx, frame.wire_len());
            row.link.up.push(now, frame);
            row.up_ready = row.link.up.next_ready();
        }
        // Server: destination (a client interface) selects the downlink.
        self.server.take_tx_into(now, &mut tx);
        if let Some(o) = obs {
            for (_src, dst_iface, seg) in &tx {
                o.on_transmit(now, TxHost::Server, *dst_iface, seg, self);
            }
        }
        for (src, dst_iface, seg) in tx.drain(..) {
            metrics::count(|m| m.segments_encoded += 1);
            self.frame_seq += 1;
            let frame = Frame::new(self.frame_seq, src, dst_iface, seg, now);
            let row = self.iface(dst_iface);
            row.link.down.push(now, frame);
            row.down_ready = row.link.down.next_ready();
        }
        self.tx_scratch = tx;
    }

    fn apply_script(&mut self) {
        let due = self.script.partition_point(|&(t, _)| t <= self.now);
        if due == 0 {
            return;
        }
        self.script_fired += due as u64;
        for i in 0..due {
            // A link event ends by storing the row's horizons afresh.
            match self.script[i].1 {
                ScriptEvent::CutIface(iface) => {
                    let row = self.iface(iface);
                    row.link.set_up(false);
                    row.refresh();
                }
                ScriptEvent::RestoreIface(iface) => {
                    let row = self.iface(iface);
                    row.link.set_up(true);
                    row.refresh();
                }
                ScriptEvent::NotifyIfaceDown(iface) => {
                    let now = self.now;
                    self.client.notify_iface_down(now, iface);
                }
                ScriptEvent::Wakeup => {}
                ScriptEvent::SetDownRate(iface, bps) => {
                    let now = self.now;
                    let row = self.iface(iface);
                    row.link.down.set_rate(now, bps);
                    row.refresh();
                }
                ScriptEvent::SetUpRate(iface, bps) => {
                    let now = self.now;
                    let row = self.iface(iface);
                    row.link.up.set_rate(now, bps);
                    row.refresh();
                }
                ScriptEvent::NotifyIfaceUp(iface) => {
                    let now = self.now;
                    self.client.notify_iface_up(now, iface);
                }
                ScriptEvent::SetOneWayDelay(iface, delay) => {
                    let now = self.now;
                    let row = self.iface(iface);
                    row.link.up.set_delay(now, delay);
                    row.link.down.set_delay(now, delay);
                    row.refresh();
                }
                ScriptEvent::FaultMark => metrics::count(|m| m.faults_injected += 1),
            }
        }
        self.script.drain(..due);
    }

    /// The next step's instant: the earliest of a frame leaving a link
    /// (a lower bound, [`mpwifi_netem::Pipeline::next_ready`] — a frame
    /// moving from a link's queue into its delay is not an event), a
    /// host timer and the script. The links' part is read from the
    /// horizons stored as each direction last changed; debug builds
    /// check every one against its pipeline.
    fn next_event(&self) -> Option<Time> {
        if cfg!(debug_assertions) {
            for row in &self.ifaces {
                let live = (row.link.up.next_ready(), row.link.down.next_ready());
                assert_eq!(
                    (row.up_ready, row.down_ready),
                    live,
                    "{}: stale link horizon",
                    row.name
                );
            }
        }
        let links = (self.ifaces.iter()).fold(None, |t, r| {
            Time::earlier(t, Time::earlier(r.up_ready, r.down_ready))
        });
        let hosts = Time::earlier(self.client.next_timer(), self.server.next_timer());
        let script = self.script.first().map(|&(t, _)| t);
        Time::earlier(Time::earlier(links, hosts), script)
    }

    /// Advance to the next event. Returns `false` when the simulation has
    /// fully quiesced.
    pub fn step(&mut self) -> bool {
        // The observer is moved out for the duration of the step so it
        // can borrow `self` immutably while the step mutates the rest.
        let mut obs = self.observer.take();
        let more = self.step_with(obs.as_deref_mut());
        self.observer = obs;
        more
    }

    fn step_with(&mut self, mut obs: Option<&mut (dyn SimObserver<C, S> + 'static)>) -> bool {
        self.drain_tx(obs.as_deref_mut());
        let Some(next) = self.next_event() else {
            return false;
        };
        metrics::count(|m| m.events_popped += 1);
        debug_assert!(next >= self.now, "time went backwards");
        self.now = self.now.max(next);
        if let Some(breach) = supervise::tick(self.now.as_micros(), self.delivered_bytes) {
            let snap = self.forensic_snapshot(breach.label());
            std::panic::panic_any(supervise::BreachReport {
                breach,
                forensics: snap.render(),
            });
        }
        self.apply_script();

        // Move frames through the links and deliver exits. Only a
        // direction whose stored horizon has come is polled (one that
        // has not would return at once), and its horizon is stored
        // afresh; the scratch buffers are reused (drained, never
        // dropped) across steps.
        let now = self.now;
        let (mut exits, mut high_water) = (0, 0);
        for row in &mut self.ifaces {
            if row.up_ready.is_some_and(|t| t <= now) {
                row.link.up.poll_into(now, &mut row.to_server);
                row.up_ready = row.link.up.next_ready();
            }
            if row.down_ready.is_some_and(|t| t <= now) {
                row.link.down.poll_into(now, &mut row.to_client);
                row.down_ready = row.link.down.next_ready();
            }
            exits += row.to_server.len() + row.to_client.len();
            high_water = high_water.max(row.to_server.len()).max(row.to_client.len());
        }
        if exits > 0 {
            metrics::count(|m| {
                m.frames_forwarded += exits as u64;
                m.scratch_high_water = m.scratch_high_water.max(high_water as u64);
            });
        }
        // Same delivery order as the pre-scratch-buffer driver: every
        // row's server exits, then every row's client exits.
        let mut delivered = 0u64;
        for row in &mut self.ifaces {
            delivered += deliver_frames(now, &mut row.to_server, None, &mut self.server);
        }
        for row in &mut self.ifaces {
            let log = Some(&mut row.log);
            delivered += deliver_frames(now, &mut row.to_client, log, &mut self.client);
        }
        if delivered > 0 {
            self.delivered_bytes += delivered;
            self.last_advance = now;
        }

        self.client.on_timers(now);
        self.server.on_timers(now);
        self.drain_tx(obs.as_deref_mut());
        if let Some(o) = obs {
            o.after_step(self);
        }
        true
    }

    /// Run until `pred` holds, the simulation quiesces, or `deadline`
    /// passes, and say whether `pred` held. The clock never advances
    /// past `deadline` (a step whose next event lies beyond it is not
    /// taken), so callers can treat `deadline` as exact. A run that
    /// stops making progress is ended by the supervision watchdog's
    /// stall TTL ([`supervise::tick`]), not here.
    pub fn run_until<F: FnMut(&mut Self) -> bool>(&mut self, mut pred: F, deadline: Time) -> bool {
        loop {
            if pred(self) {
                return true;
            }
            if self.now >= deadline || self.next_event().is_none_or(|t| t > deadline) {
                return false;
            }
            if !self.step() {
                return pred(self);
            }
        }
    }

    /// Capture the forensic state a watchdog breach reports. Cheap
    /// relative to a breach (strings only), and entirely deterministic
    /// in `(scenario, seed)`.
    pub(crate) fn forensic_snapshot(&self, reason: &'static str) -> StallSnapshot {
        StallSnapshot {
            reason,
            now: self.now,
            last_advance: self.last_advance,
            delivered_bytes: self.delivered_bytes,
            script_fired: self.script_fired,
            script_pending: self.script.len(),
            next_script: self.script.first().map(|&(t, _)| t),
            ifaces: (self.ifaces.iter())
                .map(|row| IfaceSnapshot {
                    name: row.name,
                    queue: (row.link.backlog(), row.link.next_ready()),
                    last_activity: row.log.last_activity(),
                })
                .collect(),
            client_timer: self.client.next_timer(),
            server_timer: self.server.next_timer(),
            client_state: self.client.health(),
            server_state: self.server.health(),
        }
    }

    /// Cumulative payload bytes delivered to either endpoint.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }
}

/// Deliver drained frames to a host: record them in the interface log
/// (client-side only — server exits are not logged), take the segment
/// out of the frame (typed as it was sent, or strictly decoded if a
/// filter made bytes of it), count delivered payload bytes, and hand
/// the segment to the endpoint. One
/// code path for every (link, direction) buffer; draining leaves the
/// scratch buffer's capacity in place for the next step.
fn deliver_frames<E: Endpoint>(
    now: Time,
    frames: &mut Vec<Frame>,
    mut log: Option<&mut PacketLog>,
    host: &mut E,
) -> u64 {
    let mut delivered = 0u64;
    for frame in frames.drain(..) {
        if let Some(log) = log.as_deref_mut() {
            log.record(now, PacketDir::Rx, frame.wire_len());
        }
        if let Some(seg) = frame.payload.into_segment() {
            metrics::count(|m| m.bytes_delivered += seg.payload.len() as u64);
            delivered += seg.payload.len() as u64;
            host.on_segment(now, &seg, frame.src, frame.dst);
        } else {
            // Undecodable wire image (a corruption fault): a counted
            // drop, never a panic. The sender's retransmit machinery
            // recovers.
            metrics::count(|m| m.segments_corrupted_dropped += 1);
        }
    }
    delivered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{TcpClientHost, TcpServerHost};
    use crate::{SERVER_ADDR, SERVER_PORT, WIFI_ADDR};
    use bytes::Bytes;
    use mpwifi_simcore::Dur;
    use mpwifi_tcp::conn::TcpConfig;

    fn specs() -> (LinkSpec, LinkSpec) {
        (
            LinkSpec::symmetric(20_000_000, Dur::from_millis(20)),
            LinkSpec::symmetric(10_000_000, Dur::from_millis(60)),
        )
    }

    #[test]
    fn tcp_download_over_wifi_completes() {
        let (wifi, lte) = specs();
        let client = TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, 1);
        let server = TcpServerHost::new(SERVER_ADDR, SERVER_PORT, TcpConfig::default(), 2);
        let mut sim = Sim::builder(client, server)
            .wifi(&wifi)
            .lte(&lte)
            .seed(42)
            .build();
        let id = sim
            .client
            .connect(Time::ZERO, TcpConfig::default(), SERVER_PORT);
        // Server sends 100 kB when the connection is accepted.
        let mut sent = false;
        let ok = sim.run_until(
            |sim| {
                if !sent {
                    for sid in sim.server.stack.take_accepted() {
                        let conn = sim.server.stack.conn_mut(sid).unwrap();
                        conn.send(Bytes::from(vec![7u8; 100_000]));
                        conn.close(Time::ZERO);
                        sent = true;
                    }
                }
                sim.client
                    .stack
                    .conn(id)
                    .is_some_and(|c| c.delivered_bytes() == 100_000)
            },
            Time::from_secs(30),
        );
        assert!(ok, "download did not complete");
        // All traffic used WiFi; LTE stayed silent.
        assert!(!sim.ifaces[0].log.is_empty());
        assert_eq!(sim.ifaces[1].log.len(), 0);
        // Throughput sanity: 100 kB over a 20 Mbit/s link with 20 ms RTT
        // should finish well under a second yet take at least the
        // serialization + handshake time.
        assert!(sim.now > Time::from_millis(40));
        assert!(sim.now < Time::from_secs(1));
    }

    #[test]
    fn scripted_cut_blackholes_mid_transfer() {
        let (wifi, lte) = specs();
        let client = TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, 1);
        let server = TcpServerHost::new(SERVER_ADDR, SERVER_PORT, TcpConfig::default(), 2);
        let mut sim = Sim::builder(client, server)
            .wifi(&wifi)
            .lte(&lte)
            .seed(42)
            .build();
        let id = sim
            .client
            .connect(Time::ZERO, TcpConfig::default(), SERVER_PORT);
        sim.schedule(Time::from_millis(100), ScriptEvent::CutIface(WIFI_ADDR));
        let mut sent = false;
        let done = sim.run_until(
            |sim| {
                if !sent {
                    for sid in sim.server.stack.take_accepted() {
                        let c = sim.server.stack.conn_mut(sid).unwrap();
                        c.send(Bytes::from(vec![7u8; 5_000_000]));
                        c.close(Time::ZERO);
                        sent = true;
                    }
                }
                sim.client
                    .stack
                    .conn(id)
                    .is_some_and(|c| c.delivered_bytes() == 5_000_000)
            },
            Time::from_secs(20),
        );
        assert!(!done, "single-path TCP cannot survive its only link dying");
    }

    #[test]
    fn set_up_rate_script_event_throttles_uploads() {
        let (wifi, lte) = specs();
        let client = TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, 1);
        let server = TcpServerHost::new(SERVER_ADDR, SERVER_PORT, TcpConfig::default(), 2);
        let mut sim = Sim::builder(client, server)
            .wifi(&wifi)
            .lte(&lte)
            .seed(42)
            .build();
        // Uplink collapses to 200 kbit/s almost immediately.
        sim.schedule(
            Time::from_millis(50),
            ScriptEvent::SetUpRate(WIFI_ADDR, 200_000),
        );
        let id = sim
            .client
            .connect(Time::ZERO, TcpConfig::default(), SERVER_PORT);
        {
            let conn = sim.client.stack.conn_mut(id).unwrap();
            conn.send(Bytes::from(vec![5u8; 200_000]));
        }
        let done = sim.run_until(
            |sim| {
                let mut total = 0;
                for sid in sim.server.stack.socket_ids() {
                    if let Some(c) = sim.server.stack.conn_mut(sid) {
                        let _ = c.take_delivered();
                        total += c.delivered_bytes();
                    }
                }
                total >= 200_000
            },
            Time::from_secs(4),
        );
        // 200 kB at 200 kbit/s is ~8 s; it must NOT finish within 4 s.
        assert!(!done, "throttle had no effect");
    }

    #[test]
    fn run_until_never_oversteps_its_deadline() {
        let (wifi, lte) = specs();
        let client = TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, 1);
        let server = TcpServerHost::new(SERVER_ADDR, SERVER_PORT, TcpConfig::default(), 2);
        let mut sim = Sim::builder(client, server)
            .wifi(&wifi)
            .lte(&lte)
            .seed(42)
            .build();
        // Only event: a wakeup far beyond the deadline.
        sim.schedule(Time::from_secs(100), ScriptEvent::Wakeup);
        let deadline = Time::from_millis(500);
        sim.run_until(|_| false, deadline);
        assert!(
            sim.now <= deadline,
            "clock overshot the deadline: {}",
            sim.now
        );
    }

    #[test]
    fn two_identical_wakeups_are_one_entry_and_one_step() {
        let (wifi, lte) = specs();
        let client = TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, 1);
        let server = TcpServerHost::new(SERVER_ADDR, SERVER_PORT, TcpConfig::default(), 2);
        let mut sim = Sim::builder(client, server).wifi(&wifi).lte(&lte).build();
        let at = Time::from_millis(30);
        sim.schedule(at, ScriptEvent::Wakeup);
        sim.schedule(at, ScriptEvent::Wakeup);
        assert_eq!(sim.forensic_snapshot("test").script_pending, 1);
        // Any other event at that instant is still its own entry.
        sim.schedule(at, ScriptEvent::FaultMark);
        sim.schedule(at, ScriptEvent::Wakeup);
        assert_eq!(sim.forensic_snapshot("test").script_pending, 2);
        assert!(sim.step());
        assert_eq!(sim.now, at);
        let snap = sim.forensic_snapshot("test");
        assert_eq!((snap.script_fired, snap.script_pending), (2, 0));
        assert!(!sim.step(), "nothing left after the one step");
    }

    #[test]
    fn a_clean_link_carries_every_segment_typed() {
        // Frame transport reuses the scratch buffers (drained, never
        // dropped), and no segment is encoded on its way: with no filter
        // that alters bytes, not one wire image is made.
        mpwifi_simcore::metrics::reset();
        let (wifi, lte) = specs();
        let client = TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, 1);
        let server = TcpServerHost::new(SERVER_ADDR, SERVER_PORT, TcpConfig::default(), 2);
        let mut sim = Sim::builder(client, server)
            .wifi(&wifi)
            .lte(&lte)
            .seed(42)
            .build();
        let id = sim
            .client
            .connect(Time::ZERO, TcpConfig::default(), SERVER_PORT);
        let mut sent = false;
        let ok = sim.run_until(
            |sim| {
                if !sent {
                    for sid in sim.server.stack.take_accepted() {
                        let conn = sim.server.stack.conn_mut(sid).unwrap();
                        conn.send(Bytes::from(vec![3u8; 4_000_000]));
                        conn.close(Time::ZERO);
                        sent = true;
                    }
                }
                // Consume delivered data like a real application.
                sim.client.stack.conn_mut(id).is_some_and(|c| {
                    let _ = c.take_delivered();
                    c.delivered_bytes() == 4_000_000
                })
            },
            Time::from_secs(60),
        );
        assert!(ok, "4 MB download did not complete");
        let m = mpwifi_simcore::metrics::snapshot();
        assert!(
            m.segments_encoded > 2_800,
            "a 4 MB transfer sends many segments (got {})",
            m.segments_encoded
        );
        assert_eq!(
            (m.enc_buffers_reused, m.enc_buffers_allocated),
            (0, 0),
            "nothing went through an encoder"
        );
        assert_eq!(m.segments_corrupted_dropped, 0);
        assert!(
            m.scratch_high_water >= 1,
            "scratch buffers saw at least one frame"
        );
    }

    #[test]
    fn fault_free_builder_with_empty_plan_matches_plain_build() {
        let run_plain = || {
            let (wifi, lte) = specs();
            let client = TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, 1);
            let server = TcpServerHost::new(SERVER_ADDR, SERVER_PORT, TcpConfig::default(), 2);
            Sim::builder(client, server)
                .wifi(&wifi)
                .lte(&lte)
                .seed(42)
                .build()
        };
        let run_built = || {
            let (wifi, lte) = specs();
            let client = TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, 1);
            let server = TcpServerHost::new(SERVER_ADDR, SERVER_PORT, TcpConfig::default(), 2);
            Sim::builder(client, server)
                .wifi(&wifi)
                .lte(&lte)
                .seed(42)
                .with_faults(WIFI_ADDR, FaultPlan::new())
                .build()
        };
        let drive = |mut sim: Sim<TcpClientHost, TcpServerHost>| {
            let id = sim
                .client
                .connect(Time::ZERO, TcpConfig::default(), SERVER_PORT);
            let mut sent = false;
            sim.run_until(
                |sim| {
                    if !sent {
                        for sid in sim.server.stack.take_accepted() {
                            let c = sim.server.stack.conn_mut(sid).unwrap();
                            c.send(Bytes::from(vec![9u8; 150_000]));
                            c.close(Time::ZERO);
                            sent = true;
                        }
                    }
                    sim.client
                        .stack
                        .conn(id)
                        .is_some_and(|c| c.delivered_bytes() == 150_000)
                },
                Time::from_secs(30),
            );
            (
                sim.now,
                sim.ifaces[0].log.len(),
                sim.ifaces[0].log.bytes(PacketDir::Rx),
            )
        };
        assert_eq!(
            drive(run_plain()),
            drive(run_built()),
            "an empty fault plan must not perturb the run"
        );
    }

    #[test]
    fn corruption_fault_is_survivable_and_counted() {
        metrics::reset();
        let (wifi, lte) = specs();
        let client = TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, 1);
        let server = TcpServerHost::new(SERVER_ADDR, SERVER_PORT, TcpConfig::default(), 2);
        let mut sim = Sim::builder(client, server)
            .wifi(&wifi)
            .lte(&lte)
            .seed(42)
            .with_faults(
                WIFI_ADDR,
                FaultPlan::new().corruption(Time::ZERO, Dur::from_secs(60), 0.05),
            )
            .build();
        let id = sim
            .client
            .connect(Time::ZERO, TcpConfig::default(), SERVER_PORT);
        let data: Vec<u8> = (0..300_000).map(|i| (i % 251) as u8).collect();
        let mut sent = false;
        let ok = sim.run_until(
            |sim| {
                if !sent {
                    for sid in sim.server.stack.take_accepted() {
                        let c = sim.server.stack.conn_mut(sid).unwrap();
                        c.send(Bytes::from(data.clone()));
                        c.close(Time::ZERO);
                        sent = true;
                    }
                }
                sim.client
                    .stack
                    .conn(id)
                    .is_some_and(|c| c.delivered_bytes() == 300_000)
            },
            Time::from_secs(60),
        );
        assert!(
            ok,
            "retransmissions must carry the transfer through corruption"
        );
        let got: Vec<u8> = sim
            .client
            .stack
            .conn_mut(id)
            .unwrap()
            .take_delivered()
            .concat();
        assert_eq!(got, data, "no corrupted byte may reach the stream");
        let m = metrics::snapshot();
        assert_eq!(m.faults_injected, 1, "one corruption episode");
        assert!(
            m.segments_corrupted_dropped > 0,
            "flipped wire images must be rejected and counted"
        );
    }

    #[test]
    fn delay_spike_fault_stretches_the_handshake_then_restores() {
        let handshake_at = |spike: bool| {
            let (wifi, lte) = specs();
            let client = TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, 1);
            let server = TcpServerHost::new(SERVER_ADDR, SERVER_PORT, TcpConfig::default(), 2);
            let mut b = Sim::builder(client, server).wifi(&wifi).lte(&lte).seed(42);
            if spike {
                b = b.with_faults(
                    WIFI_ADDR,
                    FaultPlan::new().delay_spike(
                        Time::ZERO,
                        Dur::from_secs(1),
                        Dur::from_millis(100),
                    ),
                );
            }
            let mut sim = b.build();
            let id = sim
                .client
                .connect(Time::ZERO, TcpConfig::default(), SERVER_PORT);
            sim.run_until(
                |sim| {
                    sim.client
                        .stack
                        .conn(id)
                        .is_some_and(|c| c.stats().established_at.is_some())
                },
                Time::from_secs(5),
            );
            sim.client
                .stack
                .conn(id)
                .unwrap()
                .stats()
                .established_at
                .expect("handshake completed")
        };
        let plain = handshake_at(false);
        let spiked = handshake_at(true);
        // WiFi one-way is 10 ms; the spike raises it to 110 ms, so the
        // SYN / SYN-ACK exchange costs at least ~220 ms instead of ~40.
        assert!(plain < Time::from_millis(100), "baseline handshake {plain}");
        assert!(
            spiked >= Time::from_millis(200),
            "spiked handshake {spiked} should reflect the extra delay"
        );
    }

    #[test]
    fn rate_crush_fault_throttles_then_restores() {
        let (wifi, lte) = specs();
        let client = TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, 1);
        let server = TcpServerHost::new(SERVER_ADDR, SERVER_PORT, TcpConfig::default(), 2);
        let mut sim = Sim::builder(client, server)
            .wifi(&wifi)
            .lte(&lte)
            .seed(42)
            .with_faults(
                WIFI_ADDR,
                FaultPlan::new().rate_crush(Time::from_millis(50), Dur::from_secs(4), 0.01),
            )
            .build();
        let id = sim
            .client
            .connect(Time::ZERO, TcpConfig::default(), SERVER_PORT);
        {
            let conn = sim.client.stack.conn_mut(id).unwrap();
            conn.send(Bytes::from(vec![5u8; 200_000]));
        }
        let server_total = |sim: &mut Sim<TcpClientHost, TcpServerHost>| {
            let mut total = 0;
            for sid in sim.server.stack.socket_ids() {
                if let Some(c) = sim.server.stack.conn_mut(sid) {
                    let _ = c.take_delivered();
                    total += c.delivered_bytes();
                }
            }
            total
        };
        // 200 kB at 1% of 20 Mbit/s (200 kbit/s) is ~8 s: the upload must
        // NOT finish while the crush window is open...
        let done_early = sim.run_until(|sim| server_total(sim) >= 200_000, Time::from_secs(4));
        assert!(!done_early, "crush had no effect");
        // ...but completes quickly once the original rate is restored.
        let done = sim.run_until(|sim| server_total(sim) >= 200_000, Time::from_secs(10));
        assert!(done, "rate must be restored after the crush window");
    }

    #[test]
    fn silent_lte_blackout_recovers_onto_wifi_backup() {
        // The PR's acceptance scenario (Figure 15h analogue): LTE-primary
        // download with WiFi backup, silent LTE blackout at t = 300 ms,
        // RTO-count activation. The 1 MB download must complete with the
        // stream intact, and the fault counters must tell the story.
        use crate::endpoint::{MptcpClientHost, MptcpServerHost};
        use crate::LTE_ADDR;
        use mpwifi_mptcp::{BackupActivation, Mode, MptcpConfig};
        metrics::reset();
        let wifi = LinkSpec::symmetric(2_000_000, Dur::from_millis(30));
        let lte = LinkSpec::asymmetric(1_000_000, 1_600_000, Dur::from_millis(60));
        let cfg = MptcpConfig {
            mode: Mode::Backup,
            backup_activation: BackupActivation::OnRtoCount(2),
            ..MptcpConfig::default()
        };
        let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], 3);
        let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), 5);
        let mut sim = Sim::builder(client, server)
            .wifi(&wifi)
            .lte(&lte)
            .seed(42)
            .with_faults(
                LTE_ADDR,
                FaultPlan::new().blackout_forever(Time::from_millis(300)),
            )
            .build();
        let c = sim.client.open(Time::ZERO, cfg, LTE_ADDR, SERVER_PORT);
        let data: Vec<u8> = (0..1_000_000).map(|i| (i % 239) as u8).collect();
        let mut sent = false;
        let ok = sim.run_until(
            |sim| {
                if !sent {
                    for sid in sim.server.take_accepted() {
                        sim.server.conn_mut(sid).send(Bytes::from(data.clone()));
                        sim.server.conn_mut(sid).close(Time::ZERO);
                        sent = true;
                    }
                }
                sim.client.conn(c).delivered_bytes() == 1_000_000
            },
            Time::from_secs(120),
        );
        assert!(ok, "download must complete over the WiFi backup");
        let got: Vec<u8> = sim.client.conn_mut(c).take_delivered().concat();
        assert_eq!(got, data, "stream must be intact across the failover");
        let m = metrics::snapshot();
        assert_eq!(m.faults_injected, 1);
        assert!(
            m.subflows_declared_dead >= 1,
            "the server must declare the LTE subflow dead from RTOs"
        );
        assert!(m.reinjections >= 1, "unacked data must be reinjected");
        assert!(
            m.recovery_time_us > 0,
            "the recovery episode must be timed and reported"
        );
    }

    #[test]
    fn notified_blackout_restore_rejoins_the_subflow() {
        // Figure 15c/d analogue extended with restore: WiFi-primary
        // download, notified WiFi blackout for 2 s mid-transfer. The
        // client must fail over to LTE, then REJOIN WiFi (a third
        // subflow, on a fresh port) once the interface comes back.
        use crate::endpoint::{MptcpClientHost, MptcpServerHost};
        use crate::LTE_ADDR;
        use mpwifi_mptcp::MptcpConfig;
        let wifi = LinkSpec::symmetric(2_000_000, Dur::from_millis(30));
        let lte = LinkSpec::asymmetric(1_000_000, 1_600_000, Dur::from_millis(60));
        let cfg = MptcpConfig::default(); // Full mode, notify activation
        let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], 3);
        let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), 5);
        let mut sim = Sim::builder(client, server)
            .wifi(&wifi)
            .lte(&lte)
            .seed(42)
            .with_faults(
                WIFI_ADDR,
                FaultPlan::new().notified_blackout(Time::from_millis(300), Dur::from_secs(2)),
            )
            .build();
        let c = sim.client.open(Time::ZERO, cfg, WIFI_ADDR, SERVER_PORT);
        let data: Vec<u8> = (0..3_000_000).map(|i| (i % 241) as u8).collect();
        let mut sent = false;
        let ok = sim.run_until(
            |sim| {
                if !sent {
                    for sid in sim.server.take_accepted() {
                        sim.server.conn_mut(sid).send(Bytes::from(data.clone()));
                        sim.server.conn_mut(sid).close(Time::ZERO);
                        sent = true;
                    }
                }
                sim.client.conn(c).delivered_bytes() == 3_000_000
            },
            Time::from_secs(120),
        );
        assert!(ok, "transfer survives the blackout window");
        let got: Vec<u8> = sim.client.conn_mut(c).take_delivered().concat();
        assert_eq!(got, data, "stream intact across failover and rejoin");
        let stats = sim.client.conn(c).subflow_stats();
        assert_eq!(
            stats.len(),
            3,
            "restore must trigger a rejoin subflow: {stats:?}"
        );
        assert_eq!(stats[2].iface, WIFI_ADDR);
        assert!(
            stats[2].established_at.is_some(),
            "the rejoined subflow must complete its MP_JOIN handshake"
        );
        assert!(
            stats[2].established_at.unwrap() > Time::from_millis(2300),
            "the rejoin happens only after the restore"
        );
    }

    #[test]
    fn a_third_interface_is_one_more_row() {
        // WiFi + 2×LTE (the dual-LTE pair of Mohan et al. beside the
        // paper's WiFi): the table, the delivery loops and the MPTCP
        // path manager take a third row as they take the second.
        use crate::endpoint::{MptcpClientHost, MptcpServerHost};
        use crate::LTE_ADDR;
        use mpwifi_mptcp::MptcpConfig;
        let wifi = LinkSpec::symmetric(2_000_000, Dur::from_millis(30));
        let lte = LinkSpec::asymmetric(1_000_000, 1_600_000, Dur::from_millis(60));
        let lte2 = LinkSpec::symmetric(1_200_000, Dur::from_millis(80));
        let cfg = MptcpConfig::default(); // Full mode
        let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR, Addr(3)], 3);
        let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), 5);
        let cut_at = Time::from_millis(800);
        let mut sim = Sim::builder(client, server)
            .wifi(&wifi)
            .lte(&lte)
            .iface(Addr(3), "lte2", &lte2)
            .seed(42)
            .event(cut_at, ScriptEvent::CutIface(WIFI_ADDR))
            .event(cut_at, ScriptEvent::NotifyIfaceDown(WIFI_ADDR))
            .build();
        let c = sim.client.open(Time::ZERO, cfg, WIFI_ADDR, SERVER_PORT);
        let data: Vec<u8> = (0..1_000_000).map(|i| (i % 233) as u8).collect();
        let mut sent = false;
        let ok = sim.run_until(
            |sim| {
                if !sent {
                    for sid in sim.server.take_accepted() {
                        sim.server.conn_mut(sid).send(Bytes::from(data.clone()));
                        sim.server.conn_mut(sid).close(Time::ZERO);
                        sent = true;
                    }
                }
                sim.client.conn(c).delivered_bytes() == 1_000_000
            },
            Time::from_secs(120),
        );
        assert!(ok, "the two LTE rows carry the transfer past the cut");
        let got: Vec<u8> = sim.client.conn_mut(c).take_delivered().concat();
        assert_eq!(got, data, "stream intact across three subflows");
        assert_eq!(sim.client.conn(c).subflow_stats().len(), 3);
        for row in &sim.ifaces {
            let carried = row.log.bytes(PacketDir::Tx) + row.log.bytes(PacketDir::Rx);
            assert!(carried > 10_000, "{} carried {carried} B", row.name);
        }
        let rendered = sim.forensic_snapshot("test").render();
        let line = |prefix: &str| rendered.lines().find(|l| l.starts_with(prefix));
        assert!(
            line("event queue:").is_some_and(|l| l.contains(", lte2 ")),
            "{rendered}"
        );
        assert!(line("iface lte2:").is_some(), "{rendered}");
        // The hosts know addresses, not the table's names.
        assert!(rendered.contains("subflow iface 3 (id 3)"), "{rendered}");
    }

    #[test]
    fn fault_scenarios_are_deterministic() {
        let run = || {
            metrics::reset();
            let (wifi, lte) = specs();
            let client = TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, 1);
            let server = TcpServerHost::new(SERVER_ADDR, SERVER_PORT, TcpConfig::default(), 2);
            let mut sim = Sim::builder(client, server)
                .wifi(&wifi)
                .lte(&lte)
                .seed(7)
                .with_faults(
                    WIFI_ADDR,
                    FaultPlan::new()
                        .burst_loss(
                            Time::from_millis(200),
                            Dur::from_millis(400),
                            mpwifi_netem::GilbertElliott::default(),
                        )
                        .corruption(Time::from_millis(800), Dur::from_millis(400), 0.2)
                        .delay_spike(
                            Time::from_millis(1400),
                            Dur::from_millis(300),
                            Dur::from_millis(50),
                        )
                        .rate_crush(Time::from_millis(1800), Dur::from_millis(500), 0.1),
                )
                .build();
            let id = sim
                .client
                .connect(Time::ZERO, TcpConfig::default(), SERVER_PORT);
            let mut sent = false;
            sim.run_until(
                |sim| {
                    if !sent {
                        for sid in sim.server.stack.take_accepted() {
                            let c = sim.server.stack.conn_mut(sid).unwrap();
                            c.send(Bytes::from(vec![4u8; 400_000]));
                            c.close(Time::ZERO);
                            sent = true;
                        }
                    }
                    sim.client
                        .stack
                        .conn(id)
                        .is_some_and(|c| c.delivered_bytes() == 400_000)
                },
                Time::from_secs(60),
            );
            (
                sim.now,
                sim.ifaces[0].log.len(),
                sim.ifaces[0].log.bytes(PacketDir::Rx),
                format!("{:?}", metrics::snapshot()),
            )
        };
        assert_eq!(run(), run(), "fault runs are a pure function of the seed");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let (wifi, lte) = specs();
            let client = TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, 1);
            let server = TcpServerHost::new(SERVER_ADDR, SERVER_PORT, TcpConfig::default(), 2);
            let mut sim = Sim::builder(client, server)
                .wifi(&wifi)
                .lte(&lte)
                .seed(42)
                .build();
            let id = sim
                .client
                .connect(Time::ZERO, TcpConfig::default(), SERVER_PORT);
            let mut sent = false;
            sim.run_until(
                |sim| {
                    if !sent {
                        for sid in sim.server.stack.take_accepted() {
                            let c = sim.server.stack.conn_mut(sid).unwrap();
                            c.send(Bytes::from(vec![1u8; 300_000]));
                            c.close(Time::ZERO);
                            sent = true;
                        }
                    }
                    sim.client
                        .stack
                        .conn(id)
                        .is_some_and(|c| c.delivered_bytes() == 300_000)
                },
                Time::from_secs(30),
            );
            (
                sim.now,
                sim.ifaces[0].log.len(),
                sim.ifaces[0].log.bytes(PacketDir::Rx),
            )
        };
        assert_eq!(run(), run(), "same seed, same scenario, same outcome");
    }

    /// Build the Figure 15g livelock: WiFi-primary MPTCP download in
    /// Backup/OnNotify mode with a silent (unnotified) WiFi blackout
    /// mid-transfer. Nothing ever declares the primary subflow dead, so
    /// the backup never activates and the transfer freezes forever.
    fn stalled_backup_sim() -> (
        Sim<crate::endpoint::MptcpClientHost, crate::endpoint::MptcpServerHost>,
        usize,
    ) {
        use crate::endpoint::{MptcpClientHost, MptcpServerHost};
        use crate::LTE_ADDR;
        use mpwifi_mptcp::{BackupActivation, Mode, MptcpConfig};
        let (wifi, lte) = specs();
        let cfg = MptcpConfig {
            mode: Mode::Backup,
            backup_activation: BackupActivation::OnNotify,
            ..MptcpConfig::default()
        };
        let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], 3);
        let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), 5);
        let mut sim = Sim::builder(client, server)
            .wifi(&wifi)
            .lte(&lte)
            .seed(42)
            .with_faults(
                WIFI_ADDR,
                FaultPlan::new().blackout_forever(Time::from_millis(200)),
            )
            .build();
        let c = sim.client.open(Time::ZERO, cfg, WIFI_ADDR, SERVER_PORT);
        (sim, c)
    }

    #[test]
    fn silent_blackout_livelock_is_ended_by_the_watchdog_with_forensics() {
        use mpwifi_simcore::{BreachReport, WatchdogConfig};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (mut sim, c) = stalled_backup_sim();
        let mut sent = false;
        let armed = supervise::arm_scoped(&WatchdogConfig {
            stall_ttl_us: Some(Dur::from_secs(5).as_micros()),
            ..WatchdogConfig::default()
        });
        let caught = catch_unwind(AssertUnwindSafe(|| {
            sim.run_until(
                |sim| {
                    if !sent {
                        for sid in sim.server.take_accepted() {
                            sim.server
                                .conn_mut(sid)
                                .send(Bytes::from(vec![9u8; 2_000_000]));
                            sim.server.conn_mut(sid).close(Time::ZERO);
                            sent = true;
                        }
                    }
                    sim.client.conn(c).delivered_bytes() == 2_000_000
                },
                Time::from_secs(30),
            )
        }));
        drop(armed);
        let report = caught
            .expect_err("a frozen transfer must breach the stall TTL")
            .downcast::<BreachReport>()
            .expect("the breach panics with a BreachReport");
        assert_eq!(report.breach.label(), "stall");
        assert!(sim.delivered_bytes() > 0, "the transfer started");
        // The forensics name the interface that went dark.
        let rendered = &report.forensics;
        assert!(
            rendered
                .lines()
                .any(|l| l.starts_with("iface wifi:") && l.contains("(stale for ")),
            "forensics must name the dead interface:\n{rendered}"
        );
        assert!(
            rendered.contains("subflow wifi"),
            "health lines must list the wifi subflow:\n{rendered}"
        );
        assert!(
            rendered.contains("fault plan: 2 scripted events fired"),
            "fault mark + cut event fired:\n{rendered}"
        );
    }
}
