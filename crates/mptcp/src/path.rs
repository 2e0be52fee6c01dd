//! The MPTCP control plane: which configured paths should have a
//! subflow right now, with which flags, and when a subflow counts as
//! dead.
//!
//! [`Mode`] and [`BackupActivation`] are the caller-facing presets. A
//! `PathManager` lowers them once, when the connection is created, to
//! the vocabulary of the Linux path manager (`ip mptcp endpoint add …
//! subflow backup`): one row of path flags, `PathFlags`, and a death rule.
//! The connection then asks it one question at each policy event — the
//! primary came up, a subflow died, an interface was notified up —
//! *which paths should have a live subflow and do not?* — and opens what
//! it answers, instead of branching on the mode. The server end never
//! initiates a subflow: its manager has no paths, only the death rule.

use crate::conn::MptcpConfig;
use mpwifi_netem::Addr;

/// The paper's two operating modes (Section 3.6), plus the
/// break-before-make alternative the paper points to (Paasch et al.,
/// "Exploring mobile/WiFi handover with multipath TCP") as the way to
/// avoid Backup mode's tail-energy cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Transmit on all subflows at any time.
    Full,
    /// The secondary subflow is established but carries no data until
    /// every regular subflow is dead.
    Backup,
    /// The secondary subflow is **not established at all** until every
    /// regular subflow is dead; recovery then costs its handshake
    /// (two extra round trips vs Backup mode) but the backup radio never
    /// wakes up during normal operation — no SYN/FIN tail energy.
    SinglePath,
}

/// How a sender learns that a silently black-holed subflow is dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackupActivation {
    /// Only an explicit notification (local interface down or a peer's
    /// REMOVE_ADDR) kills a subflow — silent loss stalls forever. This is
    /// the Linux v0.88 behaviour that produced the paper's Figure 15g.
    OnNotify,
    /// Additionally declare a subflow dead after this many consecutive
    /// RTOs (a break-before-make repair; compare Figure 15h).
    OnRtoCount(u32),
}

/// What a [`Mode`] puts on the client's paths. Every configured path is
/// a `subflow` endpoint in the kernel's sense — the client joins from it
/// once the primary is up — and these two say how: the kernel's `backup`
/// and one extension of ours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PathFlags {
    /// Joins carry the B bit: the subflow stays ineligible while a
    /// regular one lives.
    pub backup: bool,
    /// Extension: join only while no subflow at all is alive
    /// (break-before-make), not as soon as the primary is up.
    pub standby: bool,
}

impl Mode {
    /// The flags this preset puts on every configured path. The primary
    /// is positional — the first path, opened with MP_CAPABLE, which has
    /// no B bit to carry — so in Backup mode it starts regular, while a
    /// later rejoin on its interface is a backup like any other join.
    pub(crate) fn path_flags(self) -> PathFlags {
        PathFlags {
            backup: self == Mode::Backup,
            standby: self == Mode::SinglePath,
        }
    }
}

/// Where a subflow attaches locally and how it is flagged: what the
/// manager decides for a client subflow, and what the arriving SYN
/// dictates for a server one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SubflowSpec {
    /// Local interface address.
    pub iface: Addr,
    /// MPTCP address identifier (the client's interface address byte).
    pub addr_id: u8,
    /// Local TCP port.
    pub local_port: u16,
    /// The B bit.
    pub backup: bool,
}

/// One configured client path.
#[derive(Debug)]
struct Path {
    iface: Addr,
    addr_id: u8,
    /// The local port reserved when the connection was opened, until the
    /// path's first subflow takes it.
    reserved_port: Option<u16>,
}

/// Take `n` consecutive ephemeral ports from the client endpoint's
/// counter; returns the first.
fn take_ports(next_port: &mut u16, n: usize) -> u16 {
    assert!(
        usize::from(*next_port) + n < usize::from(u16::MAX),
        "client endpoint exhausted its ephemeral port range"
    );
    let first = *next_port;
    *next_port += n as u16;
    first
}

/// One connection's subflow policy (see the module doc).
#[derive(Debug)]
pub(crate) struct PathManager {
    /// Primary first; empty on the server.
    paths: Vec<Path>,
    flags: PathFlags,
    death: BackupActivation,
}

impl PathManager {
    /// The server end: accepts what arrives, initiates nothing.
    pub(crate) fn server(cfg: &MptcpConfig) -> PathManager {
        PathManager {
            paths: Vec::new(),
            flags: cfg.mode.path_flags(),
            death: cfg.backup_activation,
        }
    }

    /// The client end: one path per `(interface, address id)`, the one on
    /// `primary` first and the rest in the order given, each with a port
    /// reserved from `next_port` in that order.
    pub(crate) fn client(
        cfg: &MptcpConfig,
        ifaces: &[(Addr, u8)],
        primary: Addr,
        next_port: &mut u16,
    ) -> PathManager {
        let first = ifaces
            .iter()
            .position(|&(a, _)| a == primary)
            .expect("unknown primary interface");
        let order = std::iter::once(first).chain((0..ifaces.len()).filter(|&i| i != first));
        let ports = take_ports(next_port, ifaces.len())..;
        PathManager {
            paths: order
                .zip(ports)
                .map(|(i, port)| Path {
                    iface: ifaces[i].0,
                    addr_id: ifaces[i].1,
                    reserved_port: Some(port),
                })
                .collect(),
            ..PathManager::server(cfg)
        }
    }

    /// The subflow `connect` opens: on the first path, taking its port.
    pub(crate) fn primary(&mut self) -> SubflowSpec {
        let p = self.paths.first_mut().expect("only a client connects");
        SubflowSpec {
            iface: p.iface,
            addr_id: p.addr_id,
            local_port: p.reserved_port.take().expect("connect() called twice"),
            backup: false,
        }
    }

    /// The joins to open now: one on every path that should have a live
    /// subflow and does not. A path should once the primary is up; a
    /// `standby` one instead while nothing at all is alive. A join also
    /// needs a local port: the path's reserved one the first time, and
    /// after that a fresh one — which only `fresh`, an interface-up
    /// notification with the endpoint's port counter, brings (the old
    /// port pair may still route to the dead subflow on the server). So
    /// a path whose subflow died stays down until its interface is
    /// notified up, and a notification speaks for its own interface
    /// only. `alive_on(iface)`: does a live subflow use `iface`?
    pub(crate) fn joins(
        &mut self,
        primary_up: bool,
        alive_on: impl Fn(Addr) -> bool,
        mut fresh: Option<(Addr, &mut u16)>,
    ) -> Vec<SubflowSpec> {
        let flags = self.flags;
        let mut none_alive = !self.paths.iter().any(|p| alive_on(p.iface));
        let mut joins = Vec::new();
        for p in &mut self.paths {
            let should = if flags.standby {
                none_alive
            } else {
                primary_up
            };
            let elsewhere = fresh.as_ref().is_some_and(|(iface, _)| *iface != p.iface);
            if !should || elsewhere || alive_on(p.iface) {
                continue;
            }
            let fresh_port = fresh.as_mut().map(|(_, next)| take_ports(next, 1));
            // Either way the path is no longer untouched.
            let reserved = p.reserved_port.take();
            let Some(local_port) = fresh_port.or(reserved) else {
                continue;
            };
            none_alive = false;
            joins.push(SubflowSpec {
                iface: p.iface,
                addr_id: p.addr_id,
                local_port,
                backup: flags.backup,
            });
        }
        joins
    }

    /// The death rule, beyond explicit notifications. A TCP that gave up
    /// (`gave_up`: closed on an error — retries exhausted, a join SYN
    /// that timed out, an RST) is a local, explicit signal and kills its
    /// subflow under either activation; `rtos` consecutive
    /// retransmission timeouts on a TCP still trying do so only past
    /// [`BackupActivation::OnRtoCount`]'s threshold.
    pub(crate) fn declares_dead(&self, rtos: u32, gave_up: bool) -> bool {
        gave_up || matches!(self.death, BackupActivation::OnRtoCount(n) if rtos >= n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WIFI: Addr = Addr(1);
    const LTE: Addr = Addr(2);

    /// What a connection shows its manager, without the connection:
    /// the interfaces with a live subflow and the endpoint's port counter.
    struct World {
        pm: PathManager,
        live: Vec<Addr>,
        primary_up: bool,
        next_port: u16,
    }

    /// A join, as `(interface, local port, B bit)`.
    type Join = (Addr, u16, bool);

    impl World {
        fn open(cfg: &MptcpConfig, ifaces: &[(Addr, u8)], primary: Addr) -> World {
            let mut next_port = 40_000;
            let mut pm = PathManager::client(cfg, ifaces, primary, &mut next_port);
            let first = pm.primary();
            assert_eq!(
                (first.iface, first.local_port, first.backup),
                (primary, 40_000, false),
                "MP_CAPABLE goes out on the chosen interface, without a B bit"
            );
            World {
                pm,
                live: vec![primary],
                primary_up: false,
                next_port,
            }
        }

        /// Ask the rule — `up` is an interface-up notification — and
        /// open what it answers.
        fn reconcile(&mut self, up: Option<Addr>) -> Vec<Join> {
            let live = self.live.clone();
            let joins = self.pm.joins(
                self.primary_up,
                |iface| live.contains(&iface),
                up.map(|iface| (iface, &mut self.next_port)),
            );
            self.live.extend(joins.iter().map(|j| j.iface));
            joins
                .iter()
                .map(|j| (j.iface, j.local_port, j.backup))
                .collect()
        }

        fn primary_up(&mut self) -> Vec<Join> {
            self.primary_up = true;
            self.reconcile(None)
        }

        fn dies(&mut self, iface: Addr) -> Vec<Join> {
            self.live.retain(|&i| i != iface);
            self.reconcile(None)
        }
    }

    fn cfg(mode: Mode) -> MptcpConfig {
        MptcpConfig {
            mode,
            ..MptcpConfig::default()
        }
    }

    #[test]
    fn modes_lower_to_flag_rows() {
        let row = |backup, standby| PathFlags { backup, standby };
        assert_eq!(Mode::Full.path_flags(), row(false, false));
        assert_eq!(Mode::Backup.path_flags(), row(true, false));
        assert_eq!(Mode::SinglePath.path_flags(), row(false, true));
    }

    /// Every `(Mode, primary)` row against one event sequence: primary
    /// up → the other path's subflow dies → its interface comes up →
    /// the primary dies → its interface comes up → the other dies again
    /// → the primary's interface is notified up once more. Ports: 40000
    /// and 40001 were reserved at open (primary first); each rejoin
    /// takes the next one, and a refused notification takes none.
    #[test]
    fn join_decisions_per_mode_and_primary() {
        for (primary, other) in [(WIFI, LTE), (LTE, WIFI)] {
            let none: Vec<Join> = Vec::new();
            let make_before_break = |b: bool| {
                [
                    vec![(other, 40_001, b)],
                    none.clone(),
                    vec![(other, 40_002, b)],
                    none.clone(),
                    // The rejoin on the primary's interface is flagged
                    // like any other join: in Backup mode, a backup.
                    vec![(primary, 40_003, b)],
                    none.clone(),
                    none.clone(),
                ]
            };
            let break_before_make = [
                none.clone(),
                none.clone(),
                none.clone(),
                vec![(other, 40_001, false)],
                none.clone(),
                // Both paths have been used: only a notification (and
                // its fresh port) brings one back.
                none.clone(),
                vec![(primary, 40_002, false)],
            ];
            for (mode, expected) in [
                (Mode::Full, make_before_break(false)),
                (Mode::Backup, make_before_break(true)),
                (Mode::SinglePath, break_before_make),
            ] {
                let mut w = World::open(&cfg(mode), &[(WIFI, 1), (LTE, 2)], primary);
                let actual = [
                    w.primary_up(),
                    w.dies(other),
                    w.reconcile(Some(other)),
                    w.dies(primary),
                    w.reconcile(Some(primary)),
                    w.dies(other),
                    w.reconcile(Some(primary)),
                ];
                assert_eq!(actual, expected, "{mode:?}, primary {primary}");
            }
        }
    }

    #[test]
    fn nothing_joins_before_the_primary_is_up() {
        for mode in [Mode::Full, Mode::Backup] {
            let mut w = World::open(&cfg(mode), &[(WIFI, 1), (LTE, 2)], WIFI);
            assert_eq!(w.reconcile(Some(LTE)), []);
            assert_eq!(w.next_port, 40_002, "a refused notification takes no port");
        }
    }

    /// A notification speaks for its own interface only, as a rejoin
    /// always did: a path the rule has not reached yet (the peer's key
    /// was late, so the primary-up event opened nothing) keeps its
    /// reserved port for the next event of its own.
    #[test]
    fn an_interface_up_joins_on_that_interface_only() {
        let mut w = World::open(&cfg(Mode::Full), &[(WIFI, 1), (LTE, 2)], WIFI);
        w.primary_up = true;
        w.live.clear();
        assert_eq!(w.reconcile(Some(WIFI)), [(WIFI, 40_002, false)]);
        assert_eq!(w.dies(WIFI), [(LTE, 40_001, false)]);
    }

    /// The rule walks the configured paths, so a third needs no line of
    /// its own: Full joins on every other path, Single-Path replaces a
    /// dead subflow with exactly one.
    #[test]
    fn three_paths_follow_the_same_rule() {
        let ifaces = [(WIFI, 1), (LTE, 2), (Addr(3), 3)];
        let mut full = World::open(&cfg(Mode::Full), &ifaces, LTE);
        assert_eq!(
            full.primary_up(),
            [(WIFI, 40_001, false), (Addr(3), 40_002, false)]
        );
        let mut single = World::open(&cfg(Mode::SinglePath), &ifaces, LTE);
        assert_eq!(single.primary_up(), []);
        assert_eq!(single.dies(LTE), [(WIFI, 40_001, false)]);
        assert_eq!(single.dies(WIFI), [(Addr(3), 40_002, false)]);
    }

    #[test]
    fn death_rule_per_activation() {
        let rule = |activation| {
            PathManager::server(&MptcpConfig {
                backup_activation: activation,
                ..MptcpConfig::default()
            })
        };
        // (consecutive RTOs, TCP gave up) -> declared dead?
        let on_notify = rule(BackupActivation::OnNotify);
        assert!(!on_notify.declares_dead(100, false));
        assert!(on_notify.declares_dead(0, true));
        let on_rto = rule(BackupActivation::OnRtoCount(3));
        assert!(!on_rto.declares_dead(2, false));
        assert!(on_rto.declares_dead(3, false));
        assert!(on_rto.declares_dead(0, true));
    }
}
