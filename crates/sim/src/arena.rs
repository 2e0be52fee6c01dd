//! Campaign arenas: one built world, many runs.
//!
//! A [`SimArena`] owns one `Sim` per worker and re-arms it between runs
//! via [`Sim::reset`]. A re-armed world is brought up by the code that
//! builds a fresh one, so arena results are bit-identical to fresh
//! builds at the same parameters (pinned by tests below); what the
//! arena carries from run to run is allocations only: the
//! segment-buffer pool, the driver's scratch vectors, the hosts and a
//! payload buffer per transfer size.

use crate::apps::{bulk, make_payload, tcp_world, BulkResult, FlowDir};
use crate::endpoint::{TcpClientHost, TcpServerHost};
use crate::link::LinkSpec;
use crate::world::Sim;
use crate::SERVER_PORT;
use bytes::Bytes;
use mpwifi_netem::Addr;
use mpwifi_simcore::{Dur, Time};
use mpwifi_tcp::conn::TcpConfig;

/// Everything that varies between two runs of a re-used world: link
/// specs and the run seed. Passed to [`Sim::reset`].
#[derive(Debug, Clone, Copy)]
pub struct CampaignRun<'a> {
    /// WiFi link spec for this run.
    pub wifi: &'a LinkSpec,
    /// LTE link spec for this run.
    pub lte: &'a LinkSpec,
    /// Root seed (drives the link RNG chain and both endpoints' ISS).
    pub seed: u64,
}

impl<'a> CampaignRun<'a> {
    /// A run description.
    pub fn new(wifi: &'a LinkSpec, lte: &'a LinkSpec, seed: u64) -> CampaignRun<'a> {
        CampaignRun { wifi, lte, seed }
    }
}

/// A reusable single-path TCP testbed for crowd campaigns.
///
/// The first transfer builds the world; every subsequent transfer
/// re-arms it with [`Sim::reset`]. Payload buffers are cached by size
/// (`Bytes` is refcounted, so handing the same payload to every run is
/// free). All transfers use [`TcpConfig::default`], matching the
/// measurement drivers the crowd harness replays.
#[derive(Default)]
pub struct SimArena {
    sim: Option<Sim<TcpClientHost, TcpServerHost>>,
    payloads: Vec<(u64, Bytes)>,
    builds: u64,
    resets: u64,
}

impl SimArena {
    /// An empty arena; the first transfer pays the one-time build.
    pub fn new() -> SimArena {
        SimArena::default()
    }

    /// Worlds built from scratch (0 or 1 over an arena's lifetime).
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Runs served by re-arming the retained world.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    fn payload(&mut self, bytes: u64) -> Bytes {
        if let Some((_, p)) = self.payloads.iter().find(|(b, _)| *b == bytes) {
            return p.clone();
        }
        let p = make_payload(bytes);
        self.payloads.push((bytes, p.clone()));
        p
    }

    /// One fault-free transfer over the retained world: build it on
    /// first use, re-arm it otherwise, bind the client to `iface`, and
    /// hand it to the same [`bulk`] engine the fresh-build drivers call.
    #[allow(clippy::too_many_arguments)]
    fn transfer(
        &mut self,
        wifi: &LinkSpec,
        lte: &LinkSpec,
        iface: Addr,
        dir: FlowDir,
        bytes: u64,
        deadline: Dur,
        seed: u64,
    ) -> BulkResult {
        let payload = self.payload(bytes);
        let sim = match &mut self.sim {
            Some(sim) => {
                sim.reset(&CampaignRun::new(wifi, lte, seed));
                sim.client.iface = iface;
                self.resets += 1;
                sim
            }
            empty => {
                self.builds += 1;
                empty.insert(tcp_world(wifi, lte, iface, &TcpConfig::default(), seed))
            }
        };
        let id = sim
            .client
            .connect(Time::ZERO, TcpConfig::default(), SERVER_PORT);
        bulk(sim, id, dir, payload, deadline, |_, _| {}).with_logs(sim)
    }

    /// Single-path TCP bulk download over `iface`; bit-identical to
    /// [`crate::apps::run_tcp_download`] with `TcpConfig::default()`.
    pub fn tcp_download(
        &mut self,
        wifi: &LinkSpec,
        lte: &LinkSpec,
        iface: Addr,
        bytes: u64,
        deadline: Dur,
        seed: u64,
    ) -> BulkResult {
        self.transfer(wifi, lte, iface, FlowDir::Down, bytes, deadline, seed)
    }

    /// Single-path TCP bulk upload over `iface`; bit-identical to
    /// [`crate::apps::run_tcp_upload`] with `TcpConfig::default()`.
    pub fn tcp_upload(
        &mut self,
        wifi: &LinkSpec,
        lte: &LinkSpec,
        iface: Addr,
        bytes: u64,
        deadline: Dur,
        seed: u64,
    ) -> BulkResult {
        self.transfer(wifi, lte, iface, FlowDir::Up, bytes, deadline, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{run_tcp_download, run_tcp_upload};
    use crate::link::ServiceSpec;
    use crate::world::ScriptEvent;
    use crate::{LTE_ADDR, WIFI_ADDR};
    use mpwifi_netem::DeliveryTrace;
    use mpwifi_simcore::metrics;

    fn wifi_fast() -> LinkSpec {
        LinkSpec::symmetric(20_000_000, Dur::from_millis(20))
    }

    fn lte_slow() -> LinkSpec {
        LinkSpec::symmetric(5_000_000, Dur::from_millis(60))
    }

    fn lossy() -> LinkSpec {
        LinkSpec {
            loss: 0.01,
            ..LinkSpec::symmetric(8_000_000, Dur::from_millis(30))
        }
    }

    /// Leave the retained world the way a failed run does: a transfer
    /// in flight, the WiFi interface cut under it (frames flushed and
    /// black-holed), the restore still pending in the script.
    fn leave_world_cut(arena: &mut SimArena) {
        let sim = arena.sim.as_mut().expect("a retained world");
        let t0 = sim.now;
        sim.client.iface = WIFI_ADDR;
        let id = sim.client.connect(t0, TcpConfig::default(), SERVER_PORT);
        let conn = sim.client.stack.conn_mut(id).expect("just opened");
        conn.send(make_payload(50_000));
        sim.schedule(t0 + Dur::from_millis(5), ScriptEvent::CutIface(WIFI_ADDR));
        sim.schedule(
            t0 + Dur::from_secs(3600),
            ScriptEvent::RestoreIface(WIFI_ADDR),
        );
        sim.run_until(|_| false, t0 + Dur::from_secs(2));
        assert!(
            sim.ifaces[0].link.up.stats().dropped_down > 0,
            "the cut dropped frames"
        );
        let snap = sim.forensic_snapshot("cut");
        assert_eq!((snap.script_fired, snap.script_pending), (1, 1));
    }

    /// The tentpole pin: a reset-reused world must be *bit-identical*
    /// to a fresh build at the same parameters. `BulkResult`'s `Debug`
    /// output includes every progress point and every packet-log event,
    /// so string equality is full-trace equality.
    #[test]
    fn arena_reuse_is_bit_identical_to_fresh_builds() {
        let wifi = wifi_fast();
        let lte = lte_slow();
        let lossy = lossy();
        let traced = LinkSpec {
            down: ServiceSpec::Trace(DeliveryTrace::constant_pps(1000)),
            ..wifi_fast()
        };
        let reordering = LinkSpec {
            reorder_prob: 0.05,
            reorder_extra: Dur::from_millis(4),
            ..wifi_fast()
        };
        let lossy_reordering = LinkSpec {
            loss: lossy.loss,
            ..reordering.clone()
        };
        let dl = Dur::from_secs(60);
        let bytes = 200_000;
        let mut arena = SimArena::new();
        // Vary iface, direction, seed and every tail shape
        // `build_direction` can produce, so consecutive runs add and
        // remove tail elements: run 4 adds a loss filter, run 6 drops it
        // again, run 7 swaps a fixed-rate queue for a trace-driven one, runs
        // 8-10 add a reorder stage, then loss and reorder together, then
        // neither. The last column leaves the retained world cut, with
        // a script event pending, before the run.
        let runs: &[(&LinkSpec, &LinkSpec, Addr, bool, u64, bool)] = &[
            (&wifi, &lte, WIFI_ADDR, true, 7, false),
            (&wifi, &lte, LTE_ADDR, true, 8, false),
            (&wifi, &lte, WIFI_ADDR, false, 9, false),
            (&lossy, &lte, WIFI_ADDR, true, 10, false),
            (&wifi, &lossy, LTE_ADDR, true, 11, false),
            (&wifi, &lte, WIFI_ADDR, true, 12, false),
            (&traced, &lte, WIFI_ADDR, true, 13, false),
            (&reordering, &traced, WIFI_ADDR, false, 14, false),
            (&lossy_reordering, &lte, WIFI_ADDR, true, 15, false),
            (&wifi, &lossy_reordering, LTE_ADDR, true, 16, false),
            (&wifi, &lte, WIFI_ADDR, true, 17, true),
            (&wifi, &lte, LTE_ADDR, false, 18, false),
        ];
        for &(w, l, iface, download, seed, cut_first) in runs {
            if cut_first {
                leave_world_cut(&mut arena);
            }
            let (from_arena, fresh) = if download {
                (
                    arena.tcp_download(w, l, iface, bytes, dl, seed),
                    run_tcp_download(w, l, iface, bytes, TcpConfig::default(), dl, seed),
                )
            } else {
                (
                    arena.tcp_upload(w, l, iface, bytes, dl, seed),
                    run_tcp_upload(w, l, iface, bytes, TcpConfig::default(), dl, seed),
                )
            };
            assert!(fresh.is_complete(), "fresh run {seed} incomplete");
            assert_eq!(
                format!("{from_arena:?}"),
                format!("{fresh:?}"),
                "arena diverged from fresh build at seed {seed}"
            );
        }
        assert_eq!(arena.builds(), 1, "world built exactly once");
        assert_eq!(arena.resets(), runs.len() as u64 - 1);
    }

    /// The reuse pin: the second identical run touches zero fresh encode
    /// buffers — the pool and the payload cache are warm.
    #[test]
    fn reset_reuse_keeps_the_pool_warm() {
        let wifi = wifi_fast();
        let lte = lte_slow();
        let dl = Dur::from_secs(60);
        let mut arena = SimArena::new();
        let first = arena.tcp_download(&wifi, &lte, WIFI_ADDR, 300_000, dl, 5);
        assert!(first.is_complete());
        metrics::reset();
        let second = arena.tcp_download(&wifi, &lte, WIFI_ADDR, 300_000, dl, 5);
        assert!(second.is_complete());
        let m = metrics::snapshot();
        assert_eq!(m.enc_buffers_allocated, 0, "warm pool allocates nothing");
        assert!(m.enc_buffers_reused > 0, "pool actually used");
        // Same seed, same world: identical traces.
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
    }
}
