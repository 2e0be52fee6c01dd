//! Campaign arenas: one built world, many runs.
//!
//! Population-scale campaigns (10⁵–10⁶ synthetic users, six transfers
//! each) cannot afford to rebuild the testbed per run: pipeline stage
//! boxes, queue `VecDeque`s, the segment-buffer pool and endpoint
//! hash maps would be allocated and dropped millions of times. A
//! [`SimArena`] owns one `Sim` per worker and re-arms it between runs
//! via [`Sim::reset`], which reuses every allocation while replaying
//! the fresh-build RNG chain — so arena results are bit-identical to
//! fresh builds at the same parameters (pinned by tests below).

use crate::apps::{bulk, make_payload, tcp_world, BulkResult, FlowDir};
use crate::endpoint::{TcpClientHost, TcpServerHost};
use crate::link::LinkSpec;
use crate::world::Sim;
use crate::SERVER_PORT;
use bytes::Bytes;
use mpwifi_netem::{Addr, FaultPlan};
use mpwifi_simcore::{Dur, Time};
use mpwifi_tcp::conn::TcpConfig;

/// Everything that varies between two runs of a re-used world: link
/// specs, the run seed, and optional fault timelines. Passed to
/// [`Sim::reset`].
#[derive(Debug, Clone, Copy)]
pub struct CampaignRun<'a> {
    /// WiFi link spec for this run.
    pub wifi: &'a LinkSpec,
    /// LTE link spec for this run.
    pub lte: &'a LinkSpec,
    /// Root seed (drives the link RNG chain and both endpoints' ISS).
    pub seed: u64,
    /// Optional WiFi fault timeline (rebuilds the WiFi pipelines).
    pub wifi_faults: Option<&'a FaultPlan>,
    /// Optional LTE fault timeline (rebuilds the LTE pipelines).
    pub lte_faults: Option<&'a FaultPlan>,
}

impl<'a> CampaignRun<'a> {
    /// A fault-free run description.
    pub fn new(wifi: &'a LinkSpec, lte: &'a LinkSpec, seed: u64) -> CampaignRun<'a> {
        CampaignRun {
            wifi,
            lte,
            seed,
            wifi_faults: None,
            lte_faults: None,
        }
    }

    /// Attach a WiFi fault timeline.
    pub fn with_wifi_faults(mut self, plan: &'a FaultPlan) -> CampaignRun<'a> {
        self.wifi_faults = Some(plan);
        self
    }

    /// Attach an LTE fault timeline.
    pub fn with_lte_faults(mut self, plan: &'a FaultPlan) -> CampaignRun<'a> {
        self.lte_faults = Some(plan);
        self
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

    /// Pooled encode buffers held by the retained world (0 before the
    /// first run). A warm arena's second run allocates none.
    pub fn pool_capacity(&self) -> usize {
        self.sim.as_ref().map_or(0, |s| s.pool_capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{run_tcp_download, run_tcp_upload};
    use crate::{LTE_ADDR, WIFI_ADDR};
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

    /// The tentpole pin: a reset-reused world must be *bit-identical*
    /// to a fresh build at the same parameters. `BulkResult`'s `Debug`
    /// output includes every progress point and every packet-log event,
    /// so string equality is full-trace equality.
    #[test]
    fn arena_reuse_is_bit_identical_to_fresh_builds() {
        let wifi = wifi_fast();
        let lte = lte_slow();
        let lossy = lossy();
        let dl = Dur::from_secs(60);
        let bytes = 200_000;
        let mut arena = SimArena::new();
        // Vary iface, direction, seed, and loss-stage presence: run 4
        // adds a loss stage to the reused pipelines, run 6 drops it
        // again (exercising the truncate path).
        let runs: &[(&LinkSpec, &LinkSpec, Addr, bool, u64)] = &[
            (&wifi, &lte, WIFI_ADDR, true, 7),
            (&wifi, &lte, LTE_ADDR, true, 8),
            (&wifi, &lte, WIFI_ADDR, false, 9),
            (&lossy, &lte, WIFI_ADDR, true, 10),
            (&wifi, &lossy, LTE_ADDR, true, 11),
            (&wifi, &lte, WIFI_ADDR, true, 12),
        ];
        for &(w, l, iface, download, seed) in runs {
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
    /// buffers — the pool, stage storage, and payload cache are warm.
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
