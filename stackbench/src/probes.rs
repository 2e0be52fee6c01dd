//! Unit-cost probes: each layer's public API driven in isolation, the
//! minimum over repeats. A ledger row is a unit cost from here times an
//! exact count from `simcore::metrics`; what the rows do not explain is
//! reported as `sim.unattributed_share`, not hidden.

use crate::workloads::{serve_requests, Server, CAMPAIGN_USERS, WORKERS};
use bytes::Bytes;
use mpwifi_apps::patterns::imdb_click;
use mpwifi_apps::replay::{replay, Transport};
use mpwifi_conformance::fuzz;
use mpwifi_crowd::journal::crc32;
use mpwifi_crowd::{
    measure_pair, measure_pair_arena, scan_journal, CampaignConfig, Checkpoint, RunMode,
    ShardSummary, StealQueue,
};
use mpwifi_measure::codec::Reader;
use mpwifi_measure::{CdfSketch, Mergeable, SampleBuilder};
use mpwifi_mptcp::options::DssMap;
use mpwifi_mptcp::sched::{Scheduler, SubflowView};
use mpwifi_mptcp::{MpOption, SchedKind};
use mpwifi_netem::{Addr, DeliveryTrace, Frame, LinkQueue, Stage};
use mpwifi_radio::{LocationCondition, PowerModel, RadioKind, WirelessWorld};
use mpwifi_repro::{ReproExecutor, Scale, SuperviseConfig};
use mpwifi_serve::proto::{Request, RequestStatus, Response, RunRequest};
use mpwifi_serve::{AdmissionQueue, Executor};
use mpwifi_sim::{
    CampaignRun, LinkSpec, PacketDir, PacketLog, Sim, SimArena, TcpClientHost, TcpServerHost,
    SERVER_ADDR, SERVER_PORT, WIFI_ADDR,
};
use mpwifi_simcore::metrics;
use mpwifi_simcore::{DetRng, Dur, EventQueue, Time};
use mpwifi_tcp::conn::TcpConfig;
use mpwifi_tcp::segment::{Flags, Segment, TcpOption};
use mpwifi_tcp::SegmentBufPool;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Minimum over `reps` of the wall time of one call of `f`, ns.
fn floor_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap_or(0) as f64
}

/// Every probe's result, in the unit its metric name carries.
#[derive(Debug, Default, Clone)]
pub struct UnitCosts {
    pub event_queue_ns: f64,
    pub frame_ns: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub pick_ns: f64,
    pub dss_codec_ns: f64,
    pub sim_build_us: f64,
    pub sim_reset_us: f64,
    pub radio_draw_ns: f64,
    pub radio_energy_us: f64,
    pub sketch_add_ns: f64,
    pub sketch_merge_us: f64,
    pub codec_encode_us: f64,
    pub codec_decode_us: f64,
    pub analytic_user_ns: f64,
    pub fullsim_user_ms: f64,
    pub steal_pop_ns: f64,
    pub journal_append_us: f64,
    pub journal_bytes_per_shard: f64,
    pub journal_scan_mb_per_s: f64,
    pub crc32_mb_per_s: f64,
    pub conformance_cases_per_s: f64,
    pub imdb_click_us_per_event: f64,
    pub repro_render_us: f64,
    pub serve_ping_rtt_us: f64,
    pub serve_noop_run_rtt_us: f64,
    pub serve_parse_us: f64,
    pub serve_render_us: f64,
    pub serve_queue_ns: f64,
}

/// A data segment shaped like the simulator's steady-state traffic.
fn data_segment() -> Segment {
    Segment {
        options: vec![TcpOption::Timestamp { val: 1, ecr: 2 }],
        payload: Bytes::from(vec![0xA5u8; 1400]),
        ..Segment::control(443, 50000, 12345, 67890, Flags::ACK)
    }
}

fn simcore_probes(c: &mut UnitCosts) {
    c.event_queue_ns = floor_ns(30, || {
        let mut q = EventQueue::<u64>::new();
        for i in 0..1000u64 {
            q.push(Time::from_nanos((i * 7919) % 100_000), i);
        }
        while let Some(e) = q.pop() {
            black_box(e);
        }
    }) / 1000.0;
}

fn netem_probes(c: &mut UnitCosts) {
    let drain = |mut link: LinkQueue| {
        for i in 0..1000 {
            let payload = Bytes::from_static(&[0u8; 64]);
            link.push(
                Time::ZERO,
                Frame::new(i, Addr(1), Addr(10), payload, Time::ZERO),
            );
        }
        let mut now = Time::ZERO;
        while let Some(t) = link.next_ready() {
            now = now.max(t);
            black_box(link.pop_ready(now));
        }
    };
    let fixed = floor_ns(20, || drain(LinkQueue::fixed_rate(100_000_000, usize::MAX)));
    let trace = DeliveryTrace::constant_pps(100_000);
    let traced = floor_ns(20, || {
        drain(LinkQueue::trace_driven(trace.clone(), usize::MAX))
    });
    c.frame_ns = (fixed + traced) / 2.0 / 1000.0;
}

fn tcp_probes(c: &mut UnitCosts) {
    let seg = data_segment();
    let wire = seg.encode();
    let mut pool = SegmentBufPool::new();
    c.encode_ns = floor_ns(30, || {
        for _ in 0..1000 {
            black_box(pool.encode(black_box(&seg)));
        }
    }) / 1000.0;
    c.decode_ns = floor_ns(30, || {
        for _ in 0..1000 {
            black_box(Segment::decode(black_box(&wire)));
        }
    }) / 1000.0;
}

fn mptcp_probes(c: &mut UnitCosts) {
    let views = [
        SubflowView {
            idx: 0,
            eligible: true,
            room: 14_000,
            cwnd: 28_000,
            srtt: Some(Dur::from_millis(25)),
        },
        SubflowView {
            idx: 1,
            eligible: true,
            room: 42_000,
            cwnd: 56_000,
            srtt: Some(Dur::from_millis(60)),
        },
    ];
    let per_kind: f64 = SchedKind::ALL
        .iter()
        .map(|&kind| {
            let mut sched = Scheduler::new(kind);
            floor_ns(30, || {
                for _ in 0..1000 {
                    black_box(sched.pick(black_box(&views), 500_000));
                }
            })
        })
        .sum();
    c.pick_ns = per_kind / SchedKind::ALL.len() as f64 / 1000.0;
    let dss = MpOption::Dss {
        data_ack: 1_234_567,
        map: Some(DssMap {
            dsn: 7_654_321,
            len: 1400,
        }),
        fin: false,
        fin_dsn: 0,
    };
    c.dss_codec_ns = floor_ns(30, || {
        for _ in 0..1000 {
            let wire = black_box(&dss).encode();
            black_box(MpOption::decode(&wire));
        }
    }) / 1000.0;
}

fn tcp_world(wifi: &LinkSpec, lte: &LinkSpec, seed: u64) -> Sim<TcpClientHost, TcpServerHost> {
    let client = TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, seed as u32 | 1);
    let server = TcpServerHost::new(
        SERVER_ADDR,
        SERVER_PORT,
        TcpConfig::default(),
        (seed as u32) ^ 0xBEEF,
    );
    Sim::builder(client, server)
        .wifi(wifi)
        .lte(lte)
        .seed(seed)
        .build()
}

fn sim_probes(c: &mut UnitCosts, loc: &LocationCondition) {
    let mut seed = 0u64;
    c.sim_build_us = floor_ns(50, || {
        seed += 1;
        black_box(tcp_world(&loc.wifi, &loc.lte, seed));
    }) / 1e3;
    let mut sim = tcp_world(&loc.wifi, &loc.lte, 0);
    c.sim_reset_us = floor_ns(200, || {
        seed += 1;
        sim.reset(&CampaignRun::new(&loc.wifi, &loc.lte, seed));
    }) / 1e3;
}

fn radio_probes(c: &mut UnitCosts, seed: u64) {
    let world = WirelessWorld::with_target(8_000_000.0, 0.4);
    let mut rng = DetRng::seed_from_u64(seed);
    c.radio_draw_ns = floor_ns(30, || {
        for _ in 0..1000 {
            black_box(world.draw(&mut rng));
        }
    }) / 1000.0;
    let model = PowerModel::default();
    let mut log = PacketLog::new();
    for i in 0..5_000u64 {
        log.record(Time::from_micros(i * 4_000), PacketDir::Rx, 1500);
    }
    c.radio_energy_us = floor_ns(20, || {
        black_box(model.energy(RadioKind::Lte, &log, Time::from_secs(60)));
    }) / 1e3;
}

/// One 512-user shard's summary, built through the public fold.
fn shard_summary(seed: u64) -> ShardSummary {
    let world = WirelessWorld::with_target(8_000_000.0, 0.4);
    let mut rng = DetRng::seed_from_u64(seed);
    let mut s = ShardSummary::new();
    for user in 0..512usize {
        let d = world.draw(&mut rng);
        s.record(
            user % 22,
            &measure_pair(&d.wifi, &d.lte, RunMode::Analytic, 0),
        );
    }
    s
}

fn measure_probes(c: &mut UnitCosts, summary: &ShardSummary) {
    let mut sketch = CdfSketch::new(0.0, 100e6, 800);
    c.sketch_add_ns = floor_ns(30, || {
        for i in 0..10_000u64 {
            sketch.push((i * 9_973 % 100_000) as f64 * 1_000.0);
        }
    }) / 10_000.0;
    let other = sketch.clone();
    c.sketch_merge_us = floor_ns(200, || sketch.merge(black_box(&other))) / 1e3;
    let mut wire = Vec::new();
    c.codec_encode_us = floor_ns(200, || {
        wire.clear();
        summary.encode_into(&mut wire);
    }) / 1e3;
    c.codec_decode_us = floor_ns(200, || {
        black_box(ShardSummary::decode(&mut Reader::new(&wire)).is_ok());
    }) / 1e3;
}

fn crowd_probes(c: &mut UnitCosts, seed: u64, summary: &ShardSummary, scratch: &Path) {
    let world = WirelessWorld::with_target(8_000_000.0, 0.4);
    let mut rng = DetRng::seed_from_u64(seed);
    let draws: Vec<_> = (0..64).map(|_| world.draw(&mut rng)).collect();
    c.analytic_user_ns = floor_ns(30, || {
        for d in &draws {
            black_box(measure_pair(&d.wifi, &d.lte, RunMode::Analytic, 3));
        }
    }) / draws.len() as f64;
    let mut arena = SimArena::new();
    c.fullsim_user_ms = floor_ns(4, || {
        black_box(measure_pair_arena(
            &draws[0].wifi,
            &draws[0].lte,
            &mut arena,
            3,
        ));
    }) / 1e6;
    c.steal_pop_ns = floor_ns(20, || {
        let q = StealQueue::new(10_000, WORKERS);
        while let Some(i) = q.pop(0) {
            black_box(i);
        }
    }) / 10_000.0;

    // One complete journal of a campaign-sized partition of full shards,
    // appended slot by slot (an append is encode + CRC + write + fsync).
    let shards = CAMPAIGN_USERS.div_ceil(summary.users);
    let cfg = CampaignConfig::new(shards * summary.users, seed, RunMode::Analytic);
    let path = scratch.join(format!("probe-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    if let Ok((mut ckpt, _)) = Checkpoint::open(&path, &cfg) {
        let header = std::fs::metadata(&path).map_or(0, |m| m.len());
        let mut append_ns = Vec::new();
        for slot in 0..cfg.num_shards() {
            let t0 = Instant::now();
            if ckpt.append_slot(slot, summary).is_err() {
                break;
            }
            append_ns.push(t0.elapsed().as_nanos() as u64);
        }
        drop(ckpt);
        let bytes = std::fs::read(&path).unwrap_or_default();
        if let Some(&best) = append_ns.iter().min() {
            c.journal_append_us = best as f64 / 1e3;
            c.journal_bytes_per_shard =
                (bytes.len() as u64 - header) as f64 / append_ns.len() as f64;
        }
        let mut recovered = 0;
        let scan = floor_ns(20, || {
            recovered = scan_journal(&bytes, &cfg).map_or(0, |r| r.recovered_slots);
        });
        if recovered == cfg.num_shards() {
            c.journal_scan_mb_per_s = bytes.len() as f64 / 1e6 / (scan / 1e9);
        }
    }
    let _ = std::fs::remove_file(&path);
    let blob = vec![0x5Au8; 1 << 20];
    let crc = floor_ns(20, || {
        black_box(crc32(black_box(&blob)));
    });
    c.crc32_mb_per_s = blob.len() as f64 / 1e6 / (crc / 1e9);
}

fn conformance_probe(c: &mut UnitCosts, seed: u64) {
    let cases = 100;
    let ns = floor_ns(1, || {
        black_box(fuzz::run_campaign(cases, seed, 1));
    });
    c.conformance_cases_per_s = cases as f64 / (ns / 1e9);
}

fn apps_probe(c: &mut UnitCosts, seed: u64, loc: &LocationCondition) {
    let pattern = imdb_click(seed);
    let transport = Transport::Mptcp {
        primary: WIFI_ADDR,
        coupled: true,
    };
    metrics::reset();
    let ns = floor_ns(1, || {
        black_box(replay(
            &pattern,
            &loc.wifi,
            &loc.lte,
            transport,
            Dur::from_secs(300),
            seed,
        ));
    });
    let events = metrics::snapshot().events_popped.max(1);
    c.imdb_click_us_per_event = ns / 1e3 / events as f64;
}

/// An engine that answers at once: the bare serve pipeline.
struct NoopExec;

impl Executor for NoopExec {
    fn execute(
        &self,
        _req: &RunRequest,
        _attempt: u32,
        _emit: &(dyn Fn(Response) + Sync),
    ) -> RequestStatus {
        RequestStatus::Completed { claims_hold: true }
    }
}

fn repro_probe(c: &mut UnitCosts, seed: u64) {
    if let Some(report) = mpwifi_repro::run_experiment("table1", Scale::Quick, seed) {
        c.repro_render_us = floor_ns(50, || {
            black_box(report.render_text());
        }) / 1e3;
    }
}

fn serve_probes(c: &mut UnitCosts, seed: u64) -> Result<(), String> {
    let (_, request) = serve_requests(seed).swap_remove(0);
    let line = Request::Run(request).render();
    c.serve_parse_us = floor_ns(30, || {
        for _ in 0..100 {
            black_box(Request::parse(black_box(&line), 0).is_ok());
        }
    }) / 100.0
        / 1e3;
    let section = Response::Section {
        req: "r0".into(),
        text: "paper 40% | measured 37.5% of runs favour LTE\n".repeat(128),
    };
    c.serve_render_us = floor_ns(100, || {
        black_box(section.render());
    }) / 1e3;
    let queue = AdmissionQueue::new(16);
    c.serve_queue_ns = floor_ns(30, || {
        for i in 0..1000u64 {
            black_box(queue.try_admit_with(i, |_| {}));
            black_box(queue.pop());
        }
    }) / 1000.0;

    let mut server = Server::start(Arc::new(NoopExec))?;
    let mut failed = false;
    c.serve_ping_rtt_us = floor_ns(300, || failed |= server.ping().is_err()) / 1e3;
    c.serve_noop_run_rtt_us = floor_ns(300, || {
        failed |= server.send(line.clone()).is_err();
        loop {
            match server.recv().map(|l| Response::parse(&l)) {
                Ok(Ok(Response::Done { .. })) => break,
                Ok(Ok(_)) => {}
                _ => {
                    failed = true;
                    break;
                }
            }
        }
    }) / 1e3;
    server.stop()?;
    if failed {
        return Err("no-op server did not answer".into());
    }
    Ok(())
}

/// Floor of `ReproExecutor::execute` called directly for each of the
/// round's 40 requests, ns, in request order.
pub fn direct_execute_floors(seed: u64, reps: usize) -> Result<Vec<u64>, String> {
    let exec = ReproExecutor::new(SuperviseConfig::default());
    serve_requests(seed)
        .into_iter()
        .map(|(_, req)| {
            let mut completed = true;
            let ns = floor_ns(reps, || {
                let status = exec.execute(&req, 0, &|resp| {
                    black_box(resp);
                });
                completed &= matches!(status, RequestStatus::Completed { .. });
            });
            if completed {
                Ok(ns as u64)
            } else {
                Err(format!("direct execute of {} did not complete", req.req))
            }
        })
        .collect()
}

/// Run every probe. `loc` is the path pair the sim-side probes use;
/// `scratch` holds the probe journal.
pub fn run_all(seed: u64, loc: &LocationCondition, scratch: &Path) -> Result<UnitCosts, String> {
    let mut c = UnitCosts::default();
    simcore_probes(&mut c);
    netem_probes(&mut c);
    tcp_probes(&mut c);
    mptcp_probes(&mut c);
    sim_probes(&mut c, loc);
    radio_probes(&mut c, seed);
    let summary = shard_summary(seed);
    measure_probes(&mut c, &summary);
    std::fs::create_dir_all(scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    crowd_probes(&mut c, seed, &summary, scratch);
    conformance_probe(&mut c, seed);
    apps_probe(&mut c, seed, loc);
    repro_probe(&mut c, seed);
    serve_probes(&mut c, seed)?;
    Ok(c)
}
