//! The traced run: spans, exact counts and unit-cost probes folded into
//! the per-layer metrics and the cost ledger.
//!
//! Three sources, all outside the program: (a) spans around every
//! public call the driver makes, (b) exact `simcore::metrics` counts
//! bracketing each op, (c) unit-cost probes. Metrics defined on one
//! workload (`tcp.host_ns_per_event` on `tcp_bulk`, `apps.*` on
//! `app_replay`, …) are measured there whichever workload the run was
//! asked for, so every traced run prints the whole ledger; the per-op
//! counts and `host.*`, `trace.*` are the named workload's.

use crate::probes::{self, UnitCosts};
use crate::run::{measure, Budget, Measured};
use crate::trace::{floor_by_name, self_times, Tracer};
use crate::workloads::{sched_name, CAMPAIGN_USERS, SPECS, TRANSFER_BYTES, WORKERS, WORLD_SEED};
use crate::{json_metric, result_line, scratch_dir};
use mpwifi_mptcp::SchedKind;
use mpwifi_radio::paper_locations;
use std::collections::BTreeMap;

/// Rounds per workload in a traced run.
const TRACE_ROUNDS: usize = 3;

/// Every per-layer metric, its unit and whether higher is better, in
/// ledger order.
pub const PER_LAYER: [(&str, &str, bool); 61] = [
    ("simcore.events_per_op", "count", false),
    ("simcore.event_queue_ns", "ns", false),
    ("netem.frames_per_op", "count", false),
    ("netem.scratch_high_water", "count", false),
    ("netem.frame_ns", "ns", false),
    ("tcp.segments_per_op", "count", false),
    ("tcp.retransmits_per_op", "count", false),
    ("tcp.enc_alloc_share", "ratio", false),
    ("tcp.encode_ns", "ns", false),
    ("tcp.decode_ns", "ns", false),
    ("tcp.host_ns_per_event", "ns", false),
    ("mptcp.host_ns_per_event", "ns", false),
    ("mptcp.pick_ns", "ns", false),
    ("mptcp.dss_codec_ns", "ns", false),
    ("mptcp.op_ms.minrtt", "ms", false),
    ("mptcp.op_ms.roundrobin", "ms", false),
    ("mptcp.op_ms.blest", "ms", false),
    ("mptcp.op_ms.ecf", "ms", false),
    ("mptcp.op_ms.redundant", "ms", false),
    ("mptcp.reinjections_per_op", "count", false),
    ("mptcp.dup_bytes_share", "ratio", false),
    ("sim.build_us", "us", false),
    ("sim.reset_us", "us", false),
    ("sim.unattributed_share", "ratio", false),
    ("sim.goodput_mbps_mean", "Mbit/s", true),
    ("apps.flows_per_op", "count", false),
    ("apps.host_us_per_flow", "us", false),
    ("apps.imdb_click_us_per_event", "us", false),
    ("radio.draw_ns", "ns", false),
    ("radio.energy_us", "us", false),
    ("measure.sketch_add_ns", "ns", false),
    ("measure.sketch_merge_us", "us", false),
    ("measure.codec_encode_us", "us", false),
    ("measure.codec_decode_us", "us", false),
    ("crowd.users_per_s", "1/s", true),
    ("crowd.analytic_user_ns", "ns", false),
    ("crowd.fullsim_user_ms", "ms", false),
    ("crowd.parallel_efficiency", "ratio", true),
    ("crowd.steal_pop_ns", "ns", false),
    ("crowd.journal_append_us", "us", false),
    ("crowd.journal_bytes_per_shard", "B", false),
    ("crowd.journal_scan_mb_per_s", "MB/s", true),
    ("crowd.crc32_mb_per_s", "MB/s", true),
    ("crowd.checkpoint_overhead", "ratio", false),
    ("conformance.cases_per_s", "1/s", true),
    ("repro.execute_ms_cheap", "ms", false),
    ("repro.execute_ms_medium", "ms", false),
    ("repro.render_us", "us", false),
    ("serve.overhead_us_p50", "us", false),
    ("serve.ping_rtt_us", "us", false),
    ("serve.noop_run_rtt_us", "us", false),
    ("serve.parse_us", "us", false),
    ("serve.render_us", "us", false),
    ("serve.queue_ns", "ns", false),
    ("serve.bytes_out_per_req", "B", false),
    ("serve.shed", "count", false),
    ("serve.retried", "count", false),
    ("trace.overhead_share", "ratio", false),
    ("host.op_ms_all_p50", "ms", false),
    ("host.op_ms_all_p99", "ms", false),
    ("host.noise_share", "ratio", false),
];

/// Exact counts of one pass over a workload (round 0; every round is
/// the same or the run is wrong).
struct Counts {
    ops: f64,
    events: f64,
    frames: f64,
    segments: f64,
    retransmits: f64,
    enc_allocated: f64,
    scratch_high_water: f64,
    reinjections: f64,
    dup_bytes: f64,
    bytes_delivered: f64,
    flows: f64,
    bytes_out: f64,
}

fn counts_of(m: &Measured) -> Counts {
    let ops = &m.rounds[0].ops;
    let sum = |f: &dyn Fn(&crate::estimator::OpRecord) -> u64| -> f64 {
        ops.iter().map(f).sum::<u64>() as f64
    };
    Counts {
        ops: ops.len() as f64,
        events: sum(&|o| o.counts.events_popped),
        frames: sum(&|o| o.counts.frames_forwarded),
        segments: sum(&|o| o.counts.segments_encoded),
        retransmits: sum(&|o| o.counts.tcp_retransmits),
        enc_allocated: sum(&|o| o.counts.enc_buffers_allocated),
        scratch_high_water: ops
            .iter()
            .map(|o| o.counts.scratch_high_water)
            .max()
            .unwrap_or(0) as f64,
        reinjections: sum(&|o| o.counts.reinjections),
        dup_bytes: sum(&|o| o.counts.dup_bytes_dropped),
        bytes_delivered: sum(&|o| o.counts.bytes_delivered),
        flows: sum(&|o| u64::from(o.flows)),
        bytes_out: sum(&|o| o.bytes_out),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The ledger of one sim workload: unit cost × exact count per layer,
/// against the noise-floor time of one pass. Returns the share of that
/// time the rows leave unexplained.
fn print_ledger(name: &str, m: &Measured, c: &UnitCosts) -> f64 {
    let k = counts_of(m);
    let total_ms = m.floor_sum_s() * 1e3;
    let mut rows = vec![
        ("simcore event queue push+pop", c.event_queue_ns, k.events),
        ("netem frame push+pop_ready", c.frame_ns, k.frames),
        ("tcp segment encode (pooled)", c.encode_ns, k.segments),
        ("tcp segment decode (borrowed)", c.decode_ns, k.segments),
        ("sim world build", c.sim_build_us * 1e3, k.ops),
    ];
    if name == "mptcp_bulk" {
        rows.push(("mptcp DSS option encode+decode", c.dss_codec_ns, k.segments));
    }
    println!("ledger {name}: one noise-free pass = {total_ms:.2} ms");
    println!(
        "  {:<34} {:>10} {:>10} {:>10} {:>7}",
        "layer", "unit ns", "count", "ms", "share"
    );
    let mut explained_ms = 0.0;
    for (layer, unit_ns, count) in rows {
        let ms = unit_ns * count / 1e6;
        explained_ms += ms;
        println!(
            "  {layer:<34} {unit_ns:>10.1} {count:>10.0} {ms:>10.2} {:>6.1}%",
            100.0 * ratio(ms, total_ms)
        );
    }
    let unattributed = 1.0 - ratio(explained_ms, total_ms);
    println!(
        "  {:<34} {:>10} {:>10} {:>10.2} {:>6.1}%  (state machines, step loop)",
        "unattributed",
        "",
        "",
        total_ms - explained_ms,
        100.0 * unattributed
    );
    unattributed
}

/// Span kinds of one traced workload: floor of the summed duration and
/// of the summed self time over one pass.
fn print_spans(name: &str, tr: &Tracer) {
    let spans = tr.spans();
    let durations: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    let selfs = self_times(spans);
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    for n in names {
        let per_round = spans.iter().filter(|s| s.name == n && s.round == 0).count();
        println!(
            "  span {name}/{n}: {per_round} per round, {:.3} ms total, {:.3} ms self",
            floor_by_name(spans, &durations, n) as f64 / 1e6,
            floor_by_name(spans, &selfs, n) as f64 / 1e6
        );
    }
}

/// The traced run of workload `name`.
pub fn run(name: &str, seed: u64) -> Result<bool, String> {
    let scratch = scratch_dir();
    let budget = Budget::Rounds(TRACE_ROUNDS);
    let untraced = measure(name, seed, budget, &scratch, &mut Tracer::off())?;

    let mut traced: BTreeMap<&'static str, Measured> = BTreeMap::new();
    for spec in &SPECS {
        let mut tr = Tracer::new(true);
        let m = measure(spec.name, seed, budget, &scratch, &mut tr)?;
        let path = scratch.join("trace").join(format!("{}.jsonl", spec.name));
        tr.write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "traced {}: {} rounds, {} spans -> {}, failed {}, digest {:016x}",
            spec.name,
            m.estimate.rounds,
            tr.spans().len(),
            path.display(),
            m.failed,
            m.digest
        );
        print_spans(spec.name, &tr);
        traced.insert(spec.name, m);
    }

    let locations = paper_locations(WORLD_SEED);
    let c = probes::run_all(seed, &locations[0], &scratch)?;
    let direct = probes::direct_execute_floors(seed, 2)?;

    let named = &traced[name];
    let k = counts_of(named);
    let (tcp, mptcp) = (&traced["tcp_bulk"], &traced["mptcp_bulk"]);
    let (analytic, checkpoint) = (&traced["campaign_analytic"], &traced["campaign_checkpoint"]);
    let (replay, serve) = (&traced["app_replay"], &traced["serve_mix"]);
    let host_ns_per_event = |m: &Measured| ratio(m.floor_sum_s() * 1e9, counts_of(m).events);

    let unattributed_tcp = print_ledger("tcp_bulk", tcp, &c);
    let unattributed_mptcp = print_ledger("mptcp_bulk", mptcp, &c);
    // The bulk workload the sim-wide rows describe: the named one if it
    // is one, else the single-path baseline.
    let (bulk, unattributed) = match name {
        "mptcp_bulk" => (mptcp, unattributed_mptcp),
        _ => (tcp, unattributed_tcp),
    };
    let goodputs: Vec<f64> = bulk.rounds[0]
        .ops
        .iter()
        .filter(|o| o.sim_ns > 0)
        .map(|o| TRANSFER_BYTES as f64 * 8.0 / (o.sim_ns as f64 / 1e9) / 1e6)
        .collect();

    let replay_counts = counts_of(replay);
    let serve_counts = counts_of(serve);
    let direct_ms_of = |tag: &str| {
        let picked: Vec<u64> = serve
            .tags
            .iter()
            .zip(&direct)
            .filter(|(t, _)| **t == tag)
            .map(|(_, d)| *d)
            .collect();
        ratio(picked.iter().sum::<u64>() as f64 / 1e6, picked.len() as f64)
    };
    // Signed: a negative median says the two floors are within noise.
    let mut overheads: Vec<i64> = serve
        .estimate
        .floor_ns
        .iter()
        .zip(&direct)
        .map(|(through, alone)| *through as i64 - *alone as i64)
        .collect();
    overheads.sort_unstable();
    let stats = serve.serve_stats.unwrap_or_default();

    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    v.insert("simcore.events_per_op", ratio(k.events, k.ops));
    v.insert("simcore.event_queue_ns", c.event_queue_ns);
    v.insert("netem.frames_per_op", ratio(k.frames, k.ops));
    v.insert("netem.scratch_high_water", k.scratch_high_water);
    v.insert("netem.frame_ns", c.frame_ns);
    v.insert("tcp.segments_per_op", ratio(k.segments, k.ops));
    v.insert("tcp.retransmits_per_op", ratio(k.retransmits, k.ops));
    v.insert("tcp.enc_alloc_share", ratio(k.enc_allocated, k.segments));
    v.insert("tcp.encode_ns", c.encode_ns);
    v.insert("tcp.decode_ns", c.decode_ns);
    v.insert("tcp.host_ns_per_event", host_ns_per_event(tcp));
    v.insert("mptcp.host_ns_per_event", host_ns_per_event(mptcp));
    v.insert("mptcp.pick_ns", c.pick_ns);
    v.insert("mptcp.dss_codec_ns", c.dss_codec_ns);
    let op_ms_names = [
        "mptcp.op_ms.minrtt",
        "mptcp.op_ms.roundrobin",
        "mptcp.op_ms.blest",
        "mptcp.op_ms.ecf",
        "mptcp.op_ms.redundant",
    ];
    for (metric, sched) in op_ms_names.into_iter().zip(SchedKind::ALL) {
        v.insert(metric, mptcp.floor_ms_of(sched_name(sched)));
    }
    v.insert("mptcp.reinjections_per_op", ratio(k.reinjections, k.ops));
    v.insert(
        "mptcp.dup_bytes_share",
        ratio(k.dup_bytes, k.bytes_delivered),
    );
    v.insert("sim.build_us", c.sim_build_us);
    v.insert("sim.reset_us", c.sim_reset_us);
    v.insert("sim.unattributed_share", unattributed);
    v.insert(
        "sim.goodput_mbps_mean",
        ratio(goodputs.iter().sum(), goodputs.len() as f64),
    );
    v.insert(
        "apps.flows_per_op",
        ratio(replay_counts.flows, replay_counts.ops),
    );
    v.insert(
        "apps.host_us_per_flow",
        ratio(replay.floor_sum_s() * 1e6, replay_counts.flows),
    );
    v.insert("apps.imdb_click_us_per_event", c.imdb_click_us_per_event);
    v.insert("radio.draw_ns", c.radio_draw_ns);
    v.insert("radio.energy_us", c.radio_energy_us);
    v.insert("measure.sketch_add_ns", c.sketch_add_ns);
    v.insert("measure.sketch_merge_us", c.sketch_merge_us);
    v.insert("measure.codec_encode_us", c.codec_encode_us);
    v.insert("measure.codec_decode_us", c.codec_decode_us);
    v.insert(
        "crowd.users_per_s",
        CAMPAIGN_USERS as f64 * analytic.estimate.ops_per_s,
    );
    v.insert("crowd.analytic_user_ns", c.analytic_user_ns);
    v.insert("crowd.fullsim_user_ms", c.fullsim_user_ms);
    v.insert(
        "crowd.parallel_efficiency",
        ratio(
            analytic.estimate.cpu_s,
            WORKERS as f64 * analytic.floor_sum_s(),
        ),
    );
    v.insert("crowd.steal_pop_ns", c.steal_pop_ns);
    v.insert("crowd.journal_append_us", c.journal_append_us);
    v.insert("crowd.journal_bytes_per_shard", c.journal_bytes_per_shard);
    v.insert("crowd.journal_scan_mb_per_s", c.journal_scan_mb_per_s);
    v.insert("crowd.crc32_mb_per_s", c.crc32_mb_per_s);
    v.insert(
        "crowd.checkpoint_overhead",
        ratio(
            checkpoint.floor_ms_of("write"),
            analytic.floor_ms_of("campaign"),
        ),
    );
    v.insert("conformance.cases_per_s", c.conformance_cases_per_s);
    v.insert("repro.execute_ms_cheap", direct_ms_of("cheap"));
    v.insert("repro.execute_ms_medium", direct_ms_of("medium"));
    v.insert("repro.render_us", c.repro_render_us);
    v.insert(
        "serve.overhead_us_p50",
        overheads[overheads.len().div_ceil(2) - 1] as f64 / 1e3,
    );
    v.insert("serve.ping_rtt_us", c.serve_ping_rtt_us);
    v.insert("serve.noop_run_rtt_us", c.serve_noop_run_rtt_us);
    v.insert("serve.parse_us", c.serve_parse_us);
    v.insert("serve.render_us", c.serve_render_us);
    v.insert("serve.queue_ns", c.serve_queue_ns);
    v.insert(
        "serve.bytes_out_per_req",
        ratio(serve_counts.bytes_out, serve_counts.ops),
    );
    v.insert("serve.shed", stats.shed as f64);
    v.insert("serve.retried", stats.retried as f64);
    v.insert(
        "trace.overhead_share",
        1.0 - ratio(named.estimate.ops_per_s, untraced.estimate.ops_per_s),
    );
    v.insert("host.op_ms_all_p50", untraced.estimate.all_p50_ms);
    v.insert("host.op_ms_all_p99", untraced.estimate.all_p99_ms);
    v.insert("host.noise_share", untraced.estimate.noise_share);

    println!("per-layer metrics ({name}, seed {seed}):");
    let mut metrics = Vec::new();
    for (metric, unit, _) in PER_LAYER {
        let value = v[metric];
        println!("  {metric:<32} {value:>16.4} {unit}");
        metrics.push(json_metric(metric, value, unit));
    }
    let all = traced.values().chain(std::iter::once(&untraced));
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for m in all {
        correct &= m.correct();
        attempted += m.attempted;
        failed += m.failed;
    }
    correct &= untraced.digest == named.digest;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}
