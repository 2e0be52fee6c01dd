//! Step-density invariance: what a transfer does must not depend on how
//! often the simulator steps. A step at which no frame leaves a link, no
//! host timer is due and the script does nothing has nothing to hand
//! anyone, so a run with an extra `ScriptEvent::Wakeup` every 137 µs
//! (tens of thousands of extra steps) must equal the plain run in every
//! `BulkResult` field and every `RunMetrics` counter but the step count
//! itself. This is what licenses the simulator to skip such steps.

use mpwifi::apps::patterns::{cnn_launch, imdb_click, AppPattern};
use mpwifi::apps::replay::{run_replay, ReplayResult};
use mpwifi::mptcp::{CcKind, MptcpConfig};
use mpwifi::radio::{paper_locations, LocationCondition};
use mpwifi::sim::apps::{bulk, make_payload, BulkResult, FlowDir};
use mpwifi::sim::endpoint::{MptcpClientHost, MptcpServerHost, TcpClientHost, TcpServerHost};
use mpwifi::sim::{
    Endpoint, ScriptEvent, Sim, SimBuilder, LTE_ADDR, SERVER_ADDR, SERVER_PORT, WIFI_ADDR,
};
use mpwifi::simcore::{metrics, Dur, RateSeries, RunMetrics, Time};
use mpwifi::tcp::conn::TcpConfig;

/// The extra steps' spacing: prime-ish, so it lands on no link's or
/// timer's grid.
const EXTRA_STEP: Dur = Dur::from_micros(137);

/// Paper locations 4, 14 and 18 (one-based, as in Table 2).
const LOCATIONS: [usize; 3] = [4, 14, 18];

/// The paper testbed at `loc`, seed 42, with a `Wakeup` every
/// [`EXTRA_STEP`] up to `until` (none for `None`).
fn world<'a, C: Endpoint, S: Endpoint>(
    client: C,
    server: S,
    loc: &'a LocationCondition,
    until: Option<Time>,
) -> SimBuilder<'a, C, S> {
    let mut builder = Sim::builder(client, server)
        .wifi(&loc.wifi)
        .lte(&loc.lte)
        .seed(42);
    let mut at = Time::ZERO + EXTRA_STEP;
    while until.is_some_and(|end| at <= end) {
        builder = builder.event(at, ScriptEvent::Wakeup);
        at += EXTRA_STEP;
    }
    builder
}

/// A 1 MB single-path TCP download over WiFi at `loc`, seed 42.
fn tcp_download(loc: &LocationCondition, wakeups_until: Option<Time>) -> BulkResult {
    let cfg = TcpConfig::default();
    let client = TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, 42 | 1);
    let server = TcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), 42 ^ 0xBEEF);
    let mut sim = world(client, server, loc, wakeups_until).build();
    let id = sim.client.connect(Time::ZERO, cfg, SERVER_PORT);
    let payload = make_payload(1_000_000);
    bulk(
        &mut sim,
        id,
        FlowDir::Down,
        payload,
        Dur::from_secs(60),
        |_, _| {},
    )
    .with_logs(&mut sim)
}

/// A 1 MB MPTCP download with WiFi primary at `loc`, seed 42, with each
/// subflow's progress sampled every step.
fn mptcp_download(loc: &LocationCondition, wakeups_until: Option<Time>) -> BulkResult {
    let cfg = MptcpConfig::default();
    let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], 42 | 1);
    let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), 42 ^ 0xBEEF);
    let mut sim = world(client, server, loc, wakeups_until).build();
    let id = sim.client.open(Time::ZERO, cfg, WIFI_ADDR, SERVER_PORT);
    let (mut sub_wifi, mut sub_lte) = (RateSeries::new(), RateSeries::new());
    let payload = make_payload(1_000_000);
    let r = bulk(
        &mut sim,
        id,
        FlowDir::Down,
        payload,
        Dur::from_secs(60),
        |sim, _| {
            for st in sim.client.conn(id).subflow_stats_iter() {
                let series = if st.iface == WIFI_ADDR {
                    &mut sub_wifi
                } else {
                    &mut sub_lte
                };
                series.record(sim.now, st.bytes_delivered);
            }
        },
    );
    BulkResult {
        subflow_progress: vec![("wifi", sub_wifi), ("lte", sub_lte)],
        ..r.with_logs(&mut sim)
    }
}

/// Run `download` plain, then with the extra steps up to the plain run's
/// completion, and compare everything but the step count.
fn assert_step_density_invariant(
    what: &str,
    download: impl Fn(&LocationCondition, Option<Time>) -> BulkResult,
) {
    let locations = paper_locations(42);
    for id in LOCATIONS {
        let loc = &locations[id - 1];
        let run = |wakeups_until| {
            metrics::reset();
            let r = download(loc, wakeups_until);
            (r, metrics::snapshot())
        };
        let (plain, plain_m) = run(None);
        let done = plain.completed.expect("the plain run completes");
        let (dense, dense_m) = run(Some(Time::ZERO + done));
        assert!(
            dense_m.events_popped > plain_m.events_popped + done.as_micros() / 200,
            "{what} at location {id}: the wakeups added no steps ({} vs {})",
            dense_m.events_popped,
            plain_m.events_popped
        );
        assert_eq!(
            format!("{dense:?}"),
            format!("{plain:?}"),
            "{what} at location {id}: a result field depends on the step density"
        );
        let steps_aside = |m: RunMetrics| RunMetrics {
            events_popped: 0,
            ..m
        };
        assert_eq!(
            steps_aside(dense_m),
            steps_aside(plain_m),
            "{what} at location {id}: a counter depends on the step density"
        );
    }
}

#[test]
fn a_tcp_download_does_not_depend_on_step_density() {
    assert_step_density_invariant("TCP download", tcp_download);
}

#[test]
fn an_mptcp_download_does_not_depend_on_step_density() {
    assert_step_density_invariant("MPTCP download", mptcp_download);
}

/// The CNN launch replayed at `loc` with `replay::replay`'s hosts and
/// salts at seed 42: WiFi-TCP, or MPTCP-Coupled with LTE primary.
fn cnn_replay(loc: &LocationCondition, mptcp: bool, wakeups_until: Option<Time>) -> ReplayResult {
    let (pattern, deadline) = (cnn_launch(42), Dur::from_secs(120));
    if mptcp {
        let cfg = MptcpConfig {
            cc: CcKind::Lia,
            ..MptcpConfig::default()
        };
        let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], 42 | 1);
        let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), 42 ^ 0xF7);
        let sim = world(client, server, loc, wakeups_until).build();
        let open = |c: &mut MptcpClientHost, now| c.open(now, cfg.clone(), LTE_ADDR, SERVER_PORT);
        run_replay(sim, open, &pattern, deadline)
    } else {
        let client = TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, 42 | 1);
        let server = TcpServerHost::new(SERVER_ADDR, SERVER_PORT, TcpConfig::default(), 42 ^ 7);
        let sim = world(client, server, loc, wakeups_until).build();
        let open = |c: &mut TcpClientHost, now| c.connect(now, TcpConfig::default(), SERVER_PORT);
        run_replay(sim, open, &pattern, deadline)
    }
}

/// The same oracle over an app replay: every `ReplayResult` field and
/// every counter but the step count, with the extra steps up to the
/// plain run's last flow end.
#[test]
fn a_replay_does_not_depend_on_step_density() {
    let locations = paper_locations(42);
    for (id, mptcp) in LOCATIONS
        .into_iter()
        .flat_map(|id| [(id, false), (id, true)])
    {
        let loc = &locations[id - 1];
        let run = |wakeups_until| {
            metrics::reset();
            let r = cnn_replay(loc, mptcp, wakeups_until);
            (r, metrics::snapshot())
        };
        let (plain, plain_m) = run(None);
        assert!(plain.completed, "the plain replay completes");
        let end = plain.flow_spans.iter().map(|&(_, _, end)| end).max();
        let (dense, dense_m) = run(end.map(|end| Time::ZERO + end));
        let what = format!("replay (MPTCP {mptcp}) at location {id}");
        assert!(
            dense_m.events_popped > plain_m.events_popped,
            "{what}: no extra steps"
        );
        assert_eq!(
            format!("{dense:?}"),
            format!("{plain:?}"),
            "{what}: a result moved"
        );
        let steps_aside = |m: RunMetrics| RunMetrics {
            events_popped: 0,
            ..m
        };
        assert_eq!(
            steps_aside(dense_m),
            steps_aside(plain_m),
            "{what}: a counter moved"
        );
    }
}

/// The busiest replay's extra-step spacing: it runs for tens of
/// simulated seconds, so a sparser grid than [`EXTRA_STEP`] still more
/// than doubles its steps.
const BUSY_EXTRA_STEP: Dur = Dur::from_micros(1_009);

/// `pattern` replayed at `loc` over MPTCP-Coupled with WiFi primary,
/// with `replay::replay`'s hosts and salts at seed 42, and a `Wakeup`
/// every [`BUSY_EXTRA_STEP`] up to `until` (none for `None`).
fn mptcp_replay(
    pattern: &AppPattern,
    loc: &LocationCondition,
    until: Option<Time>,
) -> ReplayResult {
    let cfg = MptcpConfig {
        cc: CcKind::Lia,
        ..MptcpConfig::default()
    };
    let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], 42 | 1);
    let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), 42 ^ 0xF7);
    let mut builder = world(client, server, loc, None);
    let mut at = Time::ZERO + BUSY_EXTRA_STEP;
    while until.is_some_and(|end| at <= end) {
        builder = builder.event(at, ScriptEvent::Wakeup);
        at += BUSY_EXTRA_STEP;
    }
    let open = |c: &mut MptcpClientHost, now| c.open(now, cfg.clone(), WIFI_ADDR, SERVER_PORT);
    run_replay(builder.build(), open, pattern, Dur::from_secs(120))
}

/// The oracle over the pattern with the most flows (IMDB click, 35),
/// over MPTCP at location 4: a replay that visits only the flows a
/// segment reached or whose time came must not depend on how often the
/// world steps.
#[test]
fn the_busiest_replay_over_mptcp_does_not_depend_on_step_density() {
    let (locations, pattern) = (paper_locations(42), imdb_click(42));
    assert!(pattern.flows.len() >= 35, "the busiest pattern");
    let loc = &locations[LOCATIONS[0] - 1];
    let run = |wakeups_until| {
        metrics::reset();
        let r = mptcp_replay(&pattern, loc, wakeups_until);
        (r, metrics::snapshot())
    };
    let (plain, plain_m) = run(None);
    assert!(plain.completed, "the plain replay completes");
    let end = plain.flow_spans.iter().map(|&(_, _, end)| end).max();
    let (dense, dense_m) = run(end.map(|end| Time::ZERO + end));
    assert!(
        dense_m.events_popped > 2 * plain_m.events_popped,
        "the wakeups did not double the steps ({} vs {})",
        dense_m.events_popped,
        plain_m.events_popped
    );
    assert_eq!(format!("{dense:?}"), format!("{plain:?}"), "a result moved");
    let steps_aside = |m: RunMetrics| RunMetrics {
        events_popped: 0,
        ..m
    };
    assert_eq!(
        steps_aside(dense_m),
        steps_aside(plain_m),
        "a counter moved"
    );
}
