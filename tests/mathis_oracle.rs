//! The Mathis oracle (ROADMAP item 2(d)): one Reno flow on a link with
//! independent loss `p` and round-trip time `RTT` should average
//! `MSS·8 / (RTT·√(2p/3))` bit/s (Mathis et al., 1997; the constant is
//! the b = 1 form, so delayed ACKs are off).
//!
//! A release build runs the whole grid (`scripts/check.sh --full`; about
//! five seconds); a debug build, which is some fifteen times slower, runs
//! [`Grid::REDUCED`] so that tier-1 holds the law too. Either prints
//! its ratio table: `cargo test --release --test mathis_oracle -- --nocapture`.

use mpwifi::sim::apps::make_payload;
use mpwifi::sim::endpoint::{TcpClientHost, TcpServerHost};
use mpwifi::sim::{LinkSpec, Sim, Socket, SocketHost, SERVER_ADDR, SERVER_PORT, WIFI_ADDR};
use mpwifi::simcore::{Dur, Time};
use mpwifi::tcp::cc::CcKind;
use mpwifi::tcp::conn::TcpConfig;
use std::fmt::Write as _;

/// What one run of the oracle covers.
struct Grid {
    loss: &'static [f64],
    seeds: &'static [u64],
    /// Predicted transfer time the flow's size is cut to: enough loss
    /// cycles in every cell that slow start and the handshake are noise.
    predicted_secs: f64,
}

impl Grid {
    const FULL: Grid = Grid {
        loss: &[0.001, 0.003, 0.01],
        seeds: &[1, 2, 3],
        predicted_secs: 120.0,
    };
    /// The cells with the shortest loss cycle, where 30 s is still
    /// hundreds of them.
    const REDUCED: Grid = Grid {
        loss: &[0.01],
        seeds: &[1],
        predicted_secs: 30.0,
    };
}

/// What the sending application keeps queued ahead of the window, fed
/// from one shared buffer so the largest cell (325 MB) costs 8 MB.
const CHUNK: u64 = 8 << 20;

fn mathis_bps(mss: usize, p: f64, rtt: Dur) -> f64 {
    mss as f64 * 8.0 / (rtt.as_secs_f64() * (2.0 * p / 3.0).sqrt())
}

/// Goodput of one Reno download sized to take `predicted_secs`.
fn reno_goodput_bps(p: f64, rtt: Dur, seed: u64, predicted_secs: f64) -> f64 {
    let cfg = TcpConfig {
        cc: CcKind::Reno,
        delayed_ack: false,
        recv_buf: 64 << 20,
        ..TcpConfig::default()
    };
    // Fast and deep enough that loss, not the queue, is what the
    // window meets.
    let link = LinkSpec {
        loss: p,
        queue_bytes: 64 << 20,
        ..LinkSpec::symmetric(200_000_000, rtt)
    };
    let total = (mathis_bps(cfg.mss, p, rtt) * predicted_secs / 8.0) as u64;
    let client = TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, seed as u32 | 1);
    let server = TcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), seed as u32 ^ 0xBEEF);
    let mut sim = Sim::builder(client, server)
        .wifi(&link)
        .lte(&link)
        .seed(seed)
        .build();
    let id = sim.client.connect(Time::ZERO, cfg, SERVER_PORT);
    let chunk = make_payload(CHUNK);
    let (mut accepted, mut queued) = (None, 0);
    let done = sim.run_until(
        |sim| {
            if accepted.is_none() {
                accepted = sim.server.stack.take_accepted().first().copied();
            }
            if let Some(sid) = accepted {
                let conn = sim.server.socket(sid);
                while queued < total && conn.bytes_unsent() < CHUNK {
                    conn.send(chunk.clone());
                    queued += CHUNK;
                }
            }
            sim.client.socket(id).read() >= total
        },
        Time::from_secs(3600),
    );
    assert!(done, "p {p}, rtt {rtt}, seed {seed}: did not finish");
    total as f64 * 8.0 / sim.now.as_secs_f64()
}

#[test]
fn one_reno_flow_follows_the_mathis_law() {
    let grid = if cfg!(debug_assertions) {
        Grid::REDUCED
    } else {
        Grid::FULL
    };
    let mss = TcpConfig::default().mss;
    let mut table = String::from("    p    rtt   mathis Mbit/s   median Mbit/s   ratio\n");
    let (mut cells, mut outside) = (0, 0);
    for &p in grid.loss {
        for rtt_ms in [20, 50, 100] {
            let rtt = Dur::from_millis(rtt_ms);
            let mut runs: Vec<f64> = grid
                .seeds
                .iter()
                .map(|&seed| reno_goodput_bps(p, rtt, seed, grid.predicted_secs))
                .collect();
            runs.sort_by(f64::total_cmp);
            let (law, median) = (mathis_bps(mss, p, rtt), runs[runs.len() / 2]);
            let ratio = median / law;
            let ok = (0.6..=1.4).contains(&ratio);
            cells += 1;
            outside += usize::from(!ok);
            let _ = writeln!(
                table,
                "{p:>5} {rtt_ms:>4}ms {:>15.2} {:>15.2} {ratio:>7.2}{}",
                law / 1e6,
                median / 1e6,
                if ok { "" } else { "  <-- outside [0.6, 1.4]" },
            );
        }
    }
    assert!(
        outside == 0,
        "{outside} of {cells} cells off the law:\n{table}"
    );
    print!("{table}");
}
