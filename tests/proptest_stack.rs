//! Property-based integration tests: random link conditions and
//! workloads through the full stack, asserting the invariants that must
//! hold for *any* scenario.

use bytes::Bytes;
use mpwifi::mptcp::{CcKind, Mode, MptcpConfig, SchedKind};
use mpwifi::sim::apps::{run_mptcp_download, run_tcp_download};
use mpwifi::sim::endpoint::{MptcpClientHost, MptcpServerHost};
use mpwifi::sim::{LinkSpec, Sim, LTE_ADDR, SERVER_ADDR, SERVER_PORT, WIFI_ADDR};
use mpwifi::simcore::{Dur, Time};
use mpwifi::tcp::conn::TcpConfig;
use proptest::prelude::*;

fn arb_link() -> impl Strategy<Value = LinkSpec> {
    (
        500_000u64..30_000_000, // down bps
        300_000u64..15_000_000, // up bps
        5u64..250,              // rtt ms
        0.0f64..0.03,           // loss
        64usize..2048,          // queue KB
    )
        .prop_map(|(down, up, rtt, loss, q)| LinkSpec {
            down: mpwifi::sim::ServiceSpec::Rate(down),
            up: mpwifi::sim::ServiceSpec::Rate(up),
            rtt: Dur::from_millis(rtt),
            queue_bytes: q * 1024,
            loss,
            reorder_prob: 0.0,
            reorder_extra: Dur::ZERO,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any clean-loss-bounded condition: a TCP download completes, the
    /// measured throughput never exceeds the link rate, and progress is
    /// monotone.
    #[test]
    fn tcp_download_invariants(wifi in arb_link(), lte in arb_link(),
                               size in 20_000u64..800_000, seed in 0u64..1000) {
        let r = run_tcp_download(&wifi, &lte, WIFI_ADDR, size,
            TcpConfig::default(), Dur::from_secs(240), seed);
        prop_assert!(r.is_complete(), "download did not finish");
        let tput = r.avg_throughput_bps().unwrap();
        prop_assert!(tput <= wifi.down.average_bps() * 1.01,
            "tput {tput} above capacity {}", wifi.down.average_bps());
        // Progress is monotone in both coordinates by construction;
        // verify the cumulative totals add up.
        prop_assert_eq!(r.progress.total_bytes(), size);
        let mut last = 0;
        for &(_, b) in r.progress.progress() {
            prop_assert!(b > last || (b == last && last == 0));
            last = b;
        }
    }

    /// MPTCP under any configuration completes and never exceeds the
    /// sum of both paths.
    #[test]
    fn mptcp_download_invariants(
        wifi in arb_link(), lte in arb_link(),
        size in 20_000u64..800_000, seed in 0u64..1000,
        primary_wifi in any::<bool>(), coupled in any::<bool>(),
        rr in any::<bool>(),
    ) {
        let cfg = MptcpConfig {
            cc: if coupled { CcKind::Lia } else { CcKind::Reno },
            sched: if rr { SchedKind::RoundRobin } else { SchedKind::MinRtt },
            mode: Mode::Full,
            ..MptcpConfig::default()
        };
        let primary = if primary_wifi { WIFI_ADDR } else { LTE_ADDR };
        let r = run_mptcp_download(&wifi, &lte, primary, size, cfg,
            Dur::from_secs(240), seed);
        prop_assert!(r.is_complete(), "MPTCP download did not finish");
        let cap = wifi.down.average_bps() + lte.down.average_bps();
        let tput = r.avg_throughput_bps().unwrap();
        prop_assert!(tput <= cap * 1.01, "tput {tput} above combined capacity {cap}");
    }

    /// Stream integrity: arbitrary payload over MPTCP arrives intact
    /// byte for byte.
    #[test]
    fn mptcp_stream_integrity(
        payload in proptest::collection::vec(any::<u8>(), 10_000..120_000),
        seed in 0u64..1000,
    ) {
        let wifi = LinkSpec::symmetric(8_000_000, Dur::from_millis(20));
        let lte = LinkSpec { loss: 0.01, ..LinkSpec::symmetric(5_000_000, Dur::from_millis(50)) };
        let cfg = MptcpConfig::default();
        let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], seed | 1);
        let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), seed ^ 0xE);
        let mut sim = Sim::builder(client, server).wifi(&wifi).lte(&lte).seed(seed).build();
        let id = sim.client.open(Time::ZERO, cfg, WIFI_ADDR, SERVER_PORT);
        let size = payload.len() as u64;
        let expected = payload.clone();
        let mut sent = false;
        let done = sim.run_until(
            |sim| {
                if !sent {
                    for sid in sim.server.take_accepted() {
                        let c = sim.server.conn_mut(sid);
                        c.send(Bytes::from(payload.clone()));
                        c.close(sim.now);
                        sent = true;
                    }
                }
                sim.client.conn(id).delivered_bytes() >= size
            },
            Time::from_secs(120),
        );
        prop_assert!(done.held());
        let got: Vec<u8> = sim.client.conn_mut(id).take_delivered().concat();
        prop_assert_eq!(got, expected);
    }
}
