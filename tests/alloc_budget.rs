//! Heap allocations per segment sent, held under a budget.
//!
//! The MPTCP bulk path used to allocate 17–28 times per segment (a
//! scheduler snapshot per chunk and per poll, a `Vec<Segment>` and two
//! option-list clones per decorated segment, a `Vec` per option walk and
//! per read) against TCP's ~4; reusing that scratch took it to ~5.5
//! and ~3, typed frames (no receiver-side decode, so no decoded
//! option list) to ~4 and ~1.6, an empty `Bytes` that holds no
//! `Arc` (every pure ACK's payload) to ~3.5 and ~1.2, and option bodies
//! and SACK ranges held inline in the option (no DSS `Bytes`), ACK
//! option lists sized for the DSS and a connection-level reassembly
//! store that allocates no tree nodes to ~1.2 and ~1.06 — the one
//! allocation left is the segment's `Vec` of options. This
//! binary owns its `#[global_allocator]`, so the count is exact and a
//! regression to per-segment scratch allocation fails here rather than
//! showing up as a slow benchmark. Counts are per thread: the test
//! harness's own threads do not leak into a measurement.

use mpwifi::mptcp::{MptcpConfig, SchedKind};
use mpwifi::radio::{paper_locations, LocationCondition};
use mpwifi::sim::apps::{run_mptcp_download, run_tcp_download};
use mpwifi::sim::WIFI_ADDR;
use mpwifi::simcore::{metrics, Dur};
use mpwifi::tcp::conn::TcpConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the only added
// work is a thread-local counter bump that itself never allocates (the
// cell is const-initialised).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations per segment handed to a link (`segments_encoded`), over
/// one complete 1 MB download.
fn per_segment(download: impl Fn() -> bool) -> f64 {
    let segments_before = metrics::snapshot().segments_encoded;
    let allocations_before = ALLOCATIONS.with(Cell::get);
    assert!(download(), "download incomplete");
    let allocations = ALLOCATIONS.with(Cell::get) - allocations_before;
    let segments = metrics::snapshot().segments_encoded - segments_before;
    allocations as f64 / segments as f64
}

fn mptcp(loc: &LocationCondition, sched: SchedKind) -> f64 {
    per_segment(|| {
        let cfg = MptcpConfig {
            sched,
            ..MptcpConfig::default()
        };
        run_mptcp_download(
            &loc.wifi,
            &loc.lte,
            WIFI_ADDR,
            1_000_000,
            cfg,
            Dur::from_secs(300),
            42,
        )
        .is_complete()
    })
}

fn tcp(loc: &LocationCondition) -> f64 {
    per_segment(|| {
        run_tcp_download(
            &loc.wifi,
            &loc.lte,
            WIFI_ADDR,
            1_000_000,
            TcpConfig::default(),
            Dur::from_secs(300),
            42,
        )
        .is_complete()
    })
}

#[test]
fn allocations_per_segment_stay_within_budget() {
    let locations = paper_locations(42);
    let wifi_faster = locations.iter().find(|l| !l.lte_faster()).unwrap();
    let lte_faster = locations.iter().find(|l| l.lte_faster()).unwrap();
    for (name, loc) in [("wifi-faster", wifi_faster), ("lte-faster", lte_faster)] {
        // Per-segment scratch: 17.3 / 16.7, 28.1 / 25.3, 4.3 / 3.7.
        // Scratch reused:      5.5 /  5.4,  5.4 /  5.3, 3.1 / 2.9.
        // Typed frames:        4.0 /  3.7,  4.0 /  3.7, 1.6 / 1.6.
        // Empty Bytes free:    3.6 /  3.4,  3.6 /  3.4, 1.3 / 1.2.
        // Inline options:      1.2 /  1.2,  1.2 /  1.2, 1.1 / 1.1.
        let minrtt = mptcp(loc, SchedKind::MinRtt);
        assert!(minrtt <= 1.5, "{name}: MPTCP MinRtt {minrtt:.2} > 1.5");
        let redundant = mptcp(loc, SchedKind::Redundant);
        assert!(
            redundant <= 1.5,
            "{name}: MPTCP Redundant {redundant:.2} > 1.5"
        );
        let single = tcp(loc);
        assert!(single <= 1.25, "{name}: TCP {single:.2} > 1.25");
    }
}
