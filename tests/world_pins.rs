//! Pins on the 20-location world's delivery traces: the period, the
//! opportunity count and every instant of one period of every trace of
//! `paper_locations`, and of one `observed_at_phase` rotation of each,
//! hashed at three seeds. A change to how a trace is generated, stored,
//! rotated or searched that moves a single opportunity by one
//! nanosecond changes a digest here.

use mpwifi::netem::DeliveryTrace;
use mpwifi::radio::locations::{observed_at_phase, paper_locations};
use mpwifi::sim::{LinkSpec, ServiceSpec};
use mpwifi::simcore::{DetRng, Fnv1a, Time};

const SEEDS: [u64; 3] = [1, 7, 42];

/// Fold one trace's period, count and the instants of its first period,
/// walked from t = 0, into `h`.
fn fold_trace(h: &mut Fnv1a, trace: &DeliveryTrace) {
    let n = trace.opportunities_per_period() as u64;
    h.write(&trace.period().as_nanos().to_le_bytes());
    h.write(&n.to_le_bytes());
    let mut at = trace.next_opportunity_at_or_after(Time::ZERO);
    for _ in 0..n {
        h.write(&at.as_nanos().to_le_bytes());
        at = trace.next_opportunity_after(at);
    }
}

fn fold_link(h: &mut Fnv1a, link: &LinkSpec) {
    for svc in [&link.up, &link.down] {
        if let ServiceSpec::Trace(t) = svc {
            fold_trace(h, t);
        }
    }
}

/// The digest of every trace of the world at `seed`, then of one
/// rotation of each, phases drawn from a generator seeded with `seed`.
fn world_digest(seed: u64) -> u64 {
    let locations = paper_locations(seed);
    let links = || {
        locations
            .iter()
            .flat_map(|l| [Some(&l.wifi), Some(&l.lte), l.lte_sprint.as_ref()])
            .flatten()
    };
    let mut h = Fnv1a::new();
    for link in links() {
        fold_link(&mut h, link);
    }
    let mut phases = DetRng::seed_from_u64(seed);
    for link in links() {
        fold_link(&mut h, &observed_at_phase(link, &mut phases));
    }
    h.finish()
}

#[test]
fn world_traces_are_pinned_at_three_seeds() {
    // `world_digest` at each of `SEEDS`, in order.
    let expected: [u64; 3] = [
        0x8b2d_8254_4325_ce17,
        0x740e_f4bc_ff16_01b9,
        0x2ea5_9662_015b_d6b1,
    ];
    assert_eq!(SEEDS.map(world_digest), expected, "at seeds {SEEDS:?}");
}
