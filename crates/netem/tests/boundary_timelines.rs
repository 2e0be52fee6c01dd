//! One direction of a link against scripted operations placed on its
//! boundaries: a push at exactly a departure instant and after an idle
//! gap, a drop-tail push that a same-instant departure makes room for, a
//! rate change inside a head's service and at exactly its departure, a
//! delay change at a departure and between two, a cut with frames both
//! queued and in the delay. Each timeline is the `(frame id, exit ns)`
//! list and the `PipelineStats`, as literals.
//!
//! The driver steps the way `sim::Sim` does: it polls at every instant
//! `next_ready()` reports, and at an operation's instant a script change
//! (rate, delay, cut, restore) is applied before that instant's poll and
//! a push after it.

use bytes::Bytes;
use mpwifi_netem::{Addr, DelayStage, DeliveryTrace, Frame, LinkQueue, Pipeline, PipelineStats};
use mpwifi_simcore::{Dur, Time};

/// What the script does at an instant.
#[derive(Clone, Copy)]
enum Op {
    /// Offer frame `id` of `len` bytes.
    Push(u64, usize),
    /// Serve the queue at a fixed rate, bits per second.
    Rate(u64),
    /// Change the one-way delay.
    Delay(Dur),
    /// Cut the link.
    Cut,
    /// Restore it.
    Restore,
}

const US: u64 = 1_000;
const MS: u64 = 1_000_000;

/// Play `ops` (ascending ns instants) against `p`, then poll out
/// everything due by `end_ns`.
fn timeline(mut p: Pipeline, ops: &[(u64, Op)], end_ns: u64) -> (Vec<(u64, u64)>, PipelineStats) {
    let mut exits = Vec::new();
    let mut out = Vec::new();
    // Poll at every reported instant before `at`, or up to and
    // including it.
    let mut poll_until = |p: &mut Pipeline, at: Time, inclusive: bool| {
        while let Some(t) = p.next_ready() {
            if t > at || (t == at && !inclusive) {
                break;
            }
            p.poll_into(t, &mut out);
            exits.extend(out.drain(..).map(|f: Frame| (f.id, t.as_nanos())));
        }
    };
    for &(ns, op) in ops {
        let at = Time::from_nanos(ns);
        poll_until(&mut p, at, matches!(op, Op::Push(..)));
        match op {
            Op::Push(id, len) => {
                let frame = Frame::new(id, Addr(1), Addr(2), Bytes::from(vec![0u8; len]), at);
                p.push(at, frame);
            }
            Op::Rate(bps) => p.set_rate(at, bps),
            Op::Delay(d) => p.set_delay(at, d),
            Op::Cut => p.set_up(false),
            Op::Restore => p.set_up(true),
        }
    }
    poll_until(&mut p, Time::from_nanos(end_ns), true);
    assert_eq!(p.backlog(), 0, "the timeline runs to empty");
    (exits, p.stats())
}

/// A 12 Mbit/s link (1 ms per 1500 B frame) with a `queue_bytes`
/// drop-tail queue and a 10 ms delay.
fn fixed(queue_bytes: usize) -> Pipeline {
    Pipeline::new(
        "fixed",
        LinkQueue::fixed_rate(12_000_000, queue_bytes),
        DelayStage::new(Dur::from_millis(10)),
    )
}

/// A trace link with opportunities at 0, 0.3 and 0.6 ms of every 1 ms,
/// and a 5 ms delay.
fn traced() -> Pipeline {
    let trace = DeliveryTrace::new(vec![0, 300 * US, 600 * US], Dur::from_millis(1));
    Pipeline::new(
        "trace",
        LinkQueue::trace_driven(trace, usize::MAX),
        DelayStage::new(Dur::from_millis(5)),
    )
}

fn stats(pushed: u64, delivered: u64, bytes: u64, dropped: u64, down: u64) -> PipelineStats {
    PipelineStats {
        pushed,
        delivered,
        bytes_delivered: bytes,
        dropped_in_stages: dropped,
        dropped_down: down,
    }
}

#[test]
fn pushes_at_a_departure_and_after_an_idle_gap_on_a_fixed_rate_link() {
    use Op::Push;
    let ops = [
        (0, Push(1, 1500)),
        (0, Push(2, 1500)),
        // Frame 2 leaves at 2 ms: frame 3 starts service then.
        (2 * MS, Push(3, 1500)),
        // Idle since 3 ms: frame 4 starts service when it arrives.
        (10 * MS, Push(4, 1500)),
        (10 * MS + 500 * US, Push(5, 750)),
    ];
    let (exits, s) = timeline(fixed(usize::MAX), &ops, 100 * MS);
    assert_eq!(
        exits,
        [
            (1, 11 * MS),
            (2, 12 * MS),
            (3, 13 * MS),
            (4, 21 * MS),
            (5, 21 * MS + 500 * US)
        ]
    );
    assert_eq!(s, stats(5, 5, 6750, 0, 0));
}

#[test]
fn pushes_at_a_departure_and_after_an_idle_gap_on_a_trace_link() {
    use Op::Push;
    let ops = [
        (0, Push(1, 1500)),
        (0, Push(2, 100)),
        // Frame 2 takes the 0.3 ms opportunity: frame 3 gets 0.6 ms.
        (300 * US, Push(3, 1500)),
        // Idle since 0.6 ms: the first opportunity after 2.45 ms.
        (2_450 * US, Push(4, 1500)),
        // Exactly on an opportunity nothing has consumed.
        (4 * MS, Push(5, 1500)),
    ];
    let (exits, s) = timeline(traced(), &ops, 100 * MS);
    assert_eq!(
        exits,
        [
            (1, 5 * MS),
            (2, 5 * MS + 300 * US),
            (3, 5 * MS + 600 * US),
            (4, 7 * MS + 600 * US),
            (5, 9 * MS)
        ]
    );
    assert_eq!(s, stats(5, 5, 6100, 0, 0));
}

#[test]
fn a_departure_at_the_push_instant_frees_a_full_drop_tail_queue() {
    use Op::Push;
    let ops = [
        (0, Push(1, 1500)),
        (0, Push(2, 1500)),
        // Full (3000 B) until frame 1 leaves at exactly 1 ms.
        (MS, Push(3, 1500)),
        // Full again (frames 2 and 3): dropped.
        (MS + 500 * US, Push(4, 1500)),
        // Frame 2 left at 2 ms.
        (2 * MS + 500 * US, Push(5, 1500)),
    ];
    let (exits, s) = timeline(fixed(3000), &ops, 100 * MS);
    assert_eq!(
        exits,
        [(1, 11 * MS), (2, 12 * MS), (3, 13 * MS), (5, 14 * MS)]
    );
    assert_eq!(s, stats(5, 4, 6000, 1, 0));
}

#[test]
fn a_rate_change_inside_a_service_and_at_a_departure() {
    use Op::{Push, Rate};
    let ops = [
        (0, Push(1, 1500)),
        (0, Push(2, 1500)),
        (0, Push(3, 1500)),
        // Frames 1 and 2 left at 1 and 2 ms; frame 3 is half served:
        // its other half at 1.2 Mbit/s takes 5 ms.
        (2 * MS + 500 * US, Rate(1_200_000)),
        (20 * MS, Push(4, 1500)),
        // Frame 4 leaves at exactly 30 ms; the change at that instant
        // comes first and serves it again at the new rate.
        (30 * MS, Rate(12_000_000)),
        (40 * MS, Push(5, 1500)),
    ];
    let (exits, s) = timeline(fixed(usize::MAX), &ops, 200 * MS);
    assert_eq!(
        exits,
        [
            (1, 11 * MS),
            (2, 12 * MS),
            (3, 17 * MS + 500 * US),
            (4, 41 * MS),
            (5, 51 * MS)
        ]
    );
    assert_eq!(s, stats(5, 5, 7500, 0, 0));
}

#[test]
fn a_delay_change_at_a_departure_and_between_two() {
    use Op::{Delay, Push};
    let ops = [
        (0, Push(1, 1500)),
        (0, Push(2, 1500)),
        (0, Push(3, 1500)),
        (0, Push(4, 1500)),
        // Frame 1 left at 1 ms under 10 ms; frame 2 leaves at exactly
        // 2 ms, after the change.
        (2 * MS, Delay(Dur::from_millis(20))),
        // Frame 3 left at 3 ms under 20 ms; frame 4 leaves at 4 ms.
        (3 * MS + 500 * US, Delay(Dur::from_millis(30))),
        // Shorter again: frame 5 is held behind frame 4 (FIFO).
        (5 * MS, Delay(Dur::from_millis(1))),
        (5 * MS, Push(5, 1500)),
    ];
    let (exits, s) = timeline(fixed(usize::MAX), &ops, 200 * MS);
    assert_eq!(
        exits,
        [
            (1, 11 * MS),
            (2, 22 * MS),
            (3, 23 * MS),
            (4, 34 * MS),
            (5, 34 * MS)
        ]
    );
    assert_eq!(s, stats(5, 5, 7500, 0, 0));
}

#[test]
fn a_cut_drops_what_is_queued_and_in_the_delay_then_a_restore() {
    use Op::{Cut, Push, Restore};
    let fixed_ops = [
        (0, Push(1, 1500)),
        (0, Push(2, 1500)),
        (0, Push(3, 1500)),
        // Frame 1 is in the delay, frame 2 in service, frame 3 queued.
        (1_500 * US, Cut),
        (2 * MS, Push(4, 1500)),
        (5 * MS, Restore),
        (6 * MS, Push(5, 1500)),
    ];
    let (exits, s) = timeline(fixed(usize::MAX), &fixed_ops, 100 * MS);
    assert_eq!(exits, [(5, 17 * MS)]);
    assert_eq!(s, stats(5, 1, 1500, 0, 4));

    let trace_ops = [
        (0, Push(1, 1500)),
        (0, Push(2, 1500)),
        (0, Push(3, 1500)),
        // Frames 1 and 2 left at 0 and 0.3 ms; frame 3 leaves at 0.6.
        (400 * US, Cut),
        (MS, Restore),
        // Exactly on an opportunity after the restore.
        (MS + 300 * US, Push(4, 1500)),
    ];
    let (exits, s) = timeline(traced(), &trace_ops, 100 * MS);
    assert_eq!(exits, [(4, 6 * MS + 300 * US)]);
    assert_eq!(s, stats(4, 1, 1500, 0, 3));
}
