//! The building blocks of an emulated path: things that hold frames
//! and things that only decide on them.
//!
//! A [`Stage`] holds frames: they are pushed in, and the stage reports
//! when the earliest one may exit. The enclosing [`crate::Pipeline`]
//! moves frames on when their exit times arrive. [`LinkQueue`] and
//! [`DelayStage`] preserve FIFO order — the emulated paths never
//! reorder, matching Mahimahi. A [`Filter`] holds nothing: it drops or
//! alters a frame the instant the frame passes it.

use crate::frame::Frame;
use crate::trace::{DeliveryTrace, Opportunity};
use mpwifi_simcore::{DetRng, Dur, Time};
use std::collections::VecDeque;

/// A frame-holding component of an emulated link path.
pub trait Stage: std::fmt::Debug {
    /// Offer a frame to the stage at simulated time `now`. The stage may
    /// drop it (queue overflow).
    fn push(&mut self, now: Time, frame: Frame);

    /// Earliest instant at which a frame can exit, if any is queued.
    fn next_ready(&self) -> Option<Time>;

    /// Pop one frame whose exit time is `<= now`, if any, returning the
    /// actual exit instant with it. The enclosing pipeline hands the frame
    /// to the next stage *at that instant*, so a frame leaving a queue at
    /// t enters the delay stage at t even if the poll happens later.
    fn pop_ready(&mut self, now: Time) -> Option<(Time, Frame)>;

    /// Pop *every* frame whose exit time is `<= now`, appending
    /// `(exit, frame)` pairs to `out` in pop order. Semantically exactly
    /// a [`Self::pop_ready`] loop until `None` (the default body), but
    /// one virtual call per stage per poll instead of one per frame;
    /// stages whose queues are already exit-sorted override it to drain
    /// the due prefix as a slice.
    fn pop_ready_batch(&mut self, now: Time, out: &mut Vec<(Time, Frame)>) {
        while let Some(item) = self.pop_ready(now) {
            out.push(item);
        }
    }

    /// Frames dropped by this stage so far.
    fn dropped(&self) -> u64 {
        0
    }

    /// Discard every frame currently held, returning how many were
    /// dropped. Used when an interface goes down: a real NIC's queues
    /// are flushed, not replayed on restore.
    fn drop_all(&mut self) -> u64;

    /// Frames currently held by this stage.
    fn backlog(&self) -> usize;
}

/// A per-frame decision at the tail of a link path: loss, corruption.
/// A filter holds nothing, so it has no exit time, no backlog and
/// nothing to flush when the interface is cut.
pub trait Filter {
    /// Decide on `frame` as it passes at instant `at`: `false` drops it,
    /// `true` lets it travel on (possibly altered).
    fn admit(&mut self, at: Time, frame: &mut Frame) -> bool;

    /// Frames dropped by this filter so far.
    fn dropped(&self) -> u64 {
        0
    }
}

/// The service process draining a [`LinkQueue`].
#[derive(Debug, Clone)]
pub enum Service {
    /// Serialize frames back-to-back at a constant bit rate.
    FixedRate {
        /// Link rate in bits per second.
        bps: u64,
    },
    /// Deliver one frame per trace opportunity (Mahimahi semantics: an
    /// opportunity is consumed by one frame regardless of its size).
    Trace(DeliveryTrace),
}

/// Drop-tail queue feeding a service process — the heart of a Mahimahi
/// link shell.
#[derive(Debug)]
pub struct LinkQueue {
    queue: VecDeque<Frame>,
    queued_bytes: usize,
    /// Drop-tail bound on `queued_bytes`.
    queue_bytes: usize,
    service: Service,
    /// For `FixedRate`: when the server finishes the in-service frame.
    /// For `Trace`: the last consumed opportunity (`None` until the
    /// first delivery, so an opportunity at exactly t = 0 is usable).
    server_busy_until: Option<Time>,
    /// For `Trace`: the last consumed opportunity located in the trace
    /// (its instant is `server_busy_until`), so the next head's is its
    /// successor with no search; `None` until one is consumed and after
    /// [`LinkQueue::set_service`].
    consumed: Option<Opportunity>,
    /// For `Trace`: the opportunity `head_exit` is, once scheduled.
    head_opportunity: Option<Opportunity>,
    /// Exit time of the current head frame, if scheduled.
    head_exit: Option<Time>,
    /// When the head frame's current service interval began (fixed-rate
    /// bookkeeping for progress-preserving rate changes).
    head_started: Option<Time>,
    /// Fraction of the head frame still unserved (1.0 = untouched);
    /// carried across rate changes so repeated changes converge.
    head_remaining: f64,
    dropped: u64,
    delivered: u64,
}

impl LinkQueue {
    fn new(queue_bytes: usize, service: Service) -> LinkQueue {
        if let Service::FixedRate { bps } = service {
            assert!(bps > 0, "link rate must be positive");
        }
        LinkQueue {
            queue: VecDeque::new(),
            queued_bytes: 0,
            queue_bytes,
            service,
            server_busy_until: None,
            consumed: None,
            head_opportunity: None,
            head_exit: None,
            head_started: None,
            head_remaining: 1.0,
            dropped: 0,
            delivered: 0,
        }
    }

    /// Fixed-rate link with a byte-limited drop-tail queue.
    pub fn fixed_rate(bps: u64, queue_bytes: usize) -> LinkQueue {
        LinkQueue::new(queue_bytes, Service::FixedRate { bps })
    }

    /// Trace-driven link with a byte-limited drop-tail queue.
    pub fn trace_driven(trace: DeliveryTrace, queue_bytes: usize) -> LinkQueue {
        LinkQueue::new(queue_bytes, Service::Trace(trace))
    }

    /// Frames delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Replace the service process mid-simulation (used to emulate a link
    /// whose rate changes, e.g. degraded WiFi). For fixed-rate services
    /// the in-service frame keeps its *fractional* progress — the
    /// remaining fraction is served at the new rate — so repeated rate
    /// changes cannot starve the head frame.
    pub fn set_service(&mut self, now: Time, service: Service) {
        // Advance the head's absolute progress for the service performed
        // so far in this interval.
        if let (Service::FixedRate { .. }, Some(exit), Some(start)) =
            (&self.service, self.head_exit, self.head_started)
        {
            if exit > now && exit > start && now > start {
                let interval_frac =
                    (exit - now).as_nanos() as f64 / (exit - start).as_nanos() as f64;
                // The interval was serving `head_remaining` of the frame;
                // interval_frac of that remains.
                self.head_remaining *= interval_frac;
            }
        }
        self.service = service;
        self.head_exit = None;
        self.head_started = None;
        self.server_busy_until = Some(now);
        self.consumed = None;
        self.head_opportunity = None;
        self.schedule_head(now);
        // Scale the freshly scheduled full serialization down to the
        // remaining fraction.
        if self.head_remaining < 1.0 {
            if let (Service::FixedRate { .. }, Some(exit)) = (&self.service, self.head_exit) {
                if exit > now {
                    let full = (exit - now).as_nanos() as f64;
                    self.head_exit =
                        Some(now + Dur::from_nanos((full * self.head_remaining) as u64));
                }
            }
        }
    }

    /// Compute and store the exit time for the head frame if one is queued
    /// and not yet scheduled.
    fn schedule_head(&mut self, now: Time) {
        if self.head_exit.is_some() {
            return;
        }
        let Some(head) = self.queue.front() else {
            return;
        };
        let exit = match &self.service {
            Service::FixedRate { bps } => {
                let start = self.server_busy_until.unwrap_or(Time::ZERO).max(now);
                self.head_started = Some(start);
                start + Dur::for_bytes_at_rate(head.wire_len() as u64, *bps)
            }
            Service::Trace(trace) => {
                // Strictly after the last consumed opportunity — on a
                // backlogged link its successor, found without a search;
                // before anything was consumed the very first
                // opportunity (possibly at t = 0) is usable.
                let mut opp = match (self.server_busy_until, self.consumed) {
                    (Some(busy), Some(last)) => {
                        debug_assert_eq!(trace.instant(last), busy, "stale trace cursor");
                        trace.successor(last)
                    }
                    (Some(busy), None) => trace.first_after(busy),
                    (None, _) => trace.first_at_or_after(now),
                };
                // An opportunity in the past is useless; find the first one
                // not before the frame became head.
                if trace.instant(opp) < now {
                    opp = trace.first_after(now - Dur::from_nanos(1));
                }
                self.head_opportunity = Some(opp);
                trace.instant(opp)
            }
        };
        self.head_exit = Some(exit);
    }
}

impl Stage for LinkQueue {
    fn push(&mut self, now: Time, frame: Frame) {
        if self.queued_bytes + frame.wire_len() > self.queue_bytes {
            self.dropped += 1;
            return;
        }
        self.queued_bytes += frame.wire_len();
        self.queue.push_back(frame);
        self.schedule_head(now);
    }

    fn next_ready(&self) -> Option<Time> {
        self.head_exit
    }

    fn pop_ready(&mut self, now: Time) -> Option<(Time, Frame)> {
        let exit = self.head_exit?;
        if exit > now {
            return None;
        }
        let frame = self
            .queue
            .pop_front()
            .expect("head scheduled but queue empty");
        self.queued_bytes -= frame.wire_len();
        self.server_busy_until = Some(exit);
        self.consumed = self.head_opportunity.take();
        self.head_exit = None;
        self.head_started = None;
        self.head_remaining = 1.0;
        self.delivered += 1;
        // The next head becomes eligible for service at `exit`, not at the
        // (possibly later) poll instant.
        self.schedule_head(exit);
        Some((exit, frame))
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn drop_all(&mut self) -> u64 {
        let n = self.queue.len() as u64;
        self.queue.clear();
        self.queued_bytes = 0;
        self.head_exit = None;
        self.head_opportunity = None;
        self.head_started = None;
        self.head_remaining = 1.0;
        n
    }

    fn backlog(&self) -> usize {
        self.queue.len()
    }
}

/// Constant propagation delay. Infinite capacity, preserves order.
#[derive(Debug)]
pub struct DelayStage {
    delay: Dur,
    in_flight: VecDeque<(Time, Frame)>,
}

impl DelayStage {
    /// Create a delay stage adding `delay` to every frame.
    pub fn new(delay: Dur) -> DelayStage {
        DelayStage {
            delay,
            in_flight: VecDeque::new(),
        }
    }

    /// Change the delay for frames pushed from now on (frames already in
    /// flight keep their original exit times; order is still preserved
    /// for exits because we never reduce below an earlier exit).
    pub fn set_delay(&mut self, delay: Dur) {
        self.delay = delay;
    }

    /// The delay a frame pushed now is given (before the FIFO clamp).
    pub fn delay(&self) -> Dur {
        self.delay
    }
}

impl Stage for DelayStage {
    fn push(&mut self, now: Time, frame: Frame) {
        let mut exit = now + self.delay;
        // Guarantee FIFO even if the delay was reduced mid-flight.
        if let Some(&(last_exit, _)) = self.in_flight.back() {
            exit = exit.max(last_exit);
        }
        self.in_flight.push_back((exit, frame));
    }

    fn next_ready(&self) -> Option<Time> {
        self.in_flight.front().map(|&(t, _)| t)
    }

    fn pop_ready(&mut self, now: Time) -> Option<(Time, Frame)> {
        match self.in_flight.front() {
            Some(&(t, _)) if t <= now => self.in_flight.pop_front(),
            _ => None,
        }
    }

    fn pop_ready_batch(&mut self, now: Time, out: &mut Vec<(Time, Frame)>) {
        // Exits are non-decreasing (FIFO clamp in `push`), so the due
        // frames are exactly the front run with exit <= now.
        let n = self
            .in_flight
            .iter()
            .take_while(|&&(t, _)| t <= now)
            .count();
        out.extend(self.in_flight.drain(..n));
    }

    fn drop_all(&mut self) -> u64 {
        let n = self.in_flight.len() as u64;
        self.in_flight.clear();
        n
    }

    fn backlog(&self) -> usize {
        self.in_flight.len()
    }
}

/// Independent (Bernoulli) packet loss.
#[derive(Debug)]
pub struct LossFilter {
    loss_prob: f64,
    rng: DetRng,
    dropped: u64,
}

impl LossFilter {
    /// Create a filter dropping each frame independently with
    /// probability `loss_prob`.
    pub fn new(loss_prob: f64, rng: DetRng) -> LossFilter {
        assert!((0.0..=1.0).contains(&loss_prob), "invalid loss probability");
        LossFilter {
            loss_prob,
            rng,
            dropped: 0,
        }
    }
}

impl Filter for LossFilter {
    fn admit(&mut self, _at: Time, _frame: &mut Frame) -> bool {
        let drop = self.rng.chance(self.loss_prob);
        self.dropped += u64::from(drop);
        !drop
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Addr;
    use bytes::Bytes;

    fn frame(id: u64, len: usize) -> Frame {
        Frame::new(
            id,
            Addr(1),
            Addr(2),
            Bytes::from(vec![0u8; len]),
            Time::ZERO,
        )
    }

    #[test]
    fn fixed_rate_serializes_back_to_back() {
        // 12 Mbit/s, 1500-byte frames -> 1 ms each.
        let mut link = LinkQueue::fixed_rate(12_000_000, usize::MAX);
        link.push(Time::ZERO, frame(1, 1500));
        link.push(Time::ZERO, frame(2, 1500));
        assert_eq!(link.next_ready(), Some(Time::from_millis(1)));
        assert!(link.pop_ready(Time::from_micros(999)).is_none());
        let (t1, f1) = link.pop_ready(Time::from_millis(1)).unwrap();
        assert_eq!((t1, f1.id), (Time::from_millis(1), 1));
        // Second frame exits at 2 ms, not 1 ms + queueing-free time.
        assert_eq!(link.next_ready(), Some(Time::from_millis(2)));
        assert_eq!(link.pop_ready(Time::from_millis(2)).unwrap().1.id, 2);
        assert_eq!(link.delivered(), 2);
    }

    #[test]
    fn fixed_rate_idles_then_restarts() {
        let mut link = LinkQueue::fixed_rate(12_000_000, usize::MAX);
        link.push(Time::ZERO, frame(1, 1500));
        assert_eq!(link.pop_ready(Time::from_millis(1)).unwrap().1.id, 1);
        // Push long after the server went idle; service restarts from now.
        link.push(Time::from_millis(10), frame(2, 1500));
        assert_eq!(link.next_ready(), Some(Time::from_millis(11)));
    }

    #[test]
    fn drop_tail_bytes_limit() {
        let mut link = LinkQueue::fixed_rate(1_000, 250);
        link.push(Time::ZERO, frame(1, 100));
        link.push(Time::ZERO, frame(2, 100));
        link.push(Time::ZERO, frame(3, 100)); // would make 300 > 250
        assert_eq!(link.backlog(), 2);
        assert_eq!(link.dropped(), 1);
        // Smaller frame still fits.
        link.push(Time::ZERO, frame(4, 50));
        assert_eq!(link.backlog(), 3);
    }

    #[test]
    fn trace_link_consumes_one_opportunity_per_frame() {
        let trace = DeliveryTrace::new(vec![100_000, 200_000, 300_000], Dur::from_millis(1));
        let mut link = LinkQueue::trace_driven(trace, usize::MAX);
        link.push(Time::ZERO, frame(1, 1500));
        link.push(Time::ZERO, frame(2, 50)); // small frame still uses a full opportunity
        assert_eq!(link.next_ready(), Some(Time::from_nanos(100_000)));
        assert_eq!(link.pop_ready(Time::from_nanos(100_000)).unwrap().1.id, 1);
        assert_eq!(link.next_ready(), Some(Time::from_nanos(200_000)));
        assert_eq!(link.pop_ready(Time::from_nanos(200_000)).unwrap().1.id, 2);
    }

    #[test]
    fn trace_link_skips_missed_opportunities() {
        let trace = DeliveryTrace::new(vec![100_000], Dur::from_millis(1));
        let mut link = LinkQueue::trace_driven(trace, usize::MAX);
        // Frame arrives after this period's opportunity passed.
        link.push(Time::from_nanos(500_000), frame(1, 1500));
        assert_eq!(link.next_ready(), Some(Time::from_nanos(1_100_000)));
    }

    #[test]
    fn delay_stage_adds_constant_delay() {
        let mut d = DelayStage::new(Dur::from_millis(10));
        d.push(Time::ZERO, frame(1, 100));
        d.push(Time::from_millis(1), frame(2, 100));
        assert_eq!(d.next_ready(), Some(Time::from_millis(10)));
        assert_eq!(d.pop_ready(Time::from_millis(10)).unwrap().1.id, 1);
        assert!(d.pop_ready(Time::from_millis(10)).is_none());
        assert_eq!(d.next_ready(), Some(Time::from_millis(11)));
    }

    #[test]
    fn delay_reduction_preserves_fifo() {
        let mut d = DelayStage::new(Dur::from_millis(10));
        d.push(Time::ZERO, frame(1, 100)); // exits at 10 ms
        d.set_delay(Dur::from_millis(1));
        d.push(Time::from_millis(1), frame(2, 100)); // naive exit 2 ms, clamped to 10 ms
        assert_eq!(d.pop_ready(Time::from_millis(10)).unwrap().1.id, 1);
        assert_eq!(d.pop_ready(Time::from_millis(10)).unwrap().1.id, 2);
    }

    #[test]
    fn loss_filter_zero_prob_passes_everything() {
        let mut l = LossFilter::new(0.0, DetRng::seed_from_u64(1));
        let count = (0..100)
            .filter(|&i| l.admit(Time::from_millis(i), &mut frame(i, 100)))
            .count();
        assert_eq!(count, 100);
        assert_eq!(l.dropped(), 0);
    }

    #[test]
    fn loss_filter_one_prob_drops_everything() {
        let mut l = LossFilter::new(1.0, DetRng::seed_from_u64(1));
        for i in 0..100 {
            assert!(!l.admit(Time::from_millis(i), &mut frame(i, 100)));
        }
        assert_eq!(l.dropped(), 100);
    }

    #[test]
    fn loss_filter_statistical_rate() {
        let mut l = LossFilter::new(0.3, DetRng::seed_from_u64(42));
        for i in 0..10_000 {
            l.admit(Time::ZERO, &mut frame(i, 100));
        }
        let frac = l.dropped() as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.03, "loss fraction {frac}");
    }

    #[test]
    fn set_service_preserves_partial_progress() {
        // 12 Mbit/s: a 1500-byte frame would exit at 1 ms. Halfway
        // through serialization the link drops to 1.2 Mbit/s; the
        // remaining HALF of the frame is served at the new rate
        // (10 ms / 2 = 5 ms), so exit = 0.5 + 5 = 5.5 ms.
        let mut link = LinkQueue::fixed_rate(12_000_000, usize::MAX);
        link.push(Time::ZERO, frame(1, 1500));
        assert_eq!(link.next_ready(), Some(Time::from_millis(1)));
        link.set_service(
            Time::from_micros(500),
            Service::FixedRate { bps: 1_200_000 },
        );
        assert_eq!(link.next_ready(), Some(Time::from_micros(5_500)));
        let (_, f) = link.pop_ready(Time::from_micros(5_500)).unwrap();
        assert_eq!(f.id, 1);
        // A rate increase also scales only the remaining fraction.
        link.push(Time::from_millis(20), frame(2, 1500));
        link.set_service(
            Time::from_millis(20),
            Service::FixedRate { bps: 120_000_000 },
        );
        assert_eq!(link.next_ready(), Some(Time::from_micros(20_100)));
    }

    #[test]
    fn oscillating_rate_changes_cannot_starve_the_head() {
        // The starvation scenario: rate flips between two values faster
        // than either serialization time. With progress preservation the
        // frame still completes.
        let mut link = LinkQueue::fixed_rate(1_000_000, usize::MAX); // 12 ms per 1500 B
        link.push(Time::ZERO, frame(1, 1500));
        let mut now = Time::ZERO;
        let mut delivered = false;
        for i in 1..20 {
            now = Time::from_millis(i * 3);
            if link.pop_ready(now).is_some() {
                delivered = true;
                break;
            }
            let bps = if i % 2 == 0 { 1_000_000 } else { 900_000 };
            link.set_service(now, Service::FixedRate { bps });
        }
        if !delivered {
            // Drain whatever remains.
            while let Some(t) = link.next_ready() {
                now = now.max(t);
                if link.pop_ready(now).is_some() {
                    delivered = true;
                    break;
                }
            }
        }
        assert!(delivered, "head frame starved by rate oscillation");
        assert!(
            now < Time::from_millis(30),
            "delivered at {now}, far too late"
        );
    }

    #[test]
    fn trace_opportunity_at_time_zero_usable() {
        let trace = DeliveryTrace::new(vec![0, 500_000], Dur::from_millis(1));
        let mut link = LinkQueue::trace_driven(trace, usize::MAX);
        link.push(Time::ZERO, frame(1, 1500));
        assert_eq!(
            link.next_ready(),
            Some(Time::ZERO),
            "the offset-0 opportunity must be usable for the first frame"
        );
        assert!(link.pop_ready(Time::ZERO).is_some());
    }

    #[test]
    fn queueing_delay_grows_with_backlog() {
        // 1 Mbit/s link: a 1250-byte frame takes 10 ms.
        let mut link = LinkQueue::fixed_rate(1_000_000, usize::MAX);
        for i in 0..5 {
            link.push(Time::ZERO, frame(i, 1250));
        }
        let mut exits = Vec::new();
        let mut now = Time::ZERO;
        while let Some(t) = link.next_ready() {
            now = now.max(t);
            let (exit, f) = link.pop_ready(now).unwrap();
            exits.push((f.id, exit));
        }
        for (i, &(id, t)) in exits.iter().enumerate() {
            assert_eq!(id, i as u64);
            assert_eq!(t, Time::from_millis(10 * (i as u64 + 1)));
        }
    }

    /// A trace-driven queue as it was served before the trace cursor:
    /// every head's opportunity found by search from the last consumed
    /// instant. The reference the cursor is held to.
    struct SearchedTraceQueue {
        trace: DeliveryTrace,
        frames: VecDeque<u64>,
        busy: Option<Time>,
        head_exit: Option<Time>,
    }

    impl SearchedTraceQueue {
        fn schedule(&mut self, now: Time) {
            if self.head_exit.is_some() || self.frames.is_empty() {
                return;
            }
            let mut opp = match self.busy {
                Some(busy) => self.trace.next_opportunity_after(busy),
                None => self.trace.next_opportunity_at_or_after(now),
            };
            if opp < now {
                opp = self.trace.next_opportunity_after(now - Dur::from_nanos(1));
            }
            self.head_exit = Some(opp);
        }

        fn pop_ready(&mut self, now: Time) -> Option<(Time, u64)> {
            let exit = self.head_exit.filter(|&t| t <= now)?;
            let id = self.frames.pop_front().expect("a scheduled head");
            self.busy = Some(exit);
            self.head_exit = None;
            self.schedule(exit);
            Some((exit, id))
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_trace_cursor_serves_as_the_search_did(
            offsets in proptest::collection::btree_set(0u64..1_000_000, 1..20),
            // (gap before the op in ns, 0..8 pushes a frame, 8 cuts the link)
            ops in proptest::collection::vec((0u64..3_000_000, 0u8..9), 1..120),
        ) {
            let trace = DeliveryTrace::new(offsets.into_iter().collect(), Dur::from_millis(1));
            let mut link = LinkQueue::trace_driven(trace.clone(), usize::MAX);
            let mut reference = SearchedTraceQueue {
                trace,
                frames: VecDeque::new(),
                busy: None,
                head_exit: None,
            };
            let mut now = Time::ZERO;
            for (id, (gap, op)) in ops.into_iter().enumerate() {
                now += Dur::from_nanos(gap);
                // What has left by `now` leaves first, as a pipeline does.
                loop {
                    let got = link.pop_ready(now).map(|(t, f)| (t, f.id));
                    proptest::prop_assert_eq!(got, reference.pop_ready(now));
                    if got.is_none() {
                        break;
                    }
                }
                if op < 8 {
                    link.push(now, frame(id as u64, 1500));
                    reference.frames.push_back(id as u64);
                    reference.schedule(now);
                } else {
                    link.drop_all();
                    reference.frames.clear();
                    reference.head_exit = None;
                }
                proptest::prop_assert_eq!(link.next_ready(), reference.head_exit);
            }
        }
    }
}
