//! One-direction paths: queue → delay → tail.
//!
//! A [`Pipeline`] is the shape of a Mahimahi shell: a drop-tail
//! [`LinkQueue`] with its delivery process, a propagation
//! [`DelayStage`], and a *tail* of per-frame decisions — [`Filter`]s
//! (loss, burst loss, corruption), which hold nothing, and
//! frame-holding [`Stage`]s (reordering). It exposes a single
//! `next_ready`/`poll_into` interface to the simulation driver and
//! carries the interface up/down gate used to emulate physically
//! unplugging a tethered phone mid-flow (paper Figure 15g/h): cutting
//! the gate immediately discards every frame held inside the pipeline
//! (counted as `dropped_down`), and every frame pushed while the gate
//! is down is silently dropped.
//!
//! `next_ready` is the earliest instant a frame can leave the far end,
//! not the next instant one moves inside: a frame that leaves the queue
//! is handed to the delay lazily — at the next poll, or first thing in
//! a `push`, `set_rate` or `set_delay`, the three mutations that depend
//! on what has already left — and always at its departure instant, so
//! every exit is what it would be had each frame moved the moment it
//! left. A driver that steps at `next_ready` steps once per delivery,
//! not once at the departure and again at the exit.

use crate::frame::Frame;
use crate::stage::{DelayStage, Filter, LinkQueue, Service, Stage};
use mpwifi_simcore::{Dur, Time};

/// Counters describing everything a pipeline did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Frames offered to the pipeline.
    pub pushed: u64,
    /// Frames that exited the far end.
    pub delivered: u64,
    /// Bytes that exited the far end.
    pub bytes_delivered: u64,
    /// Frames dropped by the queue (overflow) or in the tail (loss).
    pub dropped_in_stages: u64,
    /// Frames dropped because the interface was down.
    pub dropped_down: u64,
}

/// One element of a pipeline's tail, in the order frames meet them.
enum Tail {
    /// Decides on each frame as it passes; holds nothing.
    Filter(Box<dyn Filter>),
    /// Holds frames until their exit times.
    Holder(Box<dyn Stage>),
}

/// A one-direction emulated path.
pub struct Pipeline {
    label: String,
    queue: LinkQueue,
    delay: DelayStage,
    tail: Vec<Tail>,
    up: bool,
    stats: PipelineStats,
    /// Scratch for the batch moving down the tail, reused across polls.
    transfer: Vec<(Time, Frame)>,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("label", &self.label)
            .field("up", &self.up)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Pipeline {
    /// Build a pipeline with an empty tail: frames exit `queue`, then
    /// `delay`, then the far end.
    pub fn new(label: impl Into<String>, queue: LinkQueue, delay: DelayStage) -> Pipeline {
        Pipeline {
            label: label.into(),
            queue,
            delay,
            tail: Vec::new(),
            up: true,
            stats: PipelineStats::default(),
            transfer: Vec::new(),
        }
    }

    /// Append a filter to the tail.
    pub fn with_filter(mut self, filter: impl Filter + 'static) -> Pipeline {
        self.tail.push(Tail::Filter(Box::new(filter)));
        self
    }

    /// Append a frame-holding stage to the tail.
    pub fn with_stage(mut self, stage: impl Stage + 'static) -> Pipeline {
        self.tail.push(Tail::Holder(Box::new(stage)));
        self
    }

    /// The tail's frame-holding stages.
    fn holders(&self) -> impl Iterator<Item = &dyn Stage> {
        self.tail.iter().filter_map(|t| match t {
            Tail::Holder(s) => Some(s.as_ref()),
            Tail::Filter(_) => None,
        })
    }

    /// Hand every frame that left the queue at or before `upto` to the
    /// delay, at its departure instant.
    fn depart(&mut self, upto: Time) {
        while let Some((exit, frame)) = self.queue.pop_ready(upto) {
            self.delay.push(exit, frame);
        }
    }

    /// [`Self::depart`] for the frames that left strictly before `now`:
    /// a script change at `now` comes before that instant's poll in the
    /// simulator's step, so a frame leaving at `now` meets the change.
    fn depart_before(&mut self, now: Time) {
        if now > Time::ZERO {
            self.depart(now - Dur::from_nanos(1));
        }
    }

    /// Human-readable label ("wifi-down", "lte-up", ...).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Raise or cut the link. Cutting models a physical unplug: silent
    /// black-holing with no notification to either endpoint. Frames
    /// held inside the pipeline at cut time are discarded immediately
    /// and counted in `dropped_down` — a real NIC flushes its rings
    /// when the carrier drops; nothing is replayed on restore.
    pub fn set_up(&mut self, up: bool) {
        if !up && self.up {
            self.stats.dropped_down += self.queue.drop_all() + self.delay.drop_all();
            for t in &mut self.tail {
                if let Tail::Holder(s) = t {
                    self.stats.dropped_down += s.drop_all();
                }
            }
        }
        self.up = up;
    }

    /// Serve the queue at a fixed `bps` from `now` on (a WiFi AP
    /// degrading, a rate-crush fault): frames that left before `now`
    /// have left, and the frame in service keeps its fractional
    /// progress, see [`LinkQueue::set_service`].
    pub fn set_rate(&mut self, now: Time, bps: u64) {
        self.depart_before(now);
        self.queue.set_service(now, Service::FixedRate { bps });
    }

    /// Change the propagation delay from `now` on: a frame that left the
    /// queue before `now` keeps the delay it left under, one that leaves
    /// at `now` or later gets `delay`. Frames in the delay keep their
    /// exit times.
    pub fn set_delay(&mut self, now: Time, delay: Dur) {
        self.depart_before(now);
        self.delay.set_delay(delay);
    }

    /// Offer a frame to the ingress. What has left the queue by `now`
    /// makes room first, and a frame that finds the server idle starts
    /// its service at `now`.
    pub fn push(&mut self, now: Time, frame: Frame) {
        self.stats.pushed += 1;
        if !self.up {
            self.stats.dropped_down += 1;
            return;
        }
        self.depart(now);
        self.queue.push(now, frame);
    }

    /// Earliest instant a frame can leave the far end: the minimum of
    /// the delay's front exit, the queue head's departure plus the
    /// delay's current one-way delay, and the tail stages' exits. It is
    /// a lower bound — a frame may leave later (the delay's FIFO clamp,
    /// a tail filter dropping it), never earlier — so a poll at it may
    /// find nothing, and then `next_ready` moves on. Computed from the
    /// three parts on every call.
    pub fn next_ready(&self) -> Option<Time> {
        let tail = self.holders().filter_map(|s| s.next_ready()).min();
        let head = self.queue.next_ready().map(|t| t + self.delay.delay());
        Time::earlier(Time::earlier(head, self.delay.next_ready()), tail)
    }

    /// Advance internal frame movement up to `now` and append frames
    /// that exit the egress to a caller-provided buffer. Must be called
    /// with non-decreasing `now`. The caller owns `out` and its clearing
    /// policy (the driver drains it after delivery, so one buffer serves
    /// every step); this method only appends.
    ///
    /// Frames move in a single forward pass: each holder hands a frame
    /// on at the frame's true exit instant, never the (possibly later)
    /// poll instant, and only ever forwards, so by the time a holder
    /// gives up what is due, every frame that could reach it this poll
    /// already has — one pass leaves nothing due. That is what makes the
    /// queue-to-delay move lazy for free: a frame that left the queue
    /// long before this poll enters the delay at its departure instant
    /// all the same. A filter decides on each frame of the moving batch
    /// at the instant the frame left the holder before it.
    pub fn poll_into(&mut self, now: Time, out: &mut Vec<Frame>) {
        // Quiescent fast path: nothing can leave the far end by `now`,
        // and what has left the queue can wait in it.
        match self.next_ready() {
            Some(h) if h <= now => {}
            _ => return,
        }
        // `set_up(false)` flushed every holder and `push` refuses while
        // down, so something due means the link is up.
        debug_assert!(self.up, "a down pipeline holds nothing");
        self.depart(now);
        // `transfer` is a field only to reuse its allocation; take it to
        // split the borrow from `self.tail`.
        let mut batch = std::mem::take(&mut self.transfer);
        self.delay.pop_ready_batch(now, &mut batch);
        for t in &mut self.tail {
            match t {
                Tail::Filter(f) => batch.retain_mut(|(at, frame)| f.admit(*at, frame)),
                Tail::Holder(s) => {
                    for (at, frame) in batch.drain(..) {
                        s.push(at, frame);
                    }
                    s.pop_ready_batch(now, &mut batch);
                }
            }
        }
        for (_, frame) in batch.drain(..) {
            self.stats.delivered += 1;
            self.stats.bytes_delivered += frame.wire_len() as u64;
            out.push(frame);
        }
        self.transfer = batch;
    }

    /// Aggregate counters. Drop counts are read live, so the
    /// conservation identity `pushed == delivered + dropped_in_stages +
    /// dropped_down + backlog` holds at any instant, not only after a
    /// `poll`.
    pub fn stats(&self) -> PipelineStats {
        let in_tail: u64 = self
            .tail
            .iter()
            .map(|t| match t {
                Tail::Filter(f) => f.dropped(),
                Tail::Holder(s) => s.dropped(),
            })
            .sum();
        PipelineStats {
            dropped_in_stages: self.queue.dropped() + in_tail,
            ..self.stats
        }
    }

    /// Total frames currently inside the pipeline: in the queue, the
    /// delay and the tail's stages (filters hold none).
    pub fn backlog(&self) -> usize {
        self.queue.backlog()
            + self.delay.backlog()
            + self.holders().map(|s| s.backlog()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Addr;
    use crate::stage::LossFilter;
    use bytes::Bytes;
    use mpwifi_simcore::DetRng;

    fn frame(id: u64, len: usize) -> Frame {
        Frame::new(
            id,
            Addr(1),
            Addr(2),
            Bytes::from(vec![0u8; len]),
            Time::ZERO,
        )
    }

    /// Test-local allocating wrapper: keeps assertions terse without
    /// reviving the production `poll` (drivers reuse scratch buffers
    /// via `poll_into`).
    fn poll(p: &mut Pipeline, now: Time) -> Vec<Frame> {
        let mut out = Vec::new();
        p.poll_into(now, &mut out);
        out
    }

    fn rate_delay_pipeline(bps: u64, delay_ms: u64) -> Pipeline {
        Pipeline::new(
            "test",
            LinkQueue::fixed_rate(bps, usize::MAX),
            DelayStage::new(Dur::from_millis(delay_ms)),
        )
    }

    #[test]
    fn end_to_end_latency_is_serialization_plus_delay() {
        // 12 Mbit/s + 10 ms: a 1500-byte frame exits at 1 + 10 = 11 ms,
        // and that, not its 1 ms departure, is when the pipeline is next
        // ready.
        let mut p = rate_delay_pipeline(12_000_000, 10);
        p.push(Time::ZERO, frame(1, 1500));
        assert_eq!(p.next_ready(), Some(Time::from_millis(11)));
        // Polling at 10 ms moves the frame out of the queue (at its true
        // 1 ms exit) into the delay stage; it exits end-to-end at 11 ms
        // even though this poll happened "late".
        assert!(poll(&mut p, Time::from_millis(10)).is_empty());
        assert_eq!(p.next_ready(), Some(Time::from_millis(11)));
        let out = poll(&mut p, Time::from_millis(11));
        assert_eq!(out.len(), 1);
        assert_eq!(p.stats().delivered, 1);
        assert_eq!(p.stats().bytes_delivered, 1500);
    }

    #[test]
    fn poll_moves_multiple_frames_in_one_call() {
        let mut p = rate_delay_pipeline(12_000_000, 5);
        for i in 0..3 {
            p.push(Time::ZERO, frame(i, 1500));
        }
        // By 20 ms all three have fully exited (1,2,3 ms + 5 ms delay).
        let out = poll(&mut p, Time::from_millis(20));
        assert_eq!(out.len(), 3);
        assert_eq!(out.iter().map(|f| f.id).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn down_pipeline_blackholes_pushes() {
        let mut p = rate_delay_pipeline(12_000_000, 1);
        p.set_up(false);
        p.push(Time::ZERO, frame(1, 100));
        assert_eq!(p.stats().dropped_down, 1);
        assert!(p.next_ready().is_none());
        assert!(poll(&mut p, Time::from_secs(1)).is_empty());
    }

    #[test]
    fn frames_in_flight_when_link_cut_are_dropped_immediately() {
        let mut p = rate_delay_pipeline(12_000_000, 10);
        p.push(Time::ZERO, frame(1, 1500));
        p.set_up(false);
        // Cut semantics: the queued frame is flushed at cut time, so
        // the pipeline is empty before any poll happens.
        assert_eq!(p.backlog(), 0);
        assert_eq!(p.stats().dropped_down, 1);
        let out = poll(&mut p, Time::from_secs(1));
        assert!(out.is_empty());
        // Re-raising the link lets later frames through.
        p.set_up(true);
        p.push(Time::from_secs(1), frame(2, 1500));
        let out = poll(&mut p, Time::from_secs(2));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn cut_flushes_every_stage_and_restores_clean() {
        // Frames spread across the queue and the delay stage: two
        // pushed back-to-back (second still in the queue when the
        // first reaches the delay stage), then the link is cut.
        let mut p = rate_delay_pipeline(12_000_000, 10);
        p.push(Time::ZERO, frame(1, 1500)); // leaves queue at 1 ms
        p.push(Time::ZERO, frame(2, 1500)); // leaves queue at 2 ms
        assert!(poll(&mut p, Time::from_micros(1_500)).is_empty());
        assert_eq!(p.backlog(), 2, "one in delay, one still queued");
        p.set_up(false);
        assert_eq!(p.backlog(), 0, "down flushes queued frames");
        let s = p.stats();
        assert_eq!(s.dropped_down, 2);
        assert_eq!(s.pushed, s.delivered + s.dropped_in_stages + s.dropped_down);
        // Nothing from before the cut ever re-emerges after restore.
        p.set_up(true);
        assert!(poll(&mut p, Time::from_secs(5)).is_empty());
        p.push(Time::from_secs(5), frame(3, 1500));
        let out = poll(&mut p, Time::from_secs(6));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 3);
    }

    #[test]
    fn loss_filter_counted_in_stats() {
        let mut p = rate_delay_pipeline(120_000_000, 0)
            .with_filter(LossFilter::new(1.0, DetRng::seed_from_u64(1)));
        p.push(Time::ZERO, frame(1, 100));
        let out = poll(&mut p, Time::from_secs(1));
        assert!(out.is_empty());
        assert_eq!(p.stats().dropped_in_stages, 1);
    }

    #[test]
    fn backlog_reflects_queued_frames() {
        let mut p = rate_delay_pipeline(1_000, 1); // very slow link
        for i in 0..4 {
            p.push(Time::ZERO, frame(i, 1000));
        }
        assert_eq!(p.backlog(), 4);
    }

    mod conservation {
        use super::*;
        use crate::faults::{CorruptFilter, GilbertElliott, GilbertElliottFilter};
        use crate::reorder::ReorderStage;
        use proptest::prelude::*;

        proptest! {
            /// Frames are conserved: every pushed frame is either
            /// delivered, dropped by the queue or a filter, dropped by
            /// the gate, or still held by the queue, the delay or a
            /// tail stage — at every instant, across a cut and a
            /// restore. And a filter only ever removes frames: it adds
            /// no exit time and no backlog, and what it drops is
            /// counted the moment `poll_into` returns.
            #[test]
            fn prop_frames_conserved(
                sizes in proptest::collection::vec(40usize..1400, 1..120),
                bps in 100_000u64..50_000_000,
                queue_kb in 1usize..64,
                loss in 0.0f64..0.3,
                gap_us in 50u64..2_000,
                reorder: bool,
                episode_ms in (0u64..100, 1u64..100),
                cut_at in 0usize..120,
                down_for in 0usize..20,
                drain_ms in 0u64..2000,
            ) {
                let rng = DetRng::seed_from_u64;
                // Everything up to the last frame-holding stage. A
                // filter ahead of a holder decides what the holder
                // holds, so it belongs to both twins.
                let holders = || {
                    let p = Pipeline::new(
                        "prop",
                        LinkQueue::fixed_rate(bps, queue_kb * 1024),
                        DelayStage::new(Dur::from_millis(10)),
                    );
                    if reorder {
                        p.with_filter(LossFilter::new(loss, rng(5)))
                            .with_stage(ReorderStage::new(0.3, Dur::from_millis(5), rng(6)))
                    } else {
                        p
                    }
                };
                let episode =
                    Time::from_millis(episode_ms.0)..Time::from_millis(episode_ms.0 + episode_ms.1);
                let mut bare = holders();
                let mut p = holders()
                    .with_filter(LossFilter::new(loss, rng(7)))
                    .with_filter(GilbertElliottFilter::new(episode.clone(), GilbertElliott::default(), rng(8)))
                    .with_filter(CorruptFilter::new(episode, 0.5, rng(9)));
                let (mut delivered, mut bare_delivered) = (0u64, 0u64);
                let mut step = |p: &mut Pipeline, bare: &mut Pipeline, now: Time| {
                    delivered += poll(p, now).len() as u64;
                    bare_delivered += poll(bare, now).len() as u64;
                    let (s, b) = (p.stats(), bare.stats());
                    prop_assert_eq!(s.delivered, delivered);
                    prop_assert_eq!(
                        s.pushed,
                        s.delivered + s.dropped_in_stages + s.dropped_down + p.backlog() as u64
                    );
                    prop_assert_eq!(p.next_ready(), bare.next_ready(), "a filter has no exit time");
                    prop_assert_eq!(p.backlog(), bare.backlog(), "a filter holds nothing");
                    prop_assert_eq!(s.dropped_down, b.dropped_down);
                    prop_assert_eq!(
                        bare_delivered,
                        delivered + (s.dropped_in_stages - b.dropped_in_stages),
                        "filter drops are counted when poll_into returns"
                    );
                    Ok(())
                };
                let mut now = Time::ZERO;
                for (i, &len) in sizes.iter().enumerate() {
                    now = Time::from_micros(i as u64 * gap_us);
                    if i == cut_at || i == cut_at + down_for {
                        let up = i != cut_at;
                        p.set_up(up);
                        bare.set_up(up);
                    }
                    p.push(now, frame(i as u64, len));
                    bare.push(now, frame(i as u64, len));
                    prop_assert_eq!(p.next_ready(), bare.next_ready());
                    step(&mut p, &mut bare, now)?;
                }
                p.set_up(true);
                bare.set_up(true);
                step(&mut p, &mut bare, now.max(Time::from_millis(drain_ms)))?;
                step(&mut p, &mut bare, Time::from_secs(600))?;
                prop_assert_eq!(p.backlog(), 0, "fully drained after 600 s");
            }
        }
    }
}
