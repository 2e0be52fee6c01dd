//! One-direction paths assembled from stages.
//!
//! A [`Pipeline`] chains stages (typically queue+service → delay → loss)
//! and exposes a single `next_ready`/`poll_into` interface to the
//! simulation driver. It also carries the interface up/down gate used to emulate
//! physically unplugging a tethered phone mid-flow (paper Figure 15g/h):
//! cutting the gate immediately discards every frame queued inside the
//! pipeline (counted as `dropped_down`), and every frame pushed while
//! the gate is down is silently dropped.

use crate::frame::Frame;
use crate::stage::Stage;
use mpwifi_simcore::Time;
use std::cell::Cell;

/// Counters describing everything a pipeline did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Frames offered to the pipeline.
    pub pushed: u64,
    /// Frames that exited the far end.
    pub delivered: u64,
    /// Bytes that exited the far end.
    pub bytes_delivered: u64,
    /// Frames dropped by stages (queue overflow, random loss).
    pub dropped_in_stages: u64,
    /// Frames dropped because the interface was down.
    pub dropped_down: u64,
}

/// A one-direction emulated path.
pub struct Pipeline {
    label: String,
    stages: Vec<Box<dyn Stage>>,
    up: bool,
    stats: PipelineStats,
    /// Cached ready horizon: `Some(h)` means the min over all stages'
    /// `next_ready()` is exactly `h` (which may itself be `None` for a
    /// quiescent pipeline); the outer `None` means "dirty, recompute".
    /// Every mutation path (`push`, `poll_into` movement, `set_up`,
    /// `stage_mut`) invalidates it, so `next_ready` is an O(1) field
    /// read on the simulator's per-step due checks between mutations.
    horizon: Cell<Option<Option<Time>>>,
    /// Scratch for batch hand-off between stages, reused across polls.
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
    /// Build a pipeline from ordered stages (first stage is the ingress).
    pub fn new(label: impl Into<String>, stages: Vec<Box<dyn Stage>>) -> Pipeline {
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        Pipeline {
            label: label.into(),
            stages,
            up: true,
            stats: PipelineStats::default(),
            horizon: Cell::new(None),
            transfer: Vec::new(),
        }
    }

    /// Drop the cached ready horizon after any stage mutation.
    fn invalidate_horizon(&mut self) {
        *self.horizon.get_mut() = None;
    }

    /// Human-readable label ("wifi-down", "lte-up", ...).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Raise or cut the link. Cutting models a physical unplug: silent
    /// black-holing with no notification to either endpoint. Frames
    /// queued inside the pipeline at cut time are discarded immediately
    /// and counted in `dropped_down` — a real NIC flushes its rings
    /// when the carrier drops; nothing is replayed on restore.
    pub fn set_up(&mut self, up: bool) {
        if !up && self.up {
            for s in &mut self.stages {
                self.stats.dropped_down += s.drop_all();
            }
        }
        self.up = up;
        self.invalidate_horizon();
    }

    /// Offer a frame to the ingress.
    pub fn push(&mut self, now: Time, frame: Frame) {
        self.stats.pushed += 1;
        if !self.up {
            self.stats.dropped_down += 1;
            return;
        }
        self.stages[0].push(now, frame);
        self.invalidate_horizon();
    }

    /// Earliest time any internal stage can emit a frame. Served from the
    /// cached horizon when clean — the stage scan runs at most once per
    /// mutation, so the simulator's repeated due checks are field reads.
    pub fn next_ready(&self) -> Option<Time> {
        if let Some(cached) = self.horizon.get() {
            return cached;
        }
        let h = self.stages.iter().filter_map(|s| s.next_ready()).min();
        self.horizon.set(Some(h));
        h
    }

    /// Advance internal frame movement up to `now` and append frames
    /// that exit the egress to a caller-provided buffer. Must be called
    /// with non-decreasing `now`. The caller owns `out` and its clearing
    /// policy (the driver drains it after delivery, so one buffer serves
    /// every step); this method only appends.
    ///
    /// Frames move in a single forward pass, a batch per stage: stage i
    /// pushes only into stage i+1 at the frame's true exit instant, so by
    /// the time stage i+1 drains, every frame that could reach it this
    /// poll already has — one pass leaves nothing due (the pre-PR 7
    /// fixpoint loop's extra passes only ever verified this).
    pub fn poll_into(&mut self, now: Time, out: &mut Vec<Frame>) {
        // Quiescent fast path: nothing is due, nothing can move.
        match self.next_ready() {
            Some(h) if h <= now => {}
            _ => return,
        }
        let last = self.stages.len() - 1;
        // `transfer` is a field only to reuse its allocation; take it to
        // split the borrow from `self.stages`.
        let mut transfer = std::mem::take(&mut self.transfer);
        for i in 0..=last {
            transfer.clear();
            self.stages[i].pop_ready_batch(now, &mut transfer);
            if i < last {
                // Hand frames over at their true transit instants, not
                // the (possibly later) poll instant.
                for (exit, frame) in transfer.drain(..) {
                    self.stages[i + 1].push(exit, frame);
                }
            } else if self.up {
                for (_, frame) in transfer.drain(..) {
                    self.stats.delivered += 1;
                    self.stats.bytes_delivered += frame.wire_len() as u64;
                    out.push(frame);
                }
            } else {
                self.stats.dropped_down += transfer.len() as u64;
                transfer.clear();
            }
        }
        self.transfer = transfer;
        self.invalidate_horizon();
    }

    /// Aggregate counters. Stage drop counts are read live, so the
    /// conservation identity `pushed == delivered + dropped_in_stages +
    /// dropped_down + backlog` holds at any instant, not only after a
    /// `poll`.
    pub fn stats(&self) -> PipelineStats {
        PipelineStats {
            dropped_in_stages: self.stages.iter().map(|s| s.dropped()).sum(),
            ..self.stats
        }
    }

    /// Total frames currently inside the pipeline.
    pub fn backlog(&self) -> usize {
        self.stages.iter().map(|s| s.backlog()).sum()
    }

    /// Mutable access to a stage (e.g. to change a link's service rate
    /// mid-run). Panics on out-of-range index. Conservatively drops the
    /// cached ready horizon — the caller may reschedule anything.
    pub fn stage_mut(&mut self, index: usize) -> &mut dyn Stage {
        self.invalidate_horizon();
        self.stages[index].as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Addr;
    use crate::stage::{DelayStage, LinkQueue, LossStage};
    use bytes::Bytes;
    use mpwifi_simcore::{DetRng, Dur};

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
            vec![
                Box::new(LinkQueue::fixed_rate(bps, usize::MAX)),
                Box::new(DelayStage::new(Dur::from_millis(delay_ms))),
            ],
        )
    }

    #[test]
    fn end_to_end_latency_is_serialization_plus_delay() {
        // 12 Mbit/s + 10 ms: a 1500-byte frame exits at 1 + 10 = 11 ms.
        let mut p = rate_delay_pipeline(12_000_000, 10);
        p.push(Time::ZERO, frame(1, 1500));
        assert_eq!(p.next_ready(), Some(Time::from_millis(1)));
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
    fn loss_stage_counted_in_stats() {
        let mut p = Pipeline::new(
            "lossy",
            vec![
                Box::new(LinkQueue::fixed_rate(120_000_000, usize::MAX)),
                Box::new(LossStage::new(1.0, DetRng::seed_from_u64(1))),
            ],
        );
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

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_panics() {
        let _ = Pipeline::new("empty", vec![]);
    }

    mod conservation {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Frames are conserved: every pushed frame is either
            /// delivered, dropped by a stage, dropped by the gate, or
            /// still inside the pipeline.
            #[test]
            fn prop_frames_conserved(
                sizes in proptest::collection::vec(40usize..1400, 1..120),
                bps in 100_000u64..50_000_000,
                queue_kb in 1usize..64,
                loss in 0.0f64..0.3,
                drain_ms in 0u64..2000,
            ) {
                let mut p = Pipeline::new(
                    "prop",
                    vec![
                        Box::new(LinkQueue::fixed_rate(bps, queue_kb * 1024)),
                        Box::new(DelayStage::new(Dur::from_millis(10))),
                        Box::new(LossStage::new(loss, DetRng::seed_from_u64(7))),
                    ],
                );
                let mut delivered = 0u64;
                for (i, &len) in sizes.iter().enumerate() {
                    p.push(Time::from_micros(i as u64 * 50), frame(i as u64, len));
                }
                delivered += poll(&mut p, Time::from_millis(drain_ms)).len() as u64;
                delivered += poll(&mut p, Time::from_secs(600)).len() as u64;
                let s = p.stats();
                prop_assert_eq!(s.delivered, delivered);
                prop_assert_eq!(
                    s.pushed,
                    s.delivered + s.dropped_in_stages + s.dropped_down + p.backlog() as u64
                );
                prop_assert_eq!(p.backlog(), 0, "fully drained after 600 s");
            }
        }
    }
}
