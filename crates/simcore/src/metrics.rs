//! Lightweight per-run instrumentation.
//!
//! The simulator's hot paths (event queue pops, frame forwarding, byte
//! delivery, TCP retransmissions) bump thread-local counters through the
//! free functions here; a harness brackets a run with [`reset`] and
//! [`snapshot`] to attribute counts to that run. Counters are
//! thread-local so a parallel experiment runner gets clean per-worker
//! attribution without any synchronization on the hot path — each
//! experiment runs entirely on one worker thread.
//!
//! Everything counted is a deterministic function of `(scenario, seed)`,
//! so snapshots are reproducible run-to-run and identical between serial
//! and parallel executions of the same experiment.

use std::cell::Cell;

thread_local! {
    static EVENTS_POPPED: Cell<u64> = const { Cell::new(0) };
    static FRAMES_FORWARDED: Cell<u64> = const { Cell::new(0) };
    static BYTES_DELIVERED: Cell<u64> = const { Cell::new(0) };
    static TCP_RETRANSMITS: Cell<u64> = const { Cell::new(0) };
    static SEGMENTS_ENCODED: Cell<u64> = const { Cell::new(0) };
    static ENC_BUFFERS_REUSED: Cell<u64> = const { Cell::new(0) };
    static ENC_BUFFERS_ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static SCRATCH_HIGH_WATER: Cell<u64> = const { Cell::new(0) };
    static FAULTS_INJECTED: Cell<u64> = const { Cell::new(0) };
    static SEGMENTS_CORRUPTED_DROPPED: Cell<u64> = const { Cell::new(0) };
    static SUBFLOWS_DECLARED_DEAD: Cell<u64> = const { Cell::new(0) };
    static REINJECTIONS: Cell<u64> = const { Cell::new(0) };
    static RECOVERY_TIME_US: Cell<u64> = const { Cell::new(0) };
    static SEGMENTS_DROPPED_UNROUTABLE: Cell<u64> = const { Cell::new(0) };
    static SCHED_PICKS_REJECTED: Cell<u64> = const { Cell::new(0) };
    static REDUNDANT_DUPS: Cell<u64> = const { Cell::new(0) };
    static DUP_BYTES_DROPPED: Cell<u64> = const { Cell::new(0) };
}

/// A snapshot of this thread's instrumentation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Events dispatched: simulator event-loop steps. A step is an
    /// instant at which a frame leaves a link, a host timer is due, or
    /// the script acts; the simulator finds the next one by polling its
    /// links' `next_ready` and its hosts' `next_timer`.
    /// [`crate::EventQueue::pop`] bumps this too, but no product code
    /// runs an `EventQueue`, so in every report this is a count of
    /// steps.
    pub events_popped: u64,
    /// Frames moved through simulation links.
    pub frames_forwarded: u64,
    /// Payload bytes delivered to transport endpoints.
    pub bytes_delivered: u64,
    /// TCP segments retransmitted (timeout or fast retransmit).
    pub tcp_retransmits: u64,
    /// TCP segments handed to a link. The name is from when every one
    /// was encoded on the way; a frame now carries its segment typed and
    /// bytes are made only where a filter alters them, so this counts
    /// segments sent, encoded or not.
    pub segments_encoded: u64,
    /// Encodes through a pooled encoder (`mpwifi_tcp::SegmentBufPool`)
    /// served by recycling a buffer. The simulator encodes nothing
    /// through the pool, so every simulated run reports zero here.
    pub enc_buffers_reused: u64,
    /// Encodes through a pooled encoder that had to grow the pool with a
    /// fresh buffer (warm-up, or every outstanding buffer still
    /// referenced). Zero in every simulated run, as above.
    pub enc_buffers_allocated: u64,
    /// High-water mark of frames held in any single polling scratch
    /// buffer — the largest burst a reused `Vec<Frame>` absorbed.
    pub scratch_high_water: u64,
    /// Fault events fired from a `FaultPlan` timeline (blackouts,
    /// restores, loss/corruption episode starts, delay spikes, rate
    /// crushes). Zero whenever no plan is attached.
    pub faults_injected: u64,
    /// Wire images that arrived undecodable (failed checksum or
    /// malformed header) and were dropped without reaching a stack.
    pub segments_corrupted_dropped: u64,
    /// MPTCP subflows declared dead (silent RTO-count detection or an
    /// explicit interface-down notification).
    pub subflows_declared_dead: u64,
    /// Connection-level data chunks reinjected from a dead subflow onto
    /// a survivor.
    pub reinjections: u64,
    /// Microseconds spent recovering from subflow death: from the
    /// moment a subflow is declared dead until connection-level data
    /// delivery next advances. Summed over recovery episodes.
    pub recovery_time_us: u64,
    /// Decoded segments that arrived with no routable destination (an
    /// MPTCP subflow index outside the connection's table, or a port
    /// pair no socket claims) and were dropped instead of panicking.
    pub segments_dropped_unroutable: u64,
    /// MPTCP scheduler decisions rejected because the returned subflow
    /// index was not among the offered views; the send pass skips the
    /// round instead of panicking.
    pub sched_picks_rejected: u64,
    /// Chunk copies pushed by the Redundant scheduler onto additional
    /// subflows (beyond the primary carrier).
    pub redundant_dups: u64,
    /// Bytes a receiver discarded because their DSN range was already
    /// delivered — redundant copies and reinjection races.
    pub dup_bytes_dropped: u64,
}

impl RunMetrics {
    /// Every counter by name, in declaration order, writable: the one
    /// list the `--metrics` sidecar and the serve protocol render and
    /// parse from, so a counter added here reaches both.
    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); 17] {
        [
            ("events_popped", &mut self.events_popped),
            ("frames_forwarded", &mut self.frames_forwarded),
            ("bytes_delivered", &mut self.bytes_delivered),
            ("tcp_retransmits", &mut self.tcp_retransmits),
            ("segments_encoded", &mut self.segments_encoded),
            ("enc_buffers_reused", &mut self.enc_buffers_reused),
            ("enc_buffers_allocated", &mut self.enc_buffers_allocated),
            ("scratch_high_water", &mut self.scratch_high_water),
            ("faults_injected", &mut self.faults_injected),
            (
                "segments_corrupted_dropped",
                &mut self.segments_corrupted_dropped,
            ),
            ("subflows_declared_dead", &mut self.subflows_declared_dead),
            ("reinjections", &mut self.reinjections),
            ("recovery_time_us", &mut self.recovery_time_us),
            (
                "segments_dropped_unroutable",
                &mut self.segments_dropped_unroutable,
            ),
            ("sched_picks_rejected", &mut self.sched_picks_rejected),
            ("redundant_dups", &mut self.redundant_dups),
            ("dup_bytes_dropped", &mut self.dup_bytes_dropped),
        ]
    }

    /// Every counter as `(name, value)`, in declaration order.
    pub fn fields(&self) -> [(&'static str, u64); 17] {
        let mut copy = *self;
        copy.fields_mut().map(|(name, v)| (name, *v))
    }

    /// Counter-wise difference (`self` minus an earlier `baseline`).
    /// `scratch_high_water` is a peak, not a sum, so the later snapshot's
    /// value is reported as-is.
    pub fn since(&self, baseline: &RunMetrics) -> RunMetrics {
        let mut delta = *self;
        for ((_, v), (_, base)) in delta.fields_mut().into_iter().zip(baseline.fields()) {
            *v -= base;
        }
        delta.scratch_high_water = self.scratch_high_water;
        delta
    }
}

/// Record one event-queue pop.
#[inline]
pub fn record_event_pop() {
    EVENTS_POPPED.with(|c| c.set(c.get() + 1));
}

/// Record `n` frames forwarded through a link.
#[inline]
pub fn record_frames_forwarded(n: u64) {
    FRAMES_FORWARDED.with(|c| c.set(c.get() + n));
}

/// Record `n` payload bytes delivered to an endpoint.
#[inline]
pub fn record_bytes_delivered(n: u64) {
    BYTES_DELIVERED.with(|c| c.set(c.get() + n));
}

/// Record one TCP retransmission.
#[inline]
pub fn record_tcp_retransmit() {
    TCP_RETRANSMITS.with(|c| c.set(c.get() + 1));
}

/// Record one segment handed to a link.
#[inline]
pub fn record_segment_sent() {
    SEGMENTS_ENCODED.with(|c| c.set(c.get() + 1));
}

/// Record one encode through a pooled encoder; `reused` says whether it
/// recycled an existing buffer or grew the pool.
#[inline]
pub fn record_pooled_encode(reused: bool) {
    if reused {
        ENC_BUFFERS_REUSED.with(|c| c.set(c.get() + 1));
    } else {
        ENC_BUFFERS_ALLOCATED.with(|c| c.set(c.get() + 1));
    }
}

/// Record the fill level of a polling scratch buffer; keeps the maximum.
#[inline]
pub fn record_scratch_high_water(n: u64) {
    SCRATCH_HIGH_WATER.with(|c| c.set(c.get().max(n)));
}

/// Record one fault event fired from a fault plan.
#[inline]
pub fn record_fault_injected() {
    FAULTS_INJECTED.with(|c| c.set(c.get() + 1));
}

/// Record one undecodable wire image dropped before reaching a stack.
#[inline]
pub fn record_segment_corrupted_dropped() {
    SEGMENTS_CORRUPTED_DROPPED.with(|c| c.set(c.get() + 1));
}

/// Record one MPTCP subflow declared dead.
#[inline]
pub fn record_subflow_declared_dead() {
    SUBFLOWS_DECLARED_DEAD.with(|c| c.set(c.get() + 1));
}

/// Record one connection-level chunk reinjected onto a surviving
/// subflow.
#[inline]
pub fn record_reinjection() {
    REINJECTIONS.with(|c| c.set(c.get() + 1));
}

/// Record `us` microseconds of subflow-death recovery time.
#[inline]
pub fn record_recovery_time_us(us: u64) {
    RECOVERY_TIME_US.with(|c| c.set(c.get() + us));
}

/// Record one decoded segment dropped for want of a routable owner.
#[inline]
pub fn record_segment_dropped_unroutable() {
    SEGMENTS_DROPPED_UNROUTABLE.with(|c| c.set(c.get() + 1));
}

/// Record one scheduler pick rejected as out of range.
#[inline]
pub fn record_sched_pick_rejected() {
    SCHED_PICKS_REJECTED.with(|c| c.set(c.get() + 1));
}

/// Record one Redundant-scheduler chunk copy pushed onto an extra
/// subflow.
#[inline]
pub fn record_redundant_dup() {
    REDUNDANT_DUPS.with(|c| c.set(c.get() + 1));
}

/// Record `n` bytes discarded at a receiver as already-delivered
/// duplicates.
#[inline]
pub fn record_dup_bytes_dropped(n: u64) {
    DUP_BYTES_DROPPED.with(|c| c.set(c.get() + n));
}

/// Read this thread's counters.
pub fn snapshot() -> RunMetrics {
    RunMetrics {
        events_popped: EVENTS_POPPED.with(Cell::get),
        frames_forwarded: FRAMES_FORWARDED.with(Cell::get),
        bytes_delivered: BYTES_DELIVERED.with(Cell::get),
        tcp_retransmits: TCP_RETRANSMITS.with(Cell::get),
        segments_encoded: SEGMENTS_ENCODED.with(Cell::get),
        enc_buffers_reused: ENC_BUFFERS_REUSED.with(Cell::get),
        enc_buffers_allocated: ENC_BUFFERS_ALLOCATED.with(Cell::get),
        scratch_high_water: SCRATCH_HIGH_WATER.with(Cell::get),
        faults_injected: FAULTS_INJECTED.with(Cell::get),
        segments_corrupted_dropped: SEGMENTS_CORRUPTED_DROPPED.with(Cell::get),
        subflows_declared_dead: SUBFLOWS_DECLARED_DEAD.with(Cell::get),
        reinjections: REINJECTIONS.with(Cell::get),
        recovery_time_us: RECOVERY_TIME_US.with(Cell::get),
        segments_dropped_unroutable: SEGMENTS_DROPPED_UNROUTABLE.with(Cell::get),
        sched_picks_rejected: SCHED_PICKS_REJECTED.with(Cell::get),
        redundant_dups: REDUNDANT_DUPS.with(Cell::get),
        dup_bytes_dropped: DUP_BYTES_DROPPED.with(Cell::get),
    }
}

/// Zero this thread's counters.
pub fn reset() {
    EVENTS_POPPED.with(|c| c.set(0));
    FRAMES_FORWARDED.with(|c| c.set(0));
    BYTES_DELIVERED.with(|c| c.set(0));
    TCP_RETRANSMITS.with(|c| c.set(0));
    SEGMENTS_ENCODED.with(|c| c.set(0));
    ENC_BUFFERS_REUSED.with(|c| c.set(0));
    ENC_BUFFERS_ALLOCATED.with(|c| c.set(0));
    SCRATCH_HIGH_WATER.with(|c| c.set(0));
    FAULTS_INJECTED.with(|c| c.set(0));
    SEGMENTS_CORRUPTED_DROPPED.with(|c| c.set(0));
    SUBFLOWS_DECLARED_DEAD.with(|c| c.set(0));
    REINJECTIONS.with(|c| c.set(0));
    RECOVERY_TIME_US.with(|c| c.set(0));
    SEGMENTS_DROPPED_UNROUTABLE.with(|c| c.set(0));
    SCHED_PICKS_REJECTED.with(|c| c.set(0));
    REDUNDANT_DUPS.with(|c| c.set(0));
    DUP_BYTES_DROPPED.with(|c| c.set(0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        record_event_pop();
        record_event_pop();
        record_frames_forwarded(3);
        record_bytes_delivered(1500);
        record_tcp_retransmit();
        let s = snapshot();
        assert_eq!(s.events_popped, 2);
        assert_eq!(s.frames_forwarded, 3);
        assert_eq!(s.bytes_delivered, 1500);
        assert_eq!(s.tcp_retransmits, 1);
        reset();
        assert_eq!(snapshot(), RunMetrics::default());
    }

    #[test]
    fn fields_name_every_counter_once_and_round_trip() {
        let mut m = RunMetrics::default();
        for (i, (_, slot)) in m.fields_mut().into_iter().enumerate() {
            *slot = i as u64 + 1;
        }
        // Exhaustive destructuring: a new counter fails to compile here
        // until it is also added to `fields_mut`.
        let RunMetrics {
            events_popped,
            frames_forwarded,
            bytes_delivered,
            tcp_retransmits,
            segments_encoded,
            enc_buffers_reused,
            enc_buffers_allocated,
            scratch_high_water,
            faults_injected,
            segments_corrupted_dropped,
            subflows_declared_dead,
            reinjections,
            recovery_time_us,
            segments_dropped_unroutable,
            sched_picks_rejected,
            redundant_dups,
            dup_bytes_dropped,
        } = m;
        let by_decl = [
            events_popped,
            frames_forwarded,
            bytes_delivered,
            tcp_retransmits,
            segments_encoded,
            enc_buffers_reused,
            enc_buffers_allocated,
            scratch_high_water,
            faults_injected,
            segments_corrupted_dropped,
            subflows_declared_dead,
            reinjections,
            recovery_time_us,
            segments_dropped_unroutable,
            sched_picks_rejected,
            redundant_dups,
            dup_bytes_dropped,
        ];
        assert_eq!(by_decl, std::array::from_fn(|i| i as u64 + 1));
        assert_eq!(m.fields().map(|(_, v)| v), by_decl);
        let mut names = m.fields().map(|(name, _)| name).to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 17, "every name distinct");
        assert_eq!(m.fields()[15].0, "redundant_dups");
        assert_eq!(m.fields()[16].0, "dup_bytes_dropped");
    }

    #[test]
    fn since_subtracts_baseline() {
        reset();
        record_frames_forwarded(5);
        let base = snapshot();
        record_frames_forwarded(7);
        assert_eq!(snapshot().since(&base).frames_forwarded, 7);
    }

    #[test]
    fn sends_and_pooled_encodes_are_counted_apart() {
        reset();
        record_segment_sent();
        record_pooled_encode(false);
        record_pooled_encode(true);
        record_pooled_encode(true);
        let s = snapshot();
        assert_eq!(s.segments_encoded, 1);
        assert_eq!(s.enc_buffers_allocated, 1);
        assert_eq!(s.enc_buffers_reused, 2);
    }

    #[test]
    fn scratch_high_water_keeps_peak() {
        reset();
        record_scratch_high_water(3);
        record_scratch_high_water(11);
        record_scratch_high_water(7);
        assert_eq!(snapshot().scratch_high_water, 11);
        let base = RunMetrics::default();
        assert_eq!(snapshot().since(&base).scratch_high_water, 11);
    }

    #[test]
    fn fault_counters_accumulate_and_diff() {
        reset();
        record_fault_injected();
        record_fault_injected();
        record_segment_corrupted_dropped();
        record_subflow_declared_dead();
        record_reinjection();
        record_recovery_time_us(1_500);
        record_recovery_time_us(500);
        let base = snapshot();
        assert_eq!(base.faults_injected, 2);
        assert_eq!(base.segments_corrupted_dropped, 1);
        assert_eq!(base.subflows_declared_dead, 1);
        assert_eq!(base.reinjections, 1);
        assert_eq!(base.recovery_time_us, 2_000);
        record_fault_injected();
        record_recovery_time_us(100);
        let d = snapshot().since(&base);
        assert_eq!(d.faults_injected, 1);
        assert_eq!(d.recovery_time_us, 100);
        assert_eq!(d.reinjections, 0);
        reset();
        assert_eq!(snapshot(), RunMetrics::default());
    }

    #[test]
    fn threads_do_not_share_counters() {
        reset();
        record_event_pop();
        let other = std::thread::spawn(|| {
            record_event_pop();
            snapshot().events_popped
        })
        .join()
        .unwrap();
        assert_eq!(other, 1, "fresh thread starts from zero");
        assert_eq!(snapshot().events_popped, 1);
    }
}
