//! Lightweight per-run instrumentation.
//!
//! The simulator's hot paths (simulator steps, frame forwarding, byte
//! delivery, TCP retransmissions) bump this thread's one [`RunMetrics`]
//! through [`count`], naming the field in place; a harness brackets a
//! run with [`reset`] and [`snapshot`] to attribute counts to that run.
//! Counters are thread-local so a parallel experiment runner gets clean
//! per-worker attribution without any synchronization on the hot path —
//! each experiment runs entirely on one worker thread.
//!
//! Everything counted is a deterministic function of `(scenario, seed)`,
//! so snapshots are reproducible run-to-run and identical between serial
//! and parallel executions of the same experiment.

use std::cell::RefCell;

thread_local! {
    static RUN: RefCell<RunMetrics> = const { RefCell::new(RunMetrics::ZERO) };
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
    /// Every counter at zero: what [`reset`] stores.
    pub const ZERO: RunMetrics = RunMetrics {
        events_popped: 0,
        frames_forwarded: 0,
        bytes_delivered: 0,
        tcp_retransmits: 0,
        segments_encoded: 0,
        enc_buffers_reused: 0,
        enc_buffers_allocated: 0,
        scratch_high_water: 0,
        faults_injected: 0,
        segments_corrupted_dropped: 0,
        subflows_declared_dead: 0,
        reinjections: 0,
        recovery_time_us: 0,
        segments_dropped_unroutable: 0,
        sched_picks_rejected: 0,
        redundant_dups: 0,
        dup_bytes_dropped: 0,
    };

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

/// Bump this thread's counters: `f` names the fields it moves, as in
/// `count(|m| m.tcp_retransmits += 1)`.
#[inline]
pub fn count(f: impl FnOnce(&mut RunMetrics)) {
    RUN.with_borrow_mut(f);
}

/// Read this thread's counters.
pub fn snapshot() -> RunMetrics {
    RUN.with_borrow(|m| *m)
}

/// Zero this thread's counters.
pub fn reset() {
    RUN.set(RunMetrics::ZERO);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        count(|m| m.events_popped += 1);
        count(|m| m.events_popped += 1);
        count(|m| {
            m.frames_forwarded += 3;
            m.bytes_delivered += 1500;
        });
        count(|m| m.tcp_retransmits += 1);
        let s = snapshot();
        assert_eq!(s.events_popped, 2);
        assert_eq!(s.frames_forwarded, 3);
        assert_eq!(s.bytes_delivered, 1500);
        assert_eq!(s.tcp_retransmits, 1);
        reset();
        assert_eq!(snapshot(), RunMetrics::default());
        assert_eq!(RunMetrics::ZERO, RunMetrics::default());
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
        count(|m| m.frames_forwarded += 5);
        let base = snapshot();
        count(|m| m.frames_forwarded += 7);
        assert_eq!(snapshot().since(&base).frames_forwarded, 7);
    }

    #[test]
    fn scratch_high_water_keeps_peak() {
        reset();
        for n in [3, 11, 7] {
            count(|m| m.scratch_high_water = m.scratch_high_water.max(n));
        }
        assert_eq!(snapshot().scratch_high_water, 11);
        let base = RunMetrics::default();
        assert_eq!(snapshot().since(&base).scratch_high_water, 11);
    }

    #[test]
    fn fault_counters_accumulate_and_diff() {
        reset();
        count(|m| m.faults_injected += 2);
        count(|m| m.segments_corrupted_dropped += 1);
        count(|m| m.subflows_declared_dead += 1);
        count(|m| m.reinjections += 1);
        count(|m| m.recovery_time_us += 1_500);
        count(|m| m.recovery_time_us += 500);
        let base = snapshot();
        assert_eq!(base.faults_injected, 2);
        assert_eq!(base.segments_corrupted_dropped, 1);
        assert_eq!(base.subflows_declared_dead, 1);
        assert_eq!(base.reinjections, 1);
        assert_eq!(base.recovery_time_us, 2_000);
        count(|m| {
            m.faults_injected += 1;
            m.recovery_time_us += 100;
        });
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
        count(|m| m.events_popped += 1);
        let other = std::thread::spawn(|| {
            count(|m| m.events_popped += 1);
            snapshot().events_popped
        })
        .join()
        .unwrap();
        assert_eq!(other, 1, "fresh thread starts from zero");
        assert_eq!(snapshot().events_popped, 1);
    }
}
