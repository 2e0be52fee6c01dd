//! A deterministic event queue.
//!
//! [`EventQueue`] is a priority queue of `(Time, payload)` pairs with two
//! properties the simulator depends on:
//!
//! 1. **Stable ordering**: events scheduled for the same instant pop in
//!    the order they were pushed (FIFO tie-break via a monotone sequence
//!    number), so runs are reproducible regardless of queue internals.
//! 2. **Cancellation**: every push returns an [`EventId`] that can later be
//!    cancelled; cancelled entries are skipped lazily on drain, which keeps
//!    cancel O(1).
//!
//! Liveness is tracked in a dense window rather than a hash set: sequence
//! numbers are issued monotonically, so a `VecDeque<bool>` indexed by
//! `seq - base` (where `base` is advanced past the dead prefix) answers
//! "is this event still pending?" in O(1) without hashing on the
//! push/pop hot path, and makes cancelling an already-fired id a
//! detectable no-op instead of a bookkeeping leak.
//!
//! # Timer wheel
//!
//! Storage is a hashed hierarchical timer wheel rather than a single
//! binary heap: simulator workloads are overwhelmingly dense near-future
//! timers (link service completions microseconds out, RTOs tens of
//! milliseconds out), which a wheel turns into O(1) bucket pushes instead
//! of O(log n) heap sifts with `(Time, seq)` comparisons.
//!
//! * Time is bucketed into ticks of 2^`TICK_SHIFT` ns (~1 µs).
//! * `LEVELS` levels of `SLOTS` slots each hold pending entries;
//!   level `l`'s slot index for tick `t` is `(t >> 6l) & 63`, and an
//!   entry lives at the level of the highest 6-bit group in which its
//!   tick differs from the cursor. A per-level occupancy bitmap makes
//!   "next non-empty slot" a single `trailing_zeros`.
//! * Ticks more than `64^LEVELS` ahead of the cursor go to a small
//!   overflow heap and enter the wheel when the cursor jumps forward.
//! * Draining pulls the earliest occupied slot's entries into a sorted
//!   head run (`head`), restoring the exact global `(at, seq)` order —
//!   including FIFO ties within a tick — so pop order is bit-identical
//!   to the reference heap for arbitrary push/cancel/pop interleavings
//!   (pinned by a differential proptest below).

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Handle identifying a scheduled event, usable to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

/// log2 of the tick width in nanoseconds (1024 ns ≈ 1 µs).
const TICK_SHIFT: u32 = 10;
/// Slots per wheel level (one 6-bit digit of the tick).
const SLOTS: usize = 64;
/// Wheel levels; ticks ≥ 64^LEVELS ahead of the cursor overflow to a heap
/// (~17 s of horizon at 1 µs ticks — RTO and script timers all fit).
const LEVELS: usize = 4;

#[derive(Debug)]
struct Entry<T> {
    at: Time,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

fn tick_of(at: Time) -> u64 {
    at.as_nanos() >> TICK_SHIFT
}

/// A deterministic, cancellable priority queue of timed events.
///
/// ```
/// use mpwifi_simcore::{EventQueue, Time};
/// let mut q = EventQueue::new();
/// q.push(Time::from_millis(5), "later");
/// let id = q.push(Time::from_millis(1), "cancelled");
/// q.cancel(id);
/// assert_eq!(q.pop(), Some((Time::from_millis(5), "later")));
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Wheel slots: `slots[level][index]`, unsorted within a slot.
    slots: Vec<Vec<Vec<Entry<T>>>>,
    /// Per-level occupancy bitmaps (bit `i` set iff `slots[level][i]` is
    /// non-empty), so the drain scan is a `trailing_zeros`, not a walk.
    occ: [u64; LEVELS],
    /// Current wheel position in ticks. Invariants: every wheel entry has
    /// tick ≥ cursor (tick == cursor only at level 0, slot `cursor & 63`);
    /// everything at tick ≤ cursor that is still pending sits in `head`.
    cursor: u64,
    /// Sorted `(at, seq)` run being drained from the front. Late pushes
    /// at ticks ≤ cursor merge in by binary insertion, so pop order stays
    /// exactly the reference-heap order even for past-scheduled events.
    head: VecDeque<Entry<T>>,
    /// Entries beyond the wheel horizon, ordered by `(at, seq)`.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    /// Liveness window: `live[seq - base]` is true iff the event with
    /// that sequence number is still pending (pushed, not yet fired or
    /// cancelled). The dead prefix is trimmed eagerly, advancing `base`,
    /// so the window stays as small as the spread of outstanding seqs.
    live: VecDeque<bool>,
    /// Sequence number of `live[0]`; everything below has fired or been
    /// cancelled.
    base: u64,
    /// Number of `true` entries in `live` — the queue's live length.
    live_count: usize,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            occ: [0; LEVELS],
            cursor: 0,
            head: VecDeque::new(),
            overflow: BinaryHeap::new(),
            live: VecDeque::new(),
            base: 0,
            live_count: 0,
            next_seq: 0,
        }
    }

    /// Schedule `payload` to fire at `at`. Returns a handle for [`Self::cancel`].
    pub fn push(&mut self, at: Time, payload: T) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.push_back(true);
        self.live_count += 1;
        let e = Entry { at, seq, payload };
        if tick_of(at) <= self.cursor {
            // At or before the tick currently being drained (including
            // past-scheduled events): merge into the sorted head run.
            let pos = self
                .head
                .binary_search_by(|probe| (probe.at, probe.seq).cmp(&(e.at, e.seq)))
                .unwrap_err();
            self.head.insert(pos, e);
        } else {
            self.place(e);
        }
        EventId(seq)
    }

    /// Insert into the wheel or overflow. Precondition: `tick > cursor`,
    /// or `tick == cursor` (which lands at level 0, slot `cursor & 63`).
    fn place(&mut self, e: Entry<T>) {
        let tick = tick_of(e.at);
        let x = tick ^ self.cursor;
        let level = if x == 0 {
            0
        } else {
            ((63 - x.leading_zeros()) / 6) as usize
        };
        if level >= LEVELS {
            self.overflow.push(Reverse(e));
            return;
        }
        let idx = ((tick >> (6 * level)) & 63) as usize;
        self.slots[level][idx].push(e);
        self.occ[level] |= 1 << idx;
    }

    /// True iff `seq` identifies a pending (pushed, not fired, not
    /// cancelled) event.
    fn is_live(&self, seq: u64) -> bool {
        seq >= self.base && self.live[(seq - self.base) as usize]
    }

    /// Mark `seq` dead and trim the dead prefix of the window.
    fn kill(&mut self, seq: u64) {
        self.live[(seq - self.base) as usize] = false;
        self.live_count -= 1;
        while self.live.front() == Some(&false) {
            self.live.pop_front();
            self.base += 1;
        }
    }

    /// Cancel a previously scheduled event. Returns `true` if the event had
    /// not yet fired or been cancelled. Idempotent, including for ids that
    /// have already fired.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_seq || !self.is_live(id.0) {
            return false;
        }
        self.kill(id.0);
        true
    }

    /// The firing time of the earliest live event, if any.
    pub fn next_time(&mut self) -> Option<Time> {
        loop {
            self.drop_dead_head();
            if let Some(e) = self.head.front() {
                return Some(e.at);
            }
            if !self.refill_head() {
                return None;
            }
        }
    }

    /// Pop the earliest live event.
    pub fn pop(&mut self) -> Option<(Time, T)> {
        loop {
            self.drop_dead_head();
            if let Some(e) = self.head.pop_front() {
                self.kill(e.seq);
                crate::metrics::count(|m| m.events_popped += 1);
                return Some((e.at, e.payload));
            }
            if !self.refill_head() {
                return None;
            }
        }
    }

    /// Pop the earliest live event only if it fires at or before `now`.
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, T)> {
        match self.next_time() {
            Some(t) if t <= now => self.pop(),
            _ => None,
        }
    }

    /// Number of live (non-cancelled) events still queued.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// True iff no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Discard cancelled entries at the front of the head run.
    fn drop_dead_head(&mut self) {
        while let Some(e) = self.head.front() {
            if self.is_live(e.seq) {
                break;
            }
            self.head.pop_front();
        }
    }

    /// Move the earliest pending tick's entries into `head`, sorted by
    /// `(at, seq)`, advancing the cursor. Returns false iff the queue
    /// holds no entries at all. `head` must be empty on entry.
    fn refill_head(&mut self) -> bool {
        debug_assert!(self.head.is_empty());
        'scan: loop {
            for level in 0..LEVELS {
                let idx = ((self.cursor >> (6 * level)) & 63) as u32;
                // Level 0 includes the cursor's own slot (tick == cursor
                // entries placed after a partial drain); higher levels hold
                // only strictly-later digits.
                let mask = if level == 0 {
                    self.occ[0] >> idx << idx
                } else {
                    self.occ[level] & ((!0u64 << idx) << 1)
                };
                if mask == 0 {
                    continue;
                }
                let s = mask.trailing_zeros() as usize;
                let mut v = std::mem::take(&mut self.slots[level][s]);
                self.occ[level] &= !(1u64 << s);
                // Advance: keep digits above `level`, set digit `level`
                // to `s`, zero the digits below.
                let group = 6 * (level as u32);
                let above = self.cursor & (!0u64 << (group + 6));
                self.cursor = above | ((s as u64) << group);
                if level == 0 {
                    // Cancelled entries sit in the wheel until drained
                    // (lazy cancel); filter them before sorting.
                    v.retain(|e| self.is_live(e.seq));
                    v.sort_unstable_by_key(|e| (e.at, e.seq));
                    if v.is_empty() {
                        self.slots[0][s] = v;
                        continue 'scan;
                    }
                    self.head.extend(v.drain(..));
                    self.slots[0][s] = v;
                    return true;
                }
                // Redistribute a coarse slot into finer levels relative to
                // the advanced cursor (every tick here is ≥ cursor).
                for e in v.drain(..) {
                    self.place(e);
                }
                self.slots[level][s] = v;
                continue 'scan;
            }
            // Wheel exhausted: jump the cursor to the overflow horizon and
            // pull in everything that now fits.
            let Some(Reverse(front)) = self.overflow.peek() else {
                return false;
            };
            self.cursor = tick_of(front.at);
            let horizon = self.cursor >> (6 * LEVELS as u32);
            while let Some(Reverse(e)) = self.overflow.peek() {
                if tick_of(e.at) >> (6 * LEVELS as u32) != horizon {
                    break;
                }
                let Some(Reverse(e)) = self.overflow.pop() else {
                    break;
                };
                if tick_of(e.at) <= self.cursor {
                    // The minimum tick itself: heap pops ascending
                    // (at, seq), so appending preserves head order.
                    self.head.push_back(e);
                } else {
                    self.place(e);
                }
            }
            if !self.head.is_empty() {
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_millis(30), "c");
        q.push(Time::from_millis(10), "a");
        q.push(Time::from_millis(20), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut q = EventQueue::new();
        let t = Time::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let id_a = q.push(Time::from_millis(1), "a");
        q.push(Time::from_millis(2), "b");
        assert!(q.cancel(id_a));
        assert!(!q.cancel(id_a), "second cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn cancel_after_fire_is_rejected_and_len_stays_correct() {
        // Regression: cancelling an already-fired id used to insert into
        // the cancelled set with no matching heap entry, underflowing
        // `len()` (heap.len() - cancelled.len()).
        let mut q = EventQueue::new();
        let id_a = q.push(Time::from_millis(1), "a");
        let id_b = q.push(Time::from_millis(2), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert!(!q.cancel(id_a), "already-fired id cannot be cancelled");
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(!q.cancel(id_b), "fired ids stay dead");
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_then_pop_then_recancel_sequence() {
        // Interleave cancels and pops so the liveness window's base
        // watermark advances past both fired and cancelled seqs.
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..6).map(|i| q.push(Time::from_millis(i), i)).collect();
        assert!(q.cancel(ids[0]));
        assert_eq!(q.pop().unwrap().1, 1);
        assert!(!q.cancel(ids[0]), "cancel is idempotent across base trim");
        assert!(!q.cancel(ids[1]), "fired id rejected after base trim");
        assert!(q.cancel(ids[3]));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 4);
        assert_eq!(q.pop().unwrap().1, 5);
        assert!(q.is_empty());
    }

    #[test]
    fn next_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let id = q.push(Time::from_millis(1), "a");
        q.push(Time::from_millis(7), "b");
        q.cancel(id);
        assert_eq!(q.next_time(), Some(Time::from_millis(7)));
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(Time::from_millis(10), "a");
        assert!(q.pop_due(Time::from_millis(9)).is_none());
        assert_eq!(q.pop_due(Time::from_millis(10)).unwrap().1, "a");
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10).map(|i| q.push(Time::from_millis(i), i)).collect();
        for id in ids.iter().take(4) {
            q.cancel(*id);
        }
        assert_eq!(q.len(), 6);
        assert!(!q.is_empty());
    }

    #[test]
    fn sub_tick_ordering_within_one_bucket() {
        // Distinct nanosecond times that share a wheel tick must still pop
        // in exact time order, with FIFO for exact ties.
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(700), "b");
        q.push(Time::from_nanos(100), "a");
        q.push(Time::from_nanos(700), "b2");
        q.push(Time::from_nanos(1023), "c");
        assert_eq!(q.pop().unwrap(), (Time::from_nanos(100), "a"));
        assert_eq!(q.pop().unwrap(), (Time::from_nanos(700), "b"));
        assert_eq!(q.pop().unwrap(), (Time::from_nanos(700), "b2"));
        assert_eq!(q.pop().unwrap(), (Time::from_nanos(1023), "c"));
    }

    #[test]
    fn far_future_overflow_round_trips() {
        // Beyond the wheel horizon (64^4 ticks ≈ 17 s): overflow heap.
        let mut q = EventQueue::new();
        q.push(Time::from_secs(3600), "hour");
        q.push(Time::from_secs(60), "minute");
        q.push(Time::from_nanos(5), "now");
        assert_eq!(q.pop().unwrap().1, "now");
        assert_eq!(q.pop().unwrap().1, "minute");
        assert_eq!(q.pop().unwrap().1, "hour");
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_into_the_past_pops_first() {
        // The reference heap allows scheduling before the last popped
        // time; the wheel must honor it (merges into the head run).
        let mut q = EventQueue::new();
        q.push(Time::from_millis(10), "late");
        q.push(Time::from_millis(50), "later");
        assert_eq!(q.pop().unwrap().1, "late");
        q.push(Time::from_millis(1), "past");
        assert_eq!(q.pop().unwrap().1, "past");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    /// Reference model: the PR 2 binary-heap implementation, kept minimal.
    struct RefQueue<T> {
        heap: BinaryHeap<Reverse<Entry<T>>>,
        live: VecDeque<bool>,
        base: u64,
        live_count: usize,
        next_seq: u64,
    }

    impl<T> RefQueue<T> {
        fn new() -> Self {
            RefQueue {
                heap: BinaryHeap::new(),
                live: VecDeque::new(),
                base: 0,
                live_count: 0,
                next_seq: 0,
            }
        }
        fn push(&mut self, at: Time, payload: T) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Reverse(Entry { at, seq, payload }));
            self.live.push_back(true);
            self.live_count += 1;
            seq
        }
        fn is_live(&self, seq: u64) -> bool {
            seq >= self.base && self.live[(seq - self.base) as usize]
        }
        fn kill(&mut self, seq: u64) {
            self.live[(seq - self.base) as usize] = false;
            self.live_count -= 1;
            while self.live.front() == Some(&false) {
                self.live.pop_front();
                self.base += 1;
            }
        }
        fn cancel(&mut self, seq: u64) -> bool {
            if seq >= self.next_seq || !self.is_live(seq) {
                return false;
            }
            self.kill(seq);
            true
        }
        fn pop(&mut self) -> Option<(Time, T)> {
            while let Some(Reverse(e)) = self.heap.peek() {
                if self.is_live(e.seq) {
                    break;
                }
                self.heap.pop();
            }
            self.heap.pop().map(|Reverse(e)| {
                self.kill(e.seq);
                (e.at, e.payload)
            })
        }
        fn next_time(&mut self) -> Option<Time> {
            while let Some(Reverse(e)) = self.heap.peek() {
                if self.is_live(e.seq) {
                    break;
                }
                self.heap.pop();
            }
            self.heap.peek().map(|Reverse(e)| e.at)
        }
    }

    /// One scripted operation for the differential test.
    #[derive(Debug, Clone)]
    enum Op {
        /// Push at an absolute nanosecond time (exercises same-tick ties,
        /// level boundaries, overflow, and past-scheduling).
        Push(u64),
        /// Cancel the id issued by the i-th push so far (mod count),
        /// including already-fired ids.
        Cancel(usize),
        Pop,
        PeekTime,
    }

    /// Weighted op mix (the vendored proptest shim has no `prop_oneof`,
    /// so weights are encoded as selector ranges): mostly pushes across
    /// near/tick-aligned/far-horizon times, plus cancels, pops, peeks.
    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u8..12, 0u64..50_000_000, 0usize..64).prop_map(|(sel, ns, idx)| match sel {
            0..=4 => Op::Push(ns),
            5 => Op::Push((ns % 64) * 1024), // tick-aligned near zero
            6 => Op::Push(20_000_000_000 + (ns % 4) * 512), // beyond the wheel horizon
            7 | 8 => Op::Cancel(idx),
            9 | 10 => Op::Pop,
            _ => Op::PeekTime,
        })
    }

    proptest! {
        /// Differential: the timer wheel behaves bit-identically to the
        /// reference binary-heap model for arbitrary push/cancel/pop
        /// interleavings — same pop order (FIFO ties included), same
        /// cancel return values (watermark cancel-after-fire), same
        /// lengths and peeked times.
        #[test]
        fn prop_wheel_matches_reference_heap(ops in proptest::collection::vec(op_strategy(), 1..400)) {
            let mut wheel = EventQueue::new();
            let mut reference = RefQueue::new();
            let mut wheel_ids = Vec::new();
            let mut ref_ids = Vec::new();
            for op in ops {
                match op {
                    Op::Push(ns) => {
                        let at = Time::from_nanos(ns);
                        let n = wheel_ids.len();
                        wheel_ids.push(wheel.push(at, n));
                        ref_ids.push(reference.push(at, n));
                    }
                    Op::Cancel(i) => {
                        if !wheel_ids.is_empty() {
                            let i = i % wheel_ids.len();
                            let a = wheel.cancel(wheel_ids[i]);
                            let b = reference.cancel(ref_ids[i]);
                            prop_assert_eq!(a, b, "cancel divergence at index {}", i);
                        }
                    }
                    Op::Pop => {
                        prop_assert_eq!(wheel.pop(), reference.pop());
                    }
                    Op::PeekTime => {
                        prop_assert_eq!(wheel.next_time(), reference.next_time());
                    }
                }
                prop_assert_eq!(wheel.len(), reference.live_count);
            }
            // Drain both to the end: full order must agree.
            loop {
                let (a, b) = (wheel.pop(), reference.pop());
                prop_assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
        }

        #[test]
        fn prop_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(Time::from_nanos(*t), i);
            }
            let mut last = Time::ZERO;
            let mut count = 0;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
                count += 1;
            }
            prop_assert_eq!(count, times.len());
        }

        #[test]
        fn prop_cancel_subset(times in proptest::collection::vec(0u64..1_000, 1..100),
                              cancel_mask in proptest::collection::vec(any::<bool>(), 100)) {
            let mut q = EventQueue::new();
            let ids: Vec<_> = times.iter().enumerate()
                .map(|(i, t)| (q.push(Time::from_nanos(*t), i), i))
                .collect();
            let mut kept = Vec::new();
            for ((id, i), &c) in ids.iter().zip(cancel_mask.iter()) {
                if c { q.cancel(*id); } else { kept.push(*i); }
            }
            let mut popped: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
            popped.sort_unstable();
            kept.sort_unstable();
            prop_assert_eq!(popped, kept);
        }

        #[test]
        fn prop_interleaved_push_pop(ops in proptest::collection::vec((0u64..1000, any::<bool>()), 1..200)) {
            // Pops must never go backwards in time relative to the last pop,
            // as long as pushes are never scheduled before the last pop time
            // (we clamp to enforce that, mimicking a simulator that never
            // schedules in the past).
            let mut q = EventQueue::new();
            let mut clock = Time::ZERO;
            for (t, do_pop) in ops {
                if do_pop {
                    if let Some((at, _)) = q.pop() {
                        prop_assert!(at >= clock);
                        clock = at;
                    }
                } else {
                    let at = clock + Dur::from_nanos(t);
                    q.push(at, ());
                }
            }
        }
    }
}
