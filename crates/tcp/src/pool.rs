//! Pooled segment encoding.
//!
//! The simulator does not encode segments on their way across a link
//! (a frame carries its segment typed; see `mpwifi_netem::Payload`), so
//! nothing in a simulated transfer uses this pool; it is what the
//! benchmark's `tcp.encode_ns` probe prices.
//!
//! [`SegmentBufPool`] recycles encode buffers so that steady-state
//! segment encoding performs zero heap allocations: each encode writes
//! into a pooled `Vec<u8>` and hands the wire image out as a zero-copy
//! [`Bytes`] view (via the shim extension `Bytes::from_shared`). The pool
//! keeps one strong reference to every buffer it owns, so a buffer is
//! reusable exactly when its `Arc::strong_count` drops back to 1 — i.e.
//! when the frame carrying its wire image has been delivered and every
//! decoded payload slice into it has been dropped.
//!
//! Reuse detection is purely a function of which views are still alive,
//! and view lifetimes in the simulator are a deterministic function of
//! `(scenario, seed)` — so pool behavior (and the pooled/allocated
//! counters it records into [`mpwifi_simcore::metrics`]) is reproducible
//! run-to-run.

use crate::segment::Segment;
use bytes::Bytes;
use std::sync::Arc;

/// Buffer capacity for a fresh pool slot: one full-size segment
/// (IP + TCP header, max options, MSS payload) with headroom.
const SLOT_CAPACITY: usize = 1600;

/// A recycling pool of segment encode buffers.
///
/// ```
/// use mpwifi_tcp::{Segment, Flags, SegmentBufPool};
/// let mut pool = SegmentBufPool::new();
/// let seg = Segment::control(1, 2, 0, 0, Flags::SYN);
/// let wire = pool.encode(&seg);
/// assert_eq!(&wire[..], &seg.encode()[..]);
/// drop(wire); // view gone → the slot is reusable by the next encode
/// ```
#[derive(Debug, Default)]
pub struct SegmentBufPool {
    bufs: Vec<Arc<Vec<u8>>>,
    /// Rotating scan start, so reuse spreads across slots instead of
    /// hammering slot 0 (and stays deterministic: no addresses, no time).
    cursor: usize,
}

impl SegmentBufPool {
    /// An empty pool; slots are created on demand.
    pub fn new() -> SegmentBufPool {
        SegmentBufPool::default()
    }

    /// Number of buffers the pool currently owns (its high-water mark of
    /// simultaneously-live wire images).
    pub fn capacity(&self) -> usize {
        self.bufs.len()
    }

    /// Encode `seg`, reusing a free pooled buffer if any view of it has
    /// been dropped, otherwise growing the pool by one buffer. Records
    /// the reused/allocated split into [`mpwifi_simcore::metrics`].
    pub fn encode(&mut self, seg: &Segment) -> Bytes {
        let slot = self.find_free_slot();
        let i = slot.unwrap_or_else(|| {
            self.bufs.push(Arc::new(Vec::with_capacity(SLOT_CAPACITY)));
            self.bufs.len() - 1
        });
        self.cursor = i + 1;
        let buf = Arc::get_mut(&mut self.bufs[i])
            .expect("slot was just verified free (strong_count == 1)");
        buf.clear();
        seg.encode_into(buf);
        mpwifi_simcore::metrics::count(|m| match slot {
            Some(_) => m.enc_buffers_reused += 1,
            None => m.enc_buffers_allocated += 1,
        });
        Bytes::from_shared(Arc::clone(&self.bufs[i]))
    }

    /// First slot (scanning from the rotating cursor, wrapping once) with
    /// no outstanding views. While a queue fills no slot is free and every
    /// encode walks the whole pool, so the walk is two plain slice scans:
    /// no per-slot index arithmetic, nothing but the count loads.
    fn find_free_slot(&self) -> Option<usize> {
        let is_free = |buf: &Arc<Vec<u8>>| Arc::strong_count(buf) == 1;
        let (wrapped, ahead) = self.bufs.split_at(self.cursor);
        ahead
            .iter()
            .position(is_free)
            .map(|k| self.cursor + k)
            .or_else(|| wrapped.iter().position(is_free))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{Flags, OptionBody, TcpOption, OPT_KIND_MPTCP};
    use proptest::prelude::*;

    fn sample(payload: &'static [u8]) -> Segment {
        Segment {
            src_port: 443,
            dst_port: 50000,
            seq: 7,
            ack: 9,
            flags: Flags::ACK,
            window: 1000,
            options: vec![TcpOption::Timestamp { val: 1, ecr: 2 }],
            payload: Bytes::from_static(payload),
        }
    }

    #[test]
    fn pooled_encode_matches_plain_encode() {
        let mut pool = SegmentBufPool::new();
        let seg = sample(b"hello pooled world");
        assert_eq!(&pool.encode(&seg)[..], &seg.encode()[..]);
    }

    #[test]
    fn dropped_views_free_slots_for_reuse() {
        mpwifi_simcore::metrics::reset();
        let mut pool = SegmentBufPool::new();
        let seg = sample(b"reuse me");
        for _ in 0..100 {
            let wire = pool.encode(&seg);
            assert_eq!(&wire[..], &seg.encode()[..]);
            // `wire` drops here → the single pool slot is free again.
        }
        assert_eq!(pool.capacity(), 1, "one slot serves the whole loop");
        let m = mpwifi_simcore::metrics::snapshot();
        assert_eq!(m.enc_buffers_allocated, 1);
        assert_eq!(m.enc_buffers_reused, 99);
    }

    #[test]
    fn live_views_force_pool_growth() {
        let mut pool = SegmentBufPool::new();
        let seg = sample(b"held");
        let held: Vec<Bytes> = (0..5).map(|_| pool.encode(&seg)).collect();
        assert_eq!(pool.capacity(), 5, "every wire image still referenced");
        drop(held);
        let _w = pool.encode(&seg);
        assert_eq!(pool.capacity(), 5, "freed slots are reused, not grown");
    }

    #[test]
    fn decoded_payload_keeps_slot_busy_until_dropped() {
        let mut pool = SegmentBufPool::new();
        let seg = sample(b"payload slice pins the buffer");
        let wire = pool.encode(&seg);
        let decoded = Segment::decode(&wire).unwrap();
        drop(wire);
        // The decoded payload still borrows the pooled allocation.
        let wire2 = pool.encode(&seg);
        assert_eq!(pool.capacity(), 2);
        assert_eq!(&decoded.payload[..], b"payload slice pins the buffer");
        drop(decoded);
        drop(wire2);
        let _w = pool.encode(&seg);
        assert_eq!(pool.capacity(), 2, "slots recycle once the slice drops");
    }

    proptest! {
        // Satellite: the pooled encoder must be byte-identical to the
        // plain encoder and round-trip through decode, for arbitrary
        // flag/option/payload combinations including kind-30 raw options.
        #[test]
        fn prop_pooled_round_trip(
            src in any::<u16>(), dst in any::<u16>(),
            seq in any::<u32>(), ack in any::<u32>(),
            syn in any::<bool>(), fin in any::<bool>(), ackf in any::<bool>(),
            psh in any::<bool>(),
            window in any::<u16>(),
            payload in proptest::collection::vec(any::<u8>(), 0..1400),
            mss in proptest::option::of(any::<u16>()),
            ts in proptest::option::of((any::<u32>(), any::<u32>())),
            raw in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..20)),
            repeats in 1usize..4,
        ) {
            let mut options = Vec::new();
            if let Some(mss) = mss {
                options.push(TcpOption::Mss(mss));
            }
            if let Some((val, ecr)) = ts {
                options.push(TcpOption::Timestamp { val, ecr });
            }
            if let Some(data) = raw {
                options.push(TcpOption::Raw { kind: OPT_KIND_MPTCP, data: OptionBody::from_slice(&data).unwrap() });
            }
            let seg = Segment {
                src_port: src, dst_port: dst, seq, ack,
                flags: Flags { syn, fin, ack: ackf, rst: false, psh },
                window, options, payload: Bytes::from(payload),
            };
            let mut pool = SegmentBufPool::new();
            for _ in 0..repeats {
                let pooled = pool.encode(&seg);
                prop_assert_eq!(&pooled[..], &seg.encode()[..],
                    "pooled and plain encoders must emit identical bytes");
                let back = Segment::decode(&pooled);
                prop_assert_eq!(back.as_ref(), Some(&seg));
            }
        }
    }
}
