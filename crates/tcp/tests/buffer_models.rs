//! The send and receive buffers held to simple models of what they
//! serve: a `SendBuffer` to one flat byte vector, a `RecvBuffer` to the
//! same reassembly over a `BTreeMap` — the store it kept before its
//! out-of-order segments moved into one sorted deque.

use bytes::Bytes;
use mpwifi_tcp::buffer::{RecvBuffer, SendBuffer, MAX_SACK_BLOCKS};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The receive buffer with its out-of-order store a `BTreeMap`: the same
/// trimming, window and SACK rules, and the delivered bytes kept flat.
/// The reference the sorted deque is held to.
struct MapRecvBuffer {
    next: u64,
    ooo: BTreeMap<u64, Bytes>,
    ooo_bytes: usize,
    delivered: Vec<u8>,
    unconsumed_bytes: usize,
    capacity: usize,
    sack: Vec<(u64, u64)>,
}

impl MapRecvBuffer {
    fn new(capacity: usize) -> MapRecvBuffer {
        MapRecvBuffer {
            next: 0,
            ooo: BTreeMap::new(),
            ooo_bytes: 0,
            delivered: Vec::new(),
            unconsumed_bytes: 0,
            capacity,
            sack: Vec::new(),
        }
    }

    fn window_available(&self) -> usize {
        self.capacity
            .saturating_sub(self.ooo_bytes)
            .saturating_sub(self.unconsumed_bytes)
    }

    fn insert(&mut self, offset: u64, mut data: Bytes) -> u64 {
        let before = self.next;
        let mut start = offset;
        if start < self.next {
            let skip = (self.next - start).min(data.len() as u64) as usize;
            data = data.slice(skip..);
            start = self.next;
        }
        if data.is_empty() {
            self.drain_in_order();
            return self.next - before;
        }
        let window_end = self.next + self.capacity.saturating_sub(self.unconsumed_bytes) as u64;
        if start >= window_end {
            return 0;
        }
        if start + data.len() as u64 > window_end {
            data = data.slice(..(window_end - start) as usize);
        }
        if start > self.next {
            let (mut a, mut b) = (start, start + data.len() as u64);
            self.sack.retain(|&(x, y)| {
                let touches = x <= b && a <= y;
                if touches {
                    (a, b) = (a.min(x), b.max(y));
                }
                !touches
            });
            self.sack.insert(0, (a, b));
            self.sack.truncate(MAX_SACK_BLOCKS);
        }
        self.insert_trimmed(start, data);
        self.drain_in_order();
        self.next - before
    }

    fn insert_trimmed(&mut self, mut start: u64, mut data: Bytes) {
        if let Some((&pstart, pdata)) = self.ooo.range(..=start).next_back() {
            let pend = pstart + pdata.len() as u64;
            if pend >= start + data.len() as u64 {
                return;
            }
            if pend > start {
                data = data.slice((pend - start) as usize..);
                start = pend;
            }
        }
        while let Some((&sstart, sdata)) = self.ooo.range(start..).next() {
            let end = start + data.len() as u64;
            if sstart >= end {
                break;
            }
            let send = sstart + sdata.len() as u64;
            let head_len = (sstart - start) as usize;
            if head_len > 0 {
                self.ooo_bytes += head_len;
                self.ooo.insert(start, data.slice(..head_len));
            }
            if send >= end {
                return;
            }
            data = data.slice((send - start) as usize..);
            start = send;
        }
        if !data.is_empty() {
            self.ooo_bytes += data.len();
            self.ooo.insert(start, data);
        }
    }

    fn drain_in_order(&mut self) {
        while let Some((&start, _)) = self.ooo.first_key_value() {
            if start != self.next {
                break;
            }
            let (_, data) = self.ooo.pop_first().unwrap();
            self.ooo_bytes -= data.len();
            self.next += data.len() as u64;
            self.unconsumed_bytes += data.len();
            self.delivered.extend_from_slice(&data);
        }
        self.sack.retain(|&(_, end)| end > self.next);
    }
}

proptest! {
    #[test]
    fn prop_sorted_deque_reassembles_as_the_map_did(
        capacity in 64usize..600,
        // (offset from 100 behind the frontier, length, read first)
        ops in proptest::collection::vec((0u64..700, 1usize..80, any::<bool>()), 1..150),
    ) {
        let stream: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let mut rb = RecvBuffer::new(capacity);
        let mut reference = MapRecvBuffer::new(capacity);
        let mut read = Vec::new();
        for (ahead, len, read_first) in ops {
            if read_first {
                read.extend(rb.take_delivered().concat());
                reference.unconsumed_bytes = 0;
            }
            // Up to 100 bytes already delivered (duplicates, overlaps),
            // up to 600 ahead (holes and the far side of the window).
            let offset = (rb.next_expected() + ahead).saturating_sub(100);
            let end = (offset as usize + len).min(stream.len());
            if offset as usize >= end {
                continue;
            }
            let data = Bytes::from(stream[offset as usize..end].to_vec());
            let got = rb.insert(offset, data.clone());
            prop_assert_eq!(got, reference.insert(offset, data));
            prop_assert_eq!(rb.delivered_bytes(), reference.next);
            prop_assert_eq!(rb.ooo_bytes(), reference.ooo_bytes);
            prop_assert_eq!(rb.sack_blocks(), &reference.sack[..]);
            prop_assert_eq!(rb.window_available(), reference.window_available());
            prop_assert_eq!(rb.has_holes(), !reference.ooo.is_empty());
        }
        read.extend(rb.take_delivered().concat());
        prop_assert_eq!(read, reference.delivered);
    }

    #[test]
    fn prop_slices_around_acks_match_a_flat_stream(
        // One chunk per mapping, as an MPTCP subflow holds them.
        chunks in proptest::collection::vec(1usize..40, 1..120),
        // (0 ACKs, 1 slices on from the send point, 2 slices again
        // behind it; a fraction of the bytes in flight; a length)
        ops in proptest::collection::vec((0u8..3, 0.0f64..1.0, 1usize..90), 1..200),
    ) {
        let mut sb = SendBuffer::new();
        let mut flat = Vec::new();
        for (i, &len) in chunks.iter().enumerate() {
            let chunk: Vec<u8> = (0..len).map(|j| (i * 7 + j) as u8).collect();
            flat.extend_from_slice(&chunk);
            sb.append(Bytes::from(chunk));
        }
        let end = flat.len() as u64;
        let mut sent = 0u64;
        for (op, at, len) in ops {
            let base = sb.base();
            let in_flight = |at: f64| base + ((sent - base) as f64 * at) as u64;
            match op {
                0 => sb.advance_to(in_flight(at)),
                1 if sent < end => {
                    let len = (len as u64).min(end - sent);
                    let got = sb.slice(sent, len as usize);
                    prop_assert_eq!(&got[..], &flat[sent as usize..(sent + len) as usize]);
                    sent += len;
                }
                _ if sent > base => {
                    // A retransmission, behind where the cursor stands.
                    let off = in_flight(at);
                    let len = (len as u64).min(end - off);
                    let got = sb.slice(off, len as usize);
                    prop_assert_eq!(&got[..], &flat[off as usize..(off + len) as usize]);
                }
                _ => {}
            }
            prop_assert_eq!(sb.retained(), end - sb.base());
        }
    }
}
