//! Send and receive buffers.
//!
//! Both buffers index bytes by *stream offset* — an unwrapped `u64`
//! position in the byte stream — rather than by 32-bit sequence number.
//! The connection translates between the two; keeping buffers in `u64`
//! space sidesteps wraparound in all buffer logic.

use bytes::Bytes;
use std::collections::VecDeque;

/// Retransmittable outgoing byte stream.
///
/// Data is appended as [`Bytes`] chunks and retained until cumulatively
/// acknowledged; [`SendBuffer::slice`] serves both first transmissions and
/// retransmissions. Chunk boundaries are preserved internally so most
/// slices are zero-copy.
#[derive(Debug, Default)]
pub struct SendBuffer {
    /// Stream offset of the first retained byte (== highest cumulative ACK).
    base: u64,
    /// Stream offset one past the last appended byte.
    end: u64,
    chunks: VecDeque<Bytes>,
    /// Cursor cache for `slice`: `(chunk index, stream offset of that
    /// chunk's first byte)`. Transmission slices advance monotonically,
    /// so resuming the walk from here makes sequential sends O(1)
    /// amortized instead of O(chunks) each. A cumulative ACK shifts it
    /// down by the chunks it releases: an MPTCP subflow holds one chunk
    /// per mapping, so restarting at the front after every ACK would
    /// cost O(in-flight) per segment.
    cursor: std::cell::Cell<(usize, u64)>,
}

impl SendBuffer {
    /// Empty buffer.
    pub fn new() -> SendBuffer {
        SendBuffer::default()
    }

    /// Append application data; returns the stream-offset range it
    /// occupies.
    pub fn append(&mut self, data: Bytes) -> std::ops::Range<u64> {
        let start = self.end;
        self.end += data.len() as u64;
        if !data.is_empty() {
            self.chunks.push_back(data);
        }
        start..self.end
    }

    /// Offset of the first unacknowledged byte.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// One past the last byte written by the application.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Bytes not yet released by ACKs.
    pub fn retained(&self) -> u64 {
        self.end - self.base
    }

    /// Release bytes below `offset` (cumulative ACK). Offsets in the past
    /// are ignored; offsets beyond `end()` panic (an ACK for data never
    /// sent means a connection bug).
    pub fn advance_to(&mut self, offset: u64) {
        assert!(offset <= self.end, "ACK beyond written data");
        let mut popped = 0;
        while self.base < offset {
            let head = self.chunks.front_mut().expect("buffer accounting broken");
            let head_len = head.len() as u64;
            let to_drop = offset - self.base;
            if head_len <= to_drop {
                self.chunks.pop_front();
                self.base += head_len;
                popped += 1;
            } else {
                let _ = head.split_to(to_drop as usize);
                self.base += to_drop;
            }
        }
        // Chunk indices shift down by the chunks released, and a head
        // trimmed in place now starts at `base`; a cursor whose chunk
        // was released restarts at the head.
        let (idx, start) = self.cursor.get();
        self.cursor.set(match idx.checked_sub(popped) {
            Some(idx) => (idx, start.max(self.base)),
            None => (0, self.base),
        });
    }

    /// Copy-free when possible: the bytes at `[offset, offset + len)`.
    /// Panics if the range is not fully retained.
    pub fn slice(&self, offset: u64, len: usize) -> Bytes {
        assert!(
            offset >= self.base && offset + len as u64 <= self.end,
            "slice [{offset}, +{len}) outside retained [{}, {})",
            self.base,
            self.end
        );
        if len == 0 {
            return Bytes::new();
        }
        // Walk chunks to the one containing `offset`, resuming from the
        // cached cursor when it is at or before the target.
        let (mut idx, mut chunk_start) = {
            let (ci, cs) = self.cursor.get();
            if ci < self.chunks.len() && cs <= offset && cs >= self.base {
                (ci, cs)
            } else {
                (0, self.base)
            }
        };
        let mut cur = &self.chunks[idx];
        while chunk_start + cur.len() as u64 <= offset {
            chunk_start += cur.len() as u64;
            idx += 1;
            cur = self.chunks.get(idx).expect("offset past chunks");
        }
        self.cursor.set((idx, chunk_start));
        let mut iter = self.chunks.range(idx + 1..);
        let within = (offset - chunk_start) as usize;
        if within + len <= cur.len() {
            // Fast path: entirely inside one chunk.
            return cur.slice(within..within + len);
        }
        // Slow path: stitch across chunks.
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&cur[within..]);
        while out.len() < len {
            let next = iter.next().expect("range extends past chunks");
            let take = (len - out.len()).min(next.len());
            out.extend_from_slice(&next[..take]);
        }
        Bytes::from(out)
    }
}

/// Reassembling incoming byte stream.
///
/// Out-of-order segments are held in one deque sorted by stream offset
/// (found by binary search, so a steady state allocates nothing and
/// chases no pointers); whenever the in-order frontier advances, the
/// contiguous prefix is moved to a delivery queue the application drains
/// with [`RecvBuffer::take_delivered`].
#[derive(Debug)]
pub struct RecvBuffer {
    /// Next in-order stream offset expected.
    next: u64,
    /// Out-of-order segments as `(offset, data)`, sorted by offset,
    /// non-empty, non-overlapping and all above `next`.
    ooo: VecDeque<(u64, Bytes)>,
    ooo_bytes: usize,
    delivered: VecDeque<Bytes>,
    delivered_bytes: u64,
    /// Bytes sitting in `delivered` that the application has not read yet
    /// — they occupy buffer space and shrink the advertised window.
    unconsumed_bytes: usize,
    capacity: usize,
    /// The SACK blocks an ACK carries (RFC 2018 §4): the range the newest
    /// out-of-order arrival landed in first, then the ranges reported
    /// before it, newest first, [`MAX_SACK_BLOCKS`] at most. Each is a
    /// held `[start, end)` run above `next`; one whose neighbour has been
    /// forgotten may stop short of the whole run.
    sack: Vec<(u64, u64)>,
}

/// SACK blocks per ACK: two, with the timestamp, leave an MPTCP subflow
/// room for its DSS data ACK inside the 40 option bytes.
pub const MAX_SACK_BLOCKS: usize = 2;

impl RecvBuffer {
    /// Buffer with the given capacity, which bounds out-of-order holding
    /// and feeds the advertised window.
    pub fn new(capacity: usize) -> RecvBuffer {
        assert!(capacity > 0, "receive buffer must have capacity");
        RecvBuffer {
            next: 0,
            ooo: VecDeque::new(),
            ooo_bytes: 0,
            delivered: VecDeque::new(),
            delivered_bytes: 0,
            unconsumed_bytes: 0,
            capacity,
            sack: Vec::with_capacity(MAX_SACK_BLOCKS + 1),
        }
    }

    /// Next expected in-order offset.
    pub fn next_expected(&self) -> u64 {
        self.next
    }

    /// Total in-order bytes handed (or ready to hand) to the application.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Bytes currently parked out of order.
    pub fn ooo_bytes(&self) -> usize {
        self.ooo_bytes
    }

    /// Space we can advertise: capacity minus out-of-order holdings and
    /// minus in-order data the application has not read yet. A slow (or
    /// stalled) reader therefore closes the window, like real sockets.
    pub fn window_available(&self) -> usize {
        self.capacity
            .saturating_sub(self.ooo_bytes)
            .saturating_sub(self.unconsumed_bytes)
    }

    /// Bytes delivered in order but not yet read by the application.
    pub fn unconsumed_bytes(&self) -> usize {
        self.unconsumed_bytes
    }

    /// Insert a segment at `offset`. Returns the number of *new* in-order
    /// bytes that became deliverable as a result. Duplicate and
    /// overlapping bytes are trimmed; data beyond the advertised window is
    /// dropped (the peer violated flow control).
    pub fn insert(&mut self, offset: u64, data: Bytes) -> u64 {
        let before = self.next;
        let mut start = offset;
        let mut data = data;
        // Trim anything already delivered.
        if start < self.next {
            let skip = (self.next - start).min(data.len() as u64) as usize;
            data = data.slice(skip..);
            start = self.next;
        }
        if data.is_empty() {
            self.drain_in_order();
            return self.next - before;
        }
        // Enforce the window: drop bytes beyond the advertised space
        // past `next` (unread in-order data shrinks it).
        let window_end = self.next + self.capacity.saturating_sub(self.unconsumed_bytes) as u64;
        if start >= window_end {
            return 0;
        }
        if start + data.len() as u64 > window_end {
            data = data.slice(..(window_end - start) as usize);
        }
        if start == self.next && self.ooo.is_empty() {
            // In order with nothing parked (nearly every segment of a
            // healthy flow): deliver without a trip through the store.
            self.deliver(data);
        } else {
            if start > self.next {
                self.note_arrival(start, start + data.len() as u64);
            }
            self.insert_trimmed(start, data);
            self.drain_in_order();
        }
        self.next - before
    }

    /// `[start, end)` is held as of now: it becomes the first SACK
    /// block, grown by every remembered block it touches.
    fn note_arrival(&mut self, mut start: u64, mut end: u64) {
        self.sack.retain(|&(a, b)| {
            let touches = a <= end && start <= b;
            if touches {
                (start, end) = (start.min(a), end.max(b));
            }
            !touches
        });
        self.sack.insert(0, (start, end));
        self.sack.truncate(MAX_SACK_BLOCKS);
    }

    /// Move in-order `data` at `next` to the delivery queue.
    fn deliver(&mut self, data: Bytes) {
        self.next += data.len() as u64;
        self.delivered_bytes += data.len() as u64;
        self.unconsumed_bytes += data.len();
        self.delivered.push_back(data);
    }

    /// Insert with overlap-trimming against stored segments.
    fn insert_trimmed(&mut self, mut start: u64, mut data: Bytes) {
        // The first stored segment past `start`; the one before it, if
        // any, is the predecessor.
        let mut at = self.ooo.partition_point(|&(s, _)| s <= start);
        if let Some((pstart, pdata)) = at.checked_sub(1).map(|p| &self.ooo[p]) {
            let pend = pstart + pdata.len() as u64;
            if pend >= start + data.len() as u64 {
                return; // fully covered
            }
            if pend > start {
                let skip = (pend - start) as usize;
                data = data.slice(skip..);
                start = pend;
            }
        }
        // Trim against successors, possibly splitting around them.
        while let Some(&(sstart, ref sdata)) = self.ooo.get(at) {
            let end = start + data.len() as u64;
            if sstart >= end {
                break;
            }
            let send = sstart + sdata.len() as u64;
            // Store the part before the successor.
            let head_len = (sstart - start) as usize;
            if head_len > 0 {
                let head = data.slice(..head_len);
                self.ooo_bytes += head.len();
                self.ooo.insert(at, (start, head));
                at += 1;
            }
            if send >= end {
                return; // rest covered by successor
            }
            let skip = (send - start) as usize;
            data = data.slice(skip..);
            start = send;
            at += 1;
        }
        if !data.is_empty() {
            self.ooo_bytes += data.len();
            self.ooo.insert(at, (start, data));
        }
    }

    fn drain_in_order(&mut self) {
        while let Some(&(start, _)) = self.ooo.front() {
            if start != self.next {
                break;
            }
            let (_, data) = self.ooo.pop_front().unwrap();
            self.ooo_bytes -= data.len();
            self.deliver(data);
        }
        self.sack.retain(|&(_, end)| end > self.next);
    }

    /// Drain the in-order data delivered since the last call (the
    /// application "read"; reopens the advertised window).
    pub fn take_delivered(&mut self) -> Vec<Bytes> {
        let mut out = Vec::new();
        self.take_delivered_into(&mut out);
        out
    }

    /// [`RecvBuffer::take_delivered`] appending to a caller-owned buffer
    /// (the per-segment path: MPTCP drains each subflow into one reused
    /// scratch).
    pub fn take_delivered_into(&mut self, out: &mut Vec<Bytes>) {
        self.unconsumed_bytes = 0;
        out.extend(self.delivered.drain(..));
    }

    /// The application read and dropped everything delivered so far: the
    /// window effect of [`RecvBuffer::take_delivered`] without building
    /// the chunk list.
    pub fn discard_delivered(&mut self) {
        self.unconsumed_bytes = 0;
        self.delivered.clear();
    }

    /// True iff out-of-order data is pending (a hole exists).
    pub fn has_holes(&self) -> bool {
        !self.ooo.is_empty()
    }

    /// The receiver's SACK blocks as `[start, end)` stream offsets, in
    /// the order an ACK lists them; empty when nothing is out of order.
    pub fn sack_blocks(&self) -> &[(u64, u64)] {
        &self.sack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.as_bytes().to_vec())
    }

    mod send {
        use super::*;

        #[test]
        fn append_and_slice() {
            let mut sb = SendBuffer::new();
            assert_eq!(sb.append(b("hello")), 0..5);
            assert_eq!(sb.append(b(" world")), 5..11);
            assert_eq!(sb.slice(0, 5), b("hello"));
            assert_eq!(sb.slice(3, 4), b("lo w"));
            assert_eq!(sb.slice(5, 6), b(" world"));
            assert_eq!(sb.end(), 11);
        }

        #[test]
        fn advance_releases_prefix() {
            let mut sb = SendBuffer::new();
            sb.append(b("abcdef"));
            sb.append(b("ghij"));
            sb.advance_to(4);
            assert_eq!(sb.base(), 4);
            assert_eq!(sb.retained(), 6);
            assert_eq!(sb.slice(4, 6), b("efghij"));
            // Stale (already advanced) ACK is a no-op.
            sb.advance_to(2);
            assert_eq!(sb.base(), 4);
        }

        #[test]
        fn advance_mid_chunk() {
            let mut sb = SendBuffer::new();
            sb.append(b("abcdef"));
            sb.advance_to(3);
            assert_eq!(sb.slice(3, 3), b("def"));
        }

        #[test]
        #[should_panic(expected = "ACK beyond written data")]
        fn advance_past_end_panics() {
            let mut sb = SendBuffer::new();
            sb.append(b("ab"));
            sb.advance_to(3);
        }

        #[test]
        #[should_panic(expected = "outside retained")]
        fn slice_released_data_panics() {
            let mut sb = SendBuffer::new();
            sb.append(b("abcd"));
            sb.advance_to(2);
            sb.slice(0, 2);
        }

        #[test]
        fn empty_slice_is_ok() {
            let sb = SendBuffer::new();
            assert_eq!(sb.slice(0, 0), Bytes::new());
        }

        proptest! {
            #[test]
            fn prop_slices_match_reference(
                chunks in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 1..50), 1..20),
                reads in proptest::collection::vec((0usize..500, 1usize..60), 1..30),
            ) {
                let mut sb = SendBuffer::new();
                let mut reference = Vec::new();
                for c in &chunks {
                    reference.extend_from_slice(c);
                    sb.append(Bytes::from(c.clone()));
                }
                for (start, len) in reads {
                    if start + len <= reference.len() {
                        let expect = &reference[start..start + len];
                        prop_assert_eq!(&sb.slice(start as u64, len)[..], expect);
                    }
                }
            }

            #[test]
            fn prop_advance_then_slice_consistent(
                data in proptest::collection::vec(any::<u8>(), 10..300),
                ack in 0usize..300,
            ) {
                let mut sb = SendBuffer::new();
                sb.append(Bytes::from(data.clone()));
                let ack = ack.min(data.len());
                sb.advance_to(ack as u64);
                let rest = data.len() - ack;
                if rest > 0 {
                    prop_assert_eq!(&sb.slice(ack as u64, rest)[..], &data[ack..]);
                }
            }
        }
    }

    mod recv {
        use super::*;

        #[test]
        fn in_order_delivery() {
            let mut rb = RecvBuffer::new(1 << 20);
            assert_eq!(rb.insert(0, b("hello")), 5);
            assert_eq!(rb.insert(5, b(" world")), 6);
            let got: Vec<u8> = rb.take_delivered().concat();
            assert_eq!(got, b"hello world");
            assert_eq!(rb.delivered_bytes(), 11);
        }

        #[test]
        fn out_of_order_held_then_drained() {
            let mut rb = RecvBuffer::new(1 << 20);
            assert_eq!(rb.insert(5, b("world")), 0);
            assert!(rb.has_holes());
            assert_eq!(rb.window_available(), (1 << 20) - 5);
            assert_eq!(rb.insert(0, b("hello")), 10);
            assert!(!rb.has_holes());
            assert_eq!(rb.take_delivered().concat(), b"helloworld".to_vec());
        }

        #[test]
        fn exact_duplicate_ignored() {
            let mut rb = RecvBuffer::new(1 << 20);
            rb.insert(0, b("abc"));
            assert_eq!(rb.insert(0, b("abc")), 0);
            assert_eq!(rb.delivered_bytes(), 3);
        }

        #[test]
        fn overlapping_retransmission_trimmed() {
            let mut rb = RecvBuffer::new(1 << 20);
            rb.insert(0, b("abcd"));
            // Retransmission covering old + new data.
            assert_eq!(rb.insert(2, b("cdef")), 2);
            assert_eq!(rb.take_delivered().concat(), b"abcdef".to_vec());
        }

        #[test]
        fn overlap_with_parked_segments() {
            let mut rb = RecvBuffer::new(1 << 20);
            rb.insert(4, b("ef"));
            rb.insert(8, b("ij"));
            // Covers the gap plus both parked segments partially.
            rb.insert(2, b("cdefghij"));
            rb.insert(0, b("ab"));
            assert_eq!(rb.take_delivered().concat(), b"abcdefghij".to_vec());
            assert_eq!(rb.ooo_bytes(), 0);
        }

        #[test]
        fn window_enforced() {
            let mut rb = RecvBuffer::new(8);
            // Fully beyond the window: dropped.
            assert_eq!(rb.insert(8, b("x")), 0);
            assert!(!rb.has_holes());
            // Straddling the window edge: trimmed.
            rb.insert(6, b("abc"));
            assert_eq!(rb.ooo_bytes(), 2);
        }

        #[test]
        fn unread_data_shrinks_and_read_reopens_window() {
            let mut rb = RecvBuffer::new(10);
            rb.insert(0, b("abcdef"));
            assert_eq!(rb.unconsumed_bytes(), 6);
            assert_eq!(rb.window_available(), 4);
            // More data than the remaining window: trimmed.
            assert_eq!(rb.insert(6, b("ghijklmn")), 4);
            assert_eq!(rb.window_available(), 0);
            // The application reads: full window restored.
            let got = rb.take_delivered().concat();
            assert_eq!(got, b"abcdefghij".to_vec());
            assert_eq!(rb.window_available(), 10);
        }

        #[test]
        fn sack_blocks_list_the_newest_arrival_first() {
            // Segments 3, 5 and 7 of a ten-byte-segment stream.
            let mut rb = RecvBuffer::new(1 << 20);
            for seg in [3, 5, 7] {
                rb.insert(seg * 10, Bytes::from(vec![seg as u8; 10]));
            }
            assert_eq!(rb.sack_blocks(), [(70, 80), (50, 60)]);
            // Segment 4 grows the remembered block of 5 (that of 3 was
            // pushed out by 7's) and moves it to the front.
            rb.insert(40, Bytes::from(vec![4; 10]));
            assert_eq!(rb.sack_blocks(), [(40, 60), (70, 80)]);
            // The hole in front fills: what was delivered is no block.
            rb.insert(0, Bytes::from(vec![0; 30]));
            assert_eq!(rb.next_expected(), 60);
            assert_eq!(rb.sack_blocks(), [(70, 80)]);
        }

        #[test]
        fn split_around_existing_segment() {
            let mut rb = RecvBuffer::new(1 << 20);
            rb.insert(4, b("e"));
            // New segment covers [2, 8) and must split around [4, 5).
            rb.insert(2, b("cdefg"));
            rb.insert(0, b("ab"));
            assert_eq!(rb.take_delivered().concat(), b"abcdefg".to_vec());
        }

        proptest! {
            #[test]
            fn prop_random_arrival_order_reassembles(
                len in 1usize..400,
                seed in any::<u64>(),
            ) {
                use mpwifi_simcore::DetRng;
                let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                // Split into random segments, deliver in random order with
                // some duplicates.
                let mut rng = DetRng::seed_from_u64(seed);
                let mut segs = Vec::new();
                let mut pos = 0;
                while pos < len {
                    let sz = 1 + rng.index(40.min(len - pos));
                    segs.push((pos as u64, Bytes::from(data[pos..pos + sz].to_vec())));
                    pos += sz;
                }
                let mut order: Vec<usize> = (0..segs.len()).collect();
                rng.shuffle(&mut order);
                let mut rb = RecvBuffer::new(1 << 20);
                for &i in &order {
                    let (off, d) = &segs[i];
                    rb.insert(*off, d.clone());
                    if rng.chance(0.3) {
                        rb.insert(*off, d.clone()); // duplicate
                    }
                }
                prop_assert_eq!(rb.delivered_bytes(), len as u64);
                prop_assert_eq!(rb.take_delivered().concat(), data);
                prop_assert_eq!(rb.ooo_bytes(), 0);
            }
        }
    }
}
