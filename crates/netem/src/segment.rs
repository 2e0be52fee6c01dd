//! TCP segments and their wire encoding.
//!
//! A [`crate::Frame`] carries its segment typed ([`crate::Payload`]):
//! link timing needs only the length, and [`Segment::wire_len`] computes
//! it arithmetically, so link rates charge the true header overhead
//! without a byte being written. Bytes are made where something alters
//! them — [`crate::CorruptFilter`] encodes the segment and flips one —
//! and strict [`Segment::decode`] is the receiving side of exactly that
//! path: a wire image that does not decode is a lost segment.
//!
//! The codec implements the standard 20-byte header plus the options this
//! study needs: MSS, window scale, timestamps, SACK, and a pass-through
//! *raw* option used by `mpwifi-mptcp` for kind-30 (MPTCP) options.
//!
//! An option holds its body inline: a SACK option at most
//! [`MAX_SACK_RANGES`] ranges ([`SackBlocks`]) and a raw option at most
//! [`MAX_OPTION_BODY`] bytes ([`OptionBody`]) — everything the 40-byte
//! option area can carry. So a segment's one heap allocation beside
//! its payload is the `Vec` of options itself.

use bytes::{Buf, BufMut, Bytes};
use std::fmt;
use std::ops::Deref;

/// Fixed TCP header length (no options), bytes.
pub const HEADER_LEN: usize = 20;
/// Simulated IP header overhead added by the encoder so that link rates
/// charge IP+TCP bytes like a real trace would.
pub const IP_OVERHEAD: usize = 20;
/// Option kind carrying MPTCP (RFC 6824).
pub const OPT_KIND_MPTCP: u8 = 30;
/// Room for options in a TCP header (a 4-bit data offset in words),
/// bytes, after padding to a 4-byte boundary.
pub const MAX_OPTIONS_LEN: usize = 40;
/// Longest option body: the option area less the kind and length bytes.
pub const MAX_OPTION_BODY: usize = MAX_OPTIONS_LEN - 2;
/// Most ranges one SACK option can carry (eight body bytes each).
pub const MAX_SACK_RANGES: usize = MAX_OPTION_BODY / 8;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Synchronize sequence numbers (connection open).
    pub syn: bool,
    /// Acknowledgment field significant.
    pub ack: bool,
    /// No more data from sender (connection close).
    pub fin: bool,
    /// Reset the connection.
    pub rst: bool,
    /// Push function.
    pub psh: bool,
}

impl Flags {
    /// A pure SYN.
    pub const SYN: Flags = Flags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };
    /// SYN+ACK.
    pub const SYN_ACK: Flags = Flags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// A pure ACK.
    pub const ACK: Flags = Flags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// FIN+ACK.
    pub const FIN_ACK: Flags = Flags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
        psh: false,
    };
    /// RST.
    pub const RST: Flags = Flags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
        psh: false,
    };

    fn to_bits(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
    }

    fn from_bits(b: u8) -> Flags {
        Flags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

impl fmt::Display for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.syn {
            parts.push("SYN");
        }
        if self.fin {
            parts.push("FIN");
        }
        if self.rst {
            parts.push("RST");
        }
        if self.psh {
            parts.push("PSH");
        }
        if self.ack {
            parts.push("ACK");
        }
        write!(
            f,
            "{}",
            if parts.is_empty() {
                "-".into()
            } else {
                parts.join("|")
            }
        )
    }
}

/// A TCP option.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpOption {
    /// Maximum segment size (SYN only).
    Mss(u16),
    /// Window scale shift (SYN only).
    WindowScale(u8),
    /// Timestamp value / echo reply (RFC 7323), in simulated milliseconds.
    Timestamp {
        /// Sender's clock at transmit.
        val: u32,
        /// Echo of the most recent timestamp received.
        ecr: u32,
    },
    /// SACK permitted (SYN only). Parsed but advisory in this stack.
    SackPermitted,
    /// Selective acknowledgment ranges: `[start, end)` sequence pairs.
    Sack(SackBlocks),
    /// Unknown / pass-through option (MPTCP uses kind 30).
    Raw {
        /// Option kind byte.
        kind: u8,
        /// Option data (excluding kind and length bytes).
        data: OptionBody,
    },
}

/// The ranges of a SACK option, held inline: at most
/// [`MAX_SACK_RANGES`]. Reads as a slice of `[start, end)` pairs;
/// equality and `Debug` see only the ranges held.
#[derive(Clone, Copy, Default)]
pub struct SackBlocks {
    len: u8,
    ranges: [(u32, u32); MAX_SACK_RANGES],
}

impl SackBlocks {
    /// The ranges of `ranges`, or `None` if there are more than
    /// [`MAX_SACK_RANGES`].
    pub fn from_slice(ranges: &[(u32, u32)]) -> Option<SackBlocks> {
        let mut out = SackBlocks::default();
        out.ranges.get_mut(..ranges.len())?.copy_from_slice(ranges);
        out.len = ranges.len() as u8;
        Some(out)
    }

    /// Append one range.
    ///
    /// # Panics
    ///
    /// If [`MAX_SACK_RANGES`] are already held.
    pub fn push(&mut self, range: (u32, u32)) {
        assert!(
            usize::from(self.len) < MAX_SACK_RANGES,
            "a SACK option holds at most {MAX_SACK_RANGES} ranges"
        );
        self.ranges[usize::from(self.len)] = range;
        self.len += 1;
    }
}

impl Deref for SackBlocks {
    type Target = [(u32, u32)];

    fn deref(&self) -> &[(u32, u32)] {
        &self.ranges[..usize::from(self.len)]
    }
}

impl PartialEq for SackBlocks {
    fn eq(&self, other: &SackBlocks) -> bool {
        **self == **other
    }
}

impl Eq for SackBlocks {}

impl fmt::Debug for SackBlocks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The body of a pass-through option, held inline: at most
/// [`MAX_OPTION_BODY`] bytes, written through [`BufMut`]. Reads as a
/// byte slice; equality and `Debug` see only the bytes written.
#[derive(Clone, Copy)]
pub struct OptionBody {
    len: u8,
    bytes: [u8; MAX_OPTION_BODY],
}

impl OptionBody {
    /// An empty body.
    pub const fn new() -> OptionBody {
        OptionBody {
            len: 0,
            bytes: [0; MAX_OPTION_BODY],
        }
    }

    /// A copy of `data`, or `None` if it is longer than
    /// [`MAX_OPTION_BODY`].
    pub fn from_slice(data: &[u8]) -> Option<OptionBody> {
        let mut out = OptionBody::new();
        out.bytes.get_mut(..data.len())?.copy_from_slice(data);
        out.len = data.len() as u8;
        Some(out)
    }

    /// The next `n` bytes of the body, now live.
    fn grow(&mut self, n: usize) -> &mut [u8] {
        let at = usize::from(self.len);
        let end = at + n;
        assert!(
            end <= MAX_OPTION_BODY,
            "an option body holds at most {MAX_OPTION_BODY} bytes"
        );
        self.len = end as u8;
        &mut self.bytes[at..end]
    }
}

impl Default for OptionBody {
    fn default() -> OptionBody {
        OptionBody::new()
    }
}

impl Deref for OptionBody {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

impl PartialEq for OptionBody {
    fn eq(&self, other: &OptionBody) -> bool {
        **self == **other
    }
}

impl Eq for OptionBody {}

impl fmt::Debug for OptionBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Appends past [`MAX_OPTION_BODY`] bytes panic: no option that long
/// fits a header.
impl BufMut for OptionBody {
    fn put_slice(&mut self, src: &[u8]) {
        self.grow(src.len()).copy_from_slice(src);
    }

    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.grow(cnt).fill(val);
    }
}

impl TcpOption {
    fn encoded_len(&self) -> usize {
        match self {
            TcpOption::Mss(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::Timestamp { .. } => 10,
            TcpOption::SackPermitted => 2,
            // The stored counts, not the slices: no bounds check on the
            // per-frame path (`Segment::wire_len`).
            TcpOption::Sack(ranges) => 2 + 8 * usize::from(ranges.len),
            TcpOption::Raw { data, .. } => 2 + usize::from(data.len),
        }
    }
}

/// A TCP segment: what a frame carries typed, and what a wire image
/// strictly decodes to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: u32,
    /// Acknowledgment number (valid when `flags.ack`).
    pub ack: u32,
    /// Control flags.
    pub flags: Flags,
    /// Advertised receive window (already scaled *down* — this is the raw
    /// 16-bit field; apply the negotiated shift to recover bytes).
    pub window: u16,
    /// Options in order.
    pub options: Vec<TcpOption>,
    /// Payload bytes.
    pub payload: Bytes,
}

impl Segment {
    /// A payload-less control segment.
    pub fn control(src_port: u16, dst_port: u16, seq: u32, ack: u32, flags: Flags) -> Segment {
        Segment {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window: 0,
            options: Vec::new(),
            payload: Bytes::new(),
        }
    }

    /// Sequence space this segment occupies (payload + SYN/FIN).
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + self.flags.syn as u32 + self.flags.fin as u32
    }

    /// First timestamp option, if present.
    pub fn timestamp(&self) -> Option<(u32, u32)> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Timestamp { val, ecr } => Some((*val, *ecr)),
            _ => None,
        })
    }

    /// The bodies of all raw (pass-through) options of the given kind.
    pub fn raw_options(&self, kind: u8) -> impl Iterator<Item = &[u8]> {
        self.options.iter().filter_map(move |o| match o {
            TcpOption::Raw { kind: k, data } if *k == kind => Some(&**data),
            _ => None,
        })
    }

    /// Total encoded size on the wire, including the simulated IP header.
    pub fn wire_len(&self) -> usize {
        let opt_len: usize = self.options.iter().map(|o| o.encoded_len()).sum();
        let padded = opt_len.div_ceil(4) * 4;
        IP_OVERHEAD + HEADER_LEN + padded + self.payload.len()
    }

    /// Encode to wire bytes (simulated IP overhead is prepended as zero
    /// padding so frame sizes charge realistic per-packet overhead).
    ///
    /// Allocates a fresh buffer per call; `mpwifi_tcp::SegmentBufPool`
    /// recycles buffers through [`Self::encode_into`] instead.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut buf);
        Bytes::from(buf)
    }

    /// Encode by appending to `buf`, in a single pass (option lengths are
    /// summed once, then every byte is written exactly once; the checksum
    /// is patched in place at the end). The caller owns the buffer and its
    /// clearing policy — this method only appends from the current length.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let opt_len: usize = self.options.iter().map(|o| o.encoded_len()).sum();
        let padded_opt_len = opt_len.div_ceil(4) * 4;
        assert!(
            padded_opt_len <= MAX_OPTIONS_LEN,
            "TCP options exceed {MAX_OPTIONS_LEN} bytes ({padded_opt_len})"
        );
        let data_offset_words = (HEADER_LEN + padded_opt_len) / 4;
        let wire_len = IP_OVERHEAD + HEADER_LEN + padded_opt_len + self.payload.len();

        let base = buf.len();
        buf.reserve(wire_len);
        // Simulated IP header: zeroes except a 16-bit total length so
        // decode can sanity-check framing.
        buf.put_bytes(0, IP_OVERHEAD - 2);
        buf.put_u16(wire_len as u16);

        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u32(self.seq);
        buf.put_u32(self.ack);
        buf.put_u8((data_offset_words as u8) << 4);
        buf.put_u8(self.flags.to_bits());
        buf.put_u16(self.window);
        let checksum_pos = buf.len();
        buf.put_u16(0); // checksum placeholder
        buf.put_u16(0); // urgent pointer

        for opt in &self.options {
            match opt {
                TcpOption::Mss(mss) => {
                    buf.put_u8(2);
                    buf.put_u8(4);
                    buf.put_u16(*mss);
                }
                TcpOption::WindowScale(shift) => {
                    buf.put_u8(3);
                    buf.put_u8(3);
                    buf.put_u8(*shift);
                }
                TcpOption::SackPermitted => {
                    buf.put_u8(4);
                    buf.put_u8(2);
                }
                TcpOption::Sack(ranges) => {
                    buf.put_u8(5);
                    buf.put_u8((2 + 8 * ranges.len()) as u8);
                    for &(a, b) in ranges.iter() {
                        buf.put_u32(a);
                        buf.put_u32(b);
                    }
                }
                TcpOption::Timestamp { val, ecr } => {
                    buf.put_u8(8);
                    buf.put_u8(10);
                    buf.put_u32(*val);
                    buf.put_u32(*ecr);
                }
                TcpOption::Raw { kind, data } => {
                    buf.put_u8(*kind);
                    buf.put_u8((2 + data.len()) as u8);
                    buf.put_slice(data);
                }
            }
        }
        // Pad options to a 4-byte boundary with NOPs.
        for _ in 0..(padded_opt_len - opt_len) {
            buf.put_u8(1);
        }
        buf.put_slice(&self.payload);

        // Ones'-complement checksum over the TCP portion.
        let csum = internet_checksum(&buf[base + IP_OVERHEAD..]);
        buf[checksum_pos] = (csum >> 8) as u8;
        buf[checksum_pos + 1] = (csum & 0xff) as u8;
    }

    /// Decode from wire bytes. Returns `None` on malformed, non-canonical,
    /// or checksum-mismatched input (the segment is treated as lost).
    ///
    /// Decoding is *strict*: every accepted wire image is exactly what
    /// [`Self::encode`] would produce for the returned segment
    /// (round-trip-or-reject). Inputs this encoder cannot emit — nonzero
    /// IP padding, reserved header bits, an urgent pointer, EOL options,
    /// interior NOPs, a non-canonical checksum representative — are
    /// rejected rather than normalized, so a forwarded or logged segment
    /// can never silently differ from its wire image.
    ///
    /// Borrows the wire image: header fields and options are parsed in
    /// place, option bodies are copied into their inline holders (no
    /// option is longer than [`MAX_OPTION_BODY`]), and the payload comes
    /// back as a zero-copy slice sharing `wire`'s allocation. The one
    /// allocation is the option list, when there are options.
    pub fn decode(wire: &Bytes) -> Option<Segment> {
        if wire.len() < IP_OVERHEAD + HEADER_LEN {
            return None;
        }
        // The simulated IP header is all zeros apart from total length.
        if wire[..IP_OVERHEAD - 2].iter().any(|&b| b != 0) {
            return None;
        }
        let total_len = u16::from_be_bytes([wire[IP_OVERHEAD - 2], wire[IP_OVERHEAD - 1]]) as usize;
        if total_len != wire.len() {
            return None;
        }
        // Strict checksum: the stored field must equal the one canonical
        // value the encoder writes. (Plain sums-to-zero validation would
        // also accept the other ones'-complement representative of the
        // same value, which re-encodes to different bytes.)
        let tcp = &wire[IP_OVERHEAD..];
        let stored = u16::from_be_bytes([tcp[16], tcp[17]]);
        if stored != expected_checksum(tcp) {
            return None;
        }
        let mut hdr = &wire[IP_OVERHEAD..];
        let src_port = hdr.get_u16();
        let dst_port = hdr.get_u16();
        let seq = hdr.get_u32();
        let ack = hdr.get_u32();
        let offset_byte = hdr.get_u8();
        let data_offset_words = (offset_byte >> 4) as usize;
        if offset_byte & 0x0F != 0 {
            return None; // reserved bits
        }
        let flag_bits = hdr.get_u8();
        if flag_bits & 0xE0 != 0 {
            return None; // URG/ECE/CWR: never emitted by this stack
        }
        let flags = Flags::from_bits(flag_bits);
        let window = hdr.get_u16();
        let _checksum = hdr.get_u16();
        if hdr.get_u16() != 0 {
            return None; // urgent pointer unsupported
        }

        let header_total = data_offset_words * 4;
        if header_total < HEADER_LEN || header_total > wire.len() - IP_OVERHEAD {
            return None;
        }
        let mut options = Vec::new();
        // Absolute offsets into `wire`.
        let mut off = IP_OVERHEAD + HEADER_LEN;
        let opt_end = IP_OVERHEAD + header_total;
        while off < opt_end {
            let kind = wire[off];
            off += 1;
            match kind {
                // EOL: the canonical encoder never emits kind 0.
                0 => return None,
                1 => {
                    // NOPs appear only as the encoder's trailing pad to
                    // the 4-byte boundary: fewer than four of them, with
                    // nothing after.
                    let pad = opt_end - (off - 1);
                    if pad >= 4 || wire[off..opt_end].iter().any(|&b| b != 1) {
                        return None;
                    }
                    off = opt_end;
                }
                _ => {
                    if off >= opt_end {
                        return None;
                    }
                    let len = wire[off] as usize;
                    off += 1;
                    if len < 2 || off + (len - 2) > opt_end {
                        return None;
                    }
                    options.push(parse_option(kind, wire, off, len - 2)?);
                    off += len - 2;
                }
            }
        }
        let payload = wire.slice(IP_OVERHEAD + header_total..);
        Some(Segment {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window,
            options,
            payload,
        })
    }
}

/// Parse one option whose data occupies `wire[start..start + len]`, which
/// lies inside the option area, so `len` is at most [`MAX_OPTION_BODY`].
fn parse_option(kind: u8, wire: &[u8], start: usize, len: usize) -> Option<TcpOption> {
    let mut data = &wire[start..start + len];
    Some(match kind {
        2 => {
            if len != 2 {
                return None;
            }
            TcpOption::Mss(data.get_u16())
        }
        3 => {
            if len != 1 {
                return None;
            }
            TcpOption::WindowScale(data.get_u8())
        }
        4 => {
            if len != 0 {
                return None;
            }
            TcpOption::SackPermitted
        }
        5 => {
            if !len.is_multiple_of(8) {
                return None;
            }
            let mut ranges = SackBlocks::default();
            while data.has_remaining() {
                ranges.push((data.get_u32(), data.get_u32()));
            }
            TcpOption::Sack(ranges)
        }
        8 => {
            if len != 8 {
                return None;
            }
            TcpOption::Timestamp {
                val: data.get_u32(),
                ecr: data.get_u32(),
            }
        }
        k => TcpOption::Raw {
            kind: k,
            data: OptionBody::from_slice(data)?,
        },
    })
}

/// Ones'-complement accumulation over `data`, four little-endian bytes
/// at a time: congruent to the classic big-endian 16-bit words, byte-
/// swapped, because 2^16 ≡ 1 (mod 2^16 − 1) and the sum is byte-order
/// independent (RFC 1071 §2(B)); a trailing partial chunk is zero-padded,
/// which is the odd-byte rule. The u64 cannot overflow below ~2^32 bytes,
/// and with no per-word swap the loop vectorizes on baseline x86-64.
#[inline]
fn wide_ones_complement_sum(data: &[u8]) -> u64 {
    let mut sum: u64 = 0;
    let mut chunks = data.chunks_exact(4);
    for c in &mut chunks {
        sum += u64::from(u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 4];
        tail[..rem.len()].copy_from_slice(rem);
        sum += u64::from(u32::from_le_bytes(tail));
    }
    sum
}

/// Fold a wide little-endian accumulator to 16 bits, swap it to network
/// order and complement. The result depends only on the accumulator's
/// residue mod 2^16 − 1 and whether it is exactly zero (`0x0000` and
/// `0xffff` are their own swaps), as the word-at-a-time loop's does.
#[inline]
fn fold_complement(mut sum: u64) -> u16 {
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16).swap_bytes()
}

/// Checksum of a TCP portion with its checksum field (word 8, bytes
/// 16–17) read as zero — i.e. the exact value a canonical encoder would
/// have written there. `tcp` must be at least [`HEADER_LEN`] bytes.
fn expected_checksum(tcp: &[u8]) -> u16 {
    // Sum everything branch-free, then remove the stored checksum's
    // contribution. Bytes 16–17 are the low half of the little-endian
    // [16, 20) chunk (HEADER_LEN ≥ 20 guarantees that chunk is complete),
    // so the field contributed exactly its little-endian value and the
    // subtraction is exact in u64 — no modular correction needed.
    let stored = u64::from(u16::from_le_bytes([tcp[16], tcp[17]]));
    fold_complement(wide_ones_complement_sum(tcp) - stored)
}

/// Standard internet ones'-complement checksum. Returns the value that
/// makes a buffer containing it sum to zero; checking a received buffer
/// (checksum in place) must yield 0.
pub fn internet_checksum(data: &[u8]) -> u16 {
    fold_complement(wide_ones_complement_sum(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_segment() -> Segment {
        Segment {
            src_port: 443,
            dst_port: 50123,
            seq: 0xDEAD_BEEF,
            ack: 0x0102_0304,
            flags: Flags::ACK,
            window: 0x7FFF,
            options: vec![
                TcpOption::Timestamp {
                    val: 12345,
                    ecr: 678,
                },
                TcpOption::Raw {
                    kind: OPT_KIND_MPTCP,
                    data: OptionBody::from_slice(&[0x20, 1, 2, 3, 4, 5]).unwrap(),
                },
            ],
            payload: Bytes::from_static(b"some application data"),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let seg = sample_segment();
        let wire = seg.encode();
        let back = Segment::decode(&wire).expect("decode");
        assert_eq!(back, seg);
    }

    #[test]
    fn syn_options_round_trip() {
        let mut seg = Segment::control(1, 2, 100, 0, Flags::SYN);
        seg.options = vec![
            TcpOption::Mss(1400),
            TcpOption::WindowScale(8),
            TcpOption::SackPermitted,
        ];
        let back = Segment::decode(&seg.encode()).unwrap();
        assert_eq!(back.options, seg.options);
        assert!(back.flags.syn && !back.flags.ack);
    }

    #[test]
    fn corrupted_byte_fails_checksum() {
        let wire = sample_segment().encode();
        for i in IP_OVERHEAD..wire.len() {
            let mut corrupt = wire.to_vec();
            corrupt[i] ^= 0xFF;
            assert!(
                Segment::decode(&Bytes::from(corrupt)).is_none(),
                "corruption at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncated_input_rejected() {
        let wire = sample_segment().encode();
        for cut in 0..wire.len() {
            assert!(Segment::decode(&wire.slice(..cut)).is_none());
        }
    }

    #[test]
    fn seq_len_counts_syn_fin_payload() {
        let mut seg = Segment::control(1, 2, 0, 0, Flags::SYN);
        assert_eq!(seg.seq_len(), 1);
        seg.flags = Flags::FIN_ACK;
        seg.payload = Bytes::from_static(b"xyz");
        assert_eq!(seg.seq_len(), 4);
        seg.flags = Flags::ACK;
        seg.payload = Bytes::new();
        assert_eq!(seg.seq_len(), 0);
    }

    #[test]
    fn wire_len_matches_encoding() {
        let seg = sample_segment();
        assert_eq!(seg.wire_len(), seg.encode().len());
        let plain = Segment::control(1, 2, 0, 0, Flags::ACK);
        assert_eq!(plain.wire_len(), IP_OVERHEAD + HEADER_LEN);
        assert_eq!(plain.wire_len(), plain.encode().len());
    }

    #[test]
    fn checksum_of_buffer_with_checksum_is_zero() {
        let wire = sample_segment().encode();
        assert_eq!(internet_checksum(&wire[IP_OVERHEAD..]), 0);
    }

    /// RFC 1071's loop as the textbook has it: big-endian 16-bit words,
    /// an odd last byte padded with zero, the carry folded back in after
    /// every addition.
    fn textbook_checksum(data: &[u8]) -> u16 {
        let mut sum: u32 = 0;
        for pair in data.chunks(2) {
            let word = u16::from_be_bytes([pair[0], pair.get(1).copied().unwrap_or(0)]);
            sum += u32::from(word);
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    #[test]
    fn checksum_keeps_the_representative_of_zero_at_every_length() {
        // A sum of zero has two ones'-complement spellings; strict decode
        // accepts only the one the encoder writes, so neither may flip.
        for len in 0..=1600 {
            for fill in [0x00u8, 0xff] {
                let data = vec![fill; len];
                assert_eq!(
                    internet_checksum(&data),
                    textbook_checksum(&data),
                    "{len} bytes of {fill:#04x}"
                );
            }
        }
        assert_eq!(internet_checksum(&[]), 0xffff);
        assert_eq!(internet_checksum(&[0xff; 1440]), 0x0000);
    }

    #[test]
    fn timestamp_accessor() {
        let seg = sample_segment();
        assert_eq!(seg.timestamp(), Some((12345, 678)));
        let plain = Segment::control(1, 2, 0, 0, Flags::ACK);
        assert_eq!(plain.timestamp(), None);
    }

    #[test]
    fn raw_option_filter() {
        let seg = sample_segment();
        let raws: Vec<_> = seg.raw_options(OPT_KIND_MPTCP).collect();
        assert_eq!(raws.len(), 1);
        assert_eq!(raws[0].len(), 6);
        assert_eq!(seg.raw_options(31).count(), 0);
    }

    #[test]
    fn sack_option_round_trip() {
        let mut seg = Segment::control(1, 2, 0, 100, Flags::ACK);
        seg.options = vec![
            TcpOption::Timestamp { val: 5, ecr: 6 },
            TcpOption::Sack(SackBlocks::from_slice(&[(200, 300), (500, 700)]).unwrap()),
        ];
        let back = Segment::decode(&seg.encode()).unwrap();
        assert_eq!(back.options, seg.options);
    }

    #[test]
    fn inline_bodies_hold_what_the_option_area_can() {
        assert!(SackBlocks::from_slice(&[(1, 2); MAX_SACK_RANGES]).is_some());
        assert!(SackBlocks::from_slice(&[(1, 2); MAX_SACK_RANGES + 1]).is_none());
        assert!(OptionBody::from_slice(&[7; MAX_OPTION_BODY]).is_some());
        assert!(OptionBody::from_slice(&[7; MAX_OPTION_BODY + 1]).is_none());
        // Equality and `Debug` see the live part only: a body built in
        // steps equals one copied whole.
        let mut body = OptionBody::new();
        body.put_u8(1);
        body.put_u16(0x0203);
        assert_eq!(body, OptionBody::from_slice(&[1, 2, 3]).unwrap());
        assert_eq!(format!("{body:?}"), "[1, 2, 3]");
        let mut sack = SackBlocks::default();
        sack.push((5, 6));
        assert_eq!(format!("{sack:?}"), "[(5, 6)]");
        assert_ne!(sack, SackBlocks::default());
    }

    #[test]
    #[should_panic(expected = "at most 38 bytes")]
    fn an_option_body_refuses_a_39th_byte() {
        let mut body = OptionBody::from_slice(&[0; MAX_OPTION_BODY]).unwrap();
        body.put_u8(1);
    }

    #[test]
    #[should_panic(expected = "at most 4 ranges")]
    fn a_sack_option_refuses_a_fifth_range() {
        let mut sack = SackBlocks::from_slice(&[(1, 2); MAX_SACK_RANGES]).unwrap();
        sack.push((3, 4));
    }

    #[test]
    fn flags_display() {
        assert_eq!(format!("{}", Flags::SYN_ACK), "SYN|ACK");
        assert_eq!(format!("{}", Flags::default()), "-");
    }

    proptest! {
        #[test]
        fn prop_round_trip(
            src in any::<u16>(), dst in any::<u16>(),
            seq in any::<u32>(), ack in any::<u32>(),
            syn in any::<bool>(), fin in any::<bool>(), ackf in any::<bool>(),
            window in any::<u16>(),
            payload in proptest::collection::vec(any::<u8>(), 0..1400),
            ts in proptest::option::of((any::<u32>(), any::<u32>())),
            raw in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..20)),
        ) {
            let mut options = Vec::new();
            if let Some((val, ecr)) = ts {
                options.push(TcpOption::Timestamp { val, ecr });
            }
            if let Some(data) = raw {
                options.push(TcpOption::Raw { kind: 30, data: OptionBody::from_slice(&data).unwrap() });
            }
            let seg = Segment {
                src_port: src, dst_port: dst, seq, ack,
                flags: Flags { syn, fin, ack: ackf, rst: false, psh: false },
                window, options, payload: Bytes::from(payload),
            };
            let back = Segment::decode(&seg.encode());
            prop_assert_eq!(back, Some(seg));
        }

        #[test]
        fn prop_full_inline_bodies_round_trip(
            ranges in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..MAX_SACK_RANGES + 1),
            body in proptest::collection::vec(any::<u8>(), 0..MAX_OPTION_BODY + 1),
            kind in 9u8..=255,
        ) {
            // Every SACK of one to four ranges and every raw body of up
            // to 38 bytes fills at most the whole option area alone.
            for options in [
                vec![TcpOption::Sack(SackBlocks::from_slice(&ranges).unwrap())],
                vec![TcpOption::Raw { kind, data: OptionBody::from_slice(&body).unwrap() }],
            ] {
                let seg = Segment {
                    options,
                    payload: Bytes::from_static(b"xy"),
                    ..Segment::control(1, 2, 3, 4, Flags::ACK)
                };
                let wire = seg.encode();
                prop_assert_eq!(wire.len(), seg.wire_len());
                prop_assert_eq!(Segment::decode(&wire), Some(seg));
            }
        }

        #[test]
        fn prop_decode_never_panics_on_garbage(
            data in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            // Arbitrary bytes must never panic the decoder — at worst
            // they are rejected as None. And whatever IS accepted must
            // re-encode to the identical wire image.
            if let Some(seg) = Segment::decode(&Bytes::from(data.clone())) {
                prop_assert_eq!(seg.encode().to_vec(), data);
            }
        }

        #[test]
        fn prop_mutated_wire_round_trips_or_rejects(
            mutations in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..8),
            fix_up in any::<bool>(),
        ) {
            // Start from a canonical wire image, poke random bytes into
            // it, and (half the time) repair the framing length and
            // checksum so decoding proceeds past the outer gates into
            // the header/option validators. Whatever survives decoding
            // must re-encode byte-for-byte — a decoder that quietly
            // normalizes reserved bits, urgent pointers, or option
            // padding fails here.
            let mut wire = sample_segment().encode().to_vec();
            for (pos, val) in mutations {
                let p = pos % wire.len();
                wire[p] = val;
            }
            if fix_up {
                let len = wire.len() as u16;
                wire[IP_OVERHEAD - 2..IP_OVERHEAD].copy_from_slice(&len.to_be_bytes());
                let c = expected_checksum(&wire[IP_OVERHEAD..]);
                wire[IP_OVERHEAD + 16..IP_OVERHEAD + 18].copy_from_slice(&c.to_be_bytes());
            }
            if let Some(seg) = Segment::decode(&Bytes::from(wire.clone())) {
                prop_assert_eq!(seg.encode().to_vec(), wire);
            }
        }

        #[test]
        fn prop_truncated_options_round_trip_or_reject(
            cut in 0usize..64,
            offset_nibble in 5u8..=15,
        ) {
            // Truncate a wire image somewhere inside its options area,
            // then repair total length and checksum (so only the option
            // parser stands between garbage and acceptance) and claim an
            // arbitrary plausible data offset. Mid-option truncation
            // must reject, never panic, never mis-parse.
            let mut seg = Segment::control(1, 2, 100, 0, Flags::SYN);
            seg.options = vec![
                TcpOption::Mss(1400),
                TcpOption::WindowScale(8),
                TcpOption::SackPermitted,
                TcpOption::Timestamp { val: 7, ecr: 8 },
                TcpOption::Raw { kind: 30, data: OptionBody::from_slice(&[0xAA; 11]).unwrap() },
            ];
            let full = seg.encode().to_vec();
            let keep = IP_OVERHEAD + HEADER_LEN + cut % (full.len() - IP_OVERHEAD - HEADER_LEN + 1);
            let mut wire = full[..keep].to_vec();
            wire[IP_OVERHEAD + 12] = offset_nibble << 4;
            let len = wire.len() as u16;
            wire[IP_OVERHEAD - 2..IP_OVERHEAD].copy_from_slice(&len.to_be_bytes());
            let c = expected_checksum(&wire[IP_OVERHEAD..]);
            wire[IP_OVERHEAD + 16..IP_OVERHEAD + 18].copy_from_slice(&c.to_be_bytes());
            if let Some(back) = Segment::decode(&Bytes::from(wire.clone())) {
                prop_assert_eq!(back.encode().to_vec(), wire);
            }
        }

        #[test]
        fn prop_checksum_matches_the_textbook_loop(
            data in proptest::collection::vec(any::<u8>(), 0..1601),
        ) {
            prop_assert_eq!(internet_checksum(&data), textbook_checksum(&data));
            // And with a checksum field in place (any TCP portion is at
            // least a header long): the field reads as zero.
            if data.len() >= HEADER_LEN {
                let mut zeroed = data.clone();
                zeroed[16..18].fill(0);
                prop_assert_eq!(expected_checksum(&data), textbook_checksum(&zeroed));
            }
        }

        #[test]
        fn prop_checksum_detects_single_bit_flips(
            payload in proptest::collection::vec(any::<u8>(), 1..200),
            bit in 0usize..1000,
        ) {
            let seg = Segment {
                payload: Bytes::from(payload),
                ..Segment::control(1, 2, 9, 9, Flags::ACK)
            };
            let wire = seg.encode().to_vec();
            let bit = bit % ((wire.len() - IP_OVERHEAD) * 8);
            let mut corrupt = wire.clone();
            corrupt[IP_OVERHEAD + bit / 8] ^= 1 << (bit % 8);
            prop_assert!(Segment::decode(&Bytes::from(corrupt)).is_none());
        }
    }
}
