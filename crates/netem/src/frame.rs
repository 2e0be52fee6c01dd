//! Frames and addresses.
//!
//! A [`Frame`] is what travels through emulated links: a [`Payload`]
//! (normally a typed TCP segment, produced by `mpwifi-tcp`) plus the
//! simulator-level addressing needed to route replies out of the right
//! interface on a multi-homed host.

use crate::segment::Segment;
use bytes::Bytes;
use mpwifi_simcore::Time;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A simulator-level interface address. Multi-homed hosts own several
/// (e.g. the client's WiFi and LTE interfaces have distinct addresses),
/// which is how the server's replies are routed back over the same path
/// they arrived on — mirroring how MPTCP subflows are pinned to interface
/// pairs by their IP addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Addr(pub u8);

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "addr{}", self.0)
    }
}

/// What a frame carries.
///
/// A segment stays typed for as long as nothing needs its bytes: a link
/// needs only the length, which [`Segment::wire_len`] computes without
/// encoding. Bytes are made where something alters them
/// ([`crate::CorruptFilter`]), and a wire image becomes a segment again
/// only through strict [`Segment::decode`].
#[derive(Debug, Clone)]
pub enum Payload {
    /// A segment nothing on the path has altered.
    Segment(Segment),
    /// A wire image: a segment a filter altered, or bytes that were never
    /// a segment (a ping probe).
    Wire(Bytes),
}

impl Payload {
    /// Bytes this payload occupies on the wire.
    pub fn wire_len(&self) -> usize {
        match self {
            Payload::Segment(seg) => seg.wire_len(),
            Payload::Wire(bytes) => bytes.len(),
        }
    }

    /// The wire image in a fresh buffer the caller owns, encoded here if
    /// the payload is still a typed segment.
    pub fn to_vec(&self) -> Vec<u8> {
        match self {
            Payload::Segment(seg) => {
                let mut buf = Vec::with_capacity(seg.wire_len());
                seg.encode_into(&mut buf);
                buf
            }
            Payload::Wire(bytes) => bytes.to_vec(),
        }
    }

    /// The segment a receiver sees: the typed one as it was sent, or the
    /// strict decode of a wire image (`None` when the image does not
    /// decode — a corrupted segment is a lost one). That the two agree —
    /// every segment a host sends survives its own wire image — is the
    /// conformance oracles' `wire-round-trip` check.
    pub fn into_segment(self) -> Option<Segment> {
        match self {
            Payload::Segment(seg) => Some(seg),
            Payload::Wire(bytes) => Segment::decode(&bytes),
        }
    }
}

impl From<Segment> for Payload {
    fn from(seg: Segment) -> Payload {
        Payload::Segment(seg)
    }
}

impl From<Bytes> for Payload {
    fn from(bytes: Bytes) -> Payload {
        Payload::Wire(bytes)
    }
}

/// A packet in flight through the emulated network.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Monotone per-simulation identifier (for logs and debugging).
    pub id: u64,
    /// Source interface address.
    pub src: Addr,
    /// Destination interface address.
    pub dst: Addr,
    /// The transport payload (includes transport headers).
    pub payload: Payload,
    /// When the sending endpoint handed this frame to the network.
    pub sent_at: Time,
}

impl Frame {
    /// Construct a frame carrying a [`Segment`] or a wire image.
    pub fn new(id: u64, src: Addr, dst: Addr, payload: impl Into<Payload>, sent_at: Time) -> Frame {
        Frame {
            id,
            src,
            dst,
            payload: payload.into(),
            sent_at,
        }
    }

    /// Bytes this frame occupies on the wire.
    pub fn wire_len(&self) -> usize {
        self.payload.wire_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{Flags, TcpOption};

    fn segment() -> Segment {
        Segment {
            options: vec![TcpOption::Timestamp { val: 1, ecr: 2 }],
            payload: Bytes::from_static(b"typed"),
            ..Segment::control(443, 50000, 7, 9, Flags::ACK)
        }
    }

    #[test]
    fn wire_len_is_payload_len() {
        let f = Frame::new(
            1,
            Addr(1),
            Addr(2),
            Bytes::from_static(b"hello"),
            Time::ZERO,
        );
        assert_eq!(f.wire_len(), 5);
    }

    #[test]
    fn a_typed_frame_is_as_long_as_its_wire_image() {
        let seg = segment();
        let f = Frame::new(1, Addr(1), Addr(2), seg.clone(), Time::ZERO);
        assert_eq!(f.wire_len(), seg.encode().len());
        assert_eq!(f.payload.to_vec(), seg.encode().to_vec());
    }

    #[test]
    fn a_receiver_sees_the_typed_segment_or_the_decode_of_its_bytes() {
        let seg = segment();
        assert_eq!(Payload::from(seg.clone()).into_segment(), Some(seg.clone()));
        assert_eq!(
            Payload::from(seg.encode()).into_segment(),
            Some(seg.clone())
        );
        let mut raw = seg.encode().to_vec();
        raw[30] ^= 0x55;
        assert_eq!(Payload::from(Bytes::from(raw)).into_segment(), None);
    }

    #[test]
    fn addr_display() {
        assert_eq!(format!("{}", Addr(3)), "addr3");
    }
}
