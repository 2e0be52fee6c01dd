//! Hand-rolled, versioned binary codec for the streaming summaries.
//!
//! The campaign journal (`crowd::journal`) persists completed
//! [`crate::CdfSketch`] / [`crate::Histogram`] / [`crate::MeanAcc`]
//! values to disk and reads them back after a crash. The vendored serde
//! is a no-op shim, so the wire format is hand-rolled here: fixed-width
//! little-endian integers, `f64` round-tripped through [`f64::to_bits`]
//! (exact for every value including ±inf and signed zero), and a leading
//! version byte per value so a future layout change is a typed
//! [`CodecError::Version`] instead of silent garbage.
//!
//! Decoding is defensive: it runs on bytes recovered from a possibly
//! torn or corrupted journal tail, so every length is bounds-checked
//! before allocation, every counter sum uses checked arithmetic, and
//! each type re-validates its internal invariants (bin totals match the
//! sample count, extremes are ordered, NaN never enters a field that
//! cannot legally hold one). A decode either returns a value that is
//! indistinguishable from one built by pushing samples, or a typed
//! [`CodecError`] — never a panic, never a half-valid summary.

use std::fmt;

/// Upper bound on a decoded bin vector. Campaign summaries use 800-bin
/// sketches; anything past this is corrupted length bytes, and refusing
/// early keeps a flipped length byte from turning into a giant
/// allocation.
pub const MAX_BINS: u32 = 1 << 20;

/// A typed decode failure. `what` names the value being decoded so the
/// journal layer can report *which* summary a corrupt frame broke in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value did.
    Truncated {
        /// The value (or field) being decoded.
        what: &'static str,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// The leading version byte named a layout this build cannot read.
    Version {
        /// The value being decoded.
        what: &'static str,
        /// Version byte found in the input.
        found: u8,
        /// Version this build writes and reads.
        supported: u8,
    },
    /// The bytes decoded structurally but violate the type's invariants
    /// (mismatched totals, unordered extremes, NaN in a no-NaN field…).
    Invalid {
        /// The value being decoded.
        what: &'static str,
        /// Which invariant failed.
        detail: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { what, needed, have } => {
                write!(f, "{what}: truncated (needed {needed} bytes, have {have})")
            }
            CodecError::Version {
                what,
                found,
                supported,
            } => {
                write!(
                    f,
                    "{what}: unsupported codec version {found} (this build reads {supported})"
                )
            }
            CodecError::Invalid { what, detail } => {
                write!(f, "{what}: invalid encoding ({detail})")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bit pattern (exact round-trip).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// A bounds-checked cursor over a byte slice. Every read names the
/// field it is for, so truncation errors point at the exact spot the
/// input ran dry.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte was consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                what,
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an `f64` from its bit pattern. NaN is legal here; fields
    /// that must not hold NaN check after reading.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Read a version byte and require it to match.
    pub fn version(&mut self, what: &'static str, supported: u8) -> Result<(), CodecError> {
        let found = self.u8(what)?;
        if found != supported {
            return Err(CodecError::Version {
                what,
                found,
                supported,
            });
        }
        Ok(())
    }

    /// Read a `u32`-length-prefixed vector of `u64` counters, bounded by
    /// [`MAX_BINS`], and their sum, `None` if it overflows `u64`
    /// (corrupt inputs can hold `u64::MAX` bins that would wrap a naive
    /// sum). The sum is built as the counters are parsed; the caller
    /// decides when an overflow is an error, so a field that is missing
    /// after the counters is still reported first. The length is checked
    /// once; a short input is the error a counter-by-counter read would
    /// stop at: the first counter that does not fit, with the bytes left
    /// after the whole ones.
    pub fn counters(&mut self, what: &'static str) -> Result<(Vec<u64>, Option<u64>), CodecError> {
        let n = self.u32(what)?;
        if n == 0 || n > MAX_BINS {
            return Err(CodecError::Invalid {
                what,
                detail: "bin count out of range",
            });
        }
        let bytes = n as usize * 8;
        if self.remaining() < bytes {
            return Err(CodecError::Truncated {
                what,
                needed: 8,
                have: self.remaining() % 8,
            });
        }
        let mut sum = Some(0u64);
        let v = self
            .take(bytes, what)?
            .chunks_exact(8)
            .map(|b| {
                let c = u64::from_le_bytes(b.try_into().expect("an 8-byte chunk"));
                sum = sum.and_then(|s| s.checked_add(c));
                c
            })
            .collect();
        Ok((v, sum))
    }

    /// Require every byte to be consumed (used by framed decoders where
    /// trailing bytes mean a corrupted length).
    pub fn finish(&self, what: &'static str) -> Result<(), CodecError> {
        if !self.is_empty() {
            return Err(CodecError::Invalid {
                what,
                detail: "trailing bytes after value",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::INFINITY);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        // -0.0 round-trips bit-exactly (value equality would accept +0.0).
        assert_eq!(r.f64("d").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64("e").unwrap(), f64::INFINITY);
        r.finish("buf").unwrap();
    }

    #[test]
    fn truncation_is_typed() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(matches!(
            r.u64("field"),
            Err(CodecError::Truncated {
                what: "field",
                needed: 8,
                have: 3
            })
        ));
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut r = Reader::new(&[9]);
        assert!(matches!(
            r.version("t", 1),
            Err(CodecError::Version {
                found: 9,
                supported: 1,
                ..
            })
        ));
    }

    #[test]
    fn oversized_bin_count_refused_before_allocation() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        let mut r = Reader::new(&buf);
        assert!(matches!(
            r.counters("bins"),
            Err(CodecError::Invalid {
                detail: "bin count out of range",
                ..
            })
        ));
    }

    #[test]
    fn counters_sum_is_checked() {
        let read = |counts: &[u64]| {
            let mut buf = Vec::new();
            put_u32(&mut buf, counts.len() as u32);
            for &c in counts {
                put_u64(&mut buf, c);
            }
            Reader::new(&buf).counters("bins").unwrap()
        };
        assert_eq!(read(&[u64::MAX, 1]).1, None);
        assert_eq!(read(&[1, u64::MAX, 0]).1, None);
        assert_eq!(read(&[1, 2, 3]), (vec![1, 2, 3], Some(6)));
    }

    #[test]
    fn trailing_bytes_refused() {
        let r = Reader::new(&[0]);
        assert!(matches!(
            r.finish("t"),
            Err(CodecError::Invalid {
                detail: "trailing bytes after value",
                ..
            })
        ));
    }
}
