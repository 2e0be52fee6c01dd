//! MPTCP option codec (TCP option kind 30).
//!
//! The real subtype structure of RFC 6824 is kept; field widths are
//! simplified where DESIGN.md documents it (64-bit absolute subflow
//! offsets in DSS, FNV-1a tokens).

use bytes::{Buf, BufMut};
use mpwifi_simcore::Fnv1a;
use mpwifi_tcp::segment::{OptionBody, Segment, TcpOption, OPT_KIND_MPTCP};

/// Subtype identifiers (upper nibble of the first option byte in RFC
/// 6824; a full byte here).
mod subtype {
    pub const MP_CAPABLE: u8 = 0x0;
    pub const MP_JOIN: u8 = 0x1;
    pub const DSS: u8 = 0x2;
    pub const REMOVE_ADDR: u8 = 0x4;
    pub const MP_PRIO: u8 = 0x5;
    pub const MP_FASTCLOSE: u8 = 0x7;
}

/// One DSS mapping record: the `len` payload bytes of the segment
/// carrying this option hold connection-level data starting at DSN
/// `dsn`. The subflow-stream position comes from the TCP sequence number
/// of the carrying segment itself, so it is not repeated here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DssMap {
    /// Connection-level data sequence number of the first byte.
    pub dsn: u64,
    /// Mapped length in bytes.
    pub len: u16,
}

/// A decoded MPTCP option.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpOption {
    /// Connection handshake: carries the sender's key. On the SYN it is
    /// the client key, on the SYN-ACK the server key.
    MpCapable {
        /// Sender's connection key.
        key: u64,
    },
    /// Subflow join handshake: token identifies the connection, `backup`
    /// marks the subflow as backup-priority from birth.
    MpJoin {
        /// Receiver token = hash of the peer's key.
        token: u32,
        /// Address identifier of the joining interface.
        addr_id: u8,
        /// This subflow is a backup.
        backup: bool,
    },
    /// Data sequence signal: a cumulative connection-level ACK, an
    /// optional mapping, and the DATA_FIN flag.
    Dss {
        /// Connection-level cumulative ACK (next expected DSN).
        data_ack: u64,
        /// Mapping for payload in this segment, if it carries data.
        map: Option<DssMap>,
        /// DATA_FIN: the connection-level stream ends at `data_ack`
        /// direction's... at the end of this mapping (or at the DSN in
        /// `fin_dsn` when no mapping is present).
        fin: bool,
        /// DSN at which the sender's data stream ends (valid when `fin`).
        fin_dsn: u64,
    },
    /// The address with this id is gone; the peer should kill its
    /// subflows through it (sent on a surviving subflow).
    RemoveAddr {
        /// Address identifier of the removed interface.
        addr_id: u8,
    },
    /// Change this subflow's backup priority.
    MpPrio {
        /// New backup flag.
        backup: bool,
    },
    /// Abort the whole MPTCP connection.
    MpFastclose,
}

impl MpOption {
    /// Encode into the data portion of a kind-30 TCP option, held
    /// inline (the longest, a DSS with a mapping and a DATA_FIN, is 28
    /// bytes).
    pub fn encode(&self) -> OptionBody {
        let mut b = OptionBody::new();
        match self {
            MpOption::MpCapable { key } => {
                b.put_u8(subtype::MP_CAPABLE);
                b.put_u64(*key);
            }
            MpOption::MpJoin {
                token,
                addr_id,
                backup,
            } => {
                b.put_u8(subtype::MP_JOIN);
                b.put_u8(u8::from(*backup));
                b.put_u32(*token);
                b.put_u8(*addr_id);
            }
            MpOption::Dss {
                data_ack,
                map,
                fin,
                fin_dsn,
            } => {
                b.put_u8(subtype::DSS);
                let mut flags = 0u8;
                if map.is_some() {
                    flags |= 0x01;
                }
                if *fin {
                    flags |= 0x02;
                }
                b.put_u8(flags);
                b.put_u64(*data_ack);
                if let Some(m) = map {
                    b.put_u64(m.dsn);
                    b.put_u16(m.len);
                }
                if *fin {
                    b.put_u64(*fin_dsn);
                }
            }
            MpOption::RemoveAddr { addr_id } => {
                b.put_u8(subtype::REMOVE_ADDR);
                b.put_u8(*addr_id);
            }
            MpOption::MpPrio { backup } => {
                b.put_u8(subtype::MP_PRIO);
                b.put_u8(u8::from(*backup));
            }
            MpOption::MpFastclose => {
                b.put_u8(subtype::MP_FASTCLOSE);
            }
        }
        b
    }

    /// Decode from the data portion of a kind-30 TCP option.
    pub fn decode(mut data: &[u8]) -> Option<MpOption> {
        if data.is_empty() {
            return None;
        }
        let st = data.get_u8();
        Some(match st {
            subtype::MP_CAPABLE => {
                if data.remaining() < 8 {
                    return None;
                }
                MpOption::MpCapable {
                    key: data.get_u64(),
                }
            }
            subtype::MP_JOIN => {
                if data.remaining() < 6 {
                    return None;
                }
                let backup = data.get_u8() != 0;
                let token = data.get_u32();
                let addr_id = data.get_u8();
                MpOption::MpJoin {
                    token,
                    addr_id,
                    backup,
                }
            }
            subtype::DSS => {
                if data.remaining() < 9 {
                    return None;
                }
                let flags = data.get_u8();
                let data_ack = data.get_u64();
                let map = if flags & 0x01 != 0 {
                    if data.remaining() < 10 {
                        return None;
                    }
                    Some(DssMap {
                        dsn: data.get_u64(),
                        len: data.get_u16(),
                    })
                } else {
                    None
                };
                let fin = flags & 0x02 != 0;
                let fin_dsn = if fin {
                    if data.remaining() < 8 {
                        return None;
                    }
                    data.get_u64()
                } else {
                    0
                };
                MpOption::Dss {
                    data_ack,
                    map,
                    fin,
                    fin_dsn,
                }
            }
            subtype::REMOVE_ADDR => {
                if data.is_empty() {
                    return None;
                }
                MpOption::RemoveAddr {
                    addr_id: data.get_u8(),
                }
            }
            subtype::MP_PRIO => {
                if data.is_empty() {
                    return None;
                }
                MpOption::MpPrio {
                    backup: data.get_u8() != 0,
                }
            }
            subtype::MP_FASTCLOSE => MpOption::MpFastclose,
            _ => return None,
        })
    }

    /// Wrap into a TCP option ready to attach to a segment.
    pub fn to_tcp_option(&self) -> TcpOption {
        TcpOption::Raw {
            kind: OPT_KIND_MPTCP,
            data: self.encode(),
        }
    }
}

/// All MPTCP options carried by a segment, in order (decoded as the
/// caller walks them: the receive path runs once per segment).
pub fn mp_options(seg: &Segment) -> impl Iterator<Item = MpOption> + '_ {
    seg.raw_options(OPT_KIND_MPTCP).filter_map(MpOption::decode)
}

/// Derive the 32-bit connection token from a key.
///
/// RFC 6824 uses the most-significant 32 bits of SHA-1(key); we use
/// FNV-1a 64 folded to 32 bits (documented simplification — the handshake
/// message sequence is unchanged).
pub fn token_from_key(key: u64) -> u32 {
    let h = Fnv1a::hash(&key.to_be_bytes());
    ((h >> 32) ^ (h & 0xFFFF_FFFF)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mpwifi_tcp::segment::Flags;
    use proptest::prelude::*;

    #[test]
    fn mp_capable_round_trip() {
        let opt = MpOption::MpCapable {
            key: 0xDEAD_BEEF_0BAD_F00D,
        };
        assert_eq!(MpOption::decode(&opt.encode()), Some(opt));
    }

    #[test]
    fn mp_join_round_trip() {
        for backup in [false, true] {
            let opt = MpOption::MpJoin {
                token: 0x1234_5678,
                addr_id: 2,
                backup,
            };
            assert_eq!(MpOption::decode(&opt.encode()), Some(opt));
        }
    }

    #[test]
    fn dss_round_trip_all_shapes() {
        let shapes = [
            MpOption::Dss {
                data_ack: 0,
                map: None,
                fin: false,
                fin_dsn: 0,
            },
            MpOption::Dss {
                data_ack: 9_999_999_999,
                map: Some(DssMap {
                    dsn: 1 << 40,
                    len: 1400,
                }),
                fin: false,
                fin_dsn: 0,
            },
            MpOption::Dss {
                data_ack: 5,
                map: Some(DssMap { dsn: 100, len: 1 }),
                fin: true,
                fin_dsn: 101,
            },
            MpOption::Dss {
                data_ack: 42,
                map: None,
                fin: true,
                fin_dsn: 42,
            },
        ];
        for opt in shapes {
            assert_eq!(MpOption::decode(&opt.encode()), Some(opt));
        }
    }

    #[test]
    fn control_options_round_trip() {
        for opt in [
            MpOption::RemoveAddr { addr_id: 3 },
            MpOption::MpPrio { backup: true },
            MpOption::MpPrio { backup: false },
            MpOption::MpFastclose,
        ] {
            assert_eq!(MpOption::decode(&opt.encode()), Some(opt));
        }
    }

    #[test]
    fn decode_garbage_is_none() {
        assert_eq!(MpOption::decode(&Bytes::new()), None);
        assert_eq!(MpOption::decode(&Bytes::from_static(&[0xFF])), None);
        // Truncated MP_CAPABLE.
        assert_eq!(MpOption::decode(&Bytes::from_static(&[0x0, 1, 2])), None);
        // Truncated DSS mapping.
        assert_eq!(
            MpOption::decode(&Bytes::from_static(&[0x2, 0x01, 0, 0, 0, 0, 0, 0, 0, 1, 9])),
            None
        );
    }

    #[test]
    fn rides_inside_tcp_segment_codec() {
        let mut seg = Segment::control(1, 2, 10, 20, Flags::ACK);
        let dss = MpOption::Dss {
            data_ack: 4096,
            map: Some(DssMap {
                dsn: 4096,
                len: 1400,
            }),
            fin: false,
            fin_dsn: 0,
        };
        seg.options = vec![
            mpwifi_tcp::segment::TcpOption::Timestamp { val: 1, ecr: 2 },
            dss.to_tcp_option(),
        ];
        let wire = seg.encode();
        let back = Segment::decode(&wire).unwrap();
        let opts: Vec<MpOption> = mp_options(&back).collect();
        assert_eq!(opts, vec![dss]);
    }

    #[test]
    fn token_is_deterministic_and_spreads() {
        assert_eq!(token_from_key(1), token_from_key(1));
        let mut seen = std::collections::HashSet::new();
        for k in 0..10_000u64 {
            seen.insert(token_from_key(k));
        }
        assert!(seen.len() > 9_990, "tokens should rarely collide");
    }

    #[test]
    fn dss_with_timestamp_fits_in_option_space() {
        // 10 (timestamp) + 2+20 (DSS with map) = 32 bytes, within the
        // 40-byte option ceiling with room for a REMOVE_ADDR. Verify
        // encoding doesn't assert.
        let mut seg = Segment::control(1, 2, 0, 0, Flags::ACK);
        seg.options = vec![
            mpwifi_tcp::segment::TcpOption::Timestamp { val: 1, ecr: 2 },
            MpOption::Dss {
                data_ack: u64::MAX,
                map: Some(DssMap {
                    dsn: u64::MAX,
                    len: u16::MAX,
                }),
                fin: false,
                fin_dsn: 0,
            }
            .to_tcp_option(),
        ];
        let wire = seg.encode();
        assert!(Segment::decode(&wire).is_some());
    }

    proptest! {
        #[test]
        fn prop_decode_never_panics_on_garbage(
            data in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let _ = MpOption::decode(&Bytes::from(data));
        }

        #[test]
        fn prop_dss_round_trip(data_ack: u64, dsn: u64, len: u16,
                               has_map: bool, fin: bool, fin_dsn: u64) {
            let opt = MpOption::Dss {
                data_ack,
                map: has_map.then_some(DssMap { dsn, len }),
                fin,
                fin_dsn: if fin { fin_dsn } else { 0 },
            };
            prop_assert_eq!(MpOption::decode(&opt.encode()), Some(opt));
        }
    }
}
