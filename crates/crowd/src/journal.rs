//! Crash-consistent campaign journal: an append-only, CRC32-framed
//! record log persisting completed [`ShardSummary`] slots.
//!
//! ## File layout
//!
//! ```text
//! ┌────────────── frame ──────────────┐┌────────── frame ──────────┐
//! │ len: u32 │ crc32: u32 │ payload   ││ len │ crc32 │ payload     │ …
//! └───────────────────────────────────┘└───────────────────────────┘
//!   frame 0 payload: header record      frames 1..: slot records
//!     tag=1, magic, format version,       tag=2, slot index u64,
//!     seed, users, shard_users, mode,     ShardSummary (versioned
//!     code fingerprint                    measure codec)
//! ```
//!
//! `len` counts payload bytes; `crc32` (IEEE) covers the payload. Each
//! append is one `write_all` of a whole frame followed by `sync_data`,
//! so the fsync point is the shard boundary: a completed shard is
//! durable before it is ever reported as done, and a crash can only
//! tear the *last* frame.
//!
//! ## Recovery
//!
//! [`scan_journal`] walks frames from the start and keeps the longest
//! valid prefix. A torn tail, a truncated frame, a bit-flipped record
//! (CRC mismatch), or a CRC-valid record that fails semantic decode all
//! stop the scan at the last good frame — recovery **never panics and
//! never errors after a valid header**; the damaged suffix is simply
//! recomputed. Errors are reserved for the header: a journal whose
//! header cannot be read is [`ResumeError::CorruptTail`], and a header
//! from a *different* campaign is a typed refusal
//! ([`ResumeError::SeedMismatch`] / [`ResumeError::PartitionMismatch`] /
//! [`ResumeError::VersionMismatch`]) — resuming against the wrong
//! journal must never silently produce garbage.

use crate::campaign::{CampaignConfig, ShardSummary, CAMPAIGN_CLUSTERS};
use crate::measure::RunMode;
use mpwifi_measure::codec::{put_u32, put_u64, put_u8, CodecError, Reader};
use mpwifi_measure::{CdfSketch, Histogram, MeanAcc};
use mpwifi_simcore::Fnv1a;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

/// First bytes of every journal header payload (after the tag): "MPWJ".
pub const JOURNAL_MAGIC: u32 = u32::from_le_bytes(*b"MPWJ");

/// Journal container-format version (frame layout + record tags).
pub const JOURNAL_FORMAT_VERSION: u32 = 1;

/// Upper bound on one frame's payload. Slot records are ~26 KB; any
/// larger length field is corruption, and refusing it keeps a flipped
/// length byte from reading megabytes of garbage as one frame.
const MAX_FRAME_BYTES: u32 = 1 << 26;

const TAG_HEADER: u8 = 1;
const TAG_SLOT: u8 = 2;

/// Why a journal cannot be resumed (or, for [`ResumeError::Io`], why it
/// cannot be read or written at all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// Filesystem failure reading, truncating, or appending.
    Io(String),
    /// The journal belongs to a campaign with a different root seed.
    SeedMismatch {
        /// Seed recorded in the journal header.
        journal: u64,
        /// Seed of the campaign attempting to resume.
        requested: u64,
    },
    /// The journal's user count, shard partition, or run mode differs
    /// from the resuming campaign's — its slots index a different
    /// partition and cannot be reused.
    PartitionMismatch {
        /// Which partition field diverged, with both values.
        detail: String,
    },
    /// The journal was written by an incompatible format or codec
    /// generation (magic, container version, or code fingerprint).
    VersionMismatch {
        /// What was expected vs found.
        detail: String,
    },
    /// The journal's header frame itself is unreadable — there is no
    /// trustworthy campaign identity to resume against.
    CorruptTail {
        /// Bytes of valid prefix before the damage (0 for a broken
        /// header).
        valid_bytes: u64,
        /// What the scan tripped on.
        detail: String,
    },
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Io(e) => write!(f, "journal I/O: {e}"),
            ResumeError::SeedMismatch { journal, requested } => write!(
                f,
                "seed mismatch: journal was written by seed {journal}, resume requested seed {requested}"
            ),
            ResumeError::PartitionMismatch { detail } => {
                write!(f, "partition mismatch: {detail}")
            }
            ResumeError::VersionMismatch { detail } => write!(f, "version mismatch: {detail}"),
            ResumeError::CorruptTail { valid_bytes, detail } => write!(
                f,
                "corrupt journal: {detail} (valid prefix: {valid_bytes} bytes)"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

fn io_err(e: std::io::Error) -> ResumeError {
    ResumeError::Io(e.to_string())
}

/// CRC32 (IEEE 802.3, reflected) slicing-by-16 tables, built at
/// compile time. `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so sixteen lookups advance the CRC over sixteen input bytes at once.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC32 (IEEE) of `bytes` — the checksum in every frame. Sixteen bytes
/// per step (slicing-by-16), then byte at a time for the tail.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Fingerprint of the code generation that wrote a journal: an FNV-1a
/// hash over the container version and every codec version a slot
/// record composes. Any codec bump changes the fingerprint, so a
/// journal written by an older layout is refused with
/// [`ResumeError::VersionMismatch`] even before its records are read.
pub fn code_fingerprint() -> u64 {
    let idents: [u64; 6] = [
        u64::from(JOURNAL_FORMAT_VERSION),
        u64::from(ShardSummary::CODEC_VERSION),
        u64::from(CdfSketch::CODEC_VERSION),
        u64::from(Histogram::CODEC_VERSION),
        u64::from(MeanAcc::CODEC_VERSION),
        CAMPAIGN_CLUSTERS as u64,
    ];
    let mut h = Fnv1a::new();
    for ident in idents {
        h.write(&ident.to_le_bytes());
    }
    h.finish()
}

/// The campaign identity a journal is bound to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Campaign root seed.
    pub seed: u64,
    /// Population size.
    pub users: u64,
    /// Users per shard (fixes the slot partition together with `users`).
    pub shard_users: u64,
    /// Measurement fidelity.
    pub mode: RunMode,
    /// [`code_fingerprint`] of the writing build.
    pub fingerprint: u64,
}

impl JournalHeader {
    /// The header a fresh journal for `cfg` gets.
    pub fn for_config(cfg: &CampaignConfig) -> JournalHeader {
        JournalHeader {
            seed: cfg.seed,
            users: cfg.users,
            shard_users: cfg.shard_users.max(1),
            mode: cfg.mode,
            fingerprint: code_fingerprint(),
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u8(out, TAG_HEADER);
        put_u32(out, JOURNAL_MAGIC);
        put_u32(out, JOURNAL_FORMAT_VERSION);
        put_u64(out, self.seed);
        put_u64(out, self.users);
        put_u64(out, self.shard_users);
        put_u8(
            out,
            match self.mode {
                RunMode::Analytic => 0,
                RunMode::FullSim => 1,
            },
        );
        put_u64(out, self.fingerprint);
    }

    /// Decode a header payload. Wrong magic or container version is
    /// [`ResumeError::VersionMismatch`] (a CRC-valid frame that is not
    /// one of our journals); structural damage is
    /// [`ResumeError::CorruptTail`] at offset 0.
    fn decode(payload: &[u8]) -> Result<JournalHeader, ResumeError> {
        let corrupt = |detail: &str| ResumeError::CorruptTail {
            valid_bytes: 0,
            detail: detail.to_string(),
        };
        let mut r = Reader::new(payload);
        let read = |res: Result<u64, CodecError>| res.map_err(|e| corrupt(&e.to_string()));
        let tag = r.u8("header tag").map_err(|e| corrupt(&e.to_string()))?;
        if tag != TAG_HEADER {
            return Err(corrupt("first frame is not a header record"));
        }
        let magic = r.u32("magic").map_err(|e| corrupt(&e.to_string()))?;
        if magic != JOURNAL_MAGIC {
            return Err(ResumeError::VersionMismatch {
                detail: format!("not a campaign journal (magic {magic:#010x})"),
            });
        }
        let version = r
            .u32("format version")
            .map_err(|e| corrupt(&e.to_string()))?;
        if version != JOURNAL_FORMAT_VERSION {
            return Err(ResumeError::VersionMismatch {
                detail: format!(
                    "journal format v{version}, this build reads v{JOURNAL_FORMAT_VERSION}"
                ),
            });
        }
        let seed = read(r.u64("seed"))?;
        let users = read(r.u64("users"))?;
        let shard_users = read(r.u64("shard_users"))?;
        let mode = match r.u8("mode").map_err(|e| corrupt(&e.to_string()))? {
            0 => RunMode::Analytic,
            1 => RunMode::FullSim,
            m => return Err(corrupt(&format!("unknown run mode byte {m}"))),
        };
        let fingerprint = read(r.u64("fingerprint"))?;
        r.finish("header").map_err(|e| corrupt(&e.to_string()))?;
        Ok(JournalHeader {
            seed,
            users,
            shard_users,
            mode,
            fingerprint,
        })
    }

    /// Refuse resumes against the wrong campaign, with the mismatch
    /// taxonomy the CLI surfaces.
    fn check(&self, cfg: &CampaignConfig) -> Result<(), ResumeError> {
        if self.fingerprint != code_fingerprint() {
            return Err(ResumeError::VersionMismatch {
                detail: format!(
                    "journal code fingerprint {:#018x}, this build is {:#018x}",
                    self.fingerprint,
                    code_fingerprint()
                ),
            });
        }
        if self.seed != cfg.seed {
            return Err(ResumeError::SeedMismatch {
                journal: self.seed,
                requested: cfg.seed,
            });
        }
        let mismatch = |what: &str, journal: String, requested: String| {
            Err(ResumeError::PartitionMismatch {
                detail: format!("journal {what} {journal}, resume requested {requested}"),
            })
        };
        if self.users != cfg.users {
            return mismatch("users", self.users.to_string(), cfg.users.to_string());
        }
        if self.shard_users != cfg.shard_users.max(1) {
            return mismatch(
                "shard_users",
                self.shard_users.to_string(),
                cfg.shard_users.max(1).to_string(),
            );
        }
        if self.mode != cfg.mode {
            return mismatch(
                "mode",
                format!("{:?}", self.mode),
                format!("{:?}", cfg.mode),
            );
        }
        Ok(())
    }
}

/// Clear `buf` and make it one `[len][crc32][payload]` frame, the
/// payload written by `payload` after the reserved 8-byte head and
/// checksummed where it lies.
fn frame_into(buf: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    buf.clear();
    buf.extend_from_slice(&[0; 8]);
    payload(buf);
    let len = (buf.len() - 8) as u32;
    let crc = crc32(&buf[8..]);
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// Read the frame at `pos`. `None` means the bytes from `pos` on are
/// not a whole valid frame (torn tail, truncated length, oversized
/// length, CRC mismatch) — the scan's stop condition.
fn read_frame(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let head = bytes.get(pos..pos + 8)?;
    let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
    if len > MAX_FRAME_BYTES {
        return None;
    }
    let want = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
    let payload = bytes.get(pos + 8..pos + 8 + len as usize)?;
    if crc32(payload) != want {
        return None;
    }
    Some((payload, pos + 8 + len as usize))
}

/// Decode one slot-record payload, re-validating that the slot indexes
/// the partition and that the summary covers exactly that shard's
/// users. Any failure means a corrupt (CRC-colliding or stale) record;
/// the scan truncates there.
fn decode_slot(payload: &[u8], cfg: &CampaignConfig) -> Result<(u64, ShardSummary), CodecError> {
    const WHAT: &str = "slot record";
    let mut r = Reader::new(payload);
    let tag = r.u8(WHAT)?;
    if tag != TAG_SLOT {
        return Err(CodecError::Invalid {
            what: WHAT,
            detail: "unknown record tag",
        });
    }
    let slot = r.u64(WHAT)?;
    if slot >= cfg.num_shards() {
        return Err(CodecError::Invalid {
            what: WHAT,
            detail: "slot index outside the partition",
        });
    }
    let summary = ShardSummary::decode(&mut r)?;
    r.finish(WHAT)?;
    let (lo, hi) = cfg.shard_bounds(slot);
    if summary.users != hi - lo {
        return Err(CodecError::Invalid {
            what: WHAT,
            detail: "summary user count disagrees with the shard bounds",
        });
    }
    Ok((slot, summary))
}

/// What a journal scan recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// Slot-indexed recovered summaries (`None` = shard still to run).
    pub slots: Vec<Option<ShardSummary>>,
    /// Distinct slots recovered.
    pub recovered_slots: u64,
    /// Users covered by the recovered slots.
    pub recovered_users: u64,
    /// Length of the valid journal prefix in bytes.
    pub valid_bytes: u64,
    /// Damaged/torn suffix bytes past the valid prefix.
    pub dropped_bytes: u64,
    /// Records that re-wrote an already-recovered slot (benign: slot
    /// content is deterministic; the last record wins).
    pub duplicate_records: u64,
}

impl Recovery {
    /// What an empty (or absent) journal recovers: nothing.
    pub(crate) fn fresh(num_shards: u64) -> Recovery {
        Recovery {
            slots: (0..num_shards).map(|_| None).collect(),
            recovered_slots: 0,
            recovered_users: 0,
            valid_bytes: 0,
            dropped_bytes: 0,
            duplicate_records: 0,
        }
    }
}

/// Scan journal bytes for `cfg`, returning the longest valid prefix.
///
/// Empty bytes are a fresh journal. A journal whose *header* is
/// unreadable or names a different campaign is a typed error; once a
/// matching header is read, the scan never errors — damaged records
/// truncate the prefix and the lost shards are recomputed.
pub fn scan_journal(bytes: &[u8], cfg: &CampaignConfig) -> Result<Recovery, ResumeError> {
    let num_shards = cfg.num_shards();
    if bytes.is_empty() {
        return Ok(Recovery::fresh(num_shards));
    }
    let (payload, header_end) = read_frame(bytes, 0).ok_or_else(|| ResumeError::CorruptTail {
        valid_bytes: 0,
        detail: "unreadable header frame".to_string(),
    })?;
    let header = JournalHeader::decode(payload)?;
    header.check(cfg)?;

    let mut rec = Recovery::fresh(num_shards);
    rec.valid_bytes = header_end as u64;
    let mut pos = header_end;
    while pos < bytes.len() {
        let Some((payload, next)) = read_frame(bytes, pos) else {
            break;
        };
        let Ok((slot, summary)) = decode_slot(payload, cfg) else {
            break;
        };
        let (lo, hi) = cfg.shard_bounds(slot);
        if rec.slots[slot as usize].is_some() {
            rec.duplicate_records += 1;
        } else {
            rec.recovered_slots += 1;
            rec.recovered_users += hi - lo;
        }
        rec.slots[slot as usize] = Some(summary);
        pos = next;
        rec.valid_bytes = next as u64;
    }
    rec.dropped_bytes = bytes.len() as u64 - rec.valid_bytes;
    Ok(rec)
}

/// An open, append-ready campaign journal.
///
/// [`Checkpoint::open`] creates-or-recovers: a missing/empty file gets
/// a fresh header; an existing file is scanned, its torn tail truncated
/// away, and its recovered slots returned. Every
/// [`Checkpoint::append_slot`] is a single whole-frame write followed
/// by `sync_data` — the shard-boundary fsync that makes a reported-done
/// shard durable. Every frame is encoded into one buffer the checkpoint
/// keeps, so an append copies nothing and allocates nothing once the
/// buffer has grown to a slot record's size.
#[derive(Debug)]
pub struct Checkpoint {
    file: File,
    buf: Vec<u8>,
}

impl Checkpoint {
    /// Open (or create) the journal at `path` for campaign `cfg`.
    pub fn open(path: &Path, cfg: &CampaignConfig) -> Result<(Checkpoint, Recovery), ResumeError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(e)),
        };
        let recovery = scan_journal(&bytes, cfg)?;
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)
            .map_err(io_err)?;
        // Drop the torn/damaged tail so appends extend the valid prefix.
        file.set_len(recovery.valid_bytes).map_err(io_err)?;
        file.seek(SeekFrom::End(0)).map_err(io_err)?;
        let mut ckpt = Checkpoint {
            file,
            buf: Vec::new(),
        };
        if recovery.valid_bytes == 0 {
            let header = JournalHeader::for_config(cfg);
            ckpt.append_frame(|out| header.encode_into(out))?;
        }
        Ok((ckpt, recovery))
    }

    /// Frame the payload `payload` writes, then one `write_all` and
    /// `sync_data`.
    fn append_frame(&mut self, payload: impl FnOnce(&mut Vec<u8>)) -> Result<(), ResumeError> {
        frame_into(&mut self.buf, payload);
        self.file.write_all(&self.buf).map_err(io_err)?;
        self.file.sync_data().map_err(io_err)
    }

    /// Append one completed shard and fsync. Returns only once the
    /// record is durable.
    pub fn append_slot(&mut self, slot: u64, summary: &ShardSummary) -> Result<(), ResumeError> {
        self.append_frame(|out| {
            put_u8(out, TAG_SLOT);
            put_u64(out, slot);
            summary.encode_into(out);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpwifi_measure::SampleBuilder;
    use std::path::PathBuf;

    /// A consistent synthetic shard summary (passes every decode
    /// invariant) without running measurements.
    fn test_summary(users: u64, salt: u64) -> ShardSummary {
        let mut s = ShardSummary::new();
        for u in 0..users {
            let x = (salt
                .wrapping_add(u)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_shr(40)
                % 100_000) as f64
                * 1_000.0;
            let cluster = (u % CAMPAIGN_CLUSTERS as u64) as usize;
            s.users += 1;
            s.clusters[cluster].runs += 1;
            if x > 50e6 {
                s.lte_wins += 1;
                s.clusters[cluster].lte_wins += 1;
            }
            s.wifi_down.push(x);
            s.lte_down.push(x / 2.0);
            s.combined_diff.push(-x / 2.0);
            s.ping_diff_us.add(x / 1_000.0 - 50_000.0);
            s.wifi_down_acc.push(x);
            s.lte_down_acc.push(x / 2.0);
            s.diff_acc.push(-x / 2.0);
            s.ping_diff_acc.push(x / 1_000.0 - 50_000.0);
        }
        s
    }

    fn cfg() -> CampaignConfig {
        let mut c = CampaignConfig::new(64, 42, RunMode::Analytic);
        c.shard_users = 16;
        c
    }

    fn tmp(name: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("mpwifi_journal_{}_{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// `payload` as one whole frame.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        frame_into(&mut out, |buf| buf.extend_from_slice(payload));
        out
    }

    fn header_payload(header: &JournalHeader) -> Vec<u8> {
        let mut out = Vec::new();
        header.encode_into(&mut out);
        out
    }

    /// Journal bytes with a header and `slots` records, built in memory.
    fn journal_bytes(cfg: &CampaignConfig, slots: &[u64]) -> Vec<u8> {
        let mut bytes = frame(&header_payload(&JournalHeader::for_config(cfg)));
        for &slot in slots {
            let (lo, hi) = cfg.shard_bounds(slot);
            let mut payload = Vec::new();
            put_u8(&mut payload, TAG_SLOT);
            put_u64(&mut payload, slot);
            test_summary(hi - lo, slot).encode_into(&mut payload);
            bytes.extend_from_slice(&frame(&payload));
        }
        bytes
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fresh_open_then_reopen_recovers_nothing() {
        let path = tmp("fresh");
        let cfg = cfg();
        let (_ckpt, rec) = Checkpoint::open(&path, &cfg).expect("create");
        assert_eq!(rec.recovered_slots, 0);
        // Reopen: header present, still nothing recovered, no drops.
        let (_ckpt, rec) = Checkpoint::open(&path, &cfg).expect("reopen");
        assert_eq!(rec.recovered_slots, 0);
        assert_eq!(rec.dropped_bytes, 0);
        assert!(rec.valid_bytes > 0, "header frame persisted");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appended_slots_round_trip() {
        let path = tmp("roundtrip");
        let cfg = cfg();
        let (mut ckpt, _) = Checkpoint::open(&path, &cfg).expect("create");
        let s1 = test_summary(16, 1);
        let s3 = test_summary(16, 3);
        ckpt.append_slot(1, &s1).unwrap();
        ckpt.append_slot(3, &s3).unwrap();
        drop(ckpt);
        let (_ckpt, rec) = Checkpoint::open(&path, &cfg).expect("reopen");
        assert_eq!(rec.recovered_slots, 2);
        assert_eq!(rec.recovered_users, 32);
        assert_eq!(rec.slots[1].as_ref(), Some(&s1));
        assert_eq!(rec.slots[3].as_ref(), Some(&s3));
        assert!(rec.slots[0].is_none() && rec.slots[2].is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_truncates_to_last_good_frame_and_heals() {
        let path = tmp("torn");
        let cfg = cfg();
        let (mut ckpt, _) = Checkpoint::open(&path, &cfg).expect("create");
        for slot in 0..3 {
            ckpt.append_slot(slot, &test_summary(16, slot)).unwrap();
        }
        drop(ckpt);
        // Tear the last frame mid-payload.
        let len = std::fs::metadata(&path).unwrap().len();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..len as usize - 100]).unwrap();
        let (mut ckpt, rec) = Checkpoint::open(&path, &cfg).expect("reopen");
        assert_eq!(rec.recovered_slots, 2, "torn third record dropped");
        assert!(rec.dropped_bytes > 0);
        // The tail was truncated away; appending heals the journal.
        ckpt.append_slot(2, &test_summary(16, 2)).unwrap();
        drop(ckpt);
        let (_ckpt, rec) = Checkpoint::open(&path, &cfg).expect("reopen2");
        assert_eq!(rec.recovered_slots, 3);
        assert_eq!(rec.dropped_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_in_middle_record_truncates_there() {
        let cfg = cfg();
        let bytes = journal_bytes(&cfg, &[0, 1, 2, 3]);
        let header_len = frame(&header_payload(&JournalHeader::for_config(&cfg))).len();
        let record_len = (bytes.len() - header_len) / 4;
        // Flip a byte inside record 1's payload: records 2 and 3 are
        // after the damage and are dropped with it.
        let mut damaged = bytes.clone();
        damaged[header_len + record_len + 50] ^= 0x40;
        let rec = scan_journal(&damaged, &cfg).expect("scan");
        assert_eq!(rec.recovered_slots, 1);
        assert!(rec.slots[0].is_some());
        assert_eq!(
            rec.dropped_bytes,
            (bytes.len() - header_len - record_len) as u64
        );
    }

    #[test]
    fn duplicate_slots_are_idempotent_last_wins() {
        let cfg = cfg();
        let bytes = journal_bytes(&cfg, &[2, 0, 2, 2]);
        let rec = scan_journal(&bytes, &cfg).expect("scan");
        assert_eq!(rec.recovered_slots, 2);
        assert_eq!(rec.duplicate_records, 2);
        assert_eq!(rec.slots[2].as_ref(), Some(&test_summary(16, 2)));
    }

    #[test]
    fn wrong_campaign_is_a_typed_refusal() {
        let cfg = cfg();
        let bytes = journal_bytes(&cfg, &[0]);
        let mut other = cfg.clone();
        other.seed = 7;
        assert!(matches!(
            scan_journal(&bytes, &other),
            Err(ResumeError::SeedMismatch {
                journal: 42,
                requested: 7
            })
        ));
        let mut other = cfg.clone();
        other.users = 128;
        assert!(matches!(
            scan_journal(&bytes, &other),
            Err(ResumeError::PartitionMismatch { .. })
        ));
        let mut other = cfg.clone();
        other.shard_users = 8;
        assert!(matches!(
            scan_journal(&bytes, &other),
            Err(ResumeError::PartitionMismatch { .. })
        ));
        let mut other = cfg.clone();
        other.mode = RunMode::FullSim;
        assert!(matches!(
            scan_journal(&bytes, &other),
            Err(ResumeError::PartitionMismatch { .. })
        ));
    }

    #[test]
    fn damaged_header_is_corrupt_tail_not_a_panic() {
        let cfg = cfg();
        let bytes = journal_bytes(&cfg, &[0]);
        // Break the header frame's CRC byte: nothing trustworthy left.
        let mut damaged = bytes.clone();
        damaged[5] ^= 0xFF;
        assert!(matches!(
            scan_journal(&damaged, &cfg),
            Err(ResumeError::CorruptTail { valid_bytes: 0, .. })
        ));
        // A CRC-valid frame that is not our format: version mismatch.
        let mut payload = header_payload(&JournalHeader::for_config(&cfg));
        payload[1] ^= 0xFF; // first magic byte (after the tag)
        let alien = frame(&payload);
        assert!(matches!(
            scan_journal(&alien, &cfg),
            Err(ResumeError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn stale_code_fingerprint_is_version_mismatch() {
        let cfg = cfg();
        let mut header = JournalHeader::for_config(&cfg);
        header.fingerprint ^= 1;
        let bytes = frame(&header_payload(&header));
        assert!(matches!(
            scan_journal(&bytes, &cfg),
            Err(ResumeError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn fingerprint_tracks_codec_versions() {
        // Same build → same fingerprint; it folds every codec version.
        assert_eq!(code_fingerprint(), code_fingerprint());
        assert_ne!(code_fingerprint(), 0);
    }
}
