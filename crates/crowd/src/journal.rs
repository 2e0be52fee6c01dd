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
//! never errors after a valid header** on what it reads; the damaged
//! suffix is simply recomputed. A length field longer than a slot
//! record (every slot record of a build has the same length) or than
//! the bytes left is a torn tail too, so no frame larger than a slot
//! record is ever read. [`Checkpoint::open`] runs the same scan over the
//! file, one frame at a time into one buffer, and folds each record
//! into the [`Recovery`] as it is read, so a resume holds one frame and
//! one decoded slot, not one journal. A read that fails is
//! [`ResumeError::Io`], never a torn tail: the file is left as it was.
//! Otherwise errors are reserved for the header: a journal whose
//! header cannot be read is [`ResumeError::CorruptTail`], and a header
//! from a *different* campaign is a typed refusal
//! ([`ResumeError::SeedMismatch`] / [`ResumeError::PartitionMismatch`] /
//! [`ResumeError::VersionMismatch`]) — resuming against the wrong
//! journal must never silently produce garbage.

use crate::campaign::{CampaignConfig, FloatTail, ShardSummary, CAMPAIGN_CLUSTERS};
use crate::measure::RunMode;
use mpwifi_measure::codec::{put_u32, put_u64, put_u8, CodecError, Reader};
use mpwifi_measure::{CdfSketch, Histogram, MeanAcc};
use mpwifi_simcore::Fnv1a;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::OnceLock;

/// First bytes of every journal header payload (after the tag): "MPWJ".
pub const JOURNAL_MAGIC: u32 = u32::from_le_bytes(*b"MPWJ");

/// Journal container-format version (frame layout + record tags).
pub const JOURNAL_FORMAT_VERSION: u32 = 1;

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

/// CRC32 (IEEE) of `bytes` — the checksum in every frame. An input of
/// 64 bytes or more takes a carry-less-multiply fold where the CPU has
/// one (`pclmulqdq`, detected at run time); a shorter input (the header
/// frame) and every other CPU take [`crc32_portable`]. Both compute the
/// same CRC.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= CLMUL_MIN_BYTES && clmul::available() {
        return !clmul::update(!0, bytes);
    }
    crc32_portable(bytes)
}

/// The shortest input [`crc32`] folds with carry-less multiplies: four
/// 16-byte lanes.
const CLMUL_MIN_BYTES: usize = 64;

/// CRC32 (IEEE) of `bytes` on any CPU: sixteen bytes per step
/// (slicing-by-16), then byte at a time for the tail. [`crc32`] falls
/// back to it; it is public so the two can be checked against each
/// other on a CPU that takes the fold.
pub fn crc32_portable(bytes: &[u8]) -> u32 {
    !crc32_sliced(!0, bytes)
}

/// Advance the raw (uninverted) CRC register `c` over `bytes`.
fn crc32_sliced(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
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
    c
}

/// The CRC32 fold by carry-less multiplication (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel, 2009), with the reflected IEEE constants Linux's
/// `crc32-pclmul` uses. Four 128-bit lanes fold 64 bytes per step, the
/// lanes fold into one, whole 16-byte blocks fold into it, and a
/// Barrett reduction takes the 128-bit remainder to the 32-bit CRC;
/// the last 0–15 bytes go through the tables.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{crc32_sliced, CLMUL_MIN_BYTES};
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Each constant is (high, low) qword of one register, bit-reflected
    // as the register is; the names in brackets are Linux's.
    /// x^(4·128−32) and x^(4·128+32) mod P [R2, R1]: the 64-byte stride.
    const FOLD_64: (i64, i64) = (0x1_c6e4_1596, 0x1_5444_2bd4);
    /// x^(128−32) and x^(128+32) mod P [R4, R3]: the 16-byte stride.
    const FOLD_16: (i64, i64) = (0x0_ccaa_009e, 0x1_7519_97d0);
    /// x^64 mod P [R5]: the 64-to-32-bit step.
    const FOLD_32: i64 = 0x1_63cd_6124;
    /// Barrett's μ = floor(x^64 / P) and P itself [RU, P'].
    const BARRETT: (i64, i64) = (0x1_f701_1641, 0x1_db71_0641);

    /// Whether this CPU has `pclmulqdq` (cached by the standard
    /// library after the first call).
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
    }

    /// Advance the raw CRC register `crc` over `bytes`, which must be
    /// at least [`CLMUL_MIN_BYTES`] long, on a CPU where [`available`]
    /// holds.
    pub(super) fn update(crc: u32, bytes: &[u8]) -> u32 {
        assert!(bytes.len() >= CLMUL_MIN_BYTES && available());
        // SAFETY: the assertion above proves the CPU has `pclmulqdq`,
        // the one feature `fold` is compiled for beyond the x86_64
        // baseline (SSE2).
        unsafe { fold(crc, bytes) }
    }

    /// One 16-byte block at the start of `block`.
    #[inline]
    fn load(block: &[u8]) -> __m128i {
        assert!(block.len() >= 16);
        // SAFETY: the assertion proves 16 readable bytes at the
        // pointer, and `_mm_loadu_si128` has no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `x` carried 128 (or, with the 64-byte constants, 512) bits
    /// forward, then `next` added in.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// [`update`]'s work. Only a CPU with `pclmulqdq` may run it, which
    /// is why calling it takes `unsafe`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(crc: u32, bytes: &[u8]) -> u32 {
        let k64 = _mm_set_epi64x(FOLD_64.0, FOLD_64.1);
        let k16 = _mm_set_epi64x(FOLD_16.0, FOLD_16.1);
        let low32 = _mm_set_epi64x(0, 0xFFFF_FFFF);

        let mut lines = bytes.chunks_exact(64);
        let first = lines.next().expect("at least 64 bytes");
        let mut lanes = [0, 16, 32, 48].map(|at| load(&first[at..]));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        for line in &mut lines {
            for (at, lane) in (0..64).step_by(16).zip(&mut lanes) {
                *lane = fold_into(*lane, k64, load(&line[at..]));
            }
        }
        let [mut x, b, c, d] = lanes;
        for next in [b, c, d] {
            x = fold_into(x, k16, next);
        }
        let mut blocks = lines.remainder().chunks_exact(16);
        for block in &mut blocks {
            x = fold_into(x, k16, load(block));
        }

        // 128 bits to 64: the low qword times R4, added to the high.
        let t = _mm_clmulepi64_si128::<0x01>(k16, x);
        x = _mm_xor_si128(_mm_srli_si128::<8>(x), t);
        // 64 bits to 32 (and 32 zero bits appended).
        let high = _mm_srli_si128::<4>(x);
        x = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, FOLD_32));
        x = _mm_xor_si128(x, high);
        // Barrett reduction, 64 bits to the 32-bit register.
        let barrett = _mm_set_epi64x(BARRETT.0, BARRETT.1);
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), barrett);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), barrett);
        let reg = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t))) as u32;
        crc32_sliced(reg, blocks.remainder())
    }
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

/// A journal read front to back, one frame at a time, into one reused
/// buffer: the file for [`Checkpoint::open`], a slice for
/// [`scan_journal`]. The buffer grows to the largest frame read, and no
/// frame longer than a slot record is read.
struct Stream<'a> {
    reader: &'a mut dyn Read,
    /// Bytes not yet read.
    left: u64,
    buf: &'a mut Vec<u8>,
}

impl Stream<'_> {
    /// The next `n` bytes; `n` is never more than `left`.
    fn take(&mut self, n: usize) -> std::io::Result<&[u8]> {
        if self.buf.len() < n {
            self.buf.resize(n, 0);
        }
        self.reader.read_exact(&mut self.buf[..n])?;
        self.left -= n as u64;
        Ok(&self.buf[..n])
    }

    /// The payload of the next frame, or `None` when the bytes left do
    /// not start with a whole valid frame (torn tail, truncated length,
    /// a length past a slot record or past the end of the journal, CRC
    /// mismatch) — the scan's stop condition. An error is the reader
    /// failing, never damage in what it read.
    fn next_frame(&mut self) -> std::io::Result<Option<&[u8]>> {
        if self.left < 8 {
            return Ok(None);
        }
        let head = self.take(8)?;
        let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
        let want = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
        if len > slot_record_len() || len as u64 > self.left {
            return Ok(None);
        }
        let payload = self.take(len)?;
        Ok((crc32(payload) == want).then_some(payload))
    }
}

/// Write the payload of the slot record for `slot`.
fn encode_slot(out: &mut Vec<u8>, slot: u64, summary: &ShardSummary) {
    put_u8(out, TAG_SLOT);
    put_u64(out, slot);
    summary.encode_into(out);
}

/// Payload bytes of every slot record this build writes or reads: every
/// codec field is fixed-width, and every summary has the shape
/// [`ShardSummary::new`] gives it (a decoded one of another shape is
/// refused), so one encode measures them all. It is the longest frame a
/// scan reads; the header is shorter.
fn slot_record_len() -> usize {
    static LEN: OnceLock<usize> = OnceLock::new();
    *LEN.get_or_init(|| {
        let mut out = Vec::new();
        encode_slot(&mut out, 0, &ShardSummary::new());
        out.len()
    })
}

/// Decode one slot-record payload, re-validating that the slot indexes
/// the partition, that the summary covers exactly that shard's users
/// and that it has the shape of `like` (so it can merge into it). Any
/// failure means a corrupt (CRC-colliding or stale) record; the scan
/// truncates there.
fn decode_slot(
    payload: &[u8],
    cfg: &CampaignConfig,
    like: &ShardSummary,
) -> Result<(u64, ShardSummary), CodecError> {
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
    if !summary.same_shape(like) {
        return Err(CodecError::Invalid {
            what: WHAT,
            detail: "summary bins differ from this build's",
        });
    }
    Ok((slot, summary))
}

/// What a journal scan recovered: every recovered slot already split
/// into the two halves the campaign merges ([`ShardSummary::merge_floats`]
/// has the split), so a resume holds one summary and one small tail per
/// recovered shard, never the slots themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// The integer half of every recovered slot, merged; its float
    /// half is still that of [`ShardSummary::new`].
    pub counts: ShardSummary,
    /// The float half of every recovered slot, in shard order, for the
    /// campaign's in-order fold.
    pub tails: Vec<(u64, FloatTail)>,
    /// Distinct slots recovered.
    pub recovered_slots: u64,
    /// Users covered by the recovered slots.
    pub recovered_users: u64,
    /// Length of the valid journal prefix in bytes.
    pub valid_bytes: u64,
    /// Damaged/torn suffix bytes past the valid prefix.
    pub dropped_bytes: u64,
    /// Records that re-wrote an already-recovered slot. The first
    /// record of a slot wins; a later one is byte-identical anyway,
    /// since the header pins the seed, the partition, the mode and the
    /// code fingerprint, and a shard is a pure function of those.
    pub duplicate_records: u64,
}

impl Recovery {
    /// What an empty (or absent) journal recovers: nothing.
    pub(crate) fn fresh() -> Recovery {
        Recovery {
            counts: ShardSummary::new(),
            tails: Vec::new(),
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
/// [`Checkpoint::open`] runs the same scan over the file, read frame by
/// frame.
pub fn scan_journal(bytes: &[u8], cfg: &CampaignConfig) -> Result<Recovery, ResumeError> {
    scan_journal_with(bytes, cfg, |_, _| {})
}

/// [`scan_journal`], handing every slot record of the valid prefix to
/// `visit(slot, summary)` in file order as it is read, duplicates
/// included. The summary is dropped once `visit` returns.
pub fn scan_journal_with(
    bytes: &[u8],
    cfg: &CampaignConfig,
    visit: impl FnMut(u64, &ShardSummary),
) -> Result<Recovery, ResumeError> {
    let (mut reader, mut buf) = (bytes, Vec::new());
    let stream = Stream {
        reader: &mut reader,
        left: bytes.len() as u64,
        buf: &mut buf,
    };
    scan(stream, cfg, visit)
}

/// The one scan behind [`scan_journal_with`] and [`Checkpoint::open`].
/// Each record is decoded and dropped once folded: the first record of
/// a slot merges its counts into [`Recovery::counts`] and keeps its
/// float tail, so what the scan holds grows by one tail per recovered
/// shard, whatever the journal's length.
fn scan(
    mut src: Stream<'_>,
    cfg: &CampaignConfig,
    mut visit: impl FnMut(u64, &ShardSummary),
) -> Result<Recovery, ResumeError> {
    let total = src.left;
    if total == 0 {
        return Ok(Recovery::fresh());
    }
    let payload = src
        .next_frame()
        .map_err(io_err)?
        .ok_or_else(|| ResumeError::CorruptTail {
            valid_bytes: 0,
            detail: "unreadable header frame".to_string(),
        })?;
    let header = JournalHeader::decode(payload)?;
    header.check(cfg)?;

    let mut rec = Recovery::fresh();
    rec.valid_bytes = total - src.left;
    let num_shards = cfg.num_shards() as usize;
    let mut seen = vec![false; num_shards];
    rec.tails.reserve_exact(num_shards);
    while src.left > 0 {
        let Some(payload) = src.next_frame().map_err(io_err)? else {
            break;
        };
        let Ok((slot, summary)) = decode_slot(payload, cfg, &rec.counts) else {
            break;
        };
        let seen = &mut seen[slot as usize];
        if *seen {
            rec.duplicate_records += 1;
        } else {
            *seen = true;
            let (lo, hi) = cfg.shard_bounds(slot);
            rec.recovered_slots += 1;
            rec.recovered_users += hi - lo;
            rec.counts.merge_counts(&summary);
            rec.tails.push((slot, summary.float_tail()));
        }
        visit(slot, &summary);
        rec.valid_bytes = total - src.left;
    }
    rec.tails.sort_unstable_by_key(|&(slot, _)| slot);
    rec.dropped_bytes = total - rec.valid_bytes;
    Ok(rec)
}

/// An open, append-ready campaign journal.
///
/// [`Checkpoint::open`] creates-or-recovers: a missing/empty file gets
/// a fresh header; an existing file is scanned frame by frame, its torn
/// tail truncated away, and what its slots hold returned. Every
/// [`Checkpoint::append_slot`] is a single whole-frame write followed
/// by `sync_data` — the shard-boundary fsync that makes a reported-done
/// shard durable. Every frame read or written goes through one buffer
/// the checkpoint keeps, so an append copies nothing and allocates
/// nothing once the buffer has grown to a slot record's size.
#[derive(Debug)]
pub struct Checkpoint {
    file: File,
    buf: Vec<u8>,
}

impl Checkpoint {
    /// Open (or create) the journal at `path` for campaign `cfg`. The
    /// file is opened once and read one frame at a time, so a resume
    /// holds one frame and one decoded slot, not the journal.
    pub fn open(path: &Path, cfg: &CampaignConfig) -> Result<(Checkpoint, Recovery), ResumeError> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)
            .map_err(io_err)?;
        let (buf, recovery) = recover(&file, &mut &file, cfg)?;
        let mut ckpt = Checkpoint { file, buf };
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
        self.append_frame(|out| encode_slot(out, slot, summary))
    }
}

/// Scan the journal `file` through `reader` (the file itself, outside
/// tests), then cut its torn tail and leave its position at the end of
/// the valid prefix. Returns the frame buffer the scan read into and
/// what it recovered. A failed read is [`ResumeError::Io`] and leaves
/// the file as it was: a read that fails says nothing about the bytes
/// past it, and cutting there would delete durable shards.
fn recover(
    file: &File,
    reader: &mut dyn Read,
    cfg: &CampaignConfig,
) -> Result<(Vec<u8>, Recovery), ResumeError> {
    let left = file.metadata().map_err(io_err)?.len();
    let mut buf = Vec::new();
    let stream = Stream {
        reader,
        left,
        buf: &mut buf,
    };
    let recovery = scan(stream, cfg, |_, _| {})?;
    if recovery.dropped_bytes > 0 {
        // Drop the torn/damaged tail so appends extend the valid prefix.
        file.set_len(recovery.valid_bytes).map_err(io_err)?;
    }
    let mut file = file;
    file.seek(SeekFrom::Start(recovery.valid_bytes))
        .map_err(io_err)?;
    Ok((buf, recovery))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpwifi_measure::{Mergeable, SampleBuilder};
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

    /// Slots a recovery holds, in shard order.
    fn slots(rec: &Recovery) -> Vec<u64> {
        rec.tails.iter().map(|&(slot, _)| slot).collect()
    }

    /// A recovery's counts with its tails folded in, in shard order.
    fn folded(rec: &Recovery) -> ShardSummary {
        let mut summary = rec.counts.clone();
        for (_, tail) in &rec.tails {
            summary.merge_floats(tail);
        }
        summary
    }

    /// `summaries` merged in order.
    fn merged<'a>(summaries: impl IntoIterator<Item = &'a ShardSummary>) -> ShardSummary {
        let mut out = ShardSummary::new();
        for s in summaries {
            out.merge(s);
        }
        out
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
            encode_slot(&mut payload, slot, &test_summary(hi - lo, slot));
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
        assert_eq!(slots(&rec), [1, 3]);
        assert_eq!(folded(&rec), merged([&s1, &s3]));
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
        assert_eq!(slots(&rec), [0]);
        assert_eq!(
            rec.dropped_bytes,
            (bytes.len() - header_len - record_len) as u64
        );
    }

    #[test]
    fn duplicate_slots_are_idempotent_first_wins() {
        let cfg = cfg();
        let bytes = journal_bytes(&cfg, &[2, 0, 2, 2]);
        let mut visited = Vec::new();
        let rec = scan_journal_with(&bytes, &cfg, |slot, summary| {
            assert_eq!(summary, &test_summary(16, slot));
            visited.push(slot);
        })
        .expect("scan");
        assert_eq!(visited, [2, 0, 2, 2], "every record, in file order");
        assert_eq!(rec.recovered_slots, 2);
        assert_eq!(rec.duplicate_records, 2);
        assert_eq!(slots(&rec), [0, 2]);
        assert_eq!(
            folded(&rec),
            merged([&test_summary(16, 0), &test_summary(16, 2)])
        );
    }

    #[test]
    fn the_file_scan_and_the_slice_scan_agree_at_every_frame_cut() {
        let cfg = cfg();
        let bytes = journal_bytes(&cfg, &[3, 1, 0, 1]);
        let header_len = frame(&header_payload(&JournalHeader::for_config(&cfg))).len();
        let record_len = (bytes.len() - header_len) / 4;
        let path = tmp("agree");
        for cut in (header_len..=bytes.len()).step_by(record_len / 3) {
            let want = scan_journal(&bytes[..cut], &cfg).expect("slice scan");
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (_ckpt, got) = Checkpoint::open(&path, &cfg).expect("file scan");
            assert_eq!(got, want, "cut at {cut}");
            let len = std::fs::metadata(&path).unwrap().len();
            assert_eq!(len, want.valid_bytes, "torn tail cut away at {cut}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_read_error_is_io_and_leaves_the_file_as_it_was() {
        /// Reads through to the file until `budget` bytes are spent,
        /// then fails as a transient I/O error would.
        struct Flaky<'a> {
            file: &'a File,
            budget: usize,
        }
        impl Read for Flaky<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.budget == 0 {
                    return Err(std::io::Error::other("injected read failure"));
                }
                let n = out.len().min(self.budget);
                let n = self.file.read(&mut out[..n])?;
                self.budget -= n;
                Ok(n)
            }
        }

        let path = tmp("flaky");
        let cfg = cfg();
        let bytes = journal_bytes(&cfg, &[0, 1, 2]);
        std::fs::write(&path, &bytes).unwrap();
        // Fail inside the second record, and inside the header.
        for budget in [bytes.len() / 2, 10] {
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            let mut flaky = Flaky {
                file: &file,
                budget,
            };
            let err = recover(&file, &mut flaky, &cfg).expect_err("the read failed");
            assert!(matches!(err, ResumeError::Io(_)), "{err}");
            let len = std::fs::metadata(&path).unwrap().len();
            assert_eq!(len, bytes.len() as u64, "a failed read cut the journal");
        }
        let (_ckpt, rec) = Checkpoint::open(&path, &cfg).expect("reopen");
        assert_eq!(rec.recovered_slots, 3, "every durable shard is still there");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_record_of_another_shape_stops_the_scan_without_a_panic() {
        let cfg = cfg();
        let mut bytes = journal_bytes(&cfg, &[0]);
        // CRC-valid and self-consistent, but its WiFi sketch has half
        // the bins, so it cannot merge into this build's summaries.
        let mut odd = test_summary(16, 1);
        odd.wifi_down = CdfSketch::new(0.0, 100e6, 400);
        for u in 0..16 {
            odd.wifi_down.push(f64::from(u) * 1e6);
        }
        let mut payload = Vec::new();
        encode_slot(&mut payload, 1, &odd);
        let good = bytes.len() as u64;
        bytes.extend_from_slice(&frame(&payload));
        bytes.extend_from_slice(
            &journal_bytes(&cfg, &[2])
                [frame(&header_payload(&JournalHeader::for_config(&cfg))).len()..],
        );
        let rec = scan_journal(&bytes, &cfg).expect("scan");
        assert_eq!(slots(&rec), [0]);
        assert_eq!(rec.valid_bytes, good);
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
