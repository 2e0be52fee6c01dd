//! Adversarial properties of the journal decoder.
//!
//! The recovery scan runs on whatever bytes a crash left behind, so it
//! must treat the file as hostile: arbitrary truncation points, random
//! byte corruption, and duplicate or out-of-order slot records must all
//! yield `Ok(prefix)` or a typed `ResumeError` — never a panic, and
//! never a *wrong* summary. Each property checks the scan differentially
//! against an in-memory model: an independent length-prefix walk of the
//! known frame boundaries plus a last-wins fold of the record list.
//!
//! The journal under test is produced by the real writer (a completed
//! `run_campaign_resumable`), not hand-built bytes, so the properties
//! also pin the writer/reader agreement.
//!
//! The frame checksum itself is checked differentially too: the
//! sixteen-bytes-a-step `crc32` against a bitwise, table-free reference,
//! at every length and alignment a block boundary can fall on.

use mpwifi_crowd::journal::crc32;
use mpwifi_crowd::{
    run_campaign_resumable, scan_journal, CampaignConfig, ResumeError, RunMode, ShardSummary,
};
use proptest::prelude::*;
use std::sync::OnceLock;

const SHARDS: usize = 6;

/// A completed journal: raw bytes, per-frame byte ranges (frame 0 is
/// the header), and the true summary of every slot.
struct Fixture {
    cfg: CampaignConfig,
    bytes: Vec<u8>,
    frames: Vec<(usize, usize)>,
    originals: Vec<ShardSummary>,
}

impl Fixture {
    fn header_end(&self) -> usize {
        self.frames[0].1
    }

    /// Byte range of the (unique) record frame for `slot`.
    fn record(&self, slot: usize) -> &[u8] {
        let (s, e) = self.frames[1 + self.record_order().iter().position(|&o| o == slot).unwrap()];
        &self.bytes[s..e]
    }

    /// Slot id held by each record frame, in file order (read straight
    /// from the record payload: tag at frame+8, slot u64 at frame+9).
    fn record_order(&self) -> Vec<usize> {
        self.frames[1..]
            .iter()
            .map(|&(s, _)| {
                u64::from_le_bytes(self.bytes[s + 9..s + 17].try_into().unwrap()) as usize
            })
            .collect()
    }
}

/// Independent frame walk: length-prefix hops only, no CRC — the model
/// side of the differential.
fn frame_ranges(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut v = Vec::new();
    let mut pos = 0;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let end = pos + 8 + len;
        assert!(end <= bytes.len(), "writer produced a torn frame");
        v.push((pos, end));
        pos = end;
    }
    assert_eq!(pos, bytes.len(), "writer left trailing bytes");
    v
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut cfg = CampaignConfig::new(96, 5, RunMode::Analytic);
        cfg.workers = 1;
        cfg.shard_users = 16;
        assert_eq!(cfg.num_shards(), SHARDS as u64);
        let path = std::env::temp_dir().join(format!(
            "mpwifi_prop_journal_{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        run_campaign_resumable(&cfg, &path).expect("build fixture journal");
        let bytes = std::fs::read(&path).expect("read journal");
        let _ = std::fs::remove_file(&path);
        let frames = frame_ranges(&bytes);
        assert_eq!(frames.len(), 1 + SHARDS);
        let full = scan_journal(&bytes, &cfg).expect("scan pristine journal");
        let originals: Vec<ShardSummary> = full
            .slots
            .into_iter()
            .map(|s| s.expect("complete journal"))
            .collect();
        Fixture {
            cfg,
            bytes,
            frames,
            originals,
        }
    })
}

/// The in-memory model: fold `records` (slot ids, in order, last wins)
/// into the slot table the scan should recover.
fn model_slots<'a>(fix: &'a Fixture, records: &[usize]) -> Vec<Option<&'a ShardSummary>> {
    let mut slots: Vec<Option<&ShardSummary>> = vec![None; SHARDS];
    for &slot in records {
        slots[slot] = Some(&fix.originals[slot]);
    }
    slots
}

fn assert_matches_model(
    fix: &Fixture,
    recovered: &[Option<ShardSummary>],
    records: &[usize],
) -> Result<(), TestCaseError> {
    let model = model_slots(fix, records);
    prop_assert_eq!(recovered.len(), model.len());
    for (slot, (got, want)) in recovered.iter().zip(&model).enumerate() {
        prop_assert_eq!(got.as_ref(), *want, "slot {} diverged from model", slot);
    }
    Ok(())
}

proptest! {
    #[test]
    fn prop_truncation_recovers_exact_prefix(cut_seed in any::<u64>()) {
        let fix = fixture();
        let cut = (cut_seed % (fix.bytes.len() as u64 + 1)) as usize;
        let order = fix.record_order();
        match scan_journal(&fix.bytes[..cut], &fix.cfg) {
            Ok(rec) => {
                // Ok is legal only for an empty file (fresh) or a whole
                // header; then the recovery is exactly the records whose
                // frames fit inside the cut.
                prop_assert!(cut == 0 || cut >= fix.header_end());
                let kept: Vec<usize> = fix.frames[1..]
                    .iter()
                    .zip(&order)
                    .filter(|(&(_, end), _)| end <= cut)
                    .map(|(_, &slot)| slot)
                    .collect();
                assert_matches_model(fix, &rec.slots, &kept)?;
                prop_assert_eq!(rec.recovered_slots as usize, kept.len());
                prop_assert_eq!(
                    rec.valid_bytes + rec.dropped_bytes,
                    cut as u64,
                    "every byte accounted for"
                );
            }
            Err(e) => {
                // Only a torn header refuses — and with the typed error.
                prop_assert!(cut > 0 && cut < fix.header_end(), "unexpected {e}");
                let is_corrupt_tail =
                    matches!(e, ResumeError::CorruptTail { valid_bytes: 0, .. });
                prop_assert!(is_corrupt_tail);
            }
        }
    }

    #[test]
    fn prop_single_byte_corruption_truncates_at_the_damaged_frame(
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let fix = fixture();
        let pos = (pos_seed % fix.bytes.len() as u64) as usize;
        let mut damaged = fix.bytes.clone();
        damaged[pos] ^= flip;
        let order = fix.record_order();
        match scan_journal(&damaged, &fix.cfg) {
            Ok(rec) => {
                // Damage past the header: the scan keeps exactly the
                // frames before the damaged one (CRC32 catches every
                // single-byte payload flip; length/CRC-field flips kill
                // the frame structurally).
                prop_assert!(pos >= fix.header_end(), "header flip must refuse");
                let bad = fix.frames.iter().position(|&(s, e)| pos >= s && pos < e).unwrap();
                assert_matches_model(fix, &rec.slots, &order[..bad - 1])?;
                prop_assert!(rec.dropped_bytes > 0);
            }
            Err(e) => {
                prop_assert!(pos < fix.header_end(), "unexpected {e} for flip at {pos}");
                let typed = matches!(
                    e,
                    ResumeError::CorruptTail { .. } | ResumeError::VersionMismatch { .. }
                );
                prop_assert!(typed);
            }
        }
    }

    #[test]
    fn prop_duplicate_and_out_of_order_records_fold_last_wins(
        order in proptest::collection::vec(0usize..SHARDS, 0..14),
    ) {
        let fix = fixture();
        // Rebuild a journal with the records in an arbitrary order,
        // with repeats: header + chosen record frames verbatim.
        let mut bytes = fix.bytes[..fix.header_end()].to_vec();
        for &slot in &order {
            bytes.extend_from_slice(fix.record(slot));
        }
        let rec = scan_journal(&bytes, &fix.cfg).expect("reordered journal scans");
        assert_matches_model(fix, &rec.slots, &order)?;
        let distinct = {
            let mut seen = [false; SHARDS];
            order.iter().for_each(|&s| seen[s] = true);
            seen.iter().filter(|&&b| b).count()
        };
        prop_assert_eq!(rec.recovered_slots as usize, distinct);
        prop_assert_eq!(rec.duplicate_records as usize, order.len() - distinct);
        prop_assert_eq!(rec.dropped_bytes, 0);
    }

    #[test]
    fn prop_chaos_never_panics_and_never_fabricates_a_summary(
        order in proptest::collection::vec(0usize..SHARDS, 0..10),
        flip_pos_seed in any::<u64>(),
        flip in 0u8..=255,
        cut_seed in any::<u64>(),
    ) {
        // Reorder + flip + truncate, all at once. Whatever comes back,
        // it is Ok or typed — and every recovered summary is the true
        // summary of its slot, bit for bit (a wrong summary would mean
        // silently corrupt campaign results after resume).
        let fix = fixture();
        let mut bytes = fix.bytes[..fix.header_end()].to_vec();
        for &slot in &order {
            bytes.extend_from_slice(fix.record(slot));
        }
        if !bytes.is_empty() {
            let pos = (flip_pos_seed % bytes.len() as u64) as usize;
            bytes[pos] ^= flip;
            let cut = (cut_seed % (bytes.len() as u64 + 1)) as usize;
            bytes.truncate(cut);
        }
        if let Ok(rec) = scan_journal(&bytes, &fix.cfg) {
            for (slot, got) in rec.slots.iter().enumerate() {
                if let Some(summary) = got {
                    prop_assert_eq!(summary, &fix.originals[slot], "fabricated slot {}", slot);
                }
            }
            prop_assert!(rec.valid_bytes as usize <= bytes.len());
        }
    }
}

/// CRC32 (IEEE, reflected) one bit at a time, no table: the reference
/// the sliced tables must agree with.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ 0xEDB8_8320
            } else {
                c >> 1
            };
        }
    }
    !c
}

#[test]
fn crc32_equals_the_bitwise_reference_at_every_length_and_offset() {
    // Every length up to 300 (18 whole 16-byte blocks and each tail
    // length) at each of the 16 offsets a block can start from.
    let buf: Vec<u8> = (0u32..316)
        .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
        .collect();
    for offset in 0..16 {
        for len in 0..=300 {
            let bytes = &buf[offset..offset + len];
            assert_eq!(
                crc32(bytes),
                crc32_bitwise(bytes),
                "offset {offset} length {len}"
            );
        }
    }
    assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
}

proptest! {
    #[test]
    fn prop_crc32_equals_the_bitwise_reference(
        bytes in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
    }
}
