//! Adversarial properties of the journal decoder.
//!
//! The recovery scan runs on whatever bytes a crash left behind, so it
//! must treat the file as hostile: arbitrary truncation points, random
//! byte corruption, and duplicate or out-of-order slot records must all
//! yield `Ok(prefix)` or a typed `ResumeError` — never a panic, and
//! never a *wrong* summary. Each property checks the scan differentially
//! against an in-memory model: an independent length-prefix walk of the
//! known frame boundaries plus a last-wins fold of the record list. The
//! scan's side is the slot table its per-record visitor fills, and the
//! recovery itself: its merged counts with its float tails folded in
//! shard order must equal the in-order merge of the model's table.
//!
//! The journal under test is produced by the real writer (a completed
//! `run_campaign_resumable`), not hand-built bytes, so the properties
//! also pin the writer/reader agreement.
//!
//! The frame checksum itself is checked differentially too: the
//! carry-less-multiply `crc32` and the sixteen-bytes-a-step
//! `crc32_portable` against a bitwise, table-free reference, at every
//! length and alignment a fold or a block boundary can fall on.

use mpwifi_crowd::journal::{crc32, crc32_portable};
use mpwifi_crowd::{
    run_campaign_resumable, scan_journal_with, CampaignConfig, Recovery, ResumeError, RunMode,
    ShardSummary,
};
use mpwifi_measure::Mergeable;
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
        let (_, table) = scan(&bytes, &cfg).expect("scan pristine journal");
        let originals: Vec<ShardSummary> = table
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

/// Scan `bytes`, and build the slot table the scan's per-record
/// visitor sees (last record wins).
fn scan(
    bytes: &[u8],
    cfg: &CampaignConfig,
) -> Result<(Recovery, Vec<Option<ShardSummary>>), ResumeError> {
    let mut table = vec![None; SHARDS];
    let rec = scan_journal_with(bytes, cfg, |slot, summary| {
        table[slot as usize] = Some(summary.clone());
    })?;
    Ok((rec, table))
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

/// A recovery's merged counts with its float tails folded in, in shard
/// order: what a resume starts its campaign from.
fn folded(rec: &Recovery) -> ShardSummary {
    let mut summary = rec.counts.clone();
    for (_, tail) in &rec.tails {
        summary.merge_floats(tail);
    }
    summary
}

/// The in-order merge of a slot table's recovered summaries.
fn merged<'a>(table: impl IntoIterator<Item = Option<&'a ShardSummary>>) -> ShardSummary {
    let mut out = ShardSummary::new();
    for summary in table.into_iter().flatten() {
        out.merge(summary);
    }
    out
}

/// The recovery holds what its own slot table holds: the same slots,
/// in shard order, and the same summary once folded.
fn assert_recovery_is_its_table(
    rec: &Recovery,
    table: &[Option<ShardSummary>],
) -> Result<(), TestCaseError> {
    let held: Vec<usize> = rec.tails.iter().map(|&(slot, _)| slot as usize).collect();
    let want: Vec<usize> = (0..SHARDS).filter(|&s| table[s].is_some()).collect();
    prop_assert_eq!(&held, &want, "recovered slots");
    prop_assert_eq!(rec.recovered_slots as usize, want.len());
    prop_assert_eq!(folded(rec), merged(table.iter().map(Option::as_ref)));
    Ok(())
}

fn assert_matches_model(
    fix: &Fixture,
    (rec, table): &(Recovery, Vec<Option<ShardSummary>>),
    records: &[usize],
) -> Result<(), TestCaseError> {
    let model = model_slots(fix, records);
    prop_assert_eq!(table.len(), model.len());
    for (slot, (got, want)) in table.iter().zip(&model).enumerate() {
        prop_assert_eq!(got.as_ref(), *want, "slot {} diverged from model", slot);
    }
    assert_recovery_is_its_table(rec, table)?;
    prop_assert_eq!(folded(rec), merged(model), "recovery diverged from model");
    Ok(())
}

proptest! {
    #[test]
    fn prop_truncation_recovers_exact_prefix(cut_seed in any::<u64>()) {
        let fix = fixture();
        let cut = (cut_seed % (fix.bytes.len() as u64 + 1)) as usize;
        let order = fix.record_order();
        match scan(&fix.bytes[..cut], &fix.cfg) {
            Ok(scanned) => {
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
                assert_matches_model(fix, &scanned, &kept)?;
                let rec = &scanned.0;
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
        match scan(&damaged, &fix.cfg) {
            Ok(scanned) => {
                // Damage past the header: the scan keeps exactly the
                // frames before the damaged one (CRC32 catches every
                // single-byte payload flip; length/CRC-field flips kill
                // the frame structurally).
                prop_assert!(pos >= fix.header_end(), "header flip must refuse");
                let bad = fix.frames.iter().position(|&(s, e)| pos >= s && pos < e).unwrap();
                assert_matches_model(fix, &scanned, &order[..bad - 1])?;
                prop_assert!(scanned.0.dropped_bytes > 0);
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
        let scanned = scan(&bytes, &fix.cfg).expect("reordered journal scans");
        assert_matches_model(fix, &scanned, &order)?;
        let rec = &scanned.0;
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
        if let Ok((rec, table)) = scan(&bytes, &fix.cfg) {
            for (slot, got) in table.iter().enumerate() {
                if let Some(summary) = got {
                    prop_assert_eq!(summary, &fix.originals[slot], "fabricated slot {}", slot);
                }
            }
            assert_recovery_is_its_table(&rec, &table)?;
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
    // Every length up to 1 100 at each of the 16 offsets a block can
    // start from: both sides of the 64-byte cutoff, the 64-byte and the
    // 16-byte folds, and every 0-15 byte tail after them. Both paths are
    // checked, so the portable one stays tested where the kernel runs.
    let buf: Vec<u8> = (0u32..1116)
        .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
        .collect();
    for offset in 0..16 {
        for len in 0..=1100 {
            let bytes = &buf[offset..offset + len];
            let want = crc32_bitwise(bytes);
            assert_eq!(
                crc32_portable(bytes),
                want,
                "portable: offset {offset} length {len}"
            );
            assert_eq!(crc32(bytes), want, "crc32: offset {offset} length {len}");
        }
    }
    assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
}

#[test]
fn crc32_of_a_whole_slot_frame_is_the_one_the_writer_stored() {
    let fix = fixture();
    let frame = fix.record(0);
    assert_eq!(frame.len(), 26_318, "a slot frame's size moved");
    let stored = u32::from_le_bytes(frame[4..8].try_into().unwrap());
    let payload = &frame[8..];
    assert_eq!(crc32_bitwise(payload), stored);
    assert_eq!(crc32_portable(payload), stored);
    assert_eq!(crc32(payload), stored);
}

proptest! {
    #[test]
    fn prop_crc32_equals_the_bitwise_reference(
        bytes in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        let want = crc32_bitwise(&bytes);
        prop_assert_eq!(crc32_portable(&bytes), want);
        prop_assert_eq!(crc32(&bytes), want);
    }
}
