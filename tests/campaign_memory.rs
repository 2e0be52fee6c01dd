//! A crowd campaign's memory does not grow with its shard count.
//!
//! The campaign engine merges each finished shard's integer counts into
//! one shared summary and keeps only the shard's float tail (four mean
//! accumulators and three pairs of extremes) for the in-order fold, so
//! cutting the same population into 31 times as many shards may cost
//! one tail per extra shard, never one ~26 KB shard summary per shard.
//! This binary owns its `#[global_allocator]`: it counts the live heap
//! bytes of every thread (campaign workers are threads) and the highest
//! value that count reached. The tests take one lock, so no test's
//! allocations land in another's measurement.
//!
//! A resume is held to the same rule: the journal is read one frame at
//! a time into one scratch summary, so resuming a complete journal of
//! 313 shards holds about what resuming one of 10 does, and a frame
//! whose length field lies (past a slot record, or past the end of the
//! file) is never allocated.
//!
//! The same binary pins what the split merge must not move: the summary
//! is equal at any worker count, and a journaled run and the resume of
//! its complete journal equal the plain run.

use mpwifi::crowd::{
    merge_agreement, run_campaign, run_campaign_resumable, CampaignConfig, CampaignSummary,
    Checkpoint, RunMode,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the only added
// work is atomic arithmetic on two statics, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One test at a time: the counters are process-wide.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// 20 000 Analytic users on two workers in shards of `shard_users`.
fn config(shard_users: u64, workers: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(20_000, 42, RunMode::Analytic);
    cfg.shard_users = shard_users;
    cfg.workers = workers;
    cfg
}

/// What `f` returns and the most heap it held above what was live when
/// it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst) - base)
}

/// The campaign's result and the most heap it held above what was live
/// when it started.
fn peak_heap(cfg: &CampaignConfig) -> (CampaignSummary, usize) {
    peak_of(|| run_campaign(cfg))
}

/// A journal path of this test process's own.
fn journal_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "mpwifi_campaign_memory_{}_{name}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Bytes in one encoded slot record frame of a campaign shard.
const SLOT_FRAME_BYTES: usize = 26_318;

#[test]
fn peak_heap_does_not_grow_with_the_shard_count() {
    let _serial = serial();
    let (few, few_peak) = peak_heap(&config(2_000, 2));
    let (many, many_peak) = peak_heap(&config(64, 2));
    assert_eq!((few.shards, many.shards), (10, 313));
    merge_agreement(&few, &many).expect("the shard size changed the campaign");
    let gap = many_peak.abs_diff(few_peak);
    eprintln!("peak heap: {few_peak} B at 10 shards, {many_peak} B at 313");
    assert!(
        gap < 128 << 10,
        "peak heap {few_peak} B at 10 shards, {many_peak} B at 313: \
         {gap} B apart, more than one float tail per extra shard"
    );
}

#[test]
fn the_summary_is_the_same_at_one_two_and_eight_workers() {
    let _serial = serial();
    let one = run_campaign(&config(64, 1));
    assert_eq!(one, run_campaign(&config(64, 2)), "2 workers");
    assert_eq!(one, run_campaign(&config(64, 8)), "8 workers");
}

#[test]
fn a_journaled_run_and_its_resume_equal_the_plain_run() {
    let _serial = serial();
    let cfg = config(512, 2);
    let plain = run_campaign(&cfg);
    let path = journal_path("equal");
    let fresh = run_campaign_resumable(&cfg, &path).expect("journaled run");
    assert_eq!(fresh.recovered_shards, 0);
    assert_eq!(fresh.summary, plain, "journaling changed the summary");
    let resumed = run_campaign_resumable(&cfg, &path).expect("resume");
    assert_eq!(resumed.recovered_shards, resumed.total_shards);
    assert_eq!(resumed.summary, plain, "the resume changed the summary");
    std::fs::remove_file(&path).expect("remove journal");
}

#[test]
fn resume_peak_heap_does_not_grow_with_the_journal() {
    let _serial = serial();
    let mut peaks = Vec::new();
    let mut summaries = Vec::new();
    for shard_users in [2_000, 64] {
        let cfg = config(shard_users, 2);
        let path = journal_path(&format!("resume_{shard_users}"));
        run_campaign_resumable(&cfg, &path).expect("journaled run");
        let journal_bytes = std::fs::metadata(&path).expect("journal").len();
        let (resumed, peak) = peak_of(|| run_campaign_resumable(&cfg, &path).expect("resume"));
        assert_eq!(resumed.recovered_shards, resumed.total_shards);
        eprintln!(
            "resume of {} shards ({journal_bytes} B of journal): peak heap {peak} B",
            resumed.total_shards
        );
        peaks.push(peak);
        summaries.push(resumed.summary);
        std::fs::remove_file(&path).expect("remove journal");
    }
    merge_agreement(&summaries[0], &summaries[1]).expect("the shard size changed the resume");
    let (few, many) = (peaks[0], peaks[1]);
    assert!(
        few.abs_diff(many) < 128 << 10,
        "resume peak heap {few} B at 10 shards, {many} B at 313: it grows with the journal"
    );
    assert!(
        many < 8 * SLOT_FRAME_BYTES,
        "resume peak heap {many} B: more than a few slot records ({SLOT_FRAME_BYTES} B each)"
    );
}

#[test]
fn a_lying_frame_length_is_never_allocated() {
    let _serial = serial();
    let cfg = config(500, 2);
    let path = journal_path("lying_length");
    run_campaign_resumable(&cfg, &path).expect("journaled run");
    let journal = std::fs::read(&path).expect("read journal");
    let length_at = |at: usize| u32::from_le_bytes(journal[at..at + 4].try_into().unwrap());
    let second = 8 + length_at(0) as usize + SLOT_FRAME_BYTES;
    assert_eq!(length_at(second) as usize, SLOT_FRAME_BYTES - 8);
    // Two lies. The second record's length field claims 512 KB, which
    // the file still holds; a frame head after the complete journal
    // claims 64 MB and is followed by a few hundred bytes.
    let mut early = journal.clone();
    early[second..second + 4].copy_from_slice(&(512u32 << 10).to_le_bytes());
    let mut late = journal.clone();
    late.extend_from_slice(&(1u32 << 26).to_le_bytes());
    late.extend_from_slice(&[0xA5; 4 + 300]);
    for (lie, bytes, slots, valid) in [
        ("512 KB", early, 1, second),
        ("64 MB", late, 40, journal.len()),
    ] {
        std::fs::write(&path, &bytes).expect("write journal");
        let ((_, rec), peak) = peak_of(|| Checkpoint::open(&path, &cfg).expect("open"));
        eprintln!("open past a {lie} length field: peak heap {peak} B");
        assert_eq!(rec.recovered_slots, slots, "{lie}: recovered shards");
        let (valid, dropped) = (valid as u64, (bytes.len() - valid) as u64);
        assert_eq!(
            (rec.valid_bytes, rec.dropped_bytes),
            (valid, dropped),
            "{lie}"
        );
        let len = std::fs::metadata(&path).expect("journal").len();
        assert_eq!(len, valid, "{lie}: the torn tail was not cut away");
        assert!(
            peak < 8 * SLOT_FRAME_BYTES,
            "opening the journal held {peak} B: a {lie} length field sized a buffer"
        );
    }
    std::fs::remove_file(&path).expect("remove journal");
}
