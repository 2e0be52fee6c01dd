//! Codec-path golden test: the report bytes of a mid-size experiment
//! slice must not change when the segment codec or frame-transport path
//! is reworked.
//!
//! The fixture under `tests/golden/` was captured from the
//! pre-optimization (PR 1) allocating codec path — `Segment::encode`
//! returning a fresh `Bytes` per segment and `Sim::step` collecting
//! fresh `Vec<Frame>`s per poll. Any optimization of that path (buffer
//! pooling, scratch-buffer polling, borrowing decode) must reproduce
//! these bytes exactly: same blocks, same claims, same instrumentation
//! counters.
//!
//! Regenerate (only when an *intentional* behavior change lands) with:
//! `UPDATE_GOLDEN=1 cargo test -p mpwifi-repro --test golden_codec`.

use mpwifi_repro::{registry, runner, Scale, SeedPolicy, SuperviseConfig};

const GOLDEN_PATH: &str = "tests/golden/pr2_codec_reports.txt";
const IDS: [&str; 4] = ["fig9", "fig10", "table2", "fig15"];

fn render_slice() -> String {
    let specs: Vec<_> = IDS.iter().map(|id| registry::find(id).unwrap()).collect();
    let cfg = SuperviseConfig::batch();
    let runs = runner::run_specs(&specs, Scale::Quick, 42, 1, SeedPolicy::Campaign, &cfg);
    let mut out = String::new();
    for run in &runs {
        let report = run.result.as_ref().expect("the golden slice completes");
        out.push_str(&report.render_text());
        out.push('\n');
    }
    out
}

#[test]
fn report_bytes_match_pre_optimization_codec_path() {
    let got = render_slice();
    let path = format!("{}/{}", env!("CARGO_MANIFEST_DIR"), GOLDEN_PATH);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(&path).parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("golden fixture rewritten: {path}");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {path}: {e}"));
    assert_eq!(
        got, want,
        "report bytes diverged from the pre-optimization codec path"
    );
}
