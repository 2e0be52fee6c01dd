//! The release profile lives in one place, `.cargo/config.toml`, and
//! says what DESIGN.md section 3 "Whole-program build" measured.
//!
//! Cargo merges `.cargo/config.toml` from the working directory and
//! every ancestor, so this one file sets the profile for the root
//! workspace, for `stackbench/`'s own workspace (built with
//! `--manifest-path` from the checkout root) and for every script. The
//! files are read with plain line matching: no TOML parser is needed
//! for three keys.

use std::path::Path;

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `key = value` lines of `[section]`, comments and blanks dropped,
/// or `None` when the file has no such section.
fn section(text: &str, name: &str) -> Option<Vec<(String, String)>> {
    let header = format!("[{name}]");
    let mut lines = text
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim());
    lines.by_ref().find(|l| *l == header)?;
    Some(
        lines
            .take_while(|l| !l.starts_with('['))
            .filter_map(|l| l.split_once('='))
            .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
            .collect(),
    )
}

#[test]
fn release_profile_is_fat_lto_one_codegen_unit_and_unwinds() {
    let keys = section(&read(".cargo/config.toml"), "profile.release")
        .expect(".cargo/config.toml has no [profile.release]");
    let value = |key: &str| keys.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
    let measured = "the measured profile is fat LTO with one codegen unit: \
                    without it cross-crate shims and std generics stay out of \
                    line and app_replay runs about a sixth fewer ops/s, silently";
    assert_eq!(value("lto"), Some("\"fat\""), "{measured}");
    assert_eq!(value("codegen-units"), Some("1"), "{measured}");
    assert_eq!(
        value("panic"),
        None,
        "no panic key: repro::supervise, serve's worker replacement and \
         fan_out's re-raise all rely on catch_unwind, which panic = \"abort\" \
         turns into a dead process"
    );
}

#[test]
fn no_manifest_holds_a_second_release_profile() {
    for manifest in ["Cargo.toml", "stackbench/Cargo.toml"] {
        assert!(
            section(&read(manifest), "profile.release").is_none(),
            "{manifest} has a [profile.release]: the profile lives in \
             .cargo/config.toml alone, so every build in the checkout, \
             the benchmark's included, is the one that was measured"
        );
    }
}
