#!/usr/bin/env bash
# Local CI gate: formatting, lints, tier-1 build + tests.
# Usage: scripts/check.sh [--full]
#   (default)  cargo fmt --check, clippy and rustdoc over every
#              workspace package (crates, vendored shims, the root) with
#              warnings denied, the tier-1 build + tests (among them
#              tests/section2_pins.rs: the rendered table1, fig3, fig4
#              and fig6 hashed at seeds 1, 7 and 42), and the crowd and
#              measure suites in a debug build (a few seconds warm):
#              the journal's frame and CRC properties, the codec's
#              truncation and round-trip properties, the k-means'
#              differential property (the chord-pruned clustering
#              against the unpruned one kept as its oracle: equal
#              members, centroids equal to the bit) and the campaign's
#              merge and resume tests gate every change, not only --full.
#   --full     everything above, then every crate's suite in release
#              (cargo test --workspace --release: release builds are
#              whole-program, fat LTO and one codegen unit from
#              `.cargo/config.toml`, so from cold this step's build
#              takes about 6.5 minutes on a 2-vCPU guest where it took
#              about 1.2, and the step about 7; warm, the whole of
#              --full takes about 3 minutes), the six crates that
#              hold or drive a TCP or MPTCP connection or a link once
#              more in a debug build, and the end-to-end smokes, in this
#              order:
#                settled    debug builds re-run every settled
#                           connection's output pass and assert it has
#                           no output and moves no timer, and check its
#                           stored timer horizon against a fresh scan
#                           (`TcpConnection::{poll_output, next_timer}`,
#                           `MptcpConnection::take_tx_into`); check that
#                           every row a host's drain skips is settled
#                           with its stored horizon (`tcp::touched`),
#                           every stored link horizon against its
#                           pipeline (`Sim::next_event`) and every MPTCP
#                           route-table hit against a scan; release
#                           compiles the checks out, and tier-1 reaches
#                           them through the root package's tests alone.
#                mathis     the Mathis oracle's whole grid (nine cells,
#                           three seeds; tier-1's debug build runs a
#                           reduced one) with its ratio table printed:
#                           one Reno flow within [0.6, 1.4] of
#                           MSS / (RTT sqrt(2p/3)) in every cell.
#                stackbench the benchmark harness (its own workspace, so
#                           nothing above compiles it) builds against the
#                           crates as they are now, passes its unit tests
#                           and its --quick mode: 2 rounds of all six
#                           workloads, digests equal across rounds and
#                           equal to scripts/pins.txt. An
#                           API drift that would break BENCHMARK.json's
#                           command fails here, and so does a change to
#                           any crate's dependency list, which cargo
#                           would otherwise write into the tracked
#                           stackbench/Cargo.lock without a word.
#                report     `repro all extensions --seed 42 --markdown`
#                           regenerates EXPERIMENTS.md byte-for-byte
#                           (cmp against the committed file).
#                faults     the three fault-* experiments at quick scale
#                           complete, recover and reproduce.
#                conformance  a fixed-seed fuzz campaign (25 cases;
#                           MPWIFI_CONFORMANCE_CASES overrides) plus the
#                           scheduler x CC matrix campaign (8 cases per
#                           cell; MPWIFI_MATRIX_CASES overrides) and the
#                           sched-matrix / sched-failover family; any
#                           invariant violation fails and prints the
#                           shrunk reproducer, and at the default case
#                           counts both campaign fingerprints must equal
#                           scripts/pins.txt.
#                crowd      a 10^4-user campaign (MPWIFI_CROWD_USERS
#                           overrides) through `repro campaign` (merge
#                           agreement is one of its claims) and the
#                           crowd-campaign experiment with zero
#                           quarantines.
#                serve      the chaos_load client against `repro serve`
#                           in chaos mode: 100+ mixed valid / malformed /
#                           planted-panic / planted-stall / worker-bomb
#                           requests, a queue-saturation shed phase and a
#                           graceful drain; healthy sections must be
#                           byte-identical to the one-shot CLI.
#                resume     the kill_chaos harness: 12 seeded SIGKILLs of
#                           checkpointed campaigns (half followed by a
#                           mid-frame truncation), each resumed to a
#                           report byte-identical to a one-shot run;
#                           one resume of a complete journal, with no
#                           campaign child above 32 MB of max RSS;
#                           typed refusals (exit 4 / exit 2); a SIGTERM
#                           graceful-drain probe. Population defaults to
#                           10^6 users; MPWIFI_KILL_USERS overrides.
#                supervise  every `repro` run is supervised: a campaign
#                           with a planted panic and a planted livelock
#                           quarantines both (exit 3, sidecar naming
#                           them) while the healthy sections stay
#                           byte-identical to a campaign without them;
#                           that healthy campaign exits 0 with an empty
#                           sidecar; and the retired `--supervise` flag
#                           is a usage error (exit 2).
#              The determinism, golden and resume tests run as part of
#              the workspace suite; the journal properties also run in
#              the default gate.
set -euo pipefail
cd "$(dirname "$0")/.."

FULL=0
for arg in "$@"; do
    case "$arg" in
        --full) FULL=1 ;;
        *)
            echo "usage: scripts/check.sh [--full]" >&2
            exit 2
            ;;
    esac
done

# scripts/pins.txt holds the digests and fingerprints that say "no
# behaviour moved"; a behaviour PR edits that file on purpose.
# `check_pins <group> <file>` compares every pin of <group> with the
# `name value` lines of <file> and fails on a difference, old -> new.
check_pins() {
    local moved=0 name want got
    while read -r name want; do
        got="$(awk -v n="$name" '$1 == n { print $2 }' "$2")"
        if [ "$got" != "$want" ]; then
            echo "pin $name: $want -> ${got:-(not printed)}" >&2
            moved=1
        fi
    done < <(grep "^$1/" scripts/pins.txt)
    if [ "$moved" -eq 1 ]; then
        echo "scripts/pins.txt does not match this tree" >&2
        exit 1
    fi
}

echo "== cargo fmt --check"
cargo fmt --all -- --check

# The extra -D lint pins the `TcpConfig::default`-without-parens bug
# class (a fn item bound as a value and then compared instead of
# called): fn-pointer comparisons are never meaningful in this
# codebase. (The clippy `let_underscore` group would be the stronger
# gate but conflicts with the repo's `let _ = writeln!(..)` idiom for
# infallible String writes.)
echo "== cargo clippy, every package (deny warnings + fn-pointer comparison gate)"
cargo clippy --workspace --all-targets -- -D warnings \
    -D unpredictable_function_pointer_comparisons

# A renamed type, a removed method or a deleted module leaves its doc
# links dangling, and nothing else reads them.
echo "== cargo doc, every package (deny warnings: broken and private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --keep-going

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q"
cargo test -q

echo "== crowd and measure suites in a debug build (journal, codec, k-means, campaign properties)"
cargo test -q -p mpwifi-crowd -p mpwifi-measure

if [ "$FULL" -eq 1 ]; then
    echo "== full: cargo test --workspace --release"
    cargo test --workspace --release -q

    echo "== settled: tcp, netem, mptcp, sim, apps and conformance suites in a debug build"
    cargo test -q -p mpwifi-tcp -p mpwifi-netem -p mpwifi-mptcp -p mpwifi-sim \
        -p mpwifi-apps -p mpwifi-conformance

    echo "== mathis oracle: full grid in release, ratio table"
    cargo test --release -q --test mathis_oracle -- --nocapture

    TMP="$(mktemp -d)"
    trap 'rm -rf "$TMP"' EXIT

    echo "== stackbench smoke: harness builds, unit tests, --quick, pinned digests"
    # The unit tests get a target directory of their own: the harness
    # keeps its scratch files in `<exe dir>/../stackbench`, which for a
    # test executable is where `cargo run` puts the binary itself.
    CARGO_TARGET_DIR=stackbench/target/unit \
        cargo test --release --offline -q --manifest-path stackbench/Cargo.toml
    cargo run --release --offline -q --manifest-path stackbench/Cargo.toml -- --quick --seed 42 |
        tee "$TMP/quick.out"
    git diff --exit-code -- stackbench/Cargo.lock
    sed -n 's|^\([a-z_]*\): seed 42, .* digest \([0-9a-f]*\)$|stackbench/\1 \2|p' \
        "$TMP/quick.out" >"$TMP/quick.pins"
    check_pins stackbench "$TMP/quick.pins"

    # repro plus the chaos_load and kill_chaos harnesses.
    cargo build --release -q -p mpwifi-repro --bins
    # The replay command in every quarantine sidecar is `cargo run -p
    # mpwifi-repro -- …`; with three bins it needs `default-run`.
    cargo run --release -q -p mpwifi-repro -- --list >/dev/null
    REPRO=./target/release/repro

    echo "== report: EXPERIMENTS.md regenerates byte-for-byte"
    "$REPRO" all extensions --seed 42 --markdown "$TMP/exp.md" >/dev/null
    cmp "$TMP/exp.md" EXPERIMENTS.md

    echo "== fault smoke: fault-* experiments at quick scale"
    "$REPRO" fault-sweep fault-restore fault-noise --seed 42 >/dev/null

    CASES="${MPWIFI_CONFORMANCE_CASES:-25}"
    echo "== conformance smoke: $CASES fuzz cases, fixed seed"
    "$REPRO" conformance --cases "$CASES" --seed 42 --jobs 4 | tee "$TMP/campaign.out"
    MCASES="${MPWIFI_MATRIX_CASES:-8}"
    echo "== conformance smoke: scheduler x CC matrix campaign, $MCASES cases per cell"
    "$REPRO" conformance --matrix --cases "$MCASES" --seed 42 --jobs 4 | tee "$TMP/matrix.out"
    if [ "$CASES" -eq 25 ] && [ "$MCASES" -eq 8 ]; then
        sed -n 's|^\([a-z]*\) fingerprint: |conformance/\1 |p' \
            "$TMP/campaign.out" "$TMP/matrix.out" >"$TMP/conformance.pins"
        check_pins conformance "$TMP/conformance.pins"
    fi
    echo "== conformance smoke: sched-matrix + sched-failover family, claims must hold"
    "$REPRO" sched-matrix sched-failover --seed 42 >/dev/null

    USERS="${MPWIFI_CROWD_USERS:-10000}"
    echo "== crowd smoke: $USERS-user campaign via repro campaign (merge agreement is claim 5)"
    "$REPRO" campaign --users "$USERS" --seed 42 --jobs 4 >/dev/null
    echo "== crowd smoke: crowd-campaign experiment, zero quarantines"
    "$REPRO" crowd-campaign --seed 42 --quarantine "$TMP/crowd.json" >/dev/null
    if grep -q '"id"' "$TMP/crowd.json"; then
        echo "crowd campaign was quarantined:" >&2
        cat "$TMP/crowd.json" >&2
        exit 1
    fi

    echo "== serve smoke: chaos load client vs repro serve (chaos mode)"
    ./target/release/chaos_load

    echo "== resume smoke: kill_chaos harness (SIGKILL + torn tails + byte-identical resume)"
    ./target/release/kill_chaos

    echo "== supervise smoke: healthy campaign exits 0 with an empty quarantine sidecar"
    "$REPRO" fig9 table2 --seed 42 --quarantine "$TMP/healthy.json" \
        --markdown "$TMP/plain.md" >/dev/null
    if grep -q '"id"' "$TMP/healthy.json"; then
        echo "healthy campaign wrote a non-empty quarantine sidecar:" >&2
        cat "$TMP/healthy.json" >&2
        exit 1
    fi
    echo "== supervise smoke: planted panic + planted stall are quarantined"
    rc=0
    "$REPRO" fig9 table2 planted-panic planted-stall \
        --seed 42 --quarantine "$TMP/quarantine.json" \
        --markdown "$TMP/supervised.md" >/dev/null 2>"$TMP/quarantine.err" || rc=$?
    if [ "$rc" -ne 3 ]; then
        echo "expected exit 3 from the planted campaign, got $rc" >&2
        cat "$TMP/quarantine.err" >&2
        exit 1
    fi
    grep -q '"id": "planted-panic", .*"status": "panicked"' "$TMP/quarantine.json"
    grep -q '"id": "planted-stall", .*"status": "stalled"' "$TMP/quarantine.json"
    grep -q 'subflow lte' "$TMP/quarantine.json"
    echo "== supervise smoke: healthy sections byte-identical, campaign continued"
    cmp "$TMP/plain.md" "$TMP/supervised.md"
    echo "== supervise smoke: the retired --supervise flag is a usage error"
    rc=0
    "$REPRO" --supervise table2 >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "expected exit 2 from 'repro --supervise table2', got $rc" >&2
        exit 1
    fi
fi

echo "All checks passed."
