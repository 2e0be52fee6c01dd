#!/usr/bin/env bash
# A/B the benchmark: <rev> (the parent) against the working tree.
# Usage: scripts/ab.sh <rev> [pairs=10] [workload...]
#
# Unpacks <rev> into a temporary directory outside the checkout (git
# archive: nothing is registered in .git), builds both stackbench
# binaries offline, each from its own root, and prints each side's
# commit and binary size. Cargo merges `.cargo/config.toml` from the
# working directory and all its ancestors, so a parent built from inside
# the checkout would be built under the change's release profile, and an
# A/B of a profile change would read parity; equal sizes on such a
# change say that happened. Then it runs
# every BENCHMARK.json workload (or only the named ones: an ablation
# need not pay for all six; a claim's table comes from a run of all of
# them) `pairs` times on each side for
# `run_seconds` each, parent first on odd pairs and change first on even
# ones (choosing-metrics section 8). Then, per workload/metric: the two
# medians, the parent's inter-quartile distance, how many pairs the
# change won or tied, and a verdict against the metric's `bound`:
#   worse       the change's median is worse than the parent's by more
#               than the bound;
#   unresolved  not worse, but one side's runs spread (max - min, as a
#               share of its median) wider than the bound, and the
#               change's runs do not all beat the parent's: the numbers
#               cannot say "unchanged";
#   ok          neither.
# Exits 1 on any `worse`, any failed op or any incorrect run. Reads
# BENCHMARK.json and builds stackbench/ as they are; edits neither.
# Under the table, every row called `worse` or `unresolved` is listed
# again as the runs behind it: each side's values in pair order (odd
# pairs ran the parent first), since a median over few runs can turn on
# one slow start or one noisy pair.
# `scripts/ab.sh <rev> 1` is the try-out form (about 3 minutes of runs;
# one pair resolves nothing). Every run's JSON stays in
# target/ab/runs.jsonl.
set -euo pipefail
cd "$(dirname "$0")/.."

REV="${1:?usage: scripts/ab.sh <rev> [pairs=10] [workload...]}"
PAIRS="${2:-10}"
SECS="$(jq -r .run_seconds BENCHMARK.json)"
WORKLOADS="$(jq -r '.workloads[].name' BENCHMARK.json)"
if (($# > 2)); then
    for w in "${@:3}"; do
        grep -qx "$w" <<<"$WORKLOADS" || { echo "ab: no workload $w in BENCHMARK.json" >&2; exit 2; }
    done
    WORKLOADS="$(printf '%s\n' "${@:3}")"
fi
AB=target/ab
RUNS="$AB/runs.jsonl"
PARENT="$(mktemp -d)"
trap 'rm -rf "$PARENT"' EXIT
# One target directory for both sides would hold one binary.
unset CARGO_TARGET_DIR

mkdir -p "$AB"
parent_rev="$(git rev-parse --verify "$REV^{commit}")"
git archive "$parent_rev" | tar -x -C "$PARENT"
echo "== building stackbench at $REV and in the working tree" >&2
(cd "$PARENT" && cargo build --release --offline -q --manifest-path stackbench/Cargo.toml)
cargo build --release --offline -q --manifest-path stackbench/Cargo.toml
parent_bin="$PARENT/stackbench/target/release/stackbench"
change_bin=stackbench/target/release/stackbench

change_rev="$(git rev-parse --short HEAD)"
if [ -n "$(git status --porcelain)" ]; then change_rev="$change_rev + working tree"; fi
sides="$(printf '%-7s %-24s stackbench %s bytes\n' \
    parent "$(git rev-parse --short "$parent_rev")" "$(stat -c %s "$parent_bin")" \
    change "$change_rev" "$(stat -c %s "$change_bin")")"
echo "$sides" >&2

: >"$RUNS"
for pair in $(seq 1 "$PAIRS"); do
    if ((pair % 2)); then order="parent change"; else order="change parent"; fi
    for workload in $WORKLOADS; do
        for side in $order; do
            bin="${side}_bin"
            echo "== pair $pair/$PAIRS  $workload  $side" >&2
            # The run's last line is its one JSON object; a run that
            # dies without one is recorded as incorrect.
            line="$("${!bin}" --workload "$workload" --seed 42 --seconds "$SECS" --trace 0 \
                2>/dev/null | tail -n 1)" || true
            jq -c --arg side "$side" --arg workload "$workload" --argjson pair "$pair" \
                '. + {side: $side, workload: $workload, pair: $pair}' <<<"$line" >>"$RUNS" ||
                echo "{\"correct\": false, \"failed\": 0, \"metrics\": {}, \"side\": \"$side\", \"workload\": \"$workload\", \"pair\": $pair}" >>"$RUNS"
        done
    done
done

echo "$sides"
SIG='def sig: if . == 0 then 0 else . as $x
    | pow(10; 3 - ($x | fabs | log10 | floor)) as $k | ($x * $k | round) / $k end;'
jq -rs --slurpfile bench BENCHMARK.json --arg workloads "$WORKLOADS" "$SIG"'
  def quantile(q): sort | . as $s | ((length - 1) * q) as $h | ($h | floor) as $lo
    | $s[$lo] + ($h - $lo) * (($s[$lo + 1] // $s[$lo]) - $s[$lo]);
  def spread: (max - min) / quantile(0.5);
  . as $runs
  | ["workload/metric", "parent", "change", "delta%", "parent_iqr", "wins", "ties", "verdict"],
    ( ($bench[0].workloads[].name | select(IN($workloads | split("\n")[]))) as $w
    | $bench[0].end_to_end[] as $m
    | [$runs[] | select(.workload == $w)] as $rs
    | [$rs[] | select(.side == "parent")] | sort_by(.pair) | map(.metrics[$m.name].value // null) as $p
    | [$rs[] | select(.side == "change")] | sort_by(.pair) | map(.metrics[$m.name].value // null) as $c
    | (if $m.better == "higher" then 1 else -1 end) as $dir
    | if ($p + $c | any(. == null)) then [$w + "/" + $m.name, "-", "-", "-", "-", "-", "-", "missing"]
      else
        ($p | quantile(0.5)) as $pm | ($c | quantile(0.5)) as $cm
        | (($cm - $pm) / $pm) as $delta
        | [range(0; $p | length) | ($c[.] - $p[.]) * $dir] as $d
        | (if $delta * $dir < -$m.bound then "worse"
           elif ([$p, $c | spread] | max) > $m.bound
                and (($c | map(. * $dir) | min) <= ($p | map(. * $dir) | max)) then "unresolved"
           else "ok" end) as $verdict
        | [$w + "/" + $m.name, ($pm | sig), ($cm | sig), ($delta * 1000 | round / 10 | if . == 0 then 0 else . end),
           (($p | quantile(0.75)) - ($p | quantile(0.25)) | sig),
           ($d | map(select(. > 0)) | length), ($d | map(select(. == 0)) | length), $verdict]
      end
    ),
    ( [$runs[] | select(.correct != true or .failed != 0)]
    | if length > 0 then ["FAILED RUNS:"] + map("\(.side)/\(.workload)/pair \(.pair)") else empty end )
  | @tsv' "$RUNS" | tee "$AB/table.tsv" | awk -F'\t' '
    NF == 8 { printf "%-32s %11s %11s %7s %11s %5s %5s  %s\n", $1, $2, $3, $4, $5, $6, $7, $8; next }
    { print }'

flagged="$(awk -F'\t' 'NF == 8 && ($8 == "worse" || $8 == "unresolved") { print $1 }' "$AB/table.tsv")"
if [ -n "$flagged" ]; then
    echo
    echo "runs behind the worse / unresolved rows, pair 1 first:"
    jq -rs --arg rows "$flagged" "$SIG"'
      . as $runs
      | ($rows | split("\n")[]) as $row
      | ($row | split("/")) as [$w, $m]
      | $row,
        ( ("parent", "change") as $side
        | [$runs[] | select(.workload == $w and .side == $side)] | sort_by(.pair)
        | map(.metrics[$m].value // null | if . == null then "-" else sig | tostring end)
        | "  \($side)  \(join(" "))" )' "$RUNS"
fi

if grep -qE "$(printf '\t')(worse|missing)$|^FAILED RUNS:" "$AB/table.tsv"; then
    echo "ab: a metric is worse than its bound, or a run failed" >&2
    exit 1
fi
