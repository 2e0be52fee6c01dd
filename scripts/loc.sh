#!/usr/bin/env bash
# The two line counts ROADMAP item 5's running total and every
# CHANGES.md entry quote, per crate and in total.
# Usage: scripts/loc.sh [--files] [rev]        (no rev: the working tree)
#
# Over `git ls-files crates vendor scripts | grep -v /tests/` (at <rev>:
# the same paths in that commit's tree):
#   lines     whole-file lines of every file in the set;
#   pre-test  lines before the first `#[cfg(test)]` of every `*.rs` in
#             the set (all of a file that has none) - code that ships,
#             in-module tests left out.
# One row per crates/<name>, vendor/<name> and scripts (with --files:
# one row per file, for grep), then the total.
# Counts what is there: generated or vendored code is not excluded, and
# a reformat or a deleted comment moves both columns. No gate.
set -euo pipefail
cd "$(dirname "$0")/.."

PER_FILE=0
if [ "${1:-}" = --files ]; then
    PER_FILE=1
    shift
fi
if [ $# -gt 1 ]; then
    echo "usage: scripts/loc.sh [--files] [rev]" >&2
    exit 2
fi

if [ $# -eq 1 ]; then
    REV="$(git rev-parse --verify "$1^{commit}")"
    ROOT="$(mktemp -d)"
    trap 'rm -rf "$ROOT"' EXIT
    git archive "$REV" crates vendor scripts | tar -x -C "$ROOT"
    FILES="$(git ls-tree -r --name-only "$REV" -- crates vendor scripts)"
else
    ROOT=.
    FILES="$(git ls-files crates vendor scripts)"
fi

cd "$ROOT"
# A path deleted from the working tree but not yet from the index is
# still listed; skip what is not there.
echo "$FILES" | grep -v /tests/ | while read -r f; do
    if [ -f "$f" ]; then echo "$f"; fi
done | xargs awk -v per_file="$PER_FILE" '
    FNR == 1 {
        n = split(FILENAME, part, "/")
        group = per_file ? FILENAME : (n > 2 && part[1] != "scripts") ? part[1] "/" part[2] : part[1]
        if (!(group in lines)) order[++groups] = group
        rust = FILENAME ~ /\.rs$/
        shipping = 1
    }
    /#\[cfg\(test\)\]/ { shipping = 0 }
    { lines[group]++ }
    rust && shipping { pre[group]++ }
    END {
        printf "%-40s %8s %9s\n", "", "lines", "pre-test"
        for (i = 1; i <= groups; i++) {
            g = order[i]
            printf "%-40s %8d %9d\n", g, lines[g], pre[g]
            all += lines[g]
            all_pre += pre[g]
        }
        printf "%-40s %8d %9d\n", "total", all, all_pre
    }
'
