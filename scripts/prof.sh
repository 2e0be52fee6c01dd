#!/usr/bin/env bash
# Self time by symbol, then by family (crate or libc / libm group), then
# by innermost inlined workspace function, for one stackbench workload:
# the sample behind DESIGN.md section 3's tables, as one command. The
# full tables stay in target/prof/<workload>.self and
# target/prof/<workload>.inlined.
# Usage: scripts/prof.sh <workload> [seconds=20]
#
# The box has no `perf`; it has `cc`, `nm` and /proc/self/maps. This
# builds a small LD_PRELOAD shim into target/prof/ (ITIMER_PROF, a
# SIGPROF handler that stores the interrupted instruction pointer, a
# destructor that writes /proc/self/maps and the samples), builds the
# release stackbench binary with line tables
# (CARGO_PROFILE_RELEASE_DEBUG=line-tables-only, into
# target/prof/build, so stackbench/target is not touched), runs it
# with `--workload W --seed 42 --trace 0` under the shim, and
# attributes every sample to the nearest preceding symbol of
# `nm -C --defined-only -n` (`::h<hash>` stripped).
#
# The third table reads the line tables: `llvm-symbolizer --inlining`
# gives each sampled address its chain of inlined frames, and a sample
# counts for the innermost frame whose source lies in the checkout
# (crates/, vendor/, stackbench/), named as the symbolizer names it with
# generic arguments dropped and its file beside it; a sample with no
# such frame keeps its symbol from the first table. Under fat LTO one
# symbol can be a dozen inlined functions, so a symbol's share says
# little about any one of them. The table is skipped, with a note, when
# llvm-symbolizer is not installed.
#
# Reading the table:
#   * self time only: a sample counts for the function the instruction
#     pointer was in, never for its callers; in the first two tables an
#     inlined callee counts for the function it was inlined into, in the
#     third for itself when its source is in the checkout;
#   * the timer ticks at the kernel's 4 ms here whatever interval is
#     asked for, so about 250 samples per CPU-second: run 20 s or more
#     before reading a 1 % row;
#   * libc and libm are stripped, so their samples are attributed to the
#     nearest *exported* symbol and grouped by its name - `[libc
#     allocator]` (malloc, free, realloc, ...), `[libc mem*]` (memcpy,
#     memset, ...), `[libm]`, `[libc other]` (mostly system-call
#     wrappers) - which is a guess about the internal function, and the
#     brackets say so;
#   * the binary is built from the checkout root, so under the release
#     profile of `.cargo/config.toml` (fat LTO, one codegen unit): generic
#     std code and one-line cross-crate shims are inlined into their callers:
#     a `VecDeque` drain or a `put_slice` counts for the workspace
#     function that calls it, not for `alloc` or `bytes`. A family can
#     move between builds without the work moving (app_replay, before
#     the profile and under it: `alloc` 9.2 -> 1.7 %, `bytes`
#     3.2 -> 1.3 %, `mpwifi_apps` 3.1 -> 15.9 %, the borrows and drains
#     folded into `replay`), so compare tables only across builds with
#     the same profile;
#   * end-to-end metrics are never read from a sampled run: the handler
#     costs time, and a number is `scripts/ab.sh`'s table or nothing.
# Changes no program code and nothing under stackbench/;
# scripts/check.sh does not call it.
set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOAD="${1:?usage: scripts/prof.sh <workload> [seconds=20]}"
SECS="${2:-20}"
OUT=target/prof
BIN="$OUT/build/release/stackbench"
mkdir -p "$OUT"

cat >"$OUT/prof.c" <<'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 20)
static unsigned long long pcs[MAX_SAMPLES];
static unsigned long taken;

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        pcs[i] = ((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
}

static void set_timer(long usec) {
    struct itimerval it = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((constructor)) static void prof_start(void) {
    struct sigaction sa;
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    set_timer(1000);
}

__attribute__((destructor)) static void prof_stop(void) {
    set_timer(0);
    const char *path = getenv("PROF_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "map %s", line);
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "pc %llx\n", pcs[i]);
    fclose(maps);
    fclose(out);
}
EOF
cc -O2 -shared -fPIC -o "$OUT/libprof.so" "$OUT/prof.c"

CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR="$OUT/build" \
    cargo build --release --offline -q --manifest-path stackbench/Cargo.toml
echo "== sampling $WORKLOAD for $SECS s" >&2
PROF_OUT="$OUT/$WORKLOAD.samples" LD_PRELOAD="$PWD/$OUT/libprof.so" \
    "$BIN" --workload "$WORKLOAD" --seed 42 --seconds "$SECS" --trace 0 >/dev/null

# One symbol table per mapped object the samples can fall in: the
# binary's own (static) symbols, the shared libraries' exported ones.
BIN_PATH="$(readlink -f "$BIN")"
: >"$OUT/symbols"
for obj in $(awk '$1 == "map" && $7 ~ /^\// { print $7 }' "$OUT/$WORKLOAD.samples" | sort -u); do
    if [ "$obj" = "$BIN_PATH" ]; then flags="-C --defined-only -n"; else flags="-D -C --defined-only -n"; fi
    # shellcheck disable=SC2086
    nm $flags "$obj" 2>/dev/null | sed -e 's/::h[0-9a-f]\{16\}$//' -e "s|^|sym $obj |" >>"$OUT/symbols" || true
done

awk -v bin="$BIN_PATH" -v attrib="$OUT/$WORKLOAD.attrib" '
    function hex(s,    i, n, c) {
        n = 0
        s = tolower(s)
        for (i = 1; i <= length(s); i++) {
            c = index("0123456789abcdef", substr(s, i, 1))
            n = n * 16 + c - 1
        }
        return n
    }
    # The last symbol of object `o` at or below address `a`.
    function lookup(o, a,    lo, hi, mid) {
        lo = 1
        hi = count[o]
        if (hi == 0 || addr[o, 1] > a) return ""
        while (lo < hi) {
            mid = int((lo + hi + 1) / 2)
            if (addr[o, mid] <= a) lo = mid; else hi = mid - 1
        }
        return name[o, lo]
    }
    function label(o, a,    s, n, part) {
        s = lookup(o, a)
        if (o == bin) return s == "" ? "[stackbench, no symbol]" : s
        if (o ~ /\/libm[.-]/) return "[libm]"
        if (o ~ /\/libc[.-]/) {
            # The static functions of malloc.c follow __default_morecore
            # and the multiarch memcpy / memset bodies follow
            # __nss_database_lookup (the mis-attribution perf is known
            # for on a stripped glibc). No apostrophe may appear in this
            # program: it is one single-quoted shell word.
            if (s ~ /alloc|free|memalign|morecore/) return "[libc allocator]"
            if (s ~ /^(__)?(mem|str|bcopy|bzero)|^__nss_database_lookup/) return "[libc mem*]"
            return "[libc other]"
        }
        n = split(o, part, "/")
        return "[" part[n] "]"
    }
    $1 == "sym" {
        # sym <object> <address> <type> <name, may hold spaces>
        if ($4 !~ /^[TtWwi]$/) next
        o = $2
        a = hex($3)
        s = $0
        sub(/^sym [^ ]+ [^ ]+ [^ ]+ /, "", s)
        count[o]++
        addr[o, count[o]] = a
        name[o, count[o]] = s
        next
    }
    $1 == "map" && $7 ~ /^\// {
        split($2, range, "-")
        maps++
        from[maps] = hex(range[1])
        to[maps] = hex(range[2])
        object[maps] = $7
        # An object is mapped lowest segment first: that start is its base.
        if (!($7 in base)) base[$7] = from[maps] - hex($4)
        next
    }
    $1 == "pc" {
        pc = hex($2)
        total++
        where = "[unmapped: kernel, vdso, anonymous]"
        for (m = 1; m <= maps; m++) {
            if (pc >= from[m] && pc < to[m]) {
                where = label(object[m], pc - base[object[m]])
                break
            }
        }
        self[where]++
        # For the inlined table: each sample in the binary by address
        # (decimal, relative to its base), every other sample by label.
        if (m <= maps && object[m] == bin) printf "pc %.0f\n", pc - base[bin] > attrib
        else print "label " where > attrib
    }
    END {
        if (total == 0) {
            print "no samples" > "/dev/stderr"
            exit 1
        }
        for (s in self) printf "%6.2f%% %7d  %s\n", 100 * self[s] / total, self[s], s
        printf "%7s %7d  samples\n", "", total > "/dev/stderr"
    }
' "$OUT/symbols" "$OUT/$WORKLOAD.samples" | sort -k2,2nr >"$OUT/$WORKLOAD.self"
head -n 30 "$OUT/$WORKLOAD.self"

# The same samples summed by family: a workspace crate (the first
# `mpwifi_<crate>::` in the symbol, so a generic instantiated on one of
# its types counts for it), a bracketed libc / libm group as it stands,
# or the first path segment of anything else (`alloc`, `core`, `std`).
# Many symbols under 8 % each can still be a third of a run.
echo
echo "== by family"
awk '
    {
        s = $0
        sub(/^ *[0-9.]+% +[0-9]+  /, "", s)
        if (match(s, /mpwifi_[a-z]+::/)) f = substr(s, RSTART, RLENGTH - 2)
        else if (s ~ /^\[/) f = s
        else { f = s; sub(/^</, "", f); sub(/::.*/, "", f); sub(/.* /, "", f) }
        fam[f] += $2
        total += $2
    }
    END { for (f in fam) printf "%6.2f%% %7d  %s\n", 100 * fam[f] / total, fam[f], f }
' "$OUT/$WORKLOAD.self" | sort -k2,2nr

# The same samples by the innermost inlined function whose source is in
# the checkout (see the header).
echo
echo "== by innermost inlined workspace function"
if ! command -v llvm-symbolizer >/dev/null; then
    echo "(skipped: llvm-symbolizer is not installed)"
    exit 0
fi
sed -n 's/^pc //p' "$OUT/$WORKLOAD.attrib" | sort | uniq -c >"$OUT/$WORKLOAD.addrs"
awk '{ print $2 }' "$OUT/$WORKLOAD.addrs" |
    llvm-symbolizer --obj="$BIN_PATH" --inlining >"$OUT/$WORKLOAD.frames"
awk -v root="$PWD/" -v addrs="$OUT/$WORKLOAD.addrs" '
    # The outermost frame is a linkage name, which llvm-symbolizer
    # leaves in Rust legacy escapes (`_$LT$A$u20$as$u20$B$GT$..f`).
    function unescape(s) {
        gsub(/\.\./, "::", s)
        gsub(/\$LT\$/, "<", s)
        gsub(/\$GT\$/, ">", s)
        gsub(/\$u20\$/, " ", s)
        gsub(/\$C\$/, ",", s)
        gsub(/\$RF\$/, "\\&", s)
        gsub(/\$LP\$/, "(", s)
        gsub(/\$RP\$/, ")", s)
        gsub(/\$BP\$/, "*", s)
        gsub(/\$u7b\$/, "{", s)
        gsub(/\$u7d\$/, "}", s)
        sub(/^_</, "<", s)
        sub(/::h[0-9a-f]+$/, "", s)
        return s
    }
    # One block of frame pairs (function, file:line:column), innermost
    # first, per address, in the order of the addresses file.
    function flush(    label, i, f, n) {
        if (frames == 0) return
        if ((getline line < addrs) <= 0) {
            print "frames without an address" > "/dev/stderr"
            exit 1
        }
        split(line, part, " ")
        n = part[1]
        label = ""
        for (i = 1; i <= frames && label == ""; i++) {
            f = file[i]
            sub(/:[0-9]+:[0-9]+$/, "", f)
            if (index(f, root) == 1) {
                label = unescape(fn[i])
                # The generic arguments of the short name of an inlined
                # frame (`front<T, A>`); a path keeps its own.
                if (match(label, /^[A-Za-z0-9_]+</)) label = substr(label, 1, RLENGTH - 1)
                sub(/::h[0-9a-f]+$/, "", label)
                label = label "  (" substr(f, length(root) + 1) ")"
            }
        }
        if (label == "") label = unescape(fn[frames])
        self[label] += n
        total += n
        frames = 0
    }
    FILENAME ~ /\.frames$/ {
        if ($0 == "") { flush(); next }
        if (odd = !odd) fn[++frames] = $0
        else file[frames] = $0
        next
    }
    FILENAME ~ /\.attrib$/ && /^label / {
        s = $0
        sub(/^label /, "", s)
        self[s]++
        total++
    }
    END {
        flush()
        for (s in self) printf "%6.2f%% %7d  %s\n", 100 * self[s] / total, self[s], s
    }
' "$OUT/$WORKLOAD.frames" "$OUT/$WORKLOAD.attrib" | sort -k2,2nr >"$OUT/$WORKLOAD.inlined"
head -n 30 "$OUT/$WORKLOAD.inlined"
