#!/bin/sh
# bench_compare.sh — re-run the benchmarks recorded in the BENCH_*.json
# baselines and flag regressions. For every baseline benchmark that
# still exists, the current ns/op may exceed the recorded value by at
# most BENCH_TOLERANCE percent (default 10). A baseline file recorded
# under different host conditions can widen its own gate with a
# top-level "ns_tolerance_pct" field — the legacy baselines carry
# 100-250, because their numbers predate container reprovisioning and
# only order-of-magnitude rot is meaningful against them.
#
# Two further gates are deterministic properties of the code, not the
# machine, and are enforced tightly regardless of timing noise:
#   - rpcs_per_op (where recorded): the live value may exceed the
#     baseline by at most BENCH_RPC_TOLERANCE percent (default 25). A
#     coalescing, readahead or collective-I/O regression that doubles
#     the RPC count fails here even when loopback wall-clock hides it.
#   - allocs_per_op (where recorded): ANY increase over the baseline
#     fails. Allocation counts on the single-goroutine kernel benches
#     are exact, so the default tolerance is zero; a pooled buffer
#     quietly going back to per-call make fails here long before it
#     shows up in wall-clock. Cluster benchmarks whose counts depend
#     on goroutine scheduling (async prefetch, RPC buffering) widen
#     their own gate with a top-level "allocs_tolerance_pct" field.
#
# Usage: scripts/bench_compare.sh [BENCH_pr2.json BENCH_pr5.json ...]
# With no arguments, every BENCH_*.json in the repo root is checked.
# Each benchmark is sampled BENCH_COUNT times (default 2) and gated on
# the minimum, so a noisy-neighbor window on the shared host doesn't
# read as a regression.
# Exercised by `make bench-compare` (not part of `make check`: real
# measurement runs are too slow and too noisy for the hygiene gate).
set -eu

TOL="${BENCH_TOLERANCE:-10}"
RPCTOL="${BENCH_RPC_TOLERANCE:-25}"
COUNT="${BENCH_COUNT:-2}"
cd "$(dirname "$0")/.."

BASELINES="$*"
[ -n "$BASELINES" ] || BASELINES="$(ls BENCH_*.json 2>/dev/null)"
if [ -z "$BASELINES" ]; then
    echo "bench-compare: no BENCH_*.json baselines found" >&2
    exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

# One benchmark pass over every package that defines benchmarks the
# baselines reference (the root harness, the blast searcher, the
# alignment kernels). -benchmem so allocs/op is in the output for the
# allocation gate. The root harness benchmarks are whole-cluster runs
# and get a fixed 3 iterations; the kernel packages are fast enough
# for time-based runs, which also amortizes one-time pool warm-up out
# of allocs/op (the allocation gate measures steady state, and a 3x
# run would charge a third of the warm-up to every op). Each
# benchmark runs BENCH_COUNT times and every gate compares the MIN
# across samples: the container shares its host, and min-of-N is the
# estimator robust to a noisy neighbor stealing the CPU for part of
# the run.
go test -run '^$' -bench '.' -benchtime 3x -count "$COUNT" -benchmem . \
    >"$TMP/bench.out" 2>&1 || {
    cat "$TMP/bench.out" >&2
    exit 1
}
for pkg in ./internal/blast/ ./internal/align/; do
    go test -run '^$' -bench '.' -benchtime 2s -count "$COUNT" -benchmem "$pkg" \
        >>"$TMP/bench.out" 2>&1 || {
        cat "$TMP/bench.out" >&2
        exit 1
    }
done

# Pull min-across-samples "BenchmarkName ns/op" pairs out of the go
# test output.
awk '/^Benchmark/ {
        sub(/-[0-9]+$/, "", $1)
        if (!($1 in v) || $3 + 0 < v[$1] + 0) v[$1] = $3
    }
    END { for (n in v) print n, v[n] }' \
    "$TMP/bench.out" >"$TMP/current.txt"

# And min "BenchmarkName <value> <unit>" pairs for the unit-token
# metrics (the value precedes the literal unit token).
awk '/^Benchmark/ {
        sub(/-[0-9]+$/, "", $1)
        for (i = 3; i <= NF; i++)
            if ($i == "rpcs/op") {
                if (!($1 in v) || $(i - 1) + 0 < v[$1] + 0) v[$1] = $(i - 1)
                break
            }
    }
    END { for (n in v) print n, v[n] }' \
    "$TMP/bench.out" >"$TMP/current_rpcs.txt"
awk '/^Benchmark/ {
        sub(/-[0-9]+$/, "", $1)
        for (i = 3; i <= NF; i++)
            if ($i == "allocs/op") {
                if (!($1 in v) || $(i - 1) + 0 < v[$1] + 0) v[$1] = $(i - 1)
                break
            }
    }
    END { for (n in v) print n, v[n] }' \
    "$TMP/bench.out" >"$TMP/current_allocs.txt"

fail=0
for base in $BASELINES; do
    [ -f "$base" ] || { echo "bench-compare: $base not found" >&2; exit 1; }
    # Per-baseline ns/op tolerance: a top-level "ns_tolerance_pct"
    # field overrides the default for this file only.
    btol="$(awk '/^  "ns_tolerance_pct"/ { gsub(/[^0-9]/, "", $2); print $2; exit }' "$base")"
    [ -n "$btol" ] || btol="$TOL"
    atol="$(awk '/^  "allocs_tolerance_pct"/ { gsub(/[^0-9]/, "", $2); print $2; exit }' "$base")"
    [ -n "$atol" ] || atol=0
    # Extract name -> ns_per_op from the baseline JSON (no jq in the
    # image; the files are machine-written with stable formatting).
    awk '
        /^    "Benchmark/ { gsub(/[":]/ , "", $1); name = $1 }
        /"ns_per_op"/ && name != "" {
            gsub(/[^0-9.]/, "", $2); print name, $2; name = ""
        }' "$base" >"$TMP/baseline.txt"
    while read -r name want; do
        got="$(awk -v n="$name" '$1 == n { print $2; exit }' "$TMP/current.txt")"
        if [ -z "$got" ]; then
            echo "bench-compare: $base: $name no longer runs" >&2
            fail=1
            continue
        fi
        # pass when got <= want * (1 + btol/100)
        ok="$(awk -v g="$got" -v w="$want" -v t="$btol" \
            'BEGIN { print (g <= w * (1 + t / 100)) ? 1 : 0 }')"
        ratio="$(awk -v g="$got" -v w="$want" 'BEGIN { printf "%.2f", g / w }')"
        if [ "$ok" = 1 ]; then
            echo "bench-compare: ok   $name ${ratio}x of $base baseline"
        else
            echo "bench-compare: FAIL $name ${ratio}x of $base baseline (tolerance ${btol}%)" >&2
            fail=1
        fi
    done <"$TMP/baseline.txt"

    # Second gate: rpcs_per_op, where the baseline records it.
    awk '
        /^    "Benchmark/ { gsub(/[":]/ , "", $1); name = $1 }
        /"rpcs_per_op"/ && name != "" {
            gsub(/[^0-9.]/, "", $2); print name, $2; name = ""
        }' "$base" >"$TMP/baseline_rpcs.txt"
    while read -r name want; do
        got="$(awk -v n="$name" '$1 == n { print $2; exit }' "$TMP/current_rpcs.txt")"
        if [ -z "$got" ]; then
            echo "bench-compare: $base: $name no longer reports rpcs/op" >&2
            fail=1
            continue
        fi
        ok="$(awk -v g="$got" -v w="$want" -v t="$RPCTOL" \
            'BEGIN { print (g <= w * (1 + t / 100)) ? 1 : 0 }')"
        ratio="$(awk -v g="$got" -v w="$want" 'BEGIN { printf "%.2f", g / w }')"
        if [ "$ok" = 1 ]; then
            echo "bench-compare: ok   $name rpcs/op ${ratio}x of $base baseline"
        else
            echo "bench-compare: FAIL $name rpcs/op ${ratio}x of $base baseline (tolerance ${RPCTOL}%)" >&2
            fail=1
        fi
    done <"$TMP/baseline_rpcs.txt"

    # Third gate: allocs_per_op, where the baseline records it. Exact —
    # allocation counts are deterministic, so any increase is a real
    # regression (a pooled buffer back to per-call make, an escaping
    # closure), not noise.
    awk '
        /^    "Benchmark/ { gsub(/[":]/ , "", $1); name = $1 }
        /"allocs_per_op"/ && name != "" {
            gsub(/[^0-9.]/, "", $2); print name, $2; name = ""
        }' "$base" >"$TMP/baseline_allocs.txt"
    while read -r name want; do
        got="$(awk -v n="$name" '$1 == n { print $2; exit }' "$TMP/current_allocs.txt")"
        if [ -z "$got" ]; then
            echo "bench-compare: $base: $name no longer reports allocs/op" >&2
            fail=1
            continue
        fi
        ok="$(awk -v g="$got" -v w="$want" -v t="$atol" \
            'BEGIN { print (g <= w * (1 + t / 100)) ? 1 : 0 }')"
        if [ "$ok" = 1 ]; then
            echo "bench-compare: ok   $name allocs/op $got (baseline $want)"
        else
            echo "bench-compare: FAIL $name allocs/op $got regressed past baseline $want (tolerance ${atol}%)" >&2
            fail=1
        fi
    done <"$TMP/baseline_allocs.txt"
done

exit "$fail"
