#!/bin/sh
# pairs.sh — paired wall-clock comparison of this checkout against a
# git ref, the way a claim on the benchmark is made: same host, runs
# back to back, alternating order.
#
# Usage: scripts/pairs.sh --against REF [--pairs N] [--seed N] [WORKLOAD ...]
#
# REF's committed tree is exported (git archive) into a throwaway
# directory; "head" is this checkout as it stands, uncommitted edits
# included. For each workload (default: all four), N pairs (default
# 5) of `bench/run.sh --workload W --seed SEED --trace 0` are run at
# that script's default run length, the ref first in odd pairs and
# head first in even ones. Every run is printed; then, per end-to-end
# metric, each pair's ratio head/ref, the median ratio with a 95 %
# bootstrap interval (the 2.5th and 97.5th percentiles of the medians
# of 2000 resamples, with replacement, of the pair ratios; awk's
# generator is seeded with 1, so two prints of the same runs agree),
# how many pairs favour head, and the ref's median and interquartile
# range next to head's median. A run whose output is wrong (correct
# false or failed > 0) is reported and makes the exit status 1. `--against
# HEAD` is an A/A run: both sides are the same code, so its spread is
# the noise floor of a claim.
set -eu

ref=""
pairs=5
seed=1
while [ $# -gt 0 ]; do
    case "$1" in
    --against) ref="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    -h | --help) sed -n '2,22p' "$0"; exit 0 ;;
    --*) echo "pairs: unknown flag $1" >&2; exit 2 ;;
    *) break ;;
    esac
done
if [ -z "$ref" ]; then
    echo "pairs: --against REF is required" >&2
    exit 2
fi
workloads="$*"
[ -n "$workloads" ] || workloads="search_ceft scan_pvfs service_mixed ingest_ceft"

head_dir="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
ref_dir="$tmp/ref"
mkdir "$ref_dir"
git -C "$head_dir" archive --format=tar "$ref" | tar -x -C "$ref_dir"
echo "# ref $ref = $(git -C "$head_dir" rev-parse --short "$ref"), head = working tree of $head_dir"
echo "# $pairs pairs per workload, seed $seed; odd pairs run the ref first"

metrics="op_p50_ms ops_per_s setup_s"
bad=0

# run SIDE DIR W: one benchmark run; appends "metric value" lines to
# $tmp/W.SIDE.metric and prints the run.
run() {
    out="$tmp/out"
    (cd "$2" && bash bench/run.sh --workload "$3" --seed "$seed" \
        --trace 0) >"$out" 2>&1 || true
    line="$(grep '^{"correct"' "$out" | tail -n 1)"
    if [ -z "$line" ]; then
        echo "pairs: $3 $1 printed no result:" >&2
        tail -n 5 "$out" >&2
        bad=1
        return
    fi
    correct="$(printf '%s' "$line" | sed -n 's/^{"correct":\([a-z]*\).*/\1/p')"
    failed="$(printf '%s' "$line" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')"
    msg="  $3 pair $i $1:"
    for m in $metrics; do
        v="$(printf '%s' "$line" | sed -n "s/.*\"$m\":{\"value\":\([-0-9.e+]*\).*/\1/p")"
        echo "$v" >>"$tmp/$3.$1.$m"
        msg="$msg $m $v"
    done
    echo "$msg correct $correct failed $failed"
    if [ "$correct" != true ] || [ "$failed" != 0 ]; then
        bad=1
    fi
}

for w in $workloads; do
    echo "== $w"
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) = 1 ]; then
            run ref "$ref_dir" "$w"
            run head "$head_dir" "$w"
        else
            run head "$head_dir" "$w"
            run ref "$ref_dir" "$w"
        fi
        i=$((i + 1))
    done
    for m in $metrics; do
        [ -s "$tmp/$w.ref.$m" ] && [ -s "$tmp/$w.head.$m" ] || continue
        better=lower
        [ "$m" = ops_per_s ] && better=higher
        paste "$tmp/$w.ref.$m" "$tmp/$w.head.$m" | awk -v m="$m" -v better="$better" '
            function quantile(a, n, q,    pos, lo) {
                pos = (n - 1) * q; lo = int(pos)
                return lo + 1 < n ? a[lo] + (pos - lo) * (a[lo + 1] - a[lo]) : a[lo]
            }
            function sort(a, n,    i, j, t) {
                for (i = 1; i < n; i++)
                    for (j = i; j > 0 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
            }
            # bootstrap(a, n, reps): the 95 % percentile interval of the
            # median of reps resamples of a, as "lo hi".
            function bootstrap(a, n, reps,    k, i, b, med) {
                for (k = 0; k < reps; k++) {
                    for (i = 0; i < n; i++) b[i] = a[int(rand() * n)]
                    sort(b, n); med[k] = quantile(b, n, 0.5)
                }
                sort(med, reps)
                return sprintf("%.3f %.3f", quantile(med, reps, 0.025), quantile(med, reps, 0.975))
            }
            BEGIN { n = 0; wins = 0; srand(1) }
            {
                r[n] = $1; h[n] = $2; ratio[n] = ($1 > 0) ? $2 / $1 : 0
                if ((better == "lower" && $2 < $1) || (better == "higher" && $2 > $1)) wins++
                list = list sprintf(" %.3f", ratio[n]); n++
            }
            END {
                sort(r, n); sort(h, n); sort(ratio, n)
                split(bootstrap(ratio, n, 2000), ci, " ")
                printf "  %-10s ratios head/ref%s; median %.3f, 95%% interval [%.3f, %.3f]; head better in %d of %d (%s is better)\n",
                    m, list, quantile(ratio, n, 0.5), ci[1], ci[2], wins, n, better
                printf "  %-10s ref median %.4g, IQR %.4g (q1 %.4g, q3 %.4g); head median %.4g\n",
                    m, quantile(r, n, 0.5), quantile(r, n, 0.75) - quantile(r, n, 0.25),
                    quantile(r, n, 0.25), quantile(r, n, 0.75), quantile(h, n, 0.5)
            }'
    done
done
if [ "$bad" != 0 ]; then
    echo "pairs: some runs were wrong or printed no result" >&2
    exit 1
fi
