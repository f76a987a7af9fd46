#!/bin/sh
# report_smoke.sh — end-to-end run-report check: boot a CEFT mini
# cluster (mgr + 2 primary + 2 mirror data servers, iod0 with an
# emulated slow disk), load a small database straight onto it, run a
# parallel search with -report, and require the report to show a
# populated timeline, cross-process traces, per-server load imbalance,
# and a hot-spot audit naming the stressed server with rerouted reads.
# Exercised by `make report-smoke` (part of `make check`).
# shellcheck disable=SC2086 # $CEFT is a flag list
SMOKE=report-smoke
. "$(dirname "$0")/smoke_lib.sh"

BASE="${REPORT_SMOKE_PORT:-19300}"
build pvfsmgr pvfsd formatdb mpiblast pariostat reportcheck
# iod0 gets a throttled disk, standing in for the paper's
# disk-stressed server; every daemon's debug endpoint is collected.
boot ceft "$BASE" 4ms 0 debug

# Load a small synthetic database straight onto the CEFT store, then
# search it with three queries so the batch scheduler has real work.
load_db
{
    echo ">q1"
    head -c 400 /dev/urandom | od -An -tx1 | tr -d ' \n' | tr '0123456789abcdef' 'ACGTACGTACGTACGT' | head -c 240
    echo
    echo ">q2"
    head -c 400 /dev/urandom | od -An -tx1 | tr -d ' \n' | tr '0123456789abcdef' 'GTCAGTCAGTCAGTCA' | head -c 240
    echo
    echo ">q3"
    head -c 400 /dev/urandom | od -An -tx1 | tr -d ' \n' | tr '0123456789abcdef' 'TTAACCGGTTAACCGG' | head -c 240
    echo
} >"$TMP/q.fasta"

REPORT="$TMP/run.json"
"$TMP/mpiblast" -db nt -query "$TMP/q.fasta" -workers 4 -io ceft $CEFT \
    -chunk 4096 -hot-factor 1.2 -min-hot-load 0.05 \
    -report "$REPORT" -collect "$DEBUG_TARGETS" \
    >"$TMP/search.out" 2>"$TMP/search.log" || fail "mpiblast failed" "$TMP/search.log"
[ -s "$REPORT" ] || fail "no report written; run log:" "$TMP/search.log"

# The schema-level assertions: sections populated, collection clean,
# hot-spot audit pointing at the throttled server with >0 reroutes.
"$TMP/reportcheck" -report "$REPORT" -min-iods 4 -hot-server iod0 ||
    fail "report failed validation; report and run log follow:" "$REPORT" "$TMP/search.log"

# pariostat must render and diff the artifact.
"$TMP/pariostat" "$REPORT" >/dev/null
"$TMP/pariostat" "$REPORT" "$REPORT" >/dev/null

echo "report-smoke: ok"
