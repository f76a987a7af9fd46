#!/bin/sh
# report_smoke.sh — end-to-end run-report check: boot a CEFT mini
# cluster (mgr + 2 primary + 2 mirror data servers, iod0 with an
# emulated slow disk), load a small database straight onto it, run a
# parallel search with -report, and require the report to show a
# populated timeline, cross-process traces, per-server load imbalance,
# and a hot-spot audit naming the stressed server with rerouted reads.
# Exercised by `make report-smoke` (part of `make check`).
set -eu

BASE="${REPORT_SMOKE_PORT:-19300}"
TMP="$(mktemp -d)"
PIDS=""
trap 'kill $PIDS 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

go build -o "$TMP/pvfsmgr" ./cmd/pvfsmgr
go build -o "$TMP/pvfsd" ./cmd/pvfsd
go build -o "$TMP/formatdb" ./cmd/formatdb
go build -o "$TMP/mpiblast" ./cmd/mpiblast
go build -o "$TMP/pariostat" ./cmd/pariostat
go build -o "$TMP/reportcheck" ./scripts/reportcheck

MGR="127.0.0.1:$BASE"
MGR_DEBUG="127.0.0.1:$((BASE + 10))"
"$TMP/pvfsmgr" -listen "$MGR" -servers 2 -stripe 16KB \
    -debug-addr "$MGR_DEBUG" >"$TMP/mgr.log" 2>&1 &
PIDS="$PIDS $!"

# Four data servers: iod0/iod1 primary, iod2/iod3 mirror. iod0 gets a
# throttled disk, standing in for the paper's disk-stressed server.
COLLECT="mgr=$MGR_DEBUG"
i=0
while [ "$i" -lt 4 ]; do
    THROTTLE=""
    [ "$i" -eq 0 ] && THROTTLE="-throttle 4ms"
    DEBUG="127.0.0.1:$((BASE + 11 + i))"
    mkdir -p "$TMP/store$i"
    # shellcheck disable=SC2086
    "$TMP/pvfsd" -id "$i" -listen "127.0.0.1:$((BASE + 1 + i))" \
        -store "$TMP/store$i" -mgr "$MGR" $THROTTLE \
        -debug-addr "$DEBUG" >"$TMP/iod$i.log" 2>&1 &
    PIDS="$PIDS $!"
    COLLECT="$COLLECT,iod$i=$DEBUG"
    i=$((i + 1))
done
PRIMARY="127.0.0.1:$((BASE + 1)),127.0.0.1:$((BASE + 2))"
MIRROR="127.0.0.1:$((BASE + 3)),127.0.0.1:$((BASE + 4))"

# Wait for every debug endpoint to answer.
for port in 10 11 12 13 14; do
    ok=""
    i=0
    while [ "$i" -lt 50 ]; do
        if curl -sf "http://127.0.0.1:$((BASE + port))/metrics" >/dev/null 2>&1; then
            ok=1
            break
        fi
        i=$((i + 1))
        sleep 0.1
    done
    if [ -z "$ok" ]; then
        echo "report-smoke: endpoint on port offset $port never came up" >&2
        cat "$TMP"/*.log >&2
        exit 1
    fi
done

# Load a small synthetic database straight onto the CEFT store, then
# search it with three queries so the batch scheduler has real work.
"$TMP/formatdb" -db nt -fragments 8 -generate 2MB -io ceft \
    -mgr "$MGR" -primary "$PRIMARY" -mirror "$MIRROR" >"$TMP/formatdb.log" 2>&1

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
"$TMP/mpiblast" -db nt -query "$TMP/q.fasta" -workers 4 -io ceft \
    -mgr "$MGR" -primary "$PRIMARY" -mirror "$MIRROR" \
    -chunk 4096 -hot-factor 1.2 -min-hot-load 0.05 \
    -report "$REPORT" -collect "$COLLECT" \
    >"$TMP/search.out" 2>"$TMP/search.log"

if [ ! -s "$REPORT" ]; then
    echo "report-smoke: no report written; run log:" >&2
    cat "$TMP/search.log" >&2
    exit 1
fi

# The schema-level assertions: sections populated, collection clean,
# hot-spot audit pointing at the throttled server with >0 reroutes.
if ! "$TMP/reportcheck" -report "$REPORT" -min-iods 4 -hot-server iod0; then
    echo "report-smoke: report failed validation; report follows:" >&2
    cat "$REPORT" >&2
    echo "report-smoke: run log:" >&2
    cat "$TMP/search.log" >&2
    exit 1
fi

# pariostat must render and diff the artifact.
"$TMP/pariostat" "$REPORT" >/dev/null
"$TMP/pariostat" "$REPORT" "$REPORT" >/dev/null

echo "report-smoke: ok"
