#!/bin/sh
# collio_smoke.sh — end-to-end collective-I/O check: boot a PVFS mini
# cluster (mgr + 4 data servers), load a small database onto it, run a
# parallel search with -collio -report, and require the run report's
# collective-I/O section to show real rounds with registered ranges
# merged into fewer fetched segments. This exercises the CLI wiring
# (flags -> core.WorkerFlags -> pblast.WithCollectiveIO -> shared
# aggregator -> telemetry -> obsreport) that the unit tests cannot.
# Exercised by `make collio-smoke` (part of `make check`).
set -eu

BASE="${COLLIO_SMOKE_PORT:-19500}"
TMP="$(mktemp -d)"
PIDS=""
trap 'kill $PIDS 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

go build -o "$TMP/pvfsmgr" ./cmd/pvfsmgr
go build -o "$TMP/pvfsd" ./cmd/pvfsd
go build -o "$TMP/formatdb" ./cmd/formatdb
go build -o "$TMP/mpiblast" ./cmd/mpiblast

MGR="127.0.0.1:$BASE"
"$TMP/pvfsmgr" -listen "$MGR" -servers 4 -stripe 64KB >"$TMP/mgr.log" 2>&1 &
PIDS="$PIDS $!"

SERVERS=""
i=0
while [ "$i" -lt 4 ]; do
    ADDR="127.0.0.1:$((BASE + 1 + i))"
    mkdir -p "$TMP/store$i"
    "$TMP/pvfsd" -id "$i" -listen "$ADDR" -store "$TMP/store$i" \
        -mgr "$MGR" >"$TMP/iod$i.log" 2>&1 &
    PIDS="$PIDS $!"
    SERVERS="$SERVERS,$ADDR"
    i=$((i + 1))
done
SERVERS="${SERVERS#,}"
sleep 0.5

"$TMP/formatdb" -db nt -fragments 8 -generate 2MB -io pvfs \
    -mgr "$MGR" -servers "$SERVERS" >"$TMP/formatdb.log" 2>&1

{
    echo ">q1"
    head -c 400 /dev/urandom | od -An -tx1 | tr -d ' \n' | tr '0123456789abcdef' 'ACGTACGTACGTACGT' | head -c 240
    echo
} >"$TMP/q.fasta"

REPORT="$TMP/run.json"
"$TMP/mpiblast" -db nt -query "$TMP/q.fasta" -workers 4 -threads 2 \
    -io pvfs -mgr "$MGR" -servers "$SERVERS" \
    -collio -collio-fanin 0 -collio-window 5ms \
    -report "$REPORT" >"$TMP/search.out" 2>"$TMP/search.log"

if [ ! -s "$REPORT" ]; then
    echo "collio-smoke: no report written; run log:" >&2
    cat "$TMP/search.log" >&2
    exit 1
fi

# The report's collective_io section must show the layer actually ran:
# enabled, rounds > 0, and ranges >= merged segments (merging is a
# contraction, never an expansion).
python3 - "$REPORT" <<'PY'
import json, sys
rep = json.load(open(sys.argv[1]))
c = rep.get("collective_io") or {}
if not c.get("enabled"):
    sys.exit("collio-smoke: collective_io not enabled in report: %r" % c)
rounds = c.get("rounds", 0)
ranges = c.get("ranges", 0)
merged = c.get("merged_segments", 0)
if rounds <= 0 or ranges <= 0 or merged <= 0:
    sys.exit("collio-smoke: empty collective_io stats: %r" % c)
if merged > ranges:
    sys.exit("collio-smoke: merged segments %d > registered ranges %d" % (merged, ranges))
print("collio-smoke: %d rounds, %d ranges -> %d segments" % (rounds, ranges, merged))
PY

# The human rendering must carry the section too.
if ! grep -q "Collective I/O" "$TMP/search.log"; then
    echo "collio-smoke: rendered report lacks the Collective I/O section" >&2
    cat "$TMP/search.log" >&2
    exit 1
fi

echo "collio-smoke: ok"
