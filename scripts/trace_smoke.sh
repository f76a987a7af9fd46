#!/bin/sh
# trace_smoke.sh — end-to-end check of per-query distributed tracing:
# boot a CEFT mini cluster (mgr + 2 primary + 2 mirror data servers,
# one throttled so searches are slow enough to queue behind), serve it
# with blastd at -max-concurrent 1, run one query to occupy the slot
# and a second distinct query that must wait, and require for the
# second query's trace ID:
#   - the /search response carries it (X-Pario-Trace header and
#     trace_id body field, equal),
#   - blastd's /debug/traces?trace=<id> decomposes it into request,
#     queue, cache, task and search spans,
#   - at least one data server's /debug/traces holds a serve:* span
#     with the same ID (the trace crossed process boundaries),
#   - /debug/queries reports the query with a non-zero queue wait,
#   - /metrics links the request-latency histogram to it via a
#     trace_id exemplar,
#   - pariostat -query renders the assembled cross-process timeline.
# Exercised by `make trace-smoke` (part of `make check`).
# shellcheck disable=SC2086 # $CEFT is a flag list
SMOKE=trace-smoke
. "$(dirname "$0")/smoke_lib.sh"

BASE="${TRACE_SMOKE_PORT:-19600}"
build pvfsmgr pvfsd formatdb blastd pariostat
# Every server gets a debug endpoint so its span ring can be scraped.
# iod0 is throttled so a fresh search takes long enough for a second
# query to queue behind it.
boot ceft "$BASE" 2ms 0 debug
load_db

HTTP="127.0.0.1:$((BASE + 20))"
spawn blastd "$TMP/blastd" -listen "$HTTP" -db nt -io ceft $CEFT \
    -workers 2 -max-concurrent 1 -chunk 32768 -slow-query 1ms
wait_http "http://$HTTP/healthz" || fail "blastd never came up" "$TMP/blastd.log"

# Two distinct never-seen queries, so both are cache misses that run
# real backend searches.
bodies 1 0 1 | head -n 1 >"$TMP/qA.json"
bodies 2 0 1 | head -n 1 >"$TMP/qB.json"

# Query A occupies the single execution slot; query B arrives while A
# is still reading off the throttled disk and must wait in the queue.
curl -sf -X POST -d @"$TMP/qA.json" "http://$HTTP/search" >"$TMP/respA.json" &
CURL_A=$!
sleep 0.3
curl -sf -D "$TMP/headersB.txt" -X POST -d @"$TMP/qB.json" \
    "http://$HTTP/search" >"$TMP/respB.json" || fail "query B failed" "$TMP/blastd.log"
wait "$CURL_A" || fail "query A failed" "$TMP/blastd.log"

# The response must carry the trace ID twice, consistently.
TID=$(tr -d '\r' <"$TMP/headersB.txt" | awk -F': ' 'tolower($1) == "x-pario-trace" {print $2}')
echo "$TID" | grep -Eq '^[0-9a-f]{16}$' ||
    fail "bad or missing X-Pario-Trace header: '$TID'" "$TMP/headersB.txt"
grep -q "\"trace_id\":\"$TID\"" "$TMP/respB.json" ||
    fail "response body trace_id does not match header $TID" "$TMP/respB.json"

# blastd's span ring must decompose the query into every service-side
# span kind.
curl -sf "http://$HTTP/debug/traces?trace=$TID" >"$TMP/traceB.json"
for kind in request queue cache task search; do
    grep -q "\"name\":\"$kind\"" "$TMP/traceB.json" ||
        fail "trace $TID has no '$kind' span:" "$TMP/traceB.json"
done

# The same trace ID must appear as a serve:* span on at least one data
# server: the trace crossed into a second process.
served=""
for i in 0 1 2 3; do
    curl -sf "http://127.0.0.1:$((BASE + 11 + i))/debug/traces?trace=$TID" |
        grep -q '"name":"serve:' && served=1
done
[ -n "$served" ] || fail "no data server holds a serve:* span for $TID"

# The flight recorder must report the query with a real queue wait.
curl -sf "http://$HTTP/debug/queries" >"$TMP/queries.json"
grep -q "\"trace_id\":\"$TID\"" "$TMP/queries.json" ||
    fail "/debug/queries does not list trace $TID:" "$TMP/queries.json"
QUEUE_MS=$(sed -n "s/.*\"trace_id\":\"$TID\"[^}]*\"queue_ms\":\([0-9.]*\).*/\1/p" "$TMP/queries.json")
awk -v q="$QUEUE_MS" 'BEGIN { exit !(q + 0 > 0) }' ||
    fail "query B shows no queue wait (queue_ms='$QUEUE_MS'):" "$TMP/queries.json"

# The request-latency histogram must link back to the trace through an
# exemplar.
curl -sf "http://$HTTP/metrics" >"$TMP/metrics.txt"
grep "pario_blastd_request_seconds" "$TMP/metrics.txt" >"$TMP/latency.txt" || true
grep "pario_blastd_request_seconds_bucket" "$TMP/latency.txt" | grep -q "trace_id=\"$TID\"" ||
    fail "no request-latency exemplar for $TID:" "$TMP/latency.txt"

# pariostat must assemble and render the cross-process timeline.
"$TMP/pariostat" -query "$TID" -targets "blastd=$HTTP,$DEBUG_TARGETS" >"$TMP/gantt.txt" 2>"$TMP/gantt.err" ||
    fail "pariostat -query failed:" "$TMP/gantt.err"
for want in "query trace $TID" "queue" "serve:" "Phases"; do
    grep -q "$want" "$TMP/gantt.txt" || fail "pariostat rendering lacks '$want':" "$TMP/gantt.txt"
done

echo "trace-smoke: ok (one trace ID spans HTTP, queue, tasks and serve:* across processes; exemplar and flight recorder agree)"
