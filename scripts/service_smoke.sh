#!/bin/sh
# service_smoke.sh — end-to-end check of the blastd service: boot a
# CEFT mini cluster (mgr + 2 primary + 2 mirror data servers), load a
# small database onto it, start blastd over CEFT with a deliberately
# small execution-slot budget, hammer it with 8 concurrent closed-loop
# clients, and require:
#   - zero failed requests across the run,
#   - a query holding a digit answered 400 with a JSON error,
#   - admission queue depth > 0 at peak (the slots saturated),
#   - cache hits > 0 (repeat queries served from the result cache),
#   - POST /admin/invalidate?db=nt after nt is re-formatted answered 200
#     with the new version, and a repeat of an earlier query then a
#     cache miss; a missing or unknown db answered with a JSON error,
#   - a clean drain on SIGTERM (in-flight work finishes, process exits).
# Exercised by `make service-smoke` (part of `make check`).
# shellcheck disable=SC2086 # $CEFT is a flag list
SMOKE=service-smoke
. "$(dirname "$0")/smoke_lib.sh"

BASE="${SERVICE_SMOKE_PORT:-19400}"
build pvfsmgr pvfsd formatdb blastd
boot ceft "$BASE"
load_db

HTTP="127.0.0.1:$((BASE + 20))"
spawn blastd "$TMP/blastd" -listen "$HTTP" -db nt -io ceft $CEFT \
    -workers 4 -max-concurrent 2 -queue-depth 32 -max-per-client 16
BLASTD_PID=$!
wait_http "http://$HTTP/healthz" || fail "blastd never came up" "$TMP/blastd.log"

# 8 concurrent closed-loop clients; 30% fresh queries saturate the
# 2 execution slots so the admission queue builds, while the repeats
# exercise the result cache.
FAILED=$(load "http://$HTTP" 8 4 0.3 1)
[ "$FAILED" = 0 ] || fail "$FAILED failed requests under load" "$TMP/blastd.log"

# One query holding a digit: the error reply (status from the error,
# JSON body) runs on every pass, not only when the load hits a limit.
BAD="$TMP/bad.json"
code=$(curl -s -o "$BAD" -w '%{http_code}' --max-time 10 -X POST \
    -H 'Content-Type: application/json' \
    --data-binary '{"db":"nt","query":">bad\nACGT1234ACGT","client":"smoke-bad"}' \
    "http://$HTTP/search" || true)
[ "$code" = 400 ] || fail "a query holding a digit was answered $code, want 400" "$BAD"
grep -q '"error":' "$BAD" || fail "the 400 reply carries no JSON error:" "$BAD"

METRICS="$TMP/metrics.txt"
curl -sf "http://$HTTP/metrics" >"$METRICS"
depth_peak=$(awk '$1 == "pario_blastd_queue_depth_peak" {print $2}' "$METRICS")
cache_hits=$(awk '$1 == "pario_blastd_cache_hits_total" {print $2}' "$METRICS")
[ "${depth_peak%%.*}" -ge 1 ] 2>/dev/null ||
    fail "queue depth never rose above 0 (peak=$depth_peak)" "$METRICS"
[ "${cache_hits%%.*}" -ge 1 ] 2>/dev/null ||
    fail "no cache hits recorded (hits=$cache_hits)" "$METRICS"

# Invalidation: re-format nt with other content, then re-version it.
# The reply names the new version, and the first pool query, asked
# before, is answered afresh under it.
post() {
    out=$1
    shift
    curl -s -o "$TMP/$out.json" -w '%{http_code}' --max-time 60 -X POST "$@" || true
}
field() { grep -o "\"$2\":\"\{0,1\}[^\",}]*" "$TMP/$1.json" | head -n 1 | sed 's/.*:"\{0,1\}//'; }
bodies 1 0 0 | head -n 1 >"$TMP/query.body"
code=$(post before -H 'Content-Type: application/json' --data-binary @"$TMP/query.body" "http://$HTTP/search")
[ "$code" = 200 ] || fail "the query before invalidation was answered $code" "$TMP/before.json"
"$TMP/formatdb" -db nt -fragments 8 -generate 1MB -io ceft $CEFT >"$TMP/reformat.log" 2>&1 ||
    fail "re-formatting nt failed" "$TMP/reformat.log"
code=$(post invalidate "http://$HTTP/admin/invalidate?db=nt")
[ "$code" = 200 ] || fail "invalidating nt was answered $code" "$TMP/invalidate.json"
old=$(field before db_version) new=$(field invalidate version)
[ -n "$new" ] && [ "$new" != "$old" ] ||
    fail "invalidating nt gave version '$new', want a new one (was '$old')" "$TMP/invalidate.json"
misses() { curl -sf "http://$HTTP/metrics" | awk '$1 == "pario_blastd_cache_misses_total" {print int($2)}'; }
m0=$(misses)
code=$(post after -H 'Content-Type: application/json' --data-binary @"$TMP/query.body" "http://$HTTP/search")
[ "$code" = 200 ] || fail "the query after invalidation was answered $code" "$TMP/after.json"
[ "$(field after db_version)" = "$new" ] && [ "$(field after cached)" = false ] && [ "$(misses)" -gt "$m0" ] ||
    fail "the repeated query after invalidation was not a cache miss under version $new" "$TMP/after.json"
for q in "" "?db=nope"; do
    got=$(post bad-invalidate -w '%{http_code} %{content_type}' "http://$HTTP/admin/invalidate$q")
    case "$got" in 4??" application/json"*) ;; *) fail "invalidate$q was answered '$got', want a 4xx in JSON" "$TMP/bad-invalidate.json" ;; esac
    grep -q '"error":' "$TMP/bad-invalidate.json" || fail "invalidate$q: no JSON error" "$TMP/bad-invalidate.json"
done

# Clean drain: SIGTERM under a trickle of load; the process must log
# a clean drain and exit on its own.
(load "http://$HTTP" 2 2 1 2 >/dev/null 2>&1 || true) &
TRICKLE=$!
sleep 0.5
kill -TERM "$BLASTD_PID"
gone() { ! kill -0 "$1"; }
wait_for 20 gone "$BLASTD_PID" || fail "blastd did not exit after SIGTERM" "$TMP/blastd.log"
grep -q "drained cleanly" "$TMP/blastd.log" ||
    fail "no clean-drain record in the log:" "$TMP/blastd.log"
wait "$TRICKLE"

echo "service-smoke: ok (queue peak $depth_peak, cache hits $cache_hits, nt re-versioned $old -> $new)"
