#!/bin/sh
# metrics_smoke.sh — boot one pvfsd with -debug-addr, scrape /metrics,
# and require the metric families the observability docs promise.
# Exercised by `make metrics-smoke` (part of `make check`).
SMOKE=metrics-smoke
. "$(dirname "$0")/smoke_lib.sh"

PORT="${METRICS_SMOKE_PORT:-19190}"
build pvfsd
mkdir -p "$TMP/store"
spawn pvfsd "$TMP/pvfsd" -id 0 -store "$TMP/store" -listen 127.0.0.1:0 \
    -debug-addr "127.0.0.1:$PORT"

SCRAPE="$TMP/metrics"
wait_http "http://127.0.0.1:$PORT/metrics" || fail "/metrics never came up; daemon log:" "$TMP/pvfsd.log"
curl -sf "http://127.0.0.1:$PORT/metrics" >"$SCRAPE"

status=0
for family in \
    pario_iod_inflight \
    pario_iod_load \
    pario_iod_bytes_per_second \
    pario_iod_bytes_served_total \
    pario_server_requests_total \
    pario_build_info \
    pario_process_start_time_seconds; do
    if ! grep -q "^# HELP $family " "$SCRAPE"; then
        echo "metrics-smoke: missing family $family" >&2
        status=1
    fi
done

# The traces and pprof endpoints must answer too.
curl -sf "http://127.0.0.1:$PORT/debug/traces" >/dev/null ||
    { echo "metrics-smoke: /debug/traces failed" >&2; status=1; }
curl -sf "http://127.0.0.1:$PORT/debug/pprof/cmdline" >/dev/null ||
    { echo "metrics-smoke: /debug/pprof failed" >&2; status=1; }

if [ "$status" -eq 0 ]; then
    echo "metrics-smoke: ok ($(grep -c '^# HELP' "$SCRAPE") families exposed)"
fi
exit "$status"
