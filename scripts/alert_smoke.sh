#!/bin/sh
# alert_smoke.sh — end-to-end check of the live monitoring stack: boot
# a CEFT mini cluster (mgr + 2 primary + 2 mirror data servers) with
# one deliberately throttled disk, serve it with blastd running the
# in-process monitor, push sustained fresh-query load so the CEFT
# hot-spot logic routes reads around the slow server (doubling its
# mirror partner's RPC rate), and require:
#   - the server_skew alert FIRES on /debug/alerts while the load
#     runs, naming the offending server in its subject,
#   - the alert RESOLVES after the load stops and the rate window
#     drains,
#   - pariotop (plain mode) renders non-zero per-server RPC rates
#     computed from consecutive scrapes of the live endpoints.
# Exercised by `make alert-smoke` (part of `make check`).
# shellcheck disable=SC2086 # $CEFT is a flag list
SMOKE=alert-smoke
. "$(dirname "$0")/smoke_lib.sh"

BASE="${ALERT_SMOKE_PORT:-19500}"
build pvfsmgr pvfsd formatdb blastd pariotop
# iod0 gets a throttled disk, standing in for the paper's
# disk-stressed server.
boot ceft "$BASE" 4ms
load_db

# Sensitive hot-spot thresholds (the defaults are tuned for real
# disks) so the throttled server is flagged and skipped quickly; a
# small read chunk multiplies the RPC count so rates are measurable.
HTTP="127.0.0.1:$((BASE + 20))"
spawn blastd "$TMP/blastd" -listen "$HTTP" -db nt -io ceft $CEFT \
    -workers 4 -max-concurrent 4 -chunk 4096 \
    -hot-factor 1.2 -min-hot-load 0.05 \
    -monitor-interval 500ms
wait_http "http://$HTTP/healthz" || fail "blastd never came up" "$TMP/blastd.log"

# Sustained all-fresh load: every request runs a real backend search
# over CEFT, so the hot-spot skip shifts read traffic onto the slow
# server's mirror partner and the per-server RPC rates diverge.
load "http://$HTTP" 8 15 1 1 >"$TMP/load.log" 2>&1 &
LOAD_PID=$!

# While the load runs, capture a few pariotop frames off the live
# endpoint — rates need two scrapes, so frame 1 may still show zeros.
sleep 3
"$TMP/pariotop" -targets "blastd=$HTTP" -interval 1s -frames 4 -plain \
    >"$TMP/pariotop.txt" 2>&1 || fail "pariotop failed" "$TMP/pariotop.txt"

# alert STATE saves /debug/alerts and succeeds once server_skew is in
# STATE there.
ALERTS="$TMP/alerts.json"
alert() {
    curl -sf "http://$HTTP/debug/alerts" >"$ALERTS" || true
    grep -q "\"rule\":\"server_skew\",\"state\":\"$1\"" "$ALERTS"
}

# The skew alert must fire within the load window, naming the hot
# server.
wait_for 20 alert firing ||
    fail "server_skew never fired; last /debug/alerts:" "$ALERTS" "$TMP/blastd.log"
grep -q '"subject":"' "$ALERTS" ||
    fail "firing skew alert names no offending server:" "$ALERTS"
grep -q "alert firing" "$TMP/blastd.log" ||
    fail "no firing line in the service log" "$TMP/blastd.log"

# After the load ends the rate window drains below the rule's minimum
# activity gate and the alert must resolve.
wait "$LOAD_PID" || true
wait_for 30 alert resolved ||
    fail "server_skew never resolved after the load stopped:" "$ALERTS"
grep -q "alert resolved" "$TMP/blastd.log" ||
    fail "no resolved line in the service log" "$TMP/blastd.log"

# pariotop must have rendered real per-server client RPC rates (a row
# with a non-zero rpc/s figure under the by-server section).
grep -q "CLIENT RPC BY SERVER" "$TMP/pariotop.txt" ||
    fail "pariotop never rendered the per-server section:" "$TMP/pariotop.txt"
awk '/CLIENT RPC BY SERVER/{insec=1; next} /^$/{insec=0}
     insec && $2 + 0 > 0 {found=1} END{exit !found}' "$TMP/pariotop.txt" ||
    fail "pariotop shows no non-zero per-server RPC rate:" "$TMP/pariotop.txt"

echo "alert-smoke: ok (skew fired and resolved; pariotop rendered live rates)"
