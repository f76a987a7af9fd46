#!/bin/sh
# smoke_lib.sh — what every live-cluster smoke shares: a scratch
# directory and the processes started into it, torn down on exit; the
# builds; the PVFS and CEFT boots; the database load; HTTP readiness;
# and closed-loop search load on blastd. A smoke names itself and
# sources it from the repository root's scripts directory:
#
#	SMOKE=alert-smoke
#	. "$(dirname "$0")/smoke_lib.sh"
#
# It works from the repository root: run elsewhere, it moves there
# from the smoke's own path. Every process started through spawn is
# killed on exit.
# shellcheck disable=SC2086 # flag lists are split on purpose
set -eu
[ -f go.mod ] || cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
PIDS=""
trap 'kill $PIDS 2>/dev/null || true; rm -rf "$TMP"' EXIT
trap 'exit 1' INT TERM

# fail MSG [FILE...] prints MSG and each FILE to stderr and exits 1.
fail() {
    echo "$SMOKE: $1" >&2
    shift
    for f in "$@"; do
        echo "--- $f" >&2
        cat "$f" >&2
    done
    exit 1
}

# build NAME... builds each ./cmd/NAME (or ./scripts/NAME) into $TMP.
build() {
    pkgs=""
    for c in "$@"; do
        if [ -d "cmd/$c" ]; then pkgs="$pkgs ./cmd/$c"; else pkgs="$pkgs ./scripts/$c"; fi
    done
    go build -o "$TMP/" $pkgs
}

# spawn NAME CMD... starts CMD in the background, logging to $TMP/NAME.log;
# $! is its PID.
spawn() {
    log="$TMP/$1.log"
    shift
    "$@" >"$log" 2>&1 &
    PIDS="$PIDS $!"
}

# wait_for SECONDS CMD... retries CMD every 0.1 s for up to SECONDS.
wait_for() {
    tries=$(($1 * 10))
    shift
    until "$@" >/dev/null 2>&1; do
        tries=$((tries - 1))
        [ "$tries" -gt 0 ] || return 1
        sleep 0.1
    done
}

# wait_http URL waits up to 10 s for URL to answer 2xx.
wait_http() { wait_for 10 curl -sf "$1"; }

# boot pvfs|ceft BASE [THROTTLE [IDS [debug]]] boots a cluster: its
# manager at BASE, striping 16 KB over two servers, and data server i
# at BASE+1+i, two of them for pvfs, primaries 0-1 and mirrors 2-3 for
# ceft. THROTTLE slows the disks of the servers IDS lists (default 0,
# the paper's stressed disk). debug gives the manager a debug endpoint
# at BASE+10 and server i one at BASE+11+i, and lists them as
# DEBUG_TARGETS (mgr=ADDR,iod0=ADDR,...). It returns once every daemon
# serves, with MGR set and the client flags in PVFS or CEFT.
boot() {
    kind=$1 base=$2 throttle=${3:-} throttled=${4:-0} debug=${5:-}
    MGR="127.0.0.1:$base"
    flags=""
    if [ -n "$debug" ]; then
        flags="-debug-addr 127.0.0.1:$((base + 10))"
        DEBUG_TARGETS="mgr=127.0.0.1:$((base + 10))"
    fi
    spawn "$kind-mgr" "$TMP/pvfsmgr" -listen "$MGR" -servers 2 -stripe 16KB $flags
    n=2
    [ "$kind" = pvfs ] || n=4
    addrs=""
    id=0
    while [ "$id" -lt "$n" ]; do
        flags=""
        case " $throttled " in *" $id "*) [ -z "$throttle" ] || flags="-throttle $throttle" ;; esac
        if [ -n "$debug" ]; then
            flags="$flags -debug-addr 127.0.0.1:$((base + 11 + id))"
            DEBUG_TARGETS="$DEBUG_TARGETS,iod$id=127.0.0.1:$((base + 11 + id))"
        fi
        mkdir -p "$TMP/$kind-store$id"
        spawn "$kind-iod$id" "$TMP/pvfsd" -id "$id" -listen "127.0.0.1:$((base + 1 + id))" \
            -store "$TMP/$kind-store$id" -mgr "$MGR" $flags
        addrs="$addrs 127.0.0.1:$((base + 1 + id))"
        id=$((id + 1))
    done
    for log in "$TMP/$kind"-*.log; do
        wait_for 10 grep -q 'msg=serving' "$log" || fail "a $kind daemon never came up" "$log"
    done
    set -- $addrs
    if [ "$kind" = pvfs ]; then
        PVFS="-mgr $MGR -servers $1,$2"
    else
        CEFT="-mgr $MGR -primary $1,$2 -mirror $3,$4"
    fi
}

# load_db loads a generated 2 MB database nt, in 8 fragments, onto the
# CEFT cluster boot started.
load_db() {
    "$TMP/formatdb" -db nt -fragments 8 -generate 2MB -io ceft $CEFT >"$TMP/formatdb.log" 2>&1 ||
        fail "formatdb failed" "$TMP/formatdb.log"
}

# bodies SEED CLIENT FRESH prints /search bodies on nt for client
# load-CLIENT without end: each a never-seen query with probability
# FRESH, else one of a pool of 8 that SEED fixes. SEED and CLIENT, a
# number, fix the stream. Query lengths span 120-479 bases, 0.5-2x a
# 240-base query.
bodies() {
    awk -v seed="$1" -v c="$2" -v fresh="$3" '
        function query(id,    n, s, i) {
            n = 120 + int(rand() * 360)
            s = ""
            for (i = 0; i < n; i++) s = s substr("ACGT", int(rand() * 4) + 1, 1)
            return ">" id "\\n" s
        }
        BEGIN {
            srand(seed)
            for (q = 0; q < 8; q++) pool[q] = query("pool" seed "-" q)
            srand(seed * 7919 + c + 1)
            for (k = 0; ; k++) {
                q = rand() < fresh ? query("fresh" seed "-" c "-" k) : pool[int(rand() * 8)]
                printf "{\"db\":\"nt\",\"query\":\"%s\",\"client\":\"load-%s\"}\n", q, c
            }
        }'
}

# search URL prints the HTTP status of one POST of stdin to URL/search
# (000 when the request fails outright).
search() {
    curl -s -o /dev/null -w '%{http_code}\n' --max-time 60 -X POST \
        -H 'Content-Type: application/json' --data-binary @- "$1/search" || true
}

# load URL CLIENTS SECONDS FRESH SEED runs CLIENTS closed-loop clients,
# load-0 onwards, each posting the next of its bodies to URL/search as
# soon as the last one answers, until SECONDS have passed. It probes
# once first, failing if the probe is refused, and prints the number of
# replies that were not 200.
load() {
    url=$1 clients=$2 fresh=$4 seed=$5
    end=$(($(date +%s) + $3))
    probe=$(bodies "$seed" "$clients" 0 | head -n 1 | search "$url")
    [ "$probe" = 200 ] || fail "load: probe request answered $probe"
    dir=$(mktemp -d "$TMP/load.XXXXXX")
    lpids=""
    c=0
    while [ "$c" -lt "$clients" ]; do
        bodies "$seed" "$c" "$fresh" | while read -r body && [ "$(date +%s)" -lt "$end" ]; do
            printf '%s' "$body" | search "$url"
        done >"$dir/$c" &
        lpids="$lpids $!"
        c=$((c + 1))
    done
    wait $lpids
    cat "$dir"/* | grep -vc '^200$' || true
}
