#!/bin/sh
# cli_smoke.sh — end-to-end check of the storage CLIs and of mpiblast's
# two ways of placing workers, over real daemons: boot a PVFS mini
# cluster (mgr + 2 data servers, throttled so copy time is measurable)
# and a CEFT one (mgr + 2 primary + 2 mirror), then
#   - formatdb the same FASTA onto local disk, PVFS and CEFT, and
#     dbinfo -verify each copy (PVFS through the legacy "-mgr without
#     -io" spelling);
#   - pariocp a fragment out of CEFT, byte-compare it with the local
#     one, and -ls it on both parallel stores;
#   - search a two-query FASTA with mpiblast in-process (with and
#     without -readahead), distributed (-router, two worker processes),
#     and distributed with -scratch, requiring identical hit lines from
#     all four and from serial blastn on the local copy, a non-zero copy
#     time under -scratch and the fragments present in the workers'
#     scratch directories;
#   - run the same pair for megablast: serial blastn -megablast on the
#     local copy against in-process mpiblast -megablast -readahead over
#     CEFT. Serial blastn decodes subjects into payloads it owns,
#     -readahead lends borrowed cache-block views; both reach the same
#     packed kernel and must print the same hit lines;
#   - run DUST (-F) through the parallel path: a third query made only
#     of a dinucleotide repeat hits the database's one repeat subject
#     unfiltered and nothing under -F, and in-process and distributed
#     mpiblast -F must print serial blastn -F's hit lines;
#   - require blastn to refuse a megablast word longer than 31 bases.
# Exercised by `make cli-smoke` (part of `make check`).
set -eu

BASE="${CLI_SMOKE_PORT:-19700}"
TMP="$(mktemp -d)"
PIDS=""
trap 'kill $PIDS 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

for cmd in pvfsmgr pvfsd formatdb dbinfo pariocp mpiblast blastn; do
    go build -o "$TMP/$cmd" "./cmd/$cmd"
done

fail() {
    echo "cli-smoke: $1" >&2
    shift
    for f in "$@"; do
        echo "--- $f" >&2
        cat "$f" >&2
    done
    exit 1
}

# PVFS: mgr at BASE, data servers at BASE+1..2.
PMGR="127.0.0.1:$BASE"
"$TMP/pvfsmgr" -listen "$PMGR" -servers 2 -stripe 16KB >"$TMP/pmgr.log" 2>&1 &
PIDS="$PIDS $!"
SERVERS=""
i=0
while [ "$i" -lt 2 ]; do
    ADDR="127.0.0.1:$((BASE + 1 + i))"
    mkdir -p "$TMP/pstore$i"
    "$TMP/pvfsd" -id "$i" -listen "$ADDR" -store "$TMP/pstore$i" -mgr "$PMGR" \
        -throttle 200us >"$TMP/piod$i.log" 2>&1 &
    PIDS="$PIDS $!"
    SERVERS="$SERVERS,$ADDR"
    i=$((i + 1))
done
SERVERS="${SERVERS#,}"

# CEFT: mgr at BASE+10, primaries at BASE+11..12, mirrors at BASE+13..14.
CMGR="127.0.0.1:$((BASE + 10))"
"$TMP/pvfsmgr" -listen "$CMGR" -servers 2 -stripe 16KB >"$TMP/cmgr.log" 2>&1 &
PIDS="$PIDS $!"
i=0
while [ "$i" -lt 4 ]; do
    mkdir -p "$TMP/cstore$i"
    "$TMP/pvfsd" -id "$i" -listen "127.0.0.1:$((BASE + 11 + i))" \
        -store "$TMP/cstore$i" -mgr "$CMGR" >"$TMP/ciod$i.log" 2>&1 &
    PIDS="$PIDS $!"
    i=$((i + 1))
done
PRIMARY="127.0.0.1:$((BASE + 11)),127.0.0.1:$((BASE + 12))"
MIRROR="127.0.0.1:$((BASE + 13)),127.0.0.1:$((BASE + 14))"
sleep 0.5

PVFS="-mgr $PMGR -servers $SERVERS"
CEFT="-mgr $CMGR -primary $PRIMARY -mirror $MIRROR"

# A reproducible 48 x 25 kb nucleotide FASTA plus one 700-base AC
# repeat, and two queries cut out of it so both have a full-length hit.
awk 'BEGIN {
    srand(2003)
    for (s = 0; s < 48; s++) {
        printf ">seq%d\n", s
        for (l = 0; l < 357; l++) {
            line = ""
            for (c = 0; c < 70; c++) line = line substr("ACGT", int(rand() * 4) + 1, 1)
            print line
        }
    }
    print ">seqlc"
    line = ""
    for (c = 0; c < 35; c++) line = line "AC"
    for (l = 0; l < 10; l++) print line
}' >"$TMP/db.fasta"
cut_query() { # id, sequence number, first and last 70-base line
    awk -v id="$1" -v want="$2" -v from="$3" -v to="$4" '
        /^>/ { n++; l = 0; next }
        n == want + 1 { l++; if (l >= from && l <= to) body = body $0 "\n" }
        END { printf ">%s\n%s", id, body }' "$TMP/db.fasta"
}
{
    cut_query qa 7 21 26
    cut_query qb 31 101 105
} >"$TMP/q.fasta"

# formatdb onto each backend, then dbinfo -verify each copy.
mkdir -p "$TMP/local"
"$TMP/formatdb" -db nt -fragments 4 -in "$TMP/db.fasta" -root "$TMP/local" >"$TMP/formatdb.log" 2>&1 ||
    fail "formatdb (local) failed" "$TMP/formatdb.log"
# shellcheck disable=SC2086
"$TMP/formatdb" -db nt -fragments 4 -in "$TMP/db.fasta" -io pvfs $PVFS >>"$TMP/formatdb.log" 2>&1 ||
    fail "formatdb -io pvfs failed" "$TMP/formatdb.log"
# shellcheck disable=SC2086
"$TMP/formatdb" -db nt -fragments 4 -in "$TMP/db.fasta" -io ceft $CEFT >>"$TMP/formatdb.log" 2>&1 ||
    fail "formatdb -io ceft failed" "$TMP/formatdb.log"

verify() {
    name="$1"
    shift
    if ! "$TMP/dbinfo" -db nt -verify "$@" >"$TMP/dbinfo.$name" 2>&1; then
        fail "dbinfo -verify failed on $name" "$TMP/dbinfo.$name"
    fi
    if [ "$(grep -c ' ok$' "$TMP/dbinfo.$name")" -ne 4 ]; then
        fail "dbinfo on $name did not report 4 verified fragments" "$TMP/dbinfo.$name"
    fi
}
verify local -root "$TMP/local"
# shellcheck disable=SC2086
verify pvfs $PVFS # no -io: -mgr alone has always meant PVFS here
# shellcheck disable=SC2086
verify ceft -io ceft $CEFT

# pariocp resolves local names against the working directory.
mkdir -p "$TMP/out"
# shellcheck disable=SC2086
(cd "$TMP/out" && "$TMP/pariocp" $CEFT ceft:nt.002.pfr nt.002.copy) >"$TMP/pariocp.log" 2>&1 ||
    fail "pariocp out of CEFT failed" "$TMP/pariocp.log"
cmp "$TMP/out/nt.002.copy" "$TMP/local/nt.002.pfr" ||
    fail "fragment copied out of CEFT differs from the local one"
# shellcheck disable=SC2086
"$TMP/pariocp" $CEFT -ls ceft:nt >"$TMP/ls.ceft" 2>&1 && grep -q 'nt\.002\.pfr' "$TMP/ls.ceft" ||
    fail "pariocp -ls ceft: does not list the fragment" "$TMP/ls.ceft"
# shellcheck disable=SC2086
"$TMP/pariocp" $PVFS -ls pvfs:nt >"$TMP/ls.pvfs" 2>&1 && grep -q 'nt\.002\.pfr' "$TMP/ls.pvfs" ||
    fail "pariocp -ls pvfs: does not list the fragment" "$TMP/ls.pvfs"

# The reference: serial blastn over the local copy.
hits() { grep -v '^#' "$1"; }
"$TMP/blastn" -db nt -query "$TMP/q.fasta" -root "$TMP/local" -outfmt tabular -threads 1 \
    >"$TMP/serial.out" 2>"$TMP/serial.log" || fail "serial blastn failed" "$TMP/serial.log"
hits "$TMP/serial.out" >"$TMP/serial.hits"
[ "$(grep -c '^qa' "$TMP/serial.hits")" -ge 1 ] && [ "$(grep -c '^qb' "$TMP/serial.hits")" -ge 1 ] ||
    fail "serial blastn did not hit with both queries" "$TMP/serial.out"

# Megablast words are at most 31 bases: a longer -word must fail and
# name the limit instead of silently losing seeds.
if "$TMP/blastn" -db nt -query "$TMP/q.fasta" -root "$TMP/local" -megablast -word 32 \
    >"$TMP/mega32.out" 2>"$TMP/mega32.log"; then
    fail "blastn -megablast -word 32 was accepted" "$TMP/mega32.out"
fi
grep -q 'exceeds 31' "$TMP/mega32.log" ||
    fail "blastn -megablast -word 32 failed without naming the limit" "$TMP/mega32.log"

# In-process: master and two workers in one process, over CEFT.
# shellcheck disable=SC2086
"$TMP/mpiblast" -db nt -query "$TMP/q.fasta" -outfmt tabular -threads 1 -workers 2 \
    -io ceft $CEFT >"$TMP/inproc.out" 2>"$TMP/inproc.log" ||
    fail "in-process mpiblast failed" "$TMP/inproc.log"

# The same over readahead: subjects arrive as borrowed 2-bit views of
# cache blocks instead of owned copies.
# shellcheck disable=SC2086
"$TMP/mpiblast" -db nt -query "$TMP/q.fasta" -outfmt tabular -threads 1 -workers 2 \
    -readahead -io ceft $CEFT >"$TMP/readahead.out" 2>"$TMP/readahead.log" ||
    fail "in-process mpiblast -readahead failed" "$TMP/readahead.log"

# Megablast: greedy extension over both payload origins.
"$TMP/blastn" -db nt -query "$TMP/q.fasta" -root "$TMP/local" -outfmt tabular -threads 1 -megablast \
    >"$TMP/mega.out" 2>"$TMP/mega.log" || fail "serial blastn -megablast failed" "$TMP/mega.log"
hits "$TMP/mega.out" >"$TMP/mega.hits"
[ "$(grep -c '^qa' "$TMP/mega.hits")" -ge 1 ] && [ "$(grep -c '^qb' "$TMP/mega.hits")" -ge 1 ] ||
    fail "serial blastn -megablast did not hit with both queries" "$TMP/mega.out"
# shellcheck disable=SC2086
"$TMP/mpiblast" -db nt -query "$TMP/q.fasta" -outfmt tabular -threads 1 -workers 2 -megablast \
    -readahead -io ceft $CEFT >"$TMP/mega.readahead.out" 2>"$TMP/mega.readahead.log" ||
    fail "in-process mpiblast -megablast -readahead failed" "$TMP/mega.readahead.log"
hits "$TMP/mega.readahead.out" >"$TMP/mega.readahead.hits"
cmp -s "$TMP/mega.hits" "$TMP/mega.readahead.hits" ||
    fail "megablast hit lines over readahead differ from serial blastn -megablast" \
        "$TMP/mega.hits" "$TMP/mega.readahead.hits"

# Distributed: rank 0 starts the router and drives every query of the
# given file through one stream; ranks 1 and 2 are separate processes.
distributed() {
    name="$1"
    router="127.0.0.1:$2"
    query="$3"
    shift 3
    WPIDS=""
    for r in 1 2; do
        "$TMP/mpiblast" -db nt -query "$query" -threads 1 \
            -router "$router" -size 3 -rank "$r" "$@" >"$TMP/$name.w$r.log" 2>&1 &
        WPIDS="$WPIDS $!"
        PIDS="$PIDS $!"
    done
    "$TMP/mpiblast" -db nt -query "$query" -outfmt tabular -threads 1 \
        -router "$router" -start-router -size 3 -rank 0 "$@" \
        >"$TMP/$name.out" 2>"$TMP/$name.log" ||
        fail "distributed mpiblast ($name) failed" "$TMP/$name.log" "$TMP/$name.w1.log" "$TMP/$name.w2.log"
    for pid in $WPIDS; do
        wait "$pid" || fail "a worker rank of the $name run failed" "$TMP/$name.w1.log" "$TMP/$name.w2.log"
    done
}
# shellcheck disable=SC2086
distributed dist "$((BASE + 20))" "$TMP/q.fasta" -io ceft $CEFT
# shellcheck disable=SC2086
distributed scratch "$((BASE + 21))" "$TMP/q.fasta" -io pvfs $PVFS -scratch "$TMP/scratch"

for run in inproc readahead dist scratch; do
    hits "$TMP/$run.out" >"$TMP/$run.hits"
    cmp -s "$TMP/serial.hits" "$TMP/$run.hits" ||
        fail "$run hit lines differ from serial blastn" "$TMP/serial.hits" "$TMP/$run.hits"
done

# -scratch across processes: the original configuration really copies.
if ! grep 'copy time' "$TMP/scratch.out" | grep -qv 'copy time 0\.00s'; then
    fail "distributed -scratch run reports no copy time" "$TMP/scratch.out"
fi
for r in 1 2; do
    ls "$TMP/scratch/worker$r"/nt.*.pfr >/dev/null 2>&1 ||
        fail "worker $r copied no fragment into its scratch directory"
done
if grep 'copy time' "$TMP/dist.out" | grep -qv 'copy time 0\.00s'; then
    fail "distributed run without -scratch reports copy time" "$TMP/dist.out"
fi

# DUST through the parallel path: -F travels to the workers inside every
# task. qlc is 256 bases of AC repeat: it hits seqlc unfiltered, and
# DUST's 64-base windows cover it end to end, so under -F it seeds
# nothing. A worker that dropped the filter would print qlc lines that
# serial blastn -F does not.
{
    cat "$TMP/q.fasta"
    echo ">qlc"
    awk 'BEGIN { line = ""; for (c = 0; c < 32; c++) line = line "AC"; for (l = 0; l < 4; l++) print line }'
} >"$TMP/qf.fasta"
"$TMP/blastn" -db nt -query "$TMP/qf.fasta" -root "$TMP/local" -outfmt tabular -threads 1 \
    >"$TMP/unfiltered.out" 2>"$TMP/unfiltered.log" || fail "serial blastn (repeat query) failed" "$TMP/unfiltered.log"
grep -q '^qlc' "$TMP/unfiltered.out" ||
    fail "the repeat query did not hit without -F" "$TMP/unfiltered.out"
"$TMP/blastn" -db nt -query "$TMP/qf.fasta" -root "$TMP/local" -outfmt tabular -threads 1 -F \
    >"$TMP/filtered.out" 2>"$TMP/filtered.log" || fail "serial blastn -F failed" "$TMP/filtered.log"
hits "$TMP/filtered.out" >"$TMP/filtered.hits"
grep -q '^qa' "$TMP/filtered.hits" && ! grep -q '^qlc' "$TMP/filtered.hits" ||
    fail "serial blastn -F did not keep qa and mask qlc" "$TMP/filtered.out"
# shellcheck disable=SC2086
"$TMP/mpiblast" -db nt -query "$TMP/qf.fasta" -outfmt tabular -threads 1 -workers 2 -F \
    -io ceft $CEFT >"$TMP/inproc.F.out" 2>"$TMP/inproc.F.log" ||
    fail "in-process mpiblast -F failed" "$TMP/inproc.F.log"
# shellcheck disable=SC2086
distributed dist.F "$((BASE + 22))" "$TMP/qf.fasta" -io ceft $CEFT -F
for run in inproc.F dist.F; do
    hits "$TMP/$run.out" >"$TMP/$run.hits"
    cmp -s "$TMP/filtered.hits" "$TMP/$run.hits" ||
        fail "$run hit lines differ from serial blastn -F" "$TMP/filtered.hits" "$TMP/$run.hits"
done

echo "cli-smoke: ok ($(wc -l <"$TMP/serial.hits") hit lines, 5 ways; $(wc -l <"$TMP/mega.hits") megablast hit lines, 2 ways; $(wc -l <"$TMP/filtered.hits") -F hit lines, 3 ways)"
