#!/bin/sh
# cli_smoke.sh — end-to-end check of the storage CLIs and of mpiblast's
# two ways of placing workers, over real daemons: boot a PVFS mini
# cluster (mgr + 2 data servers, throttled so copy time is measurable)
# and a CEFT one (mgr + 2 primary + 2 mirror), then
#   - formatdb the same FASTA onto local disk, PVFS and CEFT, and
#     dbinfo -verify each copy (PVFS through the legacy "-mgr without
#     -io" spelling), and a local copy whose fragment 0 has a zeroed
#     magic, which dbinfo -verify lists as CORRUPT while it checks the
#     other three;
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
#   - kill a worker process (SIGKILL) that holds a task in a
#     distributed run: its task is re-run on the other worker and the
#     master exits 0 within 20 s with serial blastn's hit lines; kill
#     both, and the master exits 1 naming both ranks.
# Exercised by `make cli-smoke` (part of `make check`).
# shellcheck disable=SC2086 # $PVFS and $CEFT are flag lists
SMOKE=cli-smoke
. "$(dirname "$0")/smoke_lib.sh"

BASE="${CLI_SMOKE_PORT:-19700}"
build pvfsmgr pvfsd formatdb dbinfo pariocp mpiblast blastn
# PVFS at BASE, both data servers throttled so copy time is
# measurable; CEFT at BASE+10.
boot pvfs "$BASE" 200us "0 1"
boot ceft "$((BASE + 10))"

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
"$TMP/formatdb" -db nt -fragments 4 -in "$TMP/db.fasta" -io pvfs $PVFS >>"$TMP/formatdb.log" 2>&1 ||
    fail "formatdb -io pvfs failed" "$TMP/formatdb.log"
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
verify pvfs $PVFS # no -io: -mgr alone has always meant PVFS here
verify ceft -io ceft $CEFT

# A fragment that cannot be opened is listed as CORRUPT, its error
# printed once, and the fragments after it are still checked.
cp -r "$TMP/local" "$TMP/broken"
dd if=/dev/zero of="$TMP/broken/nt.000.pfr" bs=8 count=1 conv=notrunc 2>/dev/null
code=0
"$TMP/dbinfo" -db nt -verify -root "$TMP/broken" >"$TMP/dbinfo.broken" 2>"$TMP/dbinfo.broken.err" || code=$?
[ "$code" = 1 ] && [ "$(grep -c ' CORRUPT$' "$TMP/dbinfo.broken")" -eq 1 ] &&
    [ "$(grep -c ' ok$' "$TMP/dbinfo.broken")" -eq 3 ] &&
    [ "$(grep -c 'nt\.000\.pfr: bad magic' "$TMP/dbinfo.broken.err")" -eq 1 ] ||
    fail "dbinfo -verify with a zeroed magic: exit $code, want 1 CORRUPT and 3 ok fragments" \
        "$TMP/dbinfo.broken" "$TMP/dbinfo.broken.err"

# pariocp resolves local names against the working directory.
mkdir -p "$TMP/out"
(cd "$TMP/out" && "$TMP/pariocp" $CEFT ceft:nt.002.pfr nt.002.copy) >"$TMP/pariocp.log" 2>&1 ||
    fail "pariocp out of CEFT failed" "$TMP/pariocp.log"
cmp "$TMP/out/nt.002.copy" "$TMP/local/nt.002.pfr" ||
    fail "fragment copied out of CEFT differs from the local one"
"$TMP/pariocp" $CEFT -ls ceft:nt >"$TMP/ls.ceft" 2>&1 && grep -q 'nt\.002\.pfr' "$TMP/ls.ceft" ||
    fail "pariocp -ls ceft: does not list the fragment" "$TMP/ls.ceft"
"$TMP/pariocp" $PVFS -ls pvfs:nt >"$TMP/ls.pvfs" 2>&1 && grep -q 'nt\.002\.pfr' "$TMP/ls.pvfs" ||
    fail "pariocp -ls pvfs: does not list the fragment" "$TMP/ls.pvfs"

# The reference: serial blastn over the local copy.
hits() { grep -v '^#' "$1"; }
"$TMP/blastn" -db nt -query "$TMP/q.fasta" -root "$TMP/local" -outfmt tabular \
    >"$TMP/serial.out" 2>"$TMP/serial.log" || fail "serial blastn failed" "$TMP/serial.log"
hits "$TMP/serial.out" >"$TMP/serial.hits"
[ "$(grep -c '^qa' "$TMP/serial.hits")" -ge 1 ] && [ "$(grep -c '^qb' "$TMP/serial.hits")" -ge 1 ] ||
    fail "serial blastn did not hit with both queries" "$TMP/serial.out"

# In-process: master and two workers in one process, over CEFT.
"$TMP/mpiblast" -db nt -query "$TMP/q.fasta" -outfmt tabular -workers 2 \
    -io ceft $CEFT >"$TMP/inproc.out" 2>"$TMP/inproc.log" ||
    fail "in-process mpiblast failed" "$TMP/inproc.log"

# The same over readahead: subjects arrive as borrowed 2-bit views of
# cache blocks instead of owned copies.
"$TMP/mpiblast" -db nt -query "$TMP/q.fasta" -outfmt tabular -workers 2 \
    -readahead -io ceft $CEFT >"$TMP/readahead.out" 2>"$TMP/readahead.log" ||
    fail "in-process mpiblast -readahead failed" "$TMP/readahead.log"

# Megablast: greedy extension over both payload origins.
"$TMP/blastn" -db nt -query "$TMP/q.fasta" -root "$TMP/local" -outfmt tabular -megablast \
    >"$TMP/mega.out" 2>"$TMP/mega.log" || fail "serial blastn -megablast failed" "$TMP/mega.log"
hits "$TMP/mega.out" >"$TMP/mega.hits"
[ "$(grep -c '^qa' "$TMP/mega.hits")" -ge 1 ] && [ "$(grep -c '^qb' "$TMP/mega.hits")" -ge 1 ] ||
    fail "serial blastn -megablast did not hit with both queries" "$TMP/mega.out"
"$TMP/mpiblast" -db nt -query "$TMP/q.fasta" -outfmt tabular -workers 2 -megablast \
    -readahead -io ceft $CEFT >"$TMP/mega.readahead.out" 2>"$TMP/mega.readahead.log" ||
    fail "in-process mpiblast -megablast -readahead failed" "$TMP/mega.readahead.log"
hits "$TMP/mega.readahead.out" >"$TMP/mega.readahead.hits"
cmp -s "$TMP/mega.hits" "$TMP/mega.readahead.hits" ||
    fail "megablast hit lines over readahead differ from serial blastn -megablast" \
        "$TMP/mega.hits" "$TMP/mega.readahead.hits"

# Distributed: rank 0 listens at -router and drives every query of the
# given file through one stream; ranks 1 and 2 are separate processes
# that dial it.
distributed() {
    name="$1"
    router="127.0.0.1:$2"
    query="$3"
    shift 3
    WPIDS=""
    for r in 1 2; do
        "$TMP/mpiblast" -db nt -query "$query" \
            -router "$router" -size 3 -rank "$r" "$@" >"$TMP/$name.w$r.log" 2>&1 &
        WPIDS="$WPIDS $!"
        PIDS="$PIDS $!"
    done
    "$TMP/mpiblast" -db nt -query "$query" -outfmt tabular \
        -router "$router" -size 3 -rank 0 "$@" \
        >"$TMP/$name.out" 2>"$TMP/$name.log" ||
        fail "distributed mpiblast ($name) failed" "$TMP/$name.log" "$TMP/$name.w1.log" "$TMP/$name.w2.log"
    for pid in $WPIDS; do
        wait "$pid" || fail "a worker rank of the $name run failed" "$TMP/$name.w1.log" "$TMP/$name.w2.log"
    done
}
distributed dist "$((BASE + 20))" "$TMP/q.fasta" -io ceft $CEFT
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
"$TMP/blastn" -db nt -query "$TMP/qf.fasta" -root "$TMP/local" -outfmt tabular \
    >"$TMP/unfiltered.out" 2>"$TMP/unfiltered.log" || fail "serial blastn (repeat query) failed" "$TMP/unfiltered.log"
grep -q '^qlc' "$TMP/unfiltered.out" ||
    fail "the repeat query did not hit without -F" "$TMP/unfiltered.out"
"$TMP/blastn" -db nt -query "$TMP/qf.fasta" -root "$TMP/local" -outfmt tabular -F \
    >"$TMP/filtered.out" 2>"$TMP/filtered.log" || fail "serial blastn -F failed" "$TMP/filtered.log"
hits "$TMP/filtered.out" >"$TMP/filtered.hits"
grep -q '^qa' "$TMP/filtered.hits" && ! grep -q '^qlc' "$TMP/filtered.hits" ||
    fail "serial blastn -F did not keep qa and mask qlc" "$TMP/filtered.out"
"$TMP/mpiblast" -db nt -query "$TMP/qf.fasta" -outfmt tabular -workers 2 -F \
    -io ceft $CEFT >"$TMP/inproc.F.out" 2>"$TMP/inproc.F.log" ||
    fail "in-process mpiblast -F failed" "$TMP/inproc.F.log"
distributed dist.F "$((BASE + 22))" "$TMP/qf.fasta" -io ceft $CEFT -F
for run in inproc.F dist.F; do
    hits "$TMP/$run.out" >"$TMP/$run.hits"
    cmp -s "$TMP/filtered.hits" "$TMP/$run.hits" ||
        fail "$run hit lines differ from serial blastn -F" "$TMP/filtered.hits" "$TMP/$run.hits"
done

# Killed workers. hold_tasks DIR makes every fragment name in DIR a
# FIFO that nothing drains, so a worker copying a fragment there holds
# that task for good, blocked in the copy, and creates DIR/held once a
# worker has opened one. kill_run NAME PORT VICTIMS starts a master
# over PVFS under a 20 s timeout; each rank in VICTIMS, in turn, joins
# with -scratch in a held directory and takes a task, then the other
# worker rank joins normally, and every victim is killed with SIGKILL.
# The master's exit status is left in $code.
hold_tasks() {
    mkdir -p "$1"
    for i in 0 1 2 3; do
        mkfifo "$1/nt.00$i.pfr"
        (exec 3<"$1/nt.00$i.pfr" && : >"$1/held" && exec sleep 60) &
        PIDS="$PIDS $!"
    done
}
kill_run() {
    name=$1 router="127.0.0.1:$2" victims=$3
    timeout 20 "$TMP/mpiblast" -db nt -query "$TMP/q.fasta" -outfmt tabular -io pvfs $PVFS \
        -router "$router" -size 3 -rank 0 -report "$TMP/$name.json" \
        >"$TMP/$name.out" 2>"$TMP/$name.log" &
    master=$!
    PIDS="$PIDS $master"
    VPIDS=""
    for r in $victims; do
        hold_tasks "$TMP/$name.held/worker$r"
        "$TMP/mpiblast" -db nt -query "$TMP/q.fasta" -io pvfs $PVFS -scratch "$TMP/$name.held" \
            -router "$router" -size 3 -rank "$r" >"$TMP/$name.w$r.log" 2>&1 &
        VPIDS="$VPIDS $!"
        PIDS="$PIDS $!"
        wait_for 10 test -e "$TMP/$name.held/worker$r/held" ||
            fail "worker $r of the $name run took no task" "$TMP/$name.log" "$TMP/$name.w$r.log"
    done
    WPIDS=""
    for r in 1 2; do
        case " $victims " in *" $r "*) continue ;; esac
        "$TMP/mpiblast" -db nt -query "$TMP/q.fasta" -io pvfs $PVFS \
            -router "$router" -size 3 -rank "$r" >"$TMP/$name.w$r.log" 2>&1 &
        WPIDS="$WPIDS $!"
        PIDS="$PIDS $!"
    done
    kill -KILL $VPIDS
    code=0
    wait "$master" || code=$?
}
kill_run kill1 "$((BASE + 24))" 1
[ "$code" = 0 ] || fail "master exited $code after a worker was killed (124: still running after 20 s)" \
    "$TMP/kill1.log" "$TMP/kill1.w2.log"
wait $WPIDS || fail "the surviving worker of the kill1 run failed" "$TMP/kill1.w2.log"
hits "$TMP/kill1.out" >"$TMP/kill1.hits"
cmp -s "$TMP/serial.hits" "$TMP/kill1.hits" ||
    fail "hit lines after a killed worker differ from serial blastn" "$TMP/serial.hits" "$TMP/kill1.hits"
grep -q 'reassigned tasks *[1-9]' "$TMP/kill1.log" ||
    fail "the killed worker's task was not reported reassigned" "$TMP/kill1.log"
kill_run kill2 "$((BASE + 25))" "1 2"
[ "$code" = 1 ] && grep -q 'every worker is gone: ranks \[1 2\]' "$TMP/kill2.log" ||
    fail "master exited $code with both workers killed, want 1 naming ranks [1 2]" "$TMP/kill2.log"

echo "cli-smoke: ok ($(wc -l <"$TMP/serial.hits") hit lines, 5 ways; $(wc -l <"$TMP/mega.hits") megablast hit lines, 2 ways; $(wc -l <"$TMP/filtered.hits") -F hit lines, 3 ways; killed workers: 1 re-run, 2 named)"
