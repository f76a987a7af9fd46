package pario

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pario/internal/blastdb"
	"pario/internal/ceft"
	"pario/internal/chio"
	"pario/internal/collio"
	"pario/internal/core"
	"pario/internal/iotrace"
	"pario/internal/readahead"
	"pario/internal/rpcpool"
	"pario/internal/telemetry"
	"pario/internal/workload"
)

// TestSequentialScanRPCReduction is the acceptance bar for the
// list-I/O + readahead work: a sequential scan in small application
// reads must reach the data servers in at least 5x fewer RPCs through
// readahead than the same scan on the bare client, while returning
// byte-identical data (checksummed).
//
// The arithmetic at the test's shape (4 servers, 64 KB stripes, 16 KB
// application reads, 1 MB readahead blocks): the bare client issues 64
// data RPCs per MB (one per application read); a 1 MB block fetch
// decomposes into 4 runs per server, carried by one list RPC each, so
// ~4 data RPCs per MB.
func TestSequentialScanRPCReduction(t *testing.T) {
	const (
		fileSize = 4 << 20 // 4 MB
		readSize = 16 << 10
		raBlock  = 1 << 20
	)
	dep, err := core.StartPVFS(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	// Seed the file.
	seedCl, err := dep.Client()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, fileSize)
	for i := range payload {
		payload[i] = byte(i*2654435761 + i>>8)
	}
	if err := chio.WriteFull(seedCl, "db", payload); err != nil {
		t.Fatal(err)
	}
	seedCl.Close()
	wantSum := sha256.Sum256(payload)

	// scan reads the file sequentially in readSize chunks through fs
	// and returns the checksum of everything read.
	scan := func(fs chio.FileSystem) [32]byte {
		f, err := fs.Open("db")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		h := sha256.New()
		buf := make([]byte, readSize)
		var off int64
		for off < fileSize {
			n, err := f.ReadAt(buf, off)
			if err != nil && err != io.EOF {
				t.Fatalf("ReadAt(%d): %v", off, err)
			}
			if n == 0 {
				t.Fatalf("ReadAt(%d): zero-length read before EOF", off)
			}
			h.Write(buf[:n])
			off += int64(n)
		}
		var sum [32]byte
		h.Sum(sum[:0])
		return sum
	}

	// dataRPCs sums RPCs to the data servers (the manager is metadata
	// traffic, not part of the bar).
	dataRPCs := func(m *rpcpool.Metrics) int64 {
		var n int64
		for _, s := range m.Snapshot() {
			if s.Server != dep.Mgr.Addr() {
				n += s.Calls
			}
		}
		return n
	}

	// Baseline: the bare client, one RPC per application read.
	bareM := rpcpool.NewMetrics(telemetry.NewRegistry())
	bareCl, err := dep.Client(rpcpool.WithMetrics(bareM))
	if err != nil {
		t.Fatal(err)
	}
	bareSum := scan(bareCl)
	bareCl.Close()

	// Readahead block cache over the same client.
	fastM := rpcpool.NewMetrics(telemetry.NewRegistry())
	fastCl, err := dep.Client(rpcpool.WithMetrics(fastM))
	if err != nil {
		t.Fatal(err)
	}
	fastSum := scan(readahead.Wrap(fastCl, readahead.WithBlockSize(raBlock), readahead.WithWindow(2)))
	// Let in-flight prefetches settle before counting their RPCs.
	time.Sleep(100 * time.Millisecond)
	fastRPCs := dataRPCs(fastM)
	fastCl.Close()

	if bareSum != wantSum {
		t.Fatal("bare scan checksum mismatch")
	}
	if fastSum != wantSum {
		t.Fatal("readahead scan checksum mismatch")
	}
	bareRPCs := dataRPCs(bareM)
	if bareRPCs == 0 || fastRPCs == 0 {
		t.Fatalf("implausible RPC counts: bare=%d readahead=%d", bareRPCs, fastRPCs)
	}
	ratio := float64(bareRPCs) / float64(fastRPCs)
	t.Logf("data-server RPCs: bare=%d readahead=%d (%.1fx reduction)",
		bareRPCs, fastRPCs, ratio)
	if ratio < 5 {
		t.Errorf("RPC reduction %.1fx < 5x (bare=%d, readahead=%d)", ratio, bareRPCs, fastRPCs)
	}
}

// TestCollectiveScanRPCReduction is the acceptance bar for the
// collective two-phase read layer: 8 workers scanning interleaved
// slices of one striped file through a shared collio aggregator must
// reach the data servers in at least 3x fewer RPCs than the same
// workers reading independently, while both scans return
// byte-identical data (checksummed).
//
// The arithmetic at the test's shape (4 servers, 64 KB stripes, 8
// workers each reading an 8 KB slice of one 64 KB stripe per lockstep
// round): independent readers cost 8 vectored RPCs per round — one
// per worker, all to the stripe's one server; the collective layer
// merges the 8 slices into one extent and fetches it with a single
// list RPC, an 8x per-round reduction.
func TestCollectiveScanRPCReduction(t *testing.T) {
	const (
		workers  = 8
		slice    = 8 << 10
		block    = workers * slice // 64 KB: exactly one stripe
		fileSize = 4 << 20
		rounds   = fileSize / block
	)
	dep, err := core.StartPVFS(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	seedCl, err := dep.Client()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, fileSize)
	for i := range payload {
		payload[i] = byte(i*2654435761 + i>>8)
	}
	if err := chio.WriteFull(seedCl, "db", payload); err != nil {
		t.Fatal(err)
	}
	seedCl.Close()
	wantSum := sha256.Sum256(payload)

	dataRPCs := func(m *rpcpool.Metrics) int64 {
		var n int64
		for _, s := range m.Snapshot() {
			if s.Server != dep.Mgr.Addr() {
				n += s.Calls
			}
		}
		return n
	}

	// scan runs the interleaved lockstep workload through fs: in each
	// round, all workers concurrently read their slice of the round's
	// block. Returns the checksum of the reassembled file.
	scan := func(fs chio.FileSystem) [32]byte {
		got := make([]byte, fileSize)
		files := make([]chio.File, workers)
		for w := range files {
			f, err := fs.Open("db")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			files[w] = f
		}
		for round := 0; round < rounds; round++ {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					off := int64(round*block + w*slice)
					if _, err := files[w].ReadAt(got[off:off+slice], off); err != nil && err != io.EOF {
						t.Errorf("round %d worker %d: %v", round, w, err)
					}
				}(w)
			}
			wg.Wait()
		}
		return sha256.Sum256(got)
	}

	// Independent: every worker's read is its own vectored RPC.
	indepM := rpcpool.NewMetrics(telemetry.NewRegistry())
	indepCl, err := dep.Client(rpcpool.WithMetrics(indepM))
	if err != nil {
		t.Fatal(err)
	}
	indepSum := scan(indepCl)
	indepCl.Close()

	// Collective: one shared aggregator; the fan-in cap closes each
	// round as soon as all workers have enrolled.
	collM := rpcpool.NewMetrics(telemetry.NewRegistry())
	collCl, err := dep.Client(rpcpool.WithMetrics(collM))
	if err != nil {
		t.Fatal(err)
	}
	cfs := collio.Wrap(collCl,
		collio.WithWindow(200*time.Millisecond),
		collio.WithMaxFanIn(workers))
	collSum := scan(cfs)
	collRPCs := dataRPCs(collM)
	collCl.Close()

	if indepSum != wantSum {
		t.Fatal("independent scan checksum mismatch")
	}
	if collSum != wantSum {
		t.Fatal("collective scan checksum mismatch")
	}
	indepRPCs := dataRPCs(indepM)
	if indepRPCs == 0 || collRPCs == 0 {
		t.Fatalf("implausible RPC counts: independent=%d collective=%d", indepRPCs, collRPCs)
	}
	ratio := float64(indepRPCs) / float64(collRPCs)
	st := cfs.Stats()
	t.Logf("data-server RPCs: independent=%d collective=%d (%.1fx reduction); %d rounds, %d ranges -> %d segments, %d dedup bytes",
		indepRPCs, collRPCs, ratio, st.Rounds, st.Ranges, st.MergedSegments, st.DedupBytes)
	if ratio < 3 {
		t.Errorf("RPC reduction %.1fx < 3x (independent=%d, collective=%d)", ratio, indepRPCs, collRPCs)
	}
}

// TestSegmentListsMatchReference pushes one table of segment lists —
// contiguous, strided, abutting, over a hole, past EOF — through every
// striped read path (PVFS; CEFT healthy, with a dead primary, with a
// dead mirror) and requires the bytes and per-segment lengths a
// chio.MemFS holding the same writes returns. A one-segment list is
// also read through ReadAt, which on CEFT takes the doubled-halves
// path. Lists that are not ascending and disjoint — unsorted,
// overlapping, a zero-length segment before the previous one's end —
// must be refused by every path and by the reference alike.
func TestSegmentListsMatchReference(t *testing.T) {
	const (
		stripe = 256
		size   = 12010
	)
	// [0,3000), [5000,9000) and the last 10 bytes are written. The hole
	// at [3000,5000) lies inside every server's piece (the store reads
	// it back as zeros); the one at [9000,12000) lies past the end of
	// most pieces (the server answers short and the client zero-fills).
	content := make([]byte, size)
	for i := range content {
		content[i] = byte(i*131 + i>>7 + 1)
	}
	fill := func(fs chio.FileSystem) {
		t.Helper()
		f, err := fs.Create("t")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range [][2]int{{0, 3000}, {5000, 9000}, {size - 10, size}} {
			if _, err := f.WriteAt(content[r[0]:r[1]], int64(r[0])); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	var strided []chio.Seg
	for off := int64(40); off < size; off += 5 * stripe / 2 {
		strided = append(strided, chio.Seg{Off: off, Len: 100})
	}
	cases := []struct {
		name    string
		segs    []chio.Seg
		refused bool
	}{
		{"contiguous whole file", []chio.Seg{{Off: 0, Len: size}}, false},
		{"contiguous unaligned", []chio.Seg{{Off: stripe - 1, Len: 3*stripe + 2}}, false},
		{"contiguous one byte", []chio.Seg{{Off: 6000, Len: 1}}, false},
		{"strided", strided, false},
		{"unsorted overlapping", []chio.Seg{{Off: 5500, Len: 700}, {Off: 0, Len: 300}, {Off: 5600, Len: 100}, {Off: 250, Len: 600}, {Off: 0, Len: 300}}, true},
		{"ascending abutting", []chio.Seg{{Off: 0, Len: 250}, {Off: 250, Len: 600}, {Off: 5500, Len: 100}, {Off: 5600, Len: 100}, {Off: 5700, Len: 500}}, false},
		{"hole", []chio.Seg{{Off: 2900, Len: 2200}}, false},
		{"hole only and empty, unsorted", []chio.Seg{{Off: 3500, Len: 1000}, {Off: 100, Len: 0}, {Off: 4999, Len: 2}}, true},
		{"hole only and empty", []chio.Seg{{Off: 100, Len: 0}, {Off: 3500, Len: 1000}, {Off: 4999, Len: 2}}, false},
		{"tail hole", []chio.Seg{{Off: 8500, Len: 3505}}, false},
		{"tail hole list, unsorted", []chio.Seg{{Off: 11000, Len: 500}, {Off: 8900, Len: 300}, {Off: 9500, Len: 2510}}, true},
		{"tail hole list", []chio.Seg{{Off: 8900, Len: 300}, {Off: 9500, Len: 1500}, {Off: 11000, Len: 500}}, false},
		{"straddles EOF", []chio.Seg{{Off: size - 100, Len: 300}}, false},
		{"past EOF, unsorted", []chio.Seg{{Off: size, Len: 64}, {Off: 8 * size, Len: 50}, {Off: 10, Len: 20}}, true},
		{"past EOF", []chio.Seg{{Off: 10, Len: 20}, {Off: size, Len: 64}, {Off: 8 * size, Len: 50}}, false},
	}

	ref := chio.NewMemFS()
	fill(ref)
	check := func(t *testing.T, fs chio.FileSystem) {
		t.Helper()
		f, err := fs.Open("t")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rf, err := ref.Open("t")
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			var total int64
			for _, s := range tc.segs {
				total += s.Len
			}
			want, got := make([]byte, total), make([]byte, total)
			if tc.refused {
				if _, err := chio.ReadvAt(rf, tc.segs, want); err == nil {
					t.Errorf("%s: the reference accepted it", tc.name)
				}
				if _, err := chio.ReadvAt(f, tc.segs, got); err == nil {
					t.Errorf("%s: ReadvAt accepted it", tc.name)
				}
				continue
			}
			for i := range got {
				got[i] = 0xEE // every byte must be overwritten or zeroed
			}
			wantLens, err := chio.ReadvAt(rf, tc.segs, want)
			if err != nil {
				t.Fatal(err)
			}
			gotLens, err := chio.ReadvAt(f, tc.segs, got)
			if err != nil {
				t.Errorf("%s: ReadvAt: %v", tc.name, err)
				continue
			}
			if !slices.Equal(gotLens, wantLens) {
				t.Errorf("%s: served lengths %v, want %v", tc.name, gotLens, wantLens)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: ReadvAt bytes differ from the reference", tc.name)
			}
			if len(tc.segs) != 1 {
				continue
			}
			wn, werr := rf.ReadAt(want, tc.segs[0].Off)
			gn, gerr := f.ReadAt(got, tc.segs[0].Off)
			if gn != wn || gerr != werr || !bytes.Equal(got[:gn], want[:wn]) {
				t.Errorf("%s: ReadAt = (%d, %v), want (%d, %v) and equal bytes", tc.name, gn, gerr, wn, werr)
			}
		}
	}

	t.Run("pvfs", func(t *testing.T) {
		dep, err := core.StartPVFS(3, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer dep.Close()
		cl, err := dep.Client(rpcpool.WithStripeSize(stripe))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		fill(cl)
		check(t, cl)
	})
	// Server IDs of a 2+2 deployment: 0,1 primary; 2,3 mirror.
	for _, mode := range []struct {
		name string
		dead int
	}{{"ceft healthy", -1}, {"ceft primary dead", 1}, {"ceft mirror dead", 2}} {
		t.Run(mode.name, func(t *testing.T) {
			dep, err := core.StartCEFT(2, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer dep.Close()
			opts := ceft.DefaultOptions()
			opts.SkipHotSpots = false
			cl, err := dep.Client(opts, rpcpool.WithStripeSize(stripe),
				rpcpool.WithRetries(0), rpcpool.WithTimeout(2*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			fill(cl)
			if mode.dead >= 0 {
				dep.Servers[mode.dead].Close()
			}
			check(t, cl)
			if mode.dead >= 0 && cl.Failovers() == 0 {
				t.Error("no failovers recorded although a server was down")
			}
		})
	}
}

// TestStreamingContractMatchesReference runs one script of streaming
// calls — Seek with each whence, io.ReadFull after a seek, reads to
// EOF, writes at the cursor, and seeks that must fail (a negative
// target, a bad whence) without moving the cursor — against every
// backend and layer a file is opened through, on the deployments
// TestSegmentListsMatchReference uses. Each must print the transcript a
// chio.MemFS prints, and a closed PVFS or CEFT file must refuse Seek
// whatever the whence.
func TestStreamingContractMatchesReference(t *testing.T) {
	const stripe = 256
	content := make([]byte, 3000)
	for i := range content {
		content[i] = 'a' + byte((i*7+i/13)%26)
	}
	size := int64(len(content))
	script := func(t *testing.T, fs chio.FileSystem) ([]string, chio.File) {
		t.Helper()
		if err := chio.WriteFull(fs, "s", content); err != nil {
			t.Fatal(err)
		}
		f, err := fs.Open("s")
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		class := func(err error) string {
			switch err {
			case nil:
				return "ok"
			case io.EOF:
				return "EOF"
			}
			return "error"
		}
		seek := func(off int64, whence int) {
			pos, err := f.Seek(off, whence)
			if err != nil {
				pos = -1
			}
			lines = append(lines, fmt.Sprintf("Seek(%d, %d) = %d %s", off, whence, pos, class(err)))
		}
		readFull := func(n int) {
			buf := make([]byte, n)
			_, err := io.ReadFull(f, buf)
			lines = append(lines, fmt.Sprintf("ReadFull(%d) = %q %s", n, buf, class(err)))
		}
		write := func(p string) {
			n, err := f.Write([]byte(p))
			lines = append(lines, fmt.Sprintf("Write(%q) = %d %s", p, n, class(err)))
		}
		readToEOF := func() {
			got, err := io.ReadAll(f)
			n, eof := f.Read(make([]byte, 8))
			lines = append(lines, fmt.Sprintf("ReadAll = %q %s, then Read = %d %s", got, class(err), n, class(eof)))
		}

		seek(100, io.SeekStart)
		readFull(50)
		seek(10, io.SeekCurrent)
		readFull(20)
		seek(-30, io.SeekEnd)
		readToEOF()
		for _, bad := range [][2]int64{{-1, io.SeekStart}, {-size - 1, io.SeekCurrent}, {-size - 1, io.SeekEnd}, {0, 7}} {
			seek(bad[0], int(bad[1]))
			seek(0, io.SeekCurrent)
		}
		seek(1000, io.SeekStart)
		write("WRITTEN!")
		seek(0, io.SeekCurrent)
		readFull(8)
		seek(0, io.SeekEnd)
		write("tail")
		seek(0, io.SeekCurrent)
		seek(-12, io.SeekEnd)
		readToEOF()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		after, err := chio.ReadFull(fs, "s")
		lines = append(lines, fmt.Sprintf("file after writes: %d bytes, sha256 %x %s", len(after), sha256.Sum256(after), class(err)))
		return lines, f
	}
	want, _ := script(t, chio.NewMemFS())

	local, err := chio.NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pdep, err := core.StartPVFS(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pdep.Close()
	pcl, err := pdep.Client(rpcpool.WithStripeSize(stripe))
	if err != nil {
		t.Fatal(err)
	}
	defer pcl.Close()
	cdep, err := core.StartCEFT(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cdep.Close()
	ccl, err := cdep.Client(ceft.DefaultOptions(), rpcpool.WithStripeSize(stripe))
	if err != nil {
		t.Fatal(err)
	}
	defer ccl.Close()
	block := readahead.WithBlockSize(512)

	for _, b := range []struct {
		name        string
		fs          chio.FileSystem
		closedSeeks bool // a closed file must refuse Seek
	}{
		{"local", local, false},
		{"pvfs", pcl, true},
		{"ceft 2+2", ccl, true},
		{"readahead over pvfs", readahead.Wrap(pcl, block), false},
		{"collio over pvfs", collio.Wrap(pcl), false},
		{"iotrace over mem", iotrace.Wrap(chio.NewMemFS(), iotrace.NewTrace(), "w"), false},
		{"fault over readahead", chio.NewFaultFS(readahead.Wrap(chio.NewMemFS(), block)), false},
	} {
		t.Run(b.name, func(t *testing.T) {
			got, closed := script(t, b.fs)
			if len(got) != len(want) {
				t.Fatalf("transcript has %d lines, the reference %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("line %d: %s\n   reference: %s", i, got[i], want[i])
				}
			}
			if !b.closedSeeks {
				return
			}
			for _, whence := range []int{io.SeekStart, io.SeekCurrent, io.SeekEnd} {
				if pos, err := closed.Seek(0, whence); err == nil {
					t.Errorf("closed file: Seek(0, %d) = %d, want an error", whence, pos)
				}
			}
		})
	}
}

// TestReadaheadPlansEachBlockOnce is the count gate for the readahead
// planner on the real stack: a small database formatted onto PVFS with
// 4 data servers is streamed fragment by fragment through readahead and
// blastdb.Fragment.Source, the path a search worker takes. Every
// fragment must deliver the letters and sequences its alias entry
// records; the prefetcher may plan each block of a fragment once, plus
// one block per fragment; and the blocks must reach the data servers in
// no more RPCs than they took under the planner that re-planned its
// window on every read (42: each of the 42 blocks in one RPC, while
// that planner issued 700 to 1 500 prefetches on the same scan).
func TestReadaheadPlansEachBlockOnce(t *testing.T) {
	const maxDataRPCs = 42
	dep, err := core.StartPVFS(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	seedCl, err := dep.Client()
	if err != nil {
		t.Fatal(err)
	}
	alias, err := workload.Build(seedCl, workload.NtLike("db", 8<<20, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	var maxPrefetch int64
	for _, fi := range alias.Fragments {
		info, err := seedCl.Stat(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		maxPrefetch += (info.Size+readahead.DefaultBlockSize-1)/readahead.DefaultBlockSize + 1
	}
	seedCl.Close()

	m := rpcpool.NewMetrics(telemetry.NewRegistry())
	cl, err := dep.Client(rpcpool.WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ra := readahead.Wrap(cl)
	for _, fi := range alias.Fragments {
		fr, err := blastdb.OpenFragment(ra, fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		src := fr.Source(0)
		var letters, seqs int64
		for {
			s, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", fi.Path, err)
			}
			letters += int64(s.Len())
			seqs++
		}
		fr.Close()
		if letters != fi.Letters || seqs != fi.Seqs {
			t.Errorf("%s: streamed %d letters in %d sequences, alias says %d in %d",
				fi.Path, letters, seqs, fi.Letters, fi.Seqs)
		}
	}
	var dataRPCs int64
	for _, s := range m.Snapshot() {
		if s.Server != dep.Mgr.Addr() {
			dataRPCs += s.Calls
		}
	}
	st := ra.Stats().Snapshot()
	t.Logf("%d fragments: %d prefetches (bound %d), %d hits, %d misses, %d data-server RPCs",
		len(alias.Fragments), st.PrefetchIssued, maxPrefetch, st.Hits, st.Misses, dataRPCs)
	if st.PrefetchIssued > maxPrefetch {
		t.Errorf("%d prefetches, want at most %d", st.PrefetchIssued, maxPrefetch)
	}
	if dataRPCs > maxDataRPCs {
		t.Errorf("%d data-server RPCs, want at most %d", dataRPCs, maxDataRPCs)
	}
}
