package blastdb

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"

	"pario/internal/chio"
	"pario/internal/iotrace"
	"pario/internal/readahead"
	"pario/internal/seq"
	"pario/internal/util"
)

// buildFragment formats seqs into name on fs and returns nothing; the
// caller reopens through whatever stack it wants to test.
func buildFragment(tb testing.TB, fs chio.FileSystem, name string, seqs []*seq.Sequence) {
	tb.Helper()
	f, err := fs.Create(name)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := NewFragmentWriter(f, seq.Nucleotide)
	if err != nil {
		tb.Fatal(err)
	}
	for _, s := range seqs {
		if err := w.Append(s); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
}

// TestZeroCopyScanMatchesChunkedScan streams a fragment through the
// readahead layer (zero-copy borrowed views) and directly off MemFS
// (chunked copies) and demands identical sequences. It also pins the
// zero-copy accounting: on the view path every single-block payload is
// borrowed, sequences arrive packed (no letters materialized until
// asked), and the unpacked letters equal the originals.
func TestZeroCopyScanMatchesChunkedScan(t *testing.T) {
	mem := chio.NewMemFS()
	rng := util.NewRNG(33)
	seqs := randomSeqs(rng, 40, 30, 2000)
	buildFragment(t, mem, "frag", seqs)

	stats := &iotrace.CacheStats{}
	ra := readahead.Wrap(mem, readahead.WithBlockSize(4096), readahead.WithCapacity(64),
		readahead.WithWindow(2), readahead.WithStats(stats))

	frView, err := OpenFragment(ra, "frag")
	if err != nil {
		t.Fatal(err)
	}
	defer frView.Close()
	frCopy, err := OpenFragment(mem, "frag")
	if err != nil {
		t.Fatal(err)
	}
	defer frCopy.Close()

	srcView := frView.Source(0)
	srcCopy := frCopy.Source(0)
	for i := 0; ; i++ {
		sv, errV := srcView.Next()
		sc, errC := srcCopy.Next()
		if errV == io.EOF && errC == io.EOF {
			break
		}
		if errV != nil || errC != nil {
			t.Fatalf("seq %d: view err=%v, copy err=%v", i, errV, errC)
		}
		if packed, n := sv.Packed2Bit(); packed == nil || n != sv.Len() {
			t.Fatalf("seq %d: view-path sequence not packed (packed=%v n=%d len=%d)", i, packed != nil, n, sv.Len())
		}
		if sv.ID != sc.ID || sv.Desc != sc.Desc {
			t.Fatalf("seq %d: defline mismatch: %q/%q vs %q/%q", i, sv.ID, sv.Desc, sc.ID, sc.Desc)
		}
		if !bytes.Equal(sv.Letters(), sc.Letters()) {
			t.Fatalf("seq %d (%s): letters differ between view and chunked scan", i, sv.ID)
		}
		if !bytes.Equal(sv.Letters(), seqs[i].Data) {
			t.Fatalf("seq %d (%s): letters differ from original", i, sv.ID)
		}
	}

	s := stats.Snapshot()
	if s.BorrowHits == 0 {
		t.Fatal("zero-copy scan recorded no borrowed views")
	}
	// Views are taken per block, not per payload: one borrowed view
	// per block the data region touches (one more of slack, as
	// TestFragmentSourceOneViewPerBlock allows), and an owned copy only
	// for a payload that straddles one of the blocks-1 boundaries.
	first, last := int64(headerSize)/4096, int64(frView.h.DeflineOff-1)/4096
	if blocks := last - first + 1; s.BorrowHits > blocks+1 || s.BorrowCopies > blocks-1 {
		t.Fatalf("scan of %d subjects over %d blocks took %d borrowed views and %d copies, want at most %d and %d",
			len(seqs), blocks, s.BorrowHits, s.BorrowCopies, blocks+1, blocks-1)
	}

	// Random access takes the same path.
	for _, i := range []int{0, 7, 39} {
		got, err := frView.Sequence(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Letters(), seqs[i].Data) {
			t.Fatalf("Sequence(%d): letters differ from original", i)
		}
	}
}

// TestChunkedScanStaysChunkedWithoutViews guards the I/O pattern on
// backends without a view capability: the source must keep issuing
// large chunked reads, not per-sequence ones. Only reads inside the
// data region count; the stream's one read of the defline and index
// regions lies past it.
func TestChunkedScanStaysChunkedWithoutViews(t *testing.T) {
	mem := chio.NewMemFS()
	rng := util.NewRNG(34)
	seqs := randomSeqs(rng, 30, 100, 900)
	buildFragment(t, mem, "frag", seqs)

	trace := iotrace.NewTrace()
	traced := &iotrace.FS{Inner: mem, Trace: trace}
	fr, err := OpenFragment(traced, "frag")
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	before := len(trace.Events())
	src := fr.Source(1 << 20)
	n := 0
	for {
		if _, err := src.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	reads := 0
	for _, ev := range trace.Events()[before:] {
		if ev.Op == iotrace.OpRead && ev.Offset >= int64(fr.h.DataOff) && ev.Offset < int64(fr.h.DeflineOff) {
			reads++
		}
	}
	if n != len(seqs) {
		t.Fatalf("streamed %d sequences, want %d", n, len(seqs))
	}
	// The whole data region fits in one 1 MiB chunk: one data read.
	if reads != 1 {
		t.Fatalf("chunked scan issued %d data reads, want 1", reads)
	}
}

// TestOpenFragmentReadsTheHeaderOnly pins the open contract: an open
// is one read, of the header; VerifyChecksum then reads the index and
// data regions and no defline byte; and the first Next of a fresh open
// reads the defline and index regions together, in one read.
func TestOpenFragmentReadsTheHeaderOnly(t *testing.T) {
	mem := chio.NewMemFS()
	buildFragment(t, mem, "frag", randomSeqs(util.NewRNG(39), 30, 100, 900))
	trace := iotrace.NewTrace()
	traced := &iotrace.FS{Inner: mem, Trace: trace}
	reads := func(from int) []iotrace.Event {
		var out []iotrace.Event
		for _, ev := range trace.Events()[from:] {
			if ev.Op == iotrace.OpRead {
				out = append(out, ev)
			}
		}
		return out
	}

	fr, err := OpenFragment(traced, "frag")
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	if got := reads(0); len(got) != 1 || got[0].Offset != 0 || got[0].Size != headerSize {
		t.Fatalf("open read %+v, want one %d-byte read at 0", got, headerSize)
	}
	if fr.NumSequences() != 30 {
		t.Fatalf("NumSequences = %d from the header, want 30", fr.NumSequences())
	}
	h := fr.h
	before := len(trace.Events())
	if err := fr.VerifyChecksum(); err != nil {
		t.Fatal(err)
	}
	var data, index int64
	for _, ev := range reads(before) {
		switch {
		case ev.Offset >= int64(h.DataOff) && ev.Offset+ev.Size <= int64(h.DeflineOff):
			data += ev.Size
		case ev.Offset == int64(h.IndexOff) && ev.Size == int64(h.NumSeqs)*indexEntry:
			index++
		default:
			t.Errorf("VerifyChecksum read %d bytes at %d, outside the data region and the index (deflines at %d, index at %d)",
				ev.Size, ev.Offset, h.DeflineOff, h.IndexOff)
		}
	}
	if index != 1 || data != int64(h.DeflineOff-h.DataOff) {
		t.Errorf("VerifyChecksum read the index %d times and %d data bytes, want once and %d", index, data, h.DeflineOff-h.DataOff)
	}

	fresh, err := OpenFragment(traced, "frag")
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	before = len(trace.Events())
	if _, err := fresh.Source(1 << 20).Next(); err != nil {
		t.Fatal(err)
	}
	var tail []iotrace.Event
	for _, ev := range reads(before) {
		if ev.Offset >= int64(h.DeflineOff) {
			tail = append(tail, ev)
		}
	}
	if want := int64(h.NumSeqs)*indexEntry + int64(h.IndexOff-h.DeflineOff); len(tail) != 1 ||
		tail[0].Offset != int64(h.DeflineOff) || tail[0].Size != want {
		t.Errorf("first Next read %+v past the data region, want one %d-byte read at %d", tail, want, h.DeflineOff)
	}
}

// TestConcurrentSourcesShareOneFragment streams one Fragment through
// four Sources on four goroutines: each yields the sequences of a
// serial scan, and the regions, loaded under the fragment's mutex, are
// read once between them.
func TestConcurrentSourcesShareOneFragment(t *testing.T) {
	mem := chio.NewMemFS()
	seqs := randomSeqs(util.NewRNG(40), 300, 50, 400)
	buildFragment(t, mem, "frag", seqs)
	trace := iotrace.NewTrace()
	fr, err := OpenFragment(&iotrace.FS{Inner: mem, Trace: trace}, "frag")
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	const streams = 4
	got := make([][]*seq.Sequence, streams)
	errs := make([]error, streams)
	var wg sync.WaitGroup
	for g := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := fr.Source(1 << 10)
			for {
				s, err := src.Next()
				if err != nil {
					if err != io.EOF {
						errs[g] = err
					}
					return
				}
				s.Letters()
				got[g] = append(got[g], s)
			}
		}()
	}
	wg.Wait()
	for g := range streams {
		if errs[g] != nil {
			t.Fatalf("stream %d: %v", g, errs[g])
		}
		if len(got[g]) != len(seqs) {
			t.Fatalf("stream %d yielded %d sequences, want %d", g, len(got[g]), len(seqs))
		}
		for i, s := range got[g] {
			if s.ID != seqs[i].ID || s.Desc != seqs[i].Desc || !bytes.Equal(s.Letters(), seqs[i].Data) {
				t.Fatalf("stream %d, sequence %d differs from the serial scan", g, i)
			}
		}
	}
	regionReads := 0
	for _, ev := range trace.Events() {
		if ev.Op == iotrace.OpRead && ev.Offset >= int64(fr.h.DeflineOff) {
			regionReads++
		}
	}
	if regionReads != 1 {
		t.Errorf("%d streams read the regions %d times, want once", streams, regionReads)
	}
}

// scanAll streams every sequence of fr through a source of bufBytes.
func scanAll(tb testing.TB, fr *Fragment, bufBytes int) []*seq.Sequence {
	tb.Helper()
	var out []*seq.Sequence
	src := fr.Source(bufBytes)
	for {
		s, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, s)
	}
}

// TestFragmentSourceOneViewPerBlock pins the one read path's view
// count: a scan through the readahead layer takes one view per cache
// block of the data region (plus one for a payload that straddles into
// the last), not one per subject, and cuts the same sequences out of
// them as a chunked scan of the bare file.
func TestFragmentSourceOneViewPerBlock(t *testing.T) {
	const block = 4096
	mem := chio.NewMemFS()
	seqs := randomSeqs(util.NewRNG(35), 600, 50, 400)
	buildFragment(t, mem, "frag", seqs)
	stats := &iotrace.CacheStats{}
	ra := readahead.Wrap(mem, readahead.WithBlockSize(block), readahead.WithStats(stats))
	frView, err := OpenFragment(ra, "frag")
	if err != nil {
		t.Fatal(err)
	}
	defer frView.Close()
	frCopy, err := OpenFragment(mem, "frag")
	if err != nil {
		t.Fatal(err)
	}
	defer frCopy.Close()

	before := stats.Snapshot()
	viewed := scanAll(t, frView, 0)
	hits := stats.Snapshot().BorrowHits - before.BorrowHits
	copied := scanAll(t, frCopy, 0)
	if len(viewed) != len(seqs) || len(copied) != len(seqs) {
		t.Fatalf("scanned %d through views and %d by chunks, want %d", len(viewed), len(copied), len(seqs))
	}
	for i := range seqs {
		v, c := viewed[i], copied[i]
		if v.ID != c.ID || v.Desc != c.Desc || !bytes.Equal(v.Letters(), c.Letters()) {
			t.Fatalf("sequence %d differs between the view scan and the chunked scan", i)
		}
	}
	first, last := int64(headerSize)/block, int64(frView.h.DeflineOff-1)/block
	if blocks := last - first + 1; hits > blocks+1 {
		t.Errorf("scan of %d subjects over %d blocks borrowed %d views, want at most %d", len(seqs), blocks, hits, blocks+1)
	}
}

// TestFragmentSourceAllocs is the one read path's allocation budget
// per sequence: none through the readahead layer (views are taken per
// block and Sequences per slab, not per subject, and the defline is a
// substring of its region); without views, the payload's exact-size
// copy out of the reused buffer.
func TestFragmentSourceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	const n = 600
	mem := chio.NewMemFS()
	buildFragment(t, mem, "frag", randomSeqs(util.NewRNG(36), n, 50, 400))
	ra := readahead.Wrap(mem, readahead.WithBlockSize(4096), readahead.WithCapacity(64))
	for _, tc := range []struct {
		name     string
		fs       chio.FileSystem
		bufBytes int
		budget   float64
	}{
		{"readahead", ra, 0, 0},
		{"copy", mem, 4096, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr, err := OpenFragment(tc.fs, "frag")
			if err != nil {
				t.Fatal(err)
			}
			defer fr.Close()
			scanAll(t, fr, tc.bufBytes) // warms the block cache
			src := fr.Source(tc.bufBytes)
			var s *seq.Sequence
			allocs := testing.AllocsPerRun(n-1, func() { s, err = src.Next() })
			if err != nil || s == nil {
				t.Fatalf("last sequence: %v", err)
			}
			if _, err := src.Next(); err != io.EOF {
				t.Fatalf("past the last sequence: %v, want io.EOF", err)
			}
			if allocs > tc.budget {
				t.Errorf("Next = %.0f allocs per sequence, budget is %.0f", allocs, tc.budget)
			}
		})
	}
}

// TestFragmentSourceSeesWriteIntoItsRun: a write that supersedes bytes
// of a borrowed run after the run was taken must reach the payloads
// cut from it afterwards, because Stale is checked before each cut.
func TestFragmentSourceSeesWriteIntoItsRun(t *testing.T) {
	mem := chio.NewMemFS()
	seqs := randomSeqs(util.NewRNG(37), 4, 40, 40)
	buildFragment(t, mem, "frag", seqs)
	ra := readahead.Wrap(mem, readahead.WithBlockSize(4096))
	fr, err := OpenFragment(ra, "frag")
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	src := fr.Source(0)
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	// Rewrite the second payload as all-A (code 0) through the same
	// layer; the run already holds its old bytes.
	w, err := ra.Open("frag")
	if err != nil {
		t.Fatal(err)
	}
	rec := record(fr.index, 1)
	if _, err := w.WriteAt(make([]byte, rec.payloadLen()), int64(fr.h.DataOff+rec.DataOff)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	s, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.Repeat([]byte("A"), 40); !bytes.Equal(s.Letters(), want) {
		t.Fatalf("sequence 1 after the write: %s, want %s", s.Letters(), want)
	}
}

// shortViewer serves every ReadView as an owned copy of half the range
// with no error, as a ViewReaderAt that breaks its contract might.
type shortViewer struct{ chio.File }

func (v shortViewer) ReadView(off, n int64) (chio.View, error) {
	buf := make([]byte, n/2)
	_, err := v.File.ReadAt(buf, off)
	return chio.OwnedView(buf), err
}

// TestShortDataReadIsUnexpectedEOF: a data read that comes back short
// without an error, through a view or through ReadAt, fails Next and
// Sequence with io.ErrUnexpectedEOF instead of wrapping a nil error.
func TestShortDataReadIsUnexpectedEOF(t *testing.T) {
	mem := chio.NewMemFS()
	buildFragment(t, mem, "frag", randomSeqs(util.NewRNG(38), 3, 100, 200))
	for _, tc := range []struct {
		name string
		wrap func(chio.File) chio.File
	}{
		{"ReadAt", func(f chio.File) chio.File { return halfReader{f} }},
		{"ReadView", func(f chio.File) chio.File { return shortViewer{f} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr, err := OpenFragment(mem, "frag")
			if err != nil {
				t.Fatal(err)
			}
			defer fr.Close()
			// Load the regions first, so the short read is a data read.
			if _, _, err := fr.regions(true); err != nil {
				t.Fatal(err)
			}
			fr.f = tc.wrap(fr.f)
			if _, err := fr.Source(0).Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("Next = %v, want io.ErrUnexpectedEOF", err)
			}
			if _, err := fr.Sequence(1); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("Sequence(1) = %v, want io.ErrUnexpectedEOF", err)
			}
		})
	}
}
