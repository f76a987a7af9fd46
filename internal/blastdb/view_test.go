package blastdb

import (
	"bytes"
	"io"
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
	// Payloads are far smaller than a block; only boundary-straddlers
	// may copy. With 40 short sequences in 4 KiB blocks the borrowed
	// share must dominate.
	if s.BorrowHits < s.BorrowCopies {
		t.Fatalf("borrowed=%d < copied=%d; zero-copy path not dominant", s.BorrowHits, s.BorrowCopies)
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
// large chunked reads, not per-sequence ones.
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
		if ev.Op == iotrace.OpRead {
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
