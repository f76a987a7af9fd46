package readahead

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"pario/internal/chio"
	"pario/internal/iotrace"
)

func openView(t *testing.T, f chio.File) chio.ViewReaderAt {
	t.Helper()
	v, ok := f.(chio.ViewReaderAt)
	if !ok {
		t.Fatalf("readahead file %T does not implement chio.ViewReaderAt", f)
	}
	return v
}

// TestReadViewBorrowsOnCacheHit pins the zero-copy contract: views
// within a single cached block are borrowed (no copy), their bytes
// match ReadAt's, the borrow counter advances, and block-straddling
// or past-EOF views degrade to the ReadAt semantics.
func TestReadViewBorrowsOnCacheHit(t *testing.T) {
	mem := chio.NewMemFS()
	data := pattern(10_000, 7)
	writeFile(t, mem, "db", data)
	stats := &iotrace.CacheStats{}
	ra := Wrap(mem, WithBlockSize(1024), WithCapacity(16), WithWindow(2), WithStats(stats))
	f, err := ra.Open("db")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	vr := openView(t, f)

	// Sequential single-block views: every one should borrow.
	for off := int64(0); off < 4096; off += 512 {
		v, err := vr.ReadView(off, 512)
		if err != nil {
			t.Fatalf("ReadView(%d, 512): %v", off, err)
		}
		if !v.Borrowed {
			t.Fatalf("ReadView(%d, 512): expected a borrowed view", off)
		}
		if v.Stale() {
			t.Fatalf("ReadView(%d, 512): fresh view reports stale", off)
		}
		if !bytes.Equal(v.Data, data[off:off+512]) {
			t.Fatalf("ReadView(%d, 512): data mismatch", off)
		}
	}
	s := stats.Snapshot()
	if s.BorrowHits != 8 || s.BorrowCopies != 0 {
		t.Fatalf("after 8 single-block views: borrowed=%d copied=%d, want 8/0", s.BorrowHits, s.BorrowCopies)
	}

	// A block-straddling view falls back to an owned copy.
	v, err := vr.ReadView(1000, 100)
	if err != nil {
		t.Fatalf("straddling ReadView: %v", err)
	}
	if v.Borrowed {
		t.Fatal("block-straddling view should be owned, not borrowed")
	}
	if !bytes.Equal(v.Data, data[1000:1100]) {
		t.Fatal("straddling ReadView: data mismatch")
	}
	if got := stats.Snapshot().BorrowCopies; got != 1 {
		t.Fatalf("straddling view: copies=%d, want 1", got)
	}

	// Past-EOF view: short data plus io.EOF, like ReadAt.
	v, err = vr.ReadView(int64(len(data))-10, 100)
	if err != io.EOF {
		t.Fatalf("past-EOF ReadView: err=%v, want io.EOF", err)
	}
	if !bytes.Equal(v.Data, data[len(data)-10:]) {
		t.Fatal("past-EOF ReadView: data mismatch")
	}
	if v, err = vr.ReadView(int64(len(data))+100, 10); err != io.EOF || len(v.Data) != 0 {
		t.Fatalf("fully-past-EOF ReadView: (%d bytes, %v), want (0, io.EOF)", len(v.Data), err)
	}
}

// TestReadViewCapacityIsRestOfBlock pins chio.View's capacity
// contract: a borrowed view's spare capacity is the file's next bytes
// to the end of the block (the file's end, for its short last block),
// and never reaches past it.
func TestReadViewCapacityIsRestOfBlock(t *testing.T) {
	mem := chio.NewMemFS()
	data := pattern(2500, 9)
	writeFile(t, mem, "db", data)
	f, err := Wrap(mem, WithBlockSize(1024)).Open("db")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	vr := openView(t, f)
	for _, tc := range []struct{ off, n, end int64 }{
		{0, 10, 1024},
		{1000, 24, 1024},
		{1500, 100, 2048},
		{2100, 50, 2500},
	} {
		v, err := vr.ReadView(tc.off, tc.n)
		if err != nil || !v.Borrowed {
			t.Fatalf("ReadView(%d, %d): borrowed=%v, %v", tc.off, tc.n, v.Borrowed, err)
		}
		if whole := v.Data[:cap(v.Data)]; !bytes.Equal(whole, data[tc.off:tc.end]) {
			t.Errorf("ReadView(%d, %d): capacity covers %d bytes, want the %d to offset %d", tc.off, tc.n, len(whole), tc.end-tc.off, tc.end)
		}
	}
}

// TestReadViewStaleAfterWrite exercises the borrow lifetime under
// concurrent invalidation (run with -race): readers hold borrowed
// views across writes that invalidate their range. The contract is
// that a superseding write flips Stale to true, a post-write re-read
// observes the new bytes, and the original borrowed bytes are never
// mutated in place — a holder that took a snapshot of its view always
// finds those exact bytes later.
func TestReadViewStaleAfterWrite(t *testing.T) {
	mem := chio.NewMemFS()
	data := pattern(4096, 3)
	writeFile(t, mem, "db", data)
	ra := Wrap(mem, WithBlockSize(1024), WithCapacity(8))
	f, err := ra.Open("db")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	vr := openView(t, f)

	// Deterministic single-goroutine core of the contract first.
	v, err := vr.ReadView(100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Borrowed || v.Stale() {
		t.Fatalf("initial view: borrowed=%v stale=%v, want true/false", v.Borrowed, v.Stale())
	}
	before := append([]byte(nil), v.Data...)
	mutated := pattern(200, 99)
	if _, err := f.WriteAt(mutated, 100); err != nil {
		t.Fatal(err)
	}
	if !v.Stale() {
		t.Fatal("view not stale after a write superseded its range")
	}
	if !bytes.Equal(v.Data, before) {
		t.Fatal("borrowed bytes mutated in place by a write")
	}
	v2, err := vr.ReadView(100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v2.Data, mutated) {
		t.Fatal("re-read after staleness did not observe the written bytes")
	}

	// Concurrent readers and writers: every held view must either stay
	// fresh or report stale, and held bytes must never change.
	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			off := int64(r * 1024)
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := vr.ReadView(off, 256)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				snap := append([]byte(nil), v.Data...)
				fresh := !v.Stale()
				// Hold the view across whatever the writers do.
				if !bytes.Equal(v.Data, snap) {
					t.Errorf("reader %d: held view bytes changed", r)
					return
				}
				if fresh && v.Stale() {
					// Went stale while held: fall back to a fresh copy.
					if _, err := vr.ReadView(off, 256); err != nil {
						t.Errorf("reader %d: stale re-read: %v", r, err)
						return
					}
				}
			}
		}(r)
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			buf := pattern(256, byte(50+w))
			for i := 0; i < 200; i++ {
				if _, err := f.WriteAt(buf, int64((i%4)*1024+w*256)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}
