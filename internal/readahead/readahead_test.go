package readahead

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"pario/internal/chio"
	"pario/internal/iotrace"
)

// writeFile creates name on fs with the given content.
func writeFile(t *testing.T, fs chio.FileSystem, name string, data []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// pattern returns n deterministic but position-dependent bytes.
func pattern(n int, salt byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*31 + salt
	}
	return p
}

func TestReadThroughMatchesBackend(t *testing.T) {
	mem := chio.NewMemFS()
	data := pattern(10_000, 1)
	writeFile(t, mem, "db", data)
	ra := Wrap(mem, WithBlockSize(1024), WithCapacity(4), WithWindow(2))
	f, err := ra.Open("db")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Mixed-size reads at mixed offsets, including re-reads.
	for _, c := range []struct{ off, n int }{
		{0, 100}, {100, 1024}, {1124, 3000}, {0, 100}, {9000, 1000}, {500, 8500},
	} {
		got := make([]byte, c.n)
		n, err := f.ReadAt(got, int64(c.off))
		if err != nil && err != io.EOF {
			t.Fatalf("ReadAt(%d, %d): %v", c.off, c.n, err)
		}
		if !bytes.Equal(got[:n], data[c.off:c.off+n]) {
			t.Fatalf("ReadAt(%d, %d): data mismatch", c.off, c.n)
		}
		if n != c.n {
			t.Fatalf("ReadAt(%d, %d): short read %d", c.off, c.n, n)
		}
	}
}

func TestReadAfterWriteInvalidation(t *testing.T) {
	mem := chio.NewMemFS()
	data := pattern(4096, 1)
	writeFile(t, mem, "db", data)
	ra := Wrap(mem, WithBlockSize(1024), WithWindow(0))
	f, err := ra.Open("db")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Populate the cache.
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	// Overwrite the middle through the layer; overlapping blocks must
	// drop so the next read sees fresh bytes.
	upd := pattern(1500, 99)
	if _, err := f.WriteAt(upd, 1000); err != nil {
		t.Fatal(err)
	}
	copy(data[1000:], upd)
	got := make([]byte, 4096)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read after write returned stale cached data")
	}
}

func TestWriteGrowsFileInvalidatesTail(t *testing.T) {
	mem := chio.NewMemFS()
	data := pattern(1500, 1) // 1.5 blocks: block 1 is a cached short tail
	writeFile(t, mem, "db", data)
	ra := Wrap(mem, WithBlockSize(1024), WithWindow(0))
	f, err := ra.Open("db")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 1500)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	// Append past the cached EOF tail without overlapping it.
	ext := pattern(1000, 7)
	if _, err := f.WriteAt(ext, 1500); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2500)
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	want := append(append([]byte{}, data...), ext...)
	if !bytes.Equal(got, want) {
		t.Fatal("growth write left a stale short tail block cached")
	}
}

func TestEOFAtBlockBoundary(t *testing.T) {
	mem := chio.NewMemFS()
	const bs = 1024
	for _, size := range []int{bs, 3 * bs, bs - 1, 3*bs + 1} {
		name := fmt.Sprintf("f%d", size)
		data := pattern(size, byte(size))
		writeFile(t, mem, name, data)
		ra := Wrap(mem, WithBlockSize(bs), WithWindow(2))
		f, err := ra.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		// Full read returns everything.
		got := make([]byte, size)
		if n, err := f.ReadAt(got, 0); n != size || (err != nil && err != io.EOF) {
			t.Fatalf("size %d: full read got (%d, %v)", size, n, err)
		} else if !bytes.Equal(got, data) {
			t.Fatalf("size %d: full read data mismatch", size)
		}
		// Read past EOF returns the tail plus io.EOF.
		got = make([]byte, 100)
		n, err := f.ReadAt(got, int64(size)-10)
		if n != 10 || err != io.EOF {
			t.Fatalf("size %d: tail read got (%d, %v), want (10, EOF)", size, n, err)
		}
		if !bytes.Equal(got[:10], data[size-10:]) {
			t.Fatalf("size %d: tail read data mismatch", size)
		}
		// Read starting exactly at EOF.
		if n, err := f.ReadAt(got, int64(size)); n != 0 || err != io.EOF {
			t.Fatalf("size %d: at-EOF read got (%d, %v), want (0, EOF)", size, n, err)
		}
		f.Close()
	}
}

func TestConcurrentReaders(t *testing.T) {
	mem := chio.NewMemFS()
	data := pattern(64*1024, 3)
	writeFile(t, mem, "db", data)
	stats := &iotrace.CacheStats{}
	ra := Wrap(mem, WithBlockSize(4096), WithCapacity(8), WithWindow(3), WithStats(stats))
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f, err := ra.Open("db")
			if err != nil {
				errs[g] = err
				return
			}
			defer f.Close()
			buf := make([]byte, 1000)
			for off := 0; off+len(buf) <= len(data); off += len(buf) {
				n, err := f.ReadAt(buf, int64(off))
				if err != nil {
					errs[g] = err
					return
				}
				if !bytes.Equal(buf[:n], data[off:off+n]) {
					errs[g] = fmt.Errorf("goroutine %d: mismatch at %d", g, off)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	snap := stats.Snapshot()
	if snap.Hits == 0 || snap.Misses == 0 {
		t.Errorf("expected both hits and misses, got %+v", snap)
	}
}

func TestPrefetchErrorDoesNotCorruptLaterReads(t *testing.T) {
	mem := chio.NewMemFS()
	data := pattern(32*1024, 5)
	writeFile(t, mem, "db", data)
	fault := chio.NewFaultFS(mem)
	ra := Wrap(fault, WithBlockSize(1024), WithWindow(4))
	f, err := ra.Open("db")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 512)
	// Start a sequential scan so prefetches are in flight, then arm the
	// fault so some of them fail mid-flight, then heal and continue.
	boom := errors.New("mid-prefetch fault")
	for off := 0; off+len(buf) <= len(data); off += len(buf) {
		switch off {
		case 2048:
			fault.Arm(boom)
		case 8192:
			fault.Disarm()
		}
		n, err := f.ReadAt(buf, int64(off))
		if err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("off %d: unexpected error %v", off, err)
			}
			// Expected while armed; data must not be consumed.
			continue
		}
		if !bytes.Equal(buf[:n], data[off:off+n]) {
			t.Fatalf("off %d: corrupted read after prefetch fault", off)
		}
	}
	// After healing, a full re-read matches exactly.
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("full re-read after fault mismatch")
	}
}

// countingFS counts, per block index, the reads that reach the file
// system under the readahead layer. When gate is non-nil, a read of any
// block but block 0 waits for gate to close.
type countingFS struct {
	chio.FileSystem
	bs   int64
	gate chan struct{}

	mu    sync.Mutex
	reads map[int64]int
}

func newCountingFS(inner chio.FileSystem, bs int64) *countingFS {
	return &countingFS{FileSystem: inner, bs: bs, reads: make(map[int64]int)}
}

func (c *countingFS) Open(name string) (chio.File, error) {
	f, err := c.FileSystem.Open(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

// readsOf returns how many reads of block idx reached the inner file
// system.
func (c *countingFS) readsOf(idx int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads[idx]
}

type countingFile struct {
	chio.File
	fs *countingFS
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	idx := off / f.fs.bs
	f.fs.mu.Lock()
	f.fs.reads[idx]++
	f.fs.mu.Unlock()
	if f.fs.gate != nil && idx > 0 {
		<-f.fs.gate
	}
	return f.File.ReadAt(p, off)
}

// TestSequentialScanPrefetches pins the planner's counts. A sub-block
// scan plans every block once per handle and each block reaches the
// backend once, whether it is read through ReadAt or ReadView; the
// window runs past EOF once, because the planner does not know the
// file's size. A backward jump resets the plan to the new position, so
// the re-scan prefetches the blocks the first scan never reached.
func TestSequentialScanPrefetches(t *testing.T) {
	const (
		bs     = 1024
		blocks = 16 // the file's length in blocks
		window = 4
		start  = 6 // the first scan covers blocks [start, blocks)
		step   = 256
	)
	data := pattern(blocks*bs, 9)
	for _, mode := range []string{"ReadAt", "ReadView"} {
		mem := chio.NewMemFS()
		writeFile(t, mem, "db", data)
		inner := newCountingFS(mem, bs)
		stats := &iotrace.CacheStats{}
		ra := Wrap(inner, WithBlockSize(bs), WithWindow(window), WithStats(stats))
		f, err := ra.Open("db")
		if err != nil {
			t.Fatal(err)
		}
		scan := func(from, to int) {
			t.Helper()
			for off := from * bs; off < to*bs; off += step {
				var got []byte
				if mode == "ReadAt" {
					got = make([]byte, step)
					if _, err := f.ReadAt(got, int64(off)); err != nil {
						t.Fatalf("%s at %d: %v", mode, off, err)
					}
				} else {
					v, err := f.(chio.ViewReaderAt).ReadView(int64(off), step)
					if err != nil {
						t.Fatalf("%s at %d: %v", mode, off, err)
					}
					got = v.Data
				}
				if !bytes.Equal(got, data[off:off+step]) {
					t.Fatalf("%s at %d: data mismatch", mode, off)
				}
			}
		}
		check := func(when string, issued, misses int64) {
			t.Helper()
			s := stats.Snapshot()
			if s.PrefetchIssued != issued || s.Misses != misses {
				t.Errorf("%s, %s: %d prefetches and %d misses, want %d and %d",
					mode, when, s.PrefetchIssued, s.Misses, issued, misses)
			}
		}

		// A fresh handle is positioned at block 0, so the first read is
		// not sequential: it misses and plans nothing. The next read plans
		// start+1 .. start+window, and each later block one more.
		scan(start, blocks)
		check("forward scan", blocks-1+window-start, 1)
		// The jump back to block 0 misses and resets the mark, so the
		// re-scan plans blocks 1 .. start-1; the rest of its window is
		// cached.
		scan(0, start)
		check("re-scan after a backward jump", blocks-2+window, 2)
		for idx := int64(0); idx < blocks+window; idx++ {
			if n := inner.readsOf(idx); idx < blocks && n != 1 || n > 1 {
				t.Errorf("%s: block %d reached the backend %d times", mode, idx, n)
			}
		}
		f.Close()
	}
}

// TestDemandReadJoinsPlannedPrefetch pins the claim order: a block is
// registered in flight before its prefetch goroutine starts, so a
// reader that needs it before the goroutine runs — or while the fetch
// is still under way — joins that fetch. The backend sees the block
// once and the read counts as a hit.
func TestDemandReadJoinsPlannedPrefetch(t *testing.T) {
	const (
		bs     = 1024
		window = 4
	)
	data := pattern(16*bs, 11)
	mem := chio.NewMemFS()
	writeFile(t, mem, "db", data)
	inner := newCountingFS(mem, bs)
	inner.gate = make(chan struct{})
	stats := &iotrace.CacheStats{}
	ra := Wrap(inner, WithBlockSize(bs), WithWindow(window), WithStats(stats))
	f, err := ra.Open("db")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Reading block 0 plans blocks 1..window; their fetches wait at the
	// gate.
	buf := make([]byte, 256)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	// Open the gate once the demand read of block 1 has planned its own
	// window (one more block), i.e. after it is past planning and on its
	// way to the block lookup.
	opened := make(chan struct{})
	go func() {
		defer close(opened)
		for stats.Snapshot().PrefetchIssued < window+1 {
			runtime.Gosched()
		}
		close(inner.gate)
	}()
	if _, err := f.ReadAt(buf, bs); err != nil {
		t.Fatal(err)
	}
	<-opened
	if !bytes.Equal(buf, data[bs:bs+256]) {
		t.Fatal("demand read of block 1: data mismatch")
	}
	if n := inner.readsOf(1); n != 1 {
		t.Errorf("block 1 reached the backend %d times, want 1", n)
	}
	if s := stats.Snapshot(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("got %d hits and %d misses, want 1 and 1 (block 0 missed, block 1 joined its prefetch)", s.Hits, s.Misses)
	}
}

func TestCreateDropsCache(t *testing.T) {
	mem := chio.NewMemFS()
	writeFile(t, mem, "db", pattern(2048, 1))
	ra := Wrap(mem, WithBlockSize(1024), WithWindow(0))
	f, err := ra.Open("db")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Recreate with different content through the layer.
	fresh := pattern(2048, 42)
	writeFile(t, ra, "db", fresh)
	f2, err := ra.Open("db")
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if _, err := f2.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fresh) {
		t.Fatal("Create left stale blocks cached")
	}
}

func TestBackendName(t *testing.T) {
	ra := Wrap(chio.NewMemFS())
	if ra.BackendName() != "mem+ra" {
		t.Fatalf("BackendName = %q", ra.BackendName())
	}
}

// TestPrefetchStopsAtShortTail: a fragment is opened by reading its
// header, then its deflines and index, which end at EOF. The index read
// continues the deflines read, so it plans a window, but it fetches the
// short tail block before it issues that window, and the tail stops it:
// no read wholly past the end reaches the backend, then or in a later
// scan of the file. A write forgets the mark, and a scan of the grown
// file prefetches its new blocks again.
func TestPrefetchStopsAtShortTail(t *testing.T) {
	const (
		bs     = 1024
		window = 4
		step   = 256
	)
	data := pattern(10*bs+bs/2, 13) // block 10 is the short tail
	mem := chio.NewMemFS()
	writeFile(t, mem, "db", data)
	inner := newCountingFS(mem, bs)
	stats := &iotrace.CacheStats{}
	ra := Wrap(inner, WithBlockSize(bs), WithWindow(window), WithStats(stats))
	f, err := ra.Open("db")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	scan := func(data []byte) {
		t.Helper()
		got := make([]byte, step)
		for off := 0; off < len(data); off += step {
			n, err := f.ReadAt(got, int64(off))
			if err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(got[:n], data[off:min(off+step, len(data))]) {
				t.Fatalf("read at %d: data mismatch", off)
			}
		}
	}
	if _, err := f.ReadAt(make([]byte, step), 9*bs); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(make([]byte, bs+bs/2-step), 9*bs+step); err != nil {
		t.Fatal(err)
	}
	scan(data)
	for idx := int64(11); idx <= 10+window; idx++ {
		if n := inner.readsOf(idx); n != 0 {
			t.Errorf("block %d, past the end, reached the backend %d times", idx, n)
		}
	}

	ext := pattern(4*bs, 14)
	if _, err := f.WriteAt(ext, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	grown := append(append([]byte{}, data...), ext...)
	before := stats.Snapshot().PrefetchIssued
	scan(grown)
	// Blocks 0-9 are still cached; the write dropped block 10, and
	// blocks 11-14 are new. Each is planned before the scan reaches it,
	// unless a stale mark at block 10 still held the planner back.
	if issued := stats.Snapshot().PrefetchIssued - before; issued < 14-10+1 {
		t.Errorf("rescan of the grown file issued %d prefetches, want at least %d (blocks 10-14)", issued, 14-10+1)
	}
}
