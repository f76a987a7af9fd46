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

// countingFS counts the reads that reach the file system under the
// readahead layer: per block index, every read that covers the block,
// and in all, every read. When gate is non-nil, a read that starts past
// block 0 waits for gate to close.
type countingFS struct {
	chio.FileSystem
	bs   int64
	gate chan struct{}

	mu    sync.Mutex
	reads map[int64]int
	total int
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

// readsOf returns how many reads that covered block idx reached the
// inner file system.
func (c *countingFS) readsOf(idx int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads[idx]
}

// readCount returns how many reads reached the inner file system.
func (c *countingFS) readCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

type countingFile struct {
	chio.File
	fs *countingFS
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	first, last := blockSpan(off, int64(len(p)), f.fs.bs)
	f.fs.mu.Lock()
	for idx := first; idx <= last; idx++ {
		f.fs.reads[idx]++
	}
	f.fs.total++
	f.fs.mu.Unlock()
	if f.fs.gate != nil && first > 0 {
		<-f.fs.gate
	}
	return f.File.ReadAt(p, off)
}

// TestSequentialScanPrefetches pins the planner's counts. A sub-block
// scan plans every block once per handle and each block reaches the
// backend once, whether it is read through ReadAt or ReadView, in one
// read per run: the window is refilled only once half of it has been
// read. The first prefetch asks the file's size, so nothing past EOF
// is planned. A backward jump resets the plan to the new position, so
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
		check := func(when string, issued, misses int64, reads int) {
			t.Helper()
			s := stats.Snapshot()
			if s.PrefetchIssued != issued || s.Misses != misses || inner.readCount() != reads {
				t.Errorf("%s, %s: %d prefetches, %d misses and %d backend reads, want %d, %d and %d",
					mode, when, s.PrefetchIssued, s.Misses, inner.readCount(), issued, misses, reads)
			}
		}

		// A fresh handle is positioned at block 0, so the first read is
		// not sequential: it misses and plans nothing. The next read plans
		// start+1 .. start+window as one run; each refill then plans the
		// half window past the mark (11-12, 13-14, 15), one run each, and
		// stops at the file's last block.
		scan(start, blocks)
		check("forward scan", blocks-1-start, 1, 5)
		// The jump back to block 0 misses and resets the mark, so the
		// re-scan plans blocks 1-4, then 5; the rest of its window is
		// cached.
		scan(0, start)
		check("re-scan after a backward jump", blocks-2, 2, 8)
		for idx := int64(0); idx < blocks+window; idx++ {
			if n := inner.readsOf(idx); idx < blocks && n != 1 || idx >= blocks && n != 0 {
				t.Errorf("%s: block %d reached the backend %d times", mode, idx, n)
			}
		}
		f.Close()
	}
}

// TestDemandReadJoinsPlannedPrefetch pins the claim order: a run is
// registered in flight, every block of it, before its prefetch
// goroutine starts, so a reader that needs one of its blocks before
// the goroutine runs — or while the fetch is still under way — joins
// that run. The backend sees the blocks once, in one read, and the
// reads count as hits.
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

	// Reading block 0 plans blocks 1..window as one run; its fetch
	// waits at the gate.
	if _, err := f.ReadAt(make([]byte, 256), 0); err != nil {
		t.Fatal(err)
	}
	// A read of blocks 1-3 continues the scan and refills the window
	// (blocks 5-7, its last block being in flight) before it looks its
	// blocks up. Open the gate once that refill is issued, i.e. after the
	// read is past planning and on its way to the block lookup.
	opened := make(chan struct{})
	go func() {
		defer close(opened)
		for stats.Snapshot().PrefetchIssued < window+3 {
			runtime.Gosched()
		}
		close(inner.gate)
	}()
	buf := make([]byte, 3*bs)
	if _, err := f.ReadAt(buf, bs); err != nil {
		t.Fatal(err)
	}
	<-opened
	if !bytes.Equal(buf, data[bs:4*bs]) {
		t.Fatal("demand read of blocks 1-3: data mismatch")
	}
	for idx := int64(1); idx <= 3; idx++ {
		if n := inner.readsOf(idx); n != 1 {
			t.Errorf("block %d reached the backend %d times, want 1", idx, n)
		}
	}
	if s := stats.Snapshot(); s.Hits != 3 || s.Misses != 1 {
		t.Errorf("got %d hits and %d misses, want 3 and 1 (block 0 missed, blocks 1-3 joined the run)", s.Hits, s.Misses)
	}
}

// TestPrefetchRunIsOneBackendRead: a planned window is fetched as one
// backend read of the whole run, and a multi-block ReadAt fetches its
// missing span as one read too, stopping at the blocks already cached.
func TestPrefetchRunIsOneBackendRead(t *testing.T) {
	const bs = 1024
	data := pattern(17*bs, 15) // blocks 0-16
	mem := chio.NewMemFS()
	writeFile(t, mem, "db", data)
	inner := newCountingFS(mem, bs)
	stats := &iotrace.CacheStats{}
	ra := Wrap(inner, WithBlockSize(bs), WithWindow(8), WithStats(stats))
	f, err := ra.Open("db")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Block 0 misses; its window, blocks 1-8, is one run. Reading those
	// refills the window with blocks 9-16, the second run, and reading
	// that joins it; the file ends there, so nothing else is planned.
	if _, err := f.ReadAt(make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	for _, first := range []int{1, 9} {
		got := make([]byte, 8*bs)
		if _, err := f.ReadAt(got, int64(first*bs)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[first*bs:(first+8)*bs]) {
			t.Fatalf("read of the run from block %d: data mismatch", first)
		}
	}
	if n := inner.readCount(); n != 3 {
		t.Errorf("%d backend reads, want 3 (block 0 and two runs of 8)", n)
	}
	if s := stats.Snapshot(); s.PrefetchIssued != 16 || s.Misses != 1 || s.Hits != 16 {
		t.Errorf("%d prefetches, %d misses and %d hits, want 16, 1 and 16", s.PrefetchIssued, s.Misses, s.Hits)
	}

	// Without prefetch, a read of blocks 4-8 after one of block 8 takes
	// its missing blocks 4-7 in one run, and block 8 is a hit.
	stats = &iotrace.CacheStats{}
	g, err := Wrap(inner, WithBlockSize(bs), WithWindow(0), WithStats(stats)).Open("db")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.ReadAt(make([]byte, 10), 8*bs); err != nil {
		t.Fatal(err)
	}
	before := inner.readCount()
	got := make([]byte, 5*bs)
	if _, err := g.ReadAt(got, 4*bs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[4*bs:9*bs]) {
		t.Fatal("multi-block demand read: data mismatch")
	}
	if n := inner.readCount() - before; n != 1 {
		t.Errorf("multi-block demand read of 4 missing blocks took %d backend reads, want 1", n)
	}
	if s := stats.Snapshot(); s.Misses != 1+4 || s.Hits != 1 {
		t.Errorf("%d misses and %d hits, want 5 (block 8, then blocks 4-7) and 1", s.Misses, s.Hits)
	}
}

// TestDemandRunIsCapped: a run holds at most DefaultWindow blocks, so
// one long ReadAt takes one backend read per DefaultWindow blocks and
// no buffer a cached block keeps alive is larger than one window.
func TestDemandRunIsCapped(t *testing.T) {
	const bs = 1024
	const blocks = 2*DefaultWindow + 8
	data := pattern(blocks*bs, 16)
	mem := chio.NewMemFS()
	writeFile(t, mem, "db", data)
	inner := newCountingFS(mem, bs)
	stats := &iotrace.CacheStats{}
	f, err := Wrap(inner, WithBlockSize(bs), WithWindow(0), WithStats(stats)).Open("db")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := make([]byte, blocks*bs)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("long demand read: data mismatch")
	}
	if n := inner.readCount(); n != 3 {
		t.Errorf("%d backend reads for %d blocks, want 3 (runs of %d, %d and 8)", n, blocks, DefaultWindow, DefaultWindow)
	}
	if s := stats.Snapshot(); s.Misses != blocks || s.Hits != 0 {
		t.Errorf("%d misses and %d hits, want %d and 0", s.Misses, s.Hits, blocks)
	}
}

// TestPrefetchRunStraddlingEOF: a demand run that reaches past the end
// of the file publishes the short tail block and sets the tail mark, so
// later scans plan nothing past it and nothing past it reaches the
// backend again.
func TestPrefetchRunStraddlingEOF(t *testing.T) {
	const bs = 1024
	data := pattern(9*bs+bs/2, 17) // block 9 is the short tail
	mem := chio.NewMemFS()
	writeFile(t, mem, "db", data)
	inner := newCountingFS(mem, bs)
	ra := Wrap(inner, WithBlockSize(bs), WithWindow(4))
	f, err := ra.Open("db")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Blocks 8-11, one run: 1.5 blocks of data, then EOF.
	got := make([]byte, 4*bs)
	n, err := f.ReadAt(got, 8*bs)
	if n != bs+bs/2 || err != io.EOF || !bytes.Equal(got[:n], data[8*bs:]) {
		t.Fatalf("read across EOF = (%d, %v), want (%d, EOF) and the file's tail", n, err, bs+bs/2)
	}
	ra.cache.mu.Lock()
	tail, marked := ra.cache.tail["db"]
	b := ra.cache.blocks[blockKey{"db", 9}]
	ra.cache.mu.Unlock()
	if !marked || tail != 9 {
		t.Errorf("tail mark = %d, %v; want 9", tail, marked)
	}
	if b == nil || !b.eof || len(b.data) != bs/2 || cap(b.data) != bs/2 {
		t.Fatalf("short tail block not published as a %d-byte EOF block", bs/2)
	}
	v, err := f.(chio.ViewReaderAt).ReadView(9*bs+100, 50)
	if err != nil || !v.Borrowed || !bytes.Equal(v.Data[:cap(v.Data)], data[9*bs+100:]) {
		t.Fatalf("view of the tail block: borrowed=%v, %v; want the file's last bytes as its capacity", v.Borrowed, err)
	}

	// A full scan from the start refetches nothing past block 9.
	buf := make([]byte, 256)
	for off := 0; off < len(data); off += len(buf) {
		if _, err := f.ReadAt(buf, int64(off)); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	}
	for idx := int64(10); idx <= 14; idx++ {
		if n := inner.readsOf(idx); n > 1 {
			t.Errorf("block %d, past the end, reached the backend %d times, want at most the one run", idx, n)
		}
	}
}

// TestPrefetchRunFailureIsRetried: a run that fails fails every block
// it claimed; each is then read again, one block at a time, by the
// reader that needs it, and the bytes are right.
func TestPrefetchRunFailureIsRetried(t *testing.T) {
	const (
		bs     = 1024
		window = 4
	)
	data := pattern(16*bs, 19)
	mem := chio.NewMemFS()
	writeFile(t, mem, "db", data)
	fault := chio.NewFaultFS(mem)
	inner := newCountingFS(fault, bs)
	inner.gate = make(chan struct{})
	stats := &iotrace.CacheStats{}
	ra := Wrap(inner, WithBlockSize(bs), WithWindow(window), WithStats(stats))
	f, err := ra.Open("db")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Block 0 plans blocks 1-4 as one run, held at the gate; it fails.
	if _, err := f.ReadAt(make([]byte, 256), 0); err != nil {
		t.Fatal(err)
	}
	fault.Arm(errors.New("run fault"))
	close(inner.gate)
	for stats.Snapshot().PrefetchAborted < window {
		runtime.Gosched()
	}
	fault.Disarm()

	got := make([]byte, 256)
	for off := bs; off < 16*bs; off += len(got) {
		if _, err := f.ReadAt(got, int64(off)); err != nil {
			t.Fatalf("read at %d after a failed run: %v", off, err)
		}
		if !bytes.Equal(got, data[off:off+len(got)]) {
			t.Fatalf("read at %d after a failed run: data mismatch", off)
		}
	}
	for idx := int64(1); idx <= window; idx++ {
		if n := inner.readsOf(idx); n != 2 {
			t.Errorf("block %d reached the backend %d times, want 2 (the failed run, then its retry)", idx, n)
		}
	}
	if s := stats.Snapshot(); s.PrefetchAborted != window {
		t.Errorf("%d prefetches aborted, want %d", s.PrefetchAborted, window)
	}
}

// TestConcurrentEvictionKeepsRunView: blocks of one run share one
// buffer, but a borrowed view of one of them reaches only its own block
// and stays valid, byte for byte, after the run's other blocks (and its
// own) are evicted by readers of another file (run with -race).
func TestConcurrentEvictionKeepsRunView(t *testing.T) {
	const bs = 1024
	data := pattern(16*bs, 21)
	other := pattern(64*bs, 22)
	mem := chio.NewMemFS()
	writeFile(t, mem, "db", data)
	writeFile(t, mem, "other", other)
	inner := newCountingFS(mem, bs)
	ra := Wrap(inner, WithBlockSize(bs), WithCapacity(8), WithWindow(4))
	f, err := ra.Open("db")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Block 0 plans blocks 1-4 as one run; read block 2 out of it.
	if _, err := f.ReadAt(make([]byte, 10), 0); err != nil {
		t.Fatal(err)
	}
	v, err := f.(chio.ViewReaderAt).ReadView(2*bs+100, 200)
	if err != nil || !v.Borrowed {
		t.Fatalf("view of block 2: borrowed=%v, %v", v.Borrowed, err)
	}
	if inner.readsOf(2) != 1 || inner.readsOf(1) != 1 || inner.readCount() != 2 {
		t.Fatalf("block 2 did not come from the run of blocks 1-4")
	}
	if whole := v.Data[:cap(v.Data)]; !bytes.Equal(whole, data[2*bs+100:3*bs]) {
		t.Fatalf("view capacity covers %d bytes, want the rest of block 2 only", len(whole))
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			o, err := ra.Open("other")
			if err != nil {
				t.Error(err)
				return
			}
			defer o.Close()
			buf := make([]byte, 512)
			for off := g * 32 * bs; off < (g+1)*32*bs; off += len(buf) {
				if _, err := o.ReadAt(buf, int64(off)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	ra.cache.mu.Lock()
	for idx := int64(1); idx <= 4; idx++ {
		if _, ok := ra.cache.blocks[blockKey{"db", idx}]; ok {
			t.Errorf("block %d of the run is still cached; the scan of the other file should have evicted it", idx)
		}
	}
	ra.cache.mu.Unlock()
	if v.Stale() || !bytes.Equal(v.Data, data[2*bs+100:2*bs+300]) {
		t.Fatal("a borrowed view of a run's block changed after the run was evicted")
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
// continues the deflines read, so it plans a window, but the first
// prefetch of the file asks its size, and the tail mark stops the
// window: no read wholly past the end reaches the backend, then or in a
// later scan of the file. A write forgets the mark, and a scan of the
// grown file prefetches its new blocks again.
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
