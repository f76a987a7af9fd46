package collio

import (
	"bytes"
	"context"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pario/internal/chio"
)

// countFS counts backend fetches: vecCalls is the number of vectored
// rounds the collective layer issued, readCalls the number of plain
// ReadAt calls that reached the backend.
type countFS struct {
	inner     chio.FileSystem
	vecCalls  atomic.Int64
	readCalls atomic.Int64
}

func (c *countFS) Create(name string) (chio.File, error) { return c.inner.Create(name) }
func (c *countFS) Open(name string) (chio.File, error) {
	f, err := c.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &countFile{fs: c, File: f}, nil
}
func (c *countFS) Stat(name string) (chio.FileInfo, error) { return c.inner.Stat(name) }
func (c *countFS) Remove(name string) error                { return c.inner.Remove(name) }
func (c *countFS) List(p string) ([]chio.FileInfo, error)  { return c.inner.List(p) }
func (c *countFS) BackendName() string                     { return "count" }

type countFile struct {
	fs *countFS
	chio.File
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.readCalls.Add(1)
	return f.File.ReadAt(p, off)
}

func (f *countFile) ReadvAt(segs []chio.Seg, dst []byte) ([]int64, error) {
	f.fs.vecCalls.Add(1)
	return chio.ReadvAt(f.File, segs, dst)
}

func seedFile(t *testing.T, fs chio.FileSystem, name string, n int) []byte {
	t.Helper()
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i*2654435761 + i>>6)
	}
	if err := chio.WriteFull(fs, name, payload); err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestInterleavedWorkersCombine is the layer's contract: W workers
// reading adjacent interleaved slices of one file in lockstep cost one
// backend round per cycle, not one per worker, and every worker gets
// its exact bytes.
func TestInterleavedWorkersCombine(t *testing.T) {
	const (
		workers = 8
		slice   = 1024
		rounds  = 8
	)
	mem := chio.NewMemFS()
	payload := seedFile(t, mem, "db", workers*slice*rounds)
	cfs := &countFS{inner: mem}
	fs := Wrap(cfs, WithWindow(200*time.Millisecond), WithMaxFanIn(workers))

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
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				off := int64(round*workers*slice + w*slice)
				buf := make([]byte, slice)
				n, err := files[w].ReadAt(buf, off)
				if err != nil || n != slice {
					errs[w] = err
					return
				}
				if !bytes.Equal(buf, payload[off:off+slice]) {
					t.Errorf("round %d worker %d: data mismatch", round, w)
				}
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("round %d worker %d: %v", round, w, err)
			}
		}
	}

	// One merged fetch per lockstep round; the fan-in cap makes the
	// count exact.
	if got := cfs.vecCalls.Load(); got != rounds {
		t.Errorf("backend rounds = %d, want %d", got, rounds)
	}
	if got := cfs.readCalls.Load(); got != 0 {
		t.Errorf("plain backend ReadAt calls = %d, want 0", got)
	}
	st := fs.Stats()
	if st.Rounds != rounds || st.Ranges != workers*rounds || st.MergedSegments != rounds {
		t.Errorf("stats = %+v, want %d rounds, %d ranges, %d merged segments",
			st, rounds, workers*rounds, rounds)
	}
	if st.DedupBytes != 0 {
		t.Errorf("dedup bytes = %d for disjoint ranges, want 0", st.DedupBytes)
	}
}

// TestIdenticalReadsSingleFlight: W workers reading the same range pay
// for it once; the other W-1 copies are dedup.
func TestIdenticalReadsSingleFlight(t *testing.T) {
	const workers = 8
	const size = 4096
	mem := chio.NewMemFS()
	payload := seedFile(t, mem, "hot", size)
	cfs := &countFS{inner: mem}
	fs := Wrap(cfs, WithWindow(200*time.Millisecond), WithMaxFanIn(workers))

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := fs.Open("hot")
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			buf := make([]byte, size)
			if _, err := f.ReadAt(buf, 0); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(buf, payload) {
				t.Error("data mismatch")
			}
		}()
	}
	wg.Wait()
	if got := cfs.vecCalls.Load(); got != 1 {
		t.Errorf("backend rounds = %d, want 1 (single flight)", got)
	}
	st := fs.Stats()
	if want := int64((workers - 1) * size); st.DedupBytes != want {
		t.Errorf("dedup bytes = %d, want %d", st.DedupBytes, want)
	}
}

// TestEOFAndHoles: reads past EOF come back short with io.EOF, like
// any ReaderAt.
func TestEOFAndHoles(t *testing.T) {
	mem := chio.NewMemFS()
	payload := seedFile(t, mem, "e", 1000)
	fs := Wrap(&countFS{inner: mem}, WithWindow(time.Millisecond))
	f, err := fs.Open("e")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	buf := make([]byte, 600)
	n, err := f.ReadAt(buf, 700)
	if err != io.EOF {
		t.Fatalf("past-EOF read: err = %v, want io.EOF", err)
	}
	if n != 300 || !bytes.Equal(buf[:n], payload[700:]) {
		t.Fatalf("past-EOF read: n = %d, want 300 with matching bytes", n)
	}
	if n, err := f.ReadAt(buf, 5000); n != 0 || err != io.EOF {
		t.Fatalf("read at 5000: n=%d err=%v, want 0, io.EOF", n, err)
	}
}

// TestStreamingReadAndSeek: the io.Reader/io.Seeker surface rides the
// collective ReadAt path and still behaves like a plain file.
func TestStreamingReadAndSeek(t *testing.T) {
	mem := chio.NewMemFS()
	payload := seedFile(t, mem, "s", 5000)
	fs := Wrap(&countFS{inner: mem}, WithWindow(time.Millisecond))
	f, err := fs.Open("s")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("streaming read mismatch")
	}
	if _, err := f.Seek(100, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 50)
	if _, err := io.ReadFull(f, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload[100:150]) {
		t.Fatal("post-seek read mismatch")
	}
}

// TestContextCancelAbandonsWait: a reader whose bound context dies
// stops waiting immediately; the round completes for everyone else.
func TestContextCancelAbandonsWait(t *testing.T) {
	mem := chio.NewMemFS()
	seedFile(t, mem, "c", 4096)
	fs := Wrap(&countFS{inner: mem}, WithWindow(300*time.Millisecond))

	ctx, cancel := context.WithCancel(context.Background())
	bound := fs.WithContext(ctx).(*FS)
	f, err := bound.Open("c")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	cancel()
	start := time.Now()
	if _, err := f.ReadAt(make([]byte, 64), 0); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 150*time.Millisecond {
		t.Error("cancelled read waited for the round window")
	}

	// An unbound reader of the same file is unaffected.
	f2, err := fs.Open("c")
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if _, err := f2.ReadAt(make([]byte, 64), 0); err != nil {
		t.Fatalf("unbound read after peer cancel: %v", err)
	}
}

// TestCreateAndRemoveDropHandle: mutating a name through the layer
// invalidates the aggregator's cached read handle, so later rounds see
// the new contents.
func TestCreateAndRemoveDropHandle(t *testing.T) {
	mem := chio.NewMemFS()
	seedFile(t, mem, "m", 128)
	fs := Wrap(&countFS{inner: mem}, WithWindow(time.Millisecond))
	f, err := fs.Open("m")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Rewrite through the layer, then read again: must see new bytes.
	if err := chio.WriteFull(fs, "m", []byte("NEW!")); err != nil {
		t.Fatal(err)
	}
	f2, err := fs.Open("m")
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if _, err := f2.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "NEW!" {
		t.Fatalf("read %q after rewrite, want NEW!", buf)
	}
}
