package chio

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

// backends under test.
func testBackends(t *testing.T) map[string]FileSystem {
	t.Helper()
	local, err := NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]FileSystem{
		"local": local,
		"mem":   NewMemFS(),
	}
}

func TestCreateWriteReadBack(t *testing.T) {
	for name, fs := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("hello parallel world")
			if err := WriteFull(fs, "dir/a.txt", data); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFull(fs, "dir/a.txt")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Errorf("got %q, want %q", got, data)
			}
			fi, err := fs.Stat("dir/a.txt")
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size != int64(len(data)) {
				t.Errorf("size = %d, want %d", fi.Size, len(data))
			}
		})
	}
}

func TestOpenMissing(t *testing.T) {
	for name, fs := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := fs.Open("nope"); !errors.Is(err, ErrNotExist) {
				t.Errorf("Open missing: err = %v, want ErrNotExist", err)
			}
			if _, err := fs.Stat("nope"); !errors.Is(err, ErrNotExist) {
				t.Errorf("Stat missing: err = %v, want ErrNotExist", err)
			}
			if err := fs.Remove("nope"); !errors.Is(err, ErrNotExist) {
				t.Errorf("Remove missing: err = %v, want ErrNotExist", err)
			}
		})
	}
}

func TestReadAt(t *testing.T) {
	for name, fs := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			if err := WriteFull(fs, "f", []byte("0123456789")); err != nil {
				t.Fatal(err)
			}
			f, err := fs.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			buf := make([]byte, 4)
			if _, err := f.ReadAt(buf, 3); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if string(buf) != "3456" {
				t.Errorf("ReadAt = %q", buf)
			}
			// Short read at the tail reports EOF.
			n, err := f.ReadAt(buf, 8)
			if n != 2 || err != io.EOF {
				t.Errorf("tail ReadAt = %d,%v", n, err)
			}
			// Past the end.
			if _, err := f.ReadAt(buf, 100); err != io.EOF {
				t.Errorf("past-end ReadAt err = %v", err)
			}
		})
	}
}

func TestWriteAtExtends(t *testing.T) {
	for name, fs := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			f, err := fs.Create("f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte("xy"), 5); err != nil {
				t.Fatal(err)
			}
			f.Close()
			got, err := ReadFull(fs, "f")
			if err != nil {
				t.Fatal(err)
			}
			want := []byte{0, 0, 0, 0, 0, 'x', 'y'}
			if !bytes.Equal(got, want) {
				t.Errorf("got %v, want %v", got, want)
			}
		})
	}
}

func TestNegativeOffsetsFail(t *testing.T) {
	rows := []struct {
		op  string
		off int64
	}{
		{"ReadAt", -1},
		{"WriteAt", -1},
		{"ReadAt", math.MinInt64},
		{"WriteAt", math.MinInt64},
	}
	for name, fs := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			if err := WriteFull(fs, "f", []byte("0123456789")); err != nil {
				t.Fatal(err)
			}
			f, err := fs.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			for _, r := range rows {
				buf := []byte("ab")
				var n int
				if r.op == "ReadAt" {
					n, err = f.ReadAt(buf, r.off)
				} else {
					n, err = f.WriteAt(buf, r.off)
				}
				if n != 0 || err == nil || err == io.EOF {
					t.Errorf("%s(%d) = %d, %v; want 0 and an error", r.op, r.off, n, err)
				}
			}
			got, err := ReadFull(fs, "f")
			if err != nil || string(got) != "0123456789" {
				t.Errorf("file after rejected writes = %q, %v", got, err)
			}
		})
	}
}

func TestSeekAndStreamingRead(t *testing.T) {
	for name, fs := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			if err := WriteFull(fs, "f", []byte("abcdefgh")); err != nil {
				t.Fatal(err)
			}
			f, err := fs.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if pos, err := f.Seek(2, io.SeekStart); err != nil || pos != 2 {
				t.Fatalf("seek: %d %v", pos, err)
			}
			buf := make([]byte, 3)
			if _, err := io.ReadFull(f, buf); err != nil {
				t.Fatal(err)
			}
			if string(buf) != "cde" {
				t.Errorf("read after seek = %q", buf)
			}
			if pos, err := f.Seek(-2, io.SeekEnd); err != nil || pos != 6 {
				t.Fatalf("seek end: %d %v", pos, err)
			}
			if pos, err := f.Seek(1, io.SeekCurrent); err != nil || pos != 7 {
				t.Fatalf("seek current: %d %v", pos, err)
			}
		})
	}
}

func TestList(t *testing.T) {
	for name, fs := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			for _, n := range []string{"db/x.0", "db/x.1", "other/y"} {
				if err := WriteFull(fs, n, []byte(n)); err != nil {
					t.Fatal(err)
				}
			}
			fis, err := fs.List("db/")
			if err != nil {
				t.Fatal(err)
			}
			if len(fis) != 2 || fis[0].Name != "db/x.0" || fis[1].Name != "db/x.1" {
				t.Errorf("List = %+v", fis)
			}
			all, err := fs.List("")
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != 3 {
				t.Errorf("List all = %+v", all)
			}
		})
	}
}

func TestRemove(t *testing.T) {
	for name, fs := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			if err := WriteFull(fs, "f", []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := fs.Remove("f"); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Open("f"); !errors.Is(err, ErrNotExist) {
				t.Error("file still present after Remove")
			}
		})
	}
}

func TestCopyAcrossBackends(t *testing.T) {
	src := NewMemFS()
	dst, err := NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("payload!"), 10000)
	if err := WriteFull(src, "big", payload); err != nil {
		t.Fatal(err)
	}
	n, err := Copy(dst, "copied", src, "big", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(payload)) {
		t.Errorf("copied %d bytes, want %d", n, len(payload))
	}
	got, err := ReadFull(dst, "copied")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("copy corrupted data")
	}
}

func TestCreateTruncates(t *testing.T) {
	for name, fs := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			if err := WriteFull(fs, "f", []byte("long content here")); err != nil {
				t.Fatal(err)
			}
			if err := WriteFull(fs, "f", []byte("short")); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFull(fs, "f")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "short" {
				t.Errorf("Create did not truncate: %q", got)
			}
		})
	}
}

func TestMemFSRandomAccessProperty(t *testing.T) {
	fs := NewMemFS()
	f := func(chunks [][]byte, offsets []uint16) bool {
		file, err := fs.Create("prop")
		if err != nil {
			return false
		}
		shadow := make([]byte, 0)
		for i, chunk := range chunks {
			var off int64
			if i < len(offsets) {
				off = int64(offsets[i] % 4096)
			}
			if _, err := file.WriteAt(chunk, off); err != nil {
				return false
			}
			end := off + int64(len(chunk))
			if end > int64(len(shadow)) {
				grown := make([]byte, end)
				copy(grown, shadow)
				shadow = grown
			}
			copy(shadow[off:end], chunk)
		}
		file.Close()
		got, err := ReadFull(fs, "prop")
		if err != nil {
			return false
		}
		return bytes.Equal(got, shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMemFSAppendsCopyLinearly: n appends must copy O(n) bytes in
// total — the buffer is reallocated a logarithmic number of times, not
// once per write — and bytes skipped by a write past EOF, before or
// after such growth, read back as zeros.
func TestMemFSAppendsCopyLinearly(t *testing.T) {
	fs := NewMemFS()
	f, err := fs.Create("log")
	if err != nil {
		t.Fatal(err)
	}
	d := f.(*memFile).d
	const appends = 1 << 14
	var reallocs, copied int
	var base *byte
	for i := 0; i < appends; i++ {
		size := len(d.data)
		if _, err := f.Write([]byte{byte(i), byte(i >> 8), 0xFF}); err != nil {
			t.Fatal(err)
		}
		if &d.data[0] != base {
			base = &d.data[0]
			reallocs++
			copied += size
		}
	}
	if total := len(d.data); copied > 2*total || reallocs > 32 {
		t.Errorf("%d appends of 3 bytes reallocated %d times and copied %d bytes (file is %d)",
			appends, reallocs, copied, total)
	}

	// Sparse writes: one landing inside the spare capacity, one forcing
	// a reallocation. Both gaps must read as zeros.
	end := int64(len(d.data))
	for _, gap := range []int64{1, int64(cap(d.data))} {
		if _, err := f.WriteAt([]byte("x"), end+gap); err != nil {
			t.Fatal(err)
		}
		hole := make([]byte, gap)
		if _, err := f.ReadAt(hole, end); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hole, make([]byte, gap)) {
			t.Errorf("gap of %d bytes before a write past EOF does not read as zeros", gap)
		}
		end += gap + 1
	}
	if fi, _ := fs.Stat("log"); fi.Size != end {
		t.Errorf("size = %d, want %d", fi.Size, end)
	}
}

func TestBackendNames(t *testing.T) {
	local, _ := NewLocalFS(t.TempDir())
	if local.BackendName() != "local" {
		t.Error("local name")
	}
	if NewMemFS().BackendName() != "mem" {
		t.Error("mem name")
	}
}

func TestLocalFSPathEscapeBlocked(t *testing.T) {
	fs, err := NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Path traversal must stay inside the root.
	if err := WriteFull(fs, "../escape", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("escape"); err != nil {
		t.Error("clean path should land inside the root")
	}
}

func TestFaultFS(t *testing.T) {
	inner := NewMemFS()
	if err := WriteFull(inner, "f", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected I/O error")
	ffs := NewFaultFS(inner)
	if _, err := ReadFull(ffs, "f"); err != nil {
		t.Fatalf("transparent read failed: %v", err)
	}
	ffs.Arm(boom)
	if _, err := ReadFull(ffs, "f"); !errors.Is(err, boom) {
		t.Fatalf("armed read err = %v, want injected", err)
	}
	if _, err := ffs.Stat("f"); !errors.Is(err, boom) {
		t.Fatalf("armed stat err = %v", err)
	}
	ffs.Disarm()
	if _, err := ReadFull(ffs, "f"); err != nil {
		t.Fatalf("disarmed read failed: %v", err)
	}
	// A file opened before arming also fails reads afterwards.
	h, err := ffs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ffs.Arm(boom)
	buf := make([]byte, 4)
	if _, err := h.ReadAt(buf, 0); !errors.Is(err, boom) {
		t.Fatalf("open handle read err = %v", err)
	}

	// Over a backend that binds contexts, a bound view is a FaultFS over
	// the bound backend, and Arm and Disarm on the original govern it.
	bfs := NewFaultFS(bindingFS{MemFS: inner})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	view := BindContext(bfs, ctx)
	if v, ok := view.(*FaultFS); !ok || v == bfs || v.Inner.(bindingFS).ctx != ctx {
		t.Fatalf("bound view = %#v, want a FaultFS over the bound backend", view)
	}
	vh, err := view.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer vh.Close()
	bfs.Arm(boom)
	if _, err := ReadFull(view, "f"); !errors.Is(err, boom) {
		t.Fatalf("bound view read while armed: err = %v, want injected", err)
	}
	if _, err := vh.Read(buf); !errors.Is(err, boom) {
		t.Fatalf("bound view handle read while armed: err = %v, want injected", err)
	}
	bfs.Disarm()
	if got, err := ReadFull(view, "f"); err != nil || string(got) != "payload" {
		t.Fatalf("bound view read after Disarm = %q, %v", got, err)
	}
}

// bindingFS is a MemFS whose WithContext returns a distinct view
// carrying ctx, as the parallel-FS clients' does.
type bindingFS struct {
	*MemFS
	ctx context.Context
}

func (b bindingFS) WithContext(ctx context.Context) FileSystem { return bindingFS{b.MemFS, ctx} }

// TestConcurrentStreamingOnOneHandle runs Write, Read and Seek from
// several goroutines on one MemFS handle. The cursor serializes the
// streaming calls: every record the writers append lands whole at a
// record boundary, no Seek reports a position inside a record, and the
// readers together consume each record exactly once.
func TestConcurrentStreamingOnOneHandle(t *testing.T) {
	const workers, records, recLen = 4, 200, 8
	f, err := NewMemFS().Create("log")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	run := func(body func(w int)) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				body(w)
			}(w)
		}
		wg.Wait()
	}
	seekAligned := func(whence int) {
		if pos, err := f.Seek(0, whence); err != nil || pos%recLen != 0 {
			t.Errorf("Seek(0, %d) = %d, %v; want a record boundary", whence, pos, err)
		}
	}

	run(func(w int) {
		rec := bytes.Repeat([]byte{'a' + byte(w)}, recLen)
		for i := 0; i < records; i++ {
			if n, err := f.Write(rec); n != recLen || err != nil {
				t.Errorf("Write = %d, %v", n, err)
				return
			}
			seekAligned(io.SeekCurrent)
			seekAligned(io.SeekEnd)
		}
	})
	if pos, err := f.Seek(0, io.SeekStart); err != nil || pos != 0 {
		t.Fatalf("rewind = %d, %v", pos, err)
	}

	var mu sync.Mutex
	got := map[byte]int{}
	run(func(int) {
		buf := make([]byte, recLen)
		for {
			n, err := f.Read(buf)
			if n == 0 && err == io.EOF {
				return
			}
			if n != recLen || !bytes.Equal(buf, bytes.Repeat(buf[:1], recLen)) {
				t.Errorf("Read = %d, %v: %q is not one whole record", n, err, buf[:n])
				return
			}
			mu.Lock()
			got[buf[0]]++
			mu.Unlock()
			seekAligned(io.SeekCurrent)
		}
	})
	for w := 0; w < workers; w++ {
		if n := got['a'+byte(w)]; n != records {
			t.Errorf("writer %d: read back %d records, want %d", w, n, records)
		}
	}
}

// TestCheckSegs pins the one segment-list shape: ascending and
// disjoint, a zero-length segment counting at its offset.
func TestCheckSegs(t *testing.T) {
	for _, tc := range []struct {
		segs  []Seg
		total int64 // -1: refused
	}{
		{nil, 0},
		{[]Seg{{Off: 0, Len: 4}, {Off: 4, Len: 4}, {Off: 100, Len: 0}, {Off: 100, Len: 2}}, 10},
		{[]Seg{{Off: 5, Len: 0}, {Off: 5, Len: 0}, {Off: 5, Len: 1}}, 1},
		{[]Seg{{Off: 100, Len: 4}, {Off: 0, Len: 4}}, -1},           // unsorted
		{[]Seg{{Off: 0, Len: 8}, {Off: 4, Len: 8}}, -1},             // overlapping
		{[]Seg{{Off: 0, Len: 8}, {Off: 4, Len: 0}}, -1},             // empty inside the previous
		{[]Seg{{Off: -1, Len: 4}}, -1},                              // negative offset
		{[]Seg{{Off: 0, Len: -4}}, -1},                              // negative length
		{[]Seg{{Off: math.MaxInt64, Len: 2}, {Off: 0, Len: 1}}, -1}, // end overflows
	} {
		total, err := CheckSegs(tc.segs)
		if tc.total < 0 {
			if err == nil {
				t.Errorf("CheckSegs(%v) accepted, want an error", tc.segs)
			}
		} else if err != nil || total != tc.total {
			t.Errorf("CheckSegs(%v) = %d, %v; want %d, nil", tc.segs, total, err, tc.total)
		}
	}
}
