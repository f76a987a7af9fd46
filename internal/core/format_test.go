package core

import (
	"bytes"
	"sync"
	"testing"

	"pario/internal/blastdb"
	"pario/internal/ceft"
	"pario/internal/chio"
	"pario/internal/rpcpool"
	"pario/internal/seq"
	"pario/internal/telemetry"
	"pario/internal/workload"
)

// countingFS counts the writes that reach each file created through
// it. Format closes its fragments concurrently, so the count is locked.
type countingFS struct {
	chio.FileSystem
	mu     sync.Mutex
	writes map[string]int
}

func (c *countingFS) count(name string) {
	c.mu.Lock()
	c.writes[name]++
	c.mu.Unlock()
}

func (c *countingFS) Create(name string) (chio.File, error) {
	f, err := c.FileSystem.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	chio.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	f.fs.count(f.Name())
	return f.File.Write(p)
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.count(f.Name())
	return f.File.WriteAt(p, off)
}

// TestFormatWriteCounts pins format's write pattern. Each fragment file
// receives one write per started MiB plus the header patch, whatever
// its sequence count: 2 for a fragment under 1 MiB. Onto CEFT 2+2 each
// of those writes costs at most one list write per data server, and
// none of them is degraded.
func TestFormatWriteCounts(t *testing.T) {
	fasta := func(letters int64) []byte {
		var b bytes.Buffer
		if _, _, err := workload.WriteFasta(&b, workload.NtLike("w", letters, 5)); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	small, large := fasta(400_000), fasta(12<<20)
	checkCounts := func(fs *countingFS, name string, a *blastdb.Alias) (total int) {
		t.Helper()
		for _, fi := range a.Fragments {
			st, err := fs.Stat(fi.Path)
			if err != nil {
				t.Fatal(err)
			}
			want := int((st.Size+1<<20-1)>>20) + 1
			if got := fs.writes[fi.Path]; got != want {
				t.Errorf("%s: %d writes for %d bytes, want %d", fi.Path, got, st.Size, want)
			}
			total += fs.writes[fi.Path]
		}
		return total + fs.writes[blastdb.AliasPath(name)]
	}

	mem := &countingFS{FileSystem: chio.NewMemFS(), writes: map[string]int{}}
	for name, text := range map[string][]byte{"small": small, "large": large} {
		a, err := FormatDatabase(mem, name, seq.Nucleotide, 2, bytes.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		checkCounts(mem, name, a)
	}
	if st, _ := mem.Stat(blastdb.FragmentPath("large", 0)); st.Size <= 1<<20 {
		t.Fatalf("large fragment holds %d bytes; it should span more than one write", st.Size)
	}

	dep, err := StartCEFT(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	m := rpcpool.NewMetrics(telemetry.NewRegistry())
	cl, err := dep.Client(ceft.DefaultOptions(), rpcpool.WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cfs := &countingFS{FileSystem: cl, writes: map[string]int{}}
	a, err := FormatDatabase(cfs, "large", seq.Nucleotide, 2, bytes.NewReader(large))
	if err != nil {
		t.Fatal(err)
	}
	writes := checkCounts(cfs, "large", a)
	var writeRPCs int64
	m.Calls.Each(func(lvs []string, c *telemetry.Counter) {
		if lvs[1] == "list_write" {
			writeRPCs += c.Value()
		}
	})
	if writeRPCs == 0 || writeRPCs > 4*int64(writes) {
		t.Errorf("%d writes cost %d data-server write RPCs, want 1..%d", writes, writeRPCs, 4*writes)
	}
	if n := cl.DegradedWrites(); n != 0 {
		t.Errorf("%d degraded writes on a healthy cluster", n)
	}
	for _, fi := range a.Fragments {
		got, err := chio.ReadFull(cl, fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := chio.ReadFull(mem, fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between CEFT and memory", fi.Path)
		}
	}
}
