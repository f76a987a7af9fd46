package core

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"sync"
	"testing"

	"pario/internal/chio"
	"pario/internal/pblast"
)

// parseStore runs args through the full flag surface of mpiblast and
// blastd: every Store group plus the worker flags on one FlagSet (a
// flag declared twice would panic here).
func parseStore(t *testing.T, args ...string) (*Store, *WorkerFlags) {
	t.Helper()
	st, wf := NewStore(), &WorkerFlags{}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	st.RegisterFlags(fs, AddrFlags|ModeFlags|TransportFlags)
	wf.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return st, wf
}

func TestStoreOpen(t *testing.T) {
	pv, err := StartPVFS(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pv.Close()
	ce, err := StartCEFT(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ce.Close()
	join := func(addrs []string) string { return strings.Join(addrs, ",") }

	for _, tc := range []struct {
		name    string
		args    []string
		backend string // BackendName of the opened FS; "" when wantErr is set
		wantErr string
	}{
		{name: "local default", args: []string{"-root", t.TempDir()}, backend: "local"},
		{name: "pvfs", args: []string{"-io", "pvfs", "-mgr", pv.Mgr.Addr(), "-servers", join(pv.DataAddrs)}, backend: "pvfs"},
		{name: "ceft", args: []string{"-io", "ceft", "-mgr", ce.Mgr.Addr(),
			"-primary", join(ce.PrimaryAddrs), "-mirror", join(ce.MirrorAddrs), "-hot-factor", "2"}, backend: "ceft"},
		{name: "pvfs without mgr", args: []string{"-io", "pvfs", "-servers", "a:1"}, wantErr: "pvfs mode needs -mgr and -servers"},
		{name: "pvfs without servers", args: []string{"-io", "pvfs", "-mgr", "a:1"}, wantErr: "pvfs mode needs -mgr and -servers"},
		{name: "ceft without mgr", args: []string{"-io", "ceft", "-primary", "a:1", "-mirror", "b:1"}, wantErr: "ceft mode needs -mgr, -primary and -mirror"},
		{name: "ceft without primary", args: []string{"-io", "ceft", "-mgr", "m:1", "-mirror", "b:1"}, wantErr: "ceft mode needs -mgr, -primary and -mirror"},
		{name: "ceft without mirror", args: []string{"-io", "ceft", "-mgr", "m:1", "-primary", "a:1"}, wantErr: "ceft mode needs -mgr, -primary and -mirror"},
		{name: "unknown mode", args: []string{"-io", "nfs"}, wantErr: `unknown -io mode "nfs"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, _ := parseStore(t, tc.args...)
			fs, closeFS, err := st.Open()
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("Open error = %v, want %q", err, tc.wantErr)
				}
				if _, err := st.OpenRanks(); err == nil || err.Error() != tc.wantErr {
					t.Fatalf("OpenRanks error = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(fs.BackendName(), tc.backend) {
				t.Errorf("backend %q, want %q", fs.BackendName(), tc.backend)
			}
			want := bytes.Repeat([]byte("parallel I/O "), 9000) // spans several stripes
			if err := chio.WriteFull(fs, "roundtrip.dat", want); err != nil {
				t.Fatal(err)
			}
			got, err := chio.ReadFull(fs, "roundtrip.dat")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("read back %d bytes, wrote %d", len(got), len(want))
			}
			if err := closeFS(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Every worker goroutine asks for its rank's file system at once (the
// pool evaluates the factory inside each worker goroutine): no client
// may be lost from the owner's list, a repeated rank must get the
// client it already has, and Close must reach every one of them.
func TestRankStoreConcurrentRanks(t *testing.T) {
	ce, err := StartCEFT(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ce.Close()
	st, _ := parseStore(t, "-io", "ceft", "-mgr", ce.Mgr.Addr(),
		"-primary", strings.Join(ce.PrimaryAddrs, ","), "-mirror", strings.Join(ce.MirrorAddrs, ","))
	ranks, err := st.OpenRanks()
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	first := make([]chio.FileSystem, n)
	again := make([]chio.FileSystem, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if first[rank], err = ranks.FS(rank); err != nil {
				t.Error(err)
				return
			}
			if again[rank], err = ranks.FS(rank); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := len(ranks.CEFTAudits()); got != n {
		t.Errorf("%d clients recorded for %d ranks", got, n)
	}
	distinct := make(map[chio.FileSystem]bool)
	for rank := range first {
		if first[rank] != again[rank] {
			t.Errorf("rank %d got a second client on its second request", rank)
		}
		distinct[first[rank]] = true
	}
	if len(distinct) != n {
		t.Errorf("%d distinct clients for %d ranks", len(distinct), n)
	}
	if err := chio.WriteFull(first[0], "probe", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := ranks.Close(); err != nil {
		t.Fatal(err)
	}
	for rank, fs := range first {
		if _, err := fs.Stat("probe"); err == nil {
			t.Errorf("rank %d's client still answers after Close", rank)
		}
	}
}

// -scratch means copy-to-local wherever the workers run: the one
// options builder serves mpiblast's in-process and distributed modes
// alike, so neither can forget it.
func TestWorkerFlagsOptions(t *testing.T) {
	_, wf := parseStore(t, "-scratch", t.TempDir(), "-threads", "3", "-chunk", "4096", "-readahead", "-collio")
	cfg := pblast.NewConfig("nt", wf.Options(nil, nil)...)
	if !cfg.CopyToLocal {
		t.Error("-scratch did not enable CopyToLocal")
	}
	if cfg.Params.Threads != 3 || cfg.ChunkBytes != 4096 {
		t.Errorf("threads %d chunk %d, want 3 and 4096", cfg.Params.Threads, cfg.ChunkBytes)
	}
	sc, err := wf.ScratchFS(2)
	if err != nil || sc == nil {
		t.Fatalf("ScratchFS(2) = %v, %v", sc, err)
	}

	_, wf = parseStore(t)
	if pblast.NewConfig("nt", wf.Options(nil, nil)...).CopyToLocal {
		t.Error("CopyToLocal set without -scratch")
	}
	if sc, err := wf.ScratchFS(1); sc != nil || err != nil {
		t.Errorf("ScratchFS without -scratch = %v, %v", sc, err)
	}
}
