package core

import (
	"bytes"
	"context"
	"flag"
	"io"
	"strings"
	"sync"
	"testing"

	"pario/internal/blast"
	"pario/internal/chio"
	"pario/internal/pblast"
	"pario/internal/telemetry"
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
	_, wf := parseStore(t, "-scratch", t.TempDir(), "-chunk", "4096", "-readahead")
	reg := telemetry.NewRegistry()
	opts := wf.Options(reg)
	if _, ok := registryValue(reg, "pario_readahead_misses_total"); !ok {
		t.Error("-readahead registered no readahead counters")
	}
	cfg := pblast.NewConfig("nt", opts...)
	if !cfg.CopyToLocal {
		t.Error("-scratch did not enable CopyToLocal")
	}
	if cfg.ChunkBytes != 4096 {
		t.Errorf("chunk %d, want 4096", cfg.ChunkBytes)
	}
	sc, err := wf.ScratchFS(2)
	if err != nil || sc == nil {
		t.Fatalf("ScratchFS(2) = %v, %v", sc, err)
	}

	_, wf = parseStore(t)
	reg = telemetry.NewRegistry()
	opts = wf.Options(reg)
	if pblast.NewConfig("nt", opts...).CopyToLocal {
		t.Error("CopyToLocal set without -scratch")
	}
	for _, s := range reg.Snapshot() {
		if strings.HasPrefix(s.Name, "pario_readahead_") {
			t.Errorf("a readahead counter %s without -readahead", s.Name)
		}
	}
	if sc, err := wf.ScratchFS(1); sc != nil || err != nil {
		t.Errorf("ScratchFS without -scratch = %v, %v", sc, err)
	}

	// The worker read path is readahead over the rank's own client and
	// nothing else; these are all the knobs it has.
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	wf.RegisterFlags(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if got, want := strings.Join(names, " "), "chunk readahead scratch"; got != want {
		t.Errorf("worker flags = %q, want %q", got, want)
	}
}

// With -readahead every worker's cache counts into the one sink
// Options registers, so blastd's and mpiblast's /metrics show the
// pario_readahead_* families of a search.
func TestWorkerFlagsReadaheadMetrics(t *testing.T) {
	_, wf := parseStore(t, "-readahead")
	reg := telemetry.NewRegistry()
	opts := wf.Options(reg)
	fs := chio.NewMemFS()
	buildDB(t, fs)
	query, err := ExtractQuery(fs, "nt", 568, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SearchConfig{
		Search:   pblast.NewConfig("nt", append(opts, pblast.WithParams(blast.Params{Program: blast.BlastN}))...),
		Workers:  2,
		MasterFS: fs,
		WorkerFS: func(int) chio.FileSystem { return fs },
	}
	if _, err := ParallelSearch(context.Background(), query, cfg); err != nil {
		t.Fatal(err)
	}
	misses, _ := registryValue(reg, "pario_readahead_misses_total")
	if misses <= 0 {
		t.Fatalf("pario_readahead_misses_total = %v after a readahead search, want > 0", misses)
	}
	// Every family reads the one sink: the ratio agrees with the counts.
	hits, _ := registryValue(reg, "pario_readahead_hits_total")
	if ratio, _ := registryValue(reg, "pario_readahead_hit_ratio"); ratio != hits/(hits+misses) {
		t.Errorf("registry reads hit ratio %v, its counters %v hits and %v misses", ratio, hits, misses)
	}
}

// registryValue returns the value of reg's series called name, and
// whether there is one.
func registryValue(reg *telemetry.Registry, name string) (float64, bool) {
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}
