package core

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"pario/internal/blast"
	"pario/internal/blastdb"
	"pario/internal/ceft"
	"pario/internal/chio"
	"pario/internal/iotrace"
	"pario/internal/pblast"
	"pario/internal/seq"
)

const testDBLetters = 400_000

func buildDB(t *testing.T, fs chio.FileSystem) {
	t.Helper()
	if _, err := GenerateDatabase(fs, "nt", testDBLetters, 8, 21); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateExtractSerialSearch(t *testing.T) {
	fs := chio.NewMemFS()
	buildDB(t, fs)
	query, err := ExtractQuery(fs, "nt", 568, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SerialSearch(fs, "nt", query, blast.Params{Program: blast.BlastN})
	if err != nil {
		t.Fatal(err)
	}
	// The query was extracted from the database, so its source
	// sequence must be found with an essentially-zero e-value.
	if len(res.Hits) == 0 {
		t.Fatal("extracted query not found in its own database")
	}
	best := res.Hits[0]
	if !strings.Contains(query.ID, best.SubjectID) {
		t.Errorf("best hit %s is not the query's source %s", best.SubjectID, query.ID)
	}
	if best.HSPs[0].EValue > 1e-50 {
		t.Errorf("self hit e-value %g too large", best.HSPs[0].EValue)
	}
	if best.HSPs[0].Identities != 568 {
		t.Errorf("self hit identities = %d, want 568", best.HSPs[0].Identities)
	}
}

func TestFormatDatabaseFromFasta(t *testing.T) {
	fasta := ">a first\nACGTACGTACGTACGTACGT\n>b second\nTTTTGGGGCCCCAAAA\n"
	fs := chio.NewMemFS()
	alias, err := FormatDatabase(fs, "mini", 0, 2, strings.NewReader(fasta))
	if err != nil {
		t.Fatal(err)
	}
	if alias.Seqs != 2 || alias.Letters != 36 {
		t.Errorf("alias: %+v", alias)
	}
}

func TestParallelSearchLocalBackend(t *testing.T) {
	fs := chio.NewMemFS()
	buildDB(t, fs)
	query, err := ExtractQuery(fs, "nt", 568, 7)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParallelSearch(context.Background(), query, SearchConfig{
		Search:   pblast.NewConfig("nt", pblast.WithParams(blast.Params{Program: blast.BlastN})),
		Workers:  4,
		MasterFS: fs,
		WorkerFS: func(int) chio.FileSystem { return fs },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Result.Hits) == 0 {
		t.Fatal("parallel search found nothing")
	}
	// Results must agree with the serial reference.
	serial, err := SerialSearch(fs, "nt", query, blast.Params{Program: blast.BlastN})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Hits) != len(out.Result.Hits) {
		t.Errorf("parallel %d hits, serial %d", len(out.Result.Hits), len(serial.Hits))
	}
	if serial.Hits[0].SubjectID != out.Result.Hits[0].SubjectID {
		t.Errorf("best hits differ: %s vs %s", serial.Hits[0].SubjectID, out.Result.Hits[0].SubjectID)
	}
}

func TestParallelSearchOverPVFSWithTrace(t *testing.T) {
	dep, err := StartPVFS(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	shared, err := dep.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	buildDB(t, shared)
	query, err := ExtractQuery(shared, "nt", 568, 7)
	if err != nil {
		t.Fatal(err)
	}
	trace := iotrace.NewTrace()
	var mu sync.Mutex
	var clients []*struct{ c interface{ Close() error } }
	out, err := ParallelSearch(context.Background(), query, SearchConfig{
		Search:   pblast.NewConfig("nt", pblast.WithParams(blast.Params{Program: blast.BlastN})),
		Workers:  3,
		MasterFS: shared,
		WorkerFS: func(rank int) chio.FileSystem {
			cl, err := dep.Client()
			if err != nil {
				t.Errorf("dial: %v", err)
				return chio.NewMemFS()
			}
			mu.Lock()
			clients = append(clients, &struct{ c interface{ Close() error } }{cl})
			mu.Unlock()
			return cl
		},
		Trace: trace,
	})
	defer func() {
		for _, h := range clients {
			h.c.Close()
		}
	}()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Result.Hits) == 0 {
		t.Fatal("no hits over PVFS")
	}
	stats := trace.Summarize()
	if stats.Reads == 0 {
		t.Fatal("trace recorded no reads")
	}
	if stats.ReadFraction < 0.5 {
		t.Errorf("read fraction %.2f; BLAST should be read-dominated", stats.ReadFraction)
	}
}

func TestParallelSearchCopyToLocal(t *testing.T) {
	shared := chio.NewMemFS()
	buildDB(t, shared)
	query, err := ExtractQuery(shared, "nt", 568, 7)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	scratches := map[int]chio.FileSystem{}
	out, err := ParallelSearch(context.Background(), query, SearchConfig{
		Search: pblast.NewConfig("nt",
			pblast.WithParams(blast.Params{Program: blast.BlastN}),
			pblast.WithCopyToLocal(true)),
		Workers:  2,
		MasterFS: shared,
		WorkerFS: func(int) chio.FileSystem { return shared },
		Scratch: func(rank int) chio.FileSystem {
			mu.Lock()
			defer mu.Unlock()
			if scratches[rank] == nil {
				scratches[rank] = chio.NewMemFS()
			}
			return scratches[rank]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.CopyTime <= 0 {
		t.Error("copy time missing")
	}
	if len(out.Result.Hits) == 0 {
		t.Error("no hits with CopyToLocal")
	}
}

func TestParallelSearchOverCEFT(t *testing.T) {
	dep, err := StartCEFT(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	shared, err := dep.Client(ceft.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	buildDB(t, shared)
	query, err := ExtractQuery(shared, "nt", 568, 7)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var clients []*ceft.Client
	out, err := ParallelSearch(context.Background(), query, SearchConfig{
		Search:   pblast.NewConfig("nt", pblast.WithParams(blast.Params{Program: blast.BlastN})),
		Workers:  2,
		MasterFS: shared,
		WorkerFS: func(rank int) chio.FileSystem {
			cl, err := dep.Client(ceft.DefaultOptions())
			if err != nil {
				t.Errorf("dial: %v", err)
				return chio.NewMemFS()
			}
			mu.Lock()
			clients = append(clients, cl)
			mu.Unlock()
			return cl
		},
	})
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Result.Hits) == 0 {
		t.Fatal("no hits over CEFT-PVFS")
	}
}

func TestSearchConfigValidation(t *testing.T) {
	q, _ := ExtractQuery(func() chio.FileSystem {
		fs := chio.NewMemFS()
		GenerateDatabase(fs, "nt", 10_000, 1, 1)
		return fs
	}(), "nt", 100, 1)
	if _, err := ParallelSearch(context.Background(), q, SearchConfig{Search: pblast.NewConfig("nt")}); err == nil {
		t.Error("missing FS accepted")
	}
}

func TestDeploymentValidation(t *testing.T) {
	if _, err := StartPVFS(0, nil); err == nil {
		t.Error("StartPVFS(0) accepted")
	}
	if _, err := StartCEFT(0, nil); err == nil {
		t.Error("StartCEFT(0) accepted")
	}
}

// TestStartCEFTServerOrder pins the deployment's layout, which ceft.Dial
// and the benchmark's per-server store shims both rely on: server i has
// ID i and was given store(i), IDs 0..g-1 are the primary group in
// PrimaryAddrs order, and g..2g-1 the mirror group in MirrorAddrs order.
func TestStartCEFTServerOrder(t *testing.T) {
	const g = 3
	var mu sync.Mutex
	asked := map[int]int{}
	dep, err := StartCEFT(g, func(i int) chio.FileSystem {
		mu.Lock()
		asked[i]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if len(dep.Servers) != 2*g || len(dep.PrimaryAddrs) != g || len(dep.MirrorAddrs) != g {
		t.Fatalf("%d servers, %d primaries, %d mirrors; want %d, %d, %d",
			len(dep.Servers), len(dep.PrimaryAddrs), len(dep.MirrorAddrs), 2*g, g, g)
	}
	for i, ds := range dep.Servers {
		if ds.ID != i {
			t.Errorf("Servers[%d].ID = %d", i, ds.ID)
		}
		if asked[i] != 1 {
			t.Errorf("store(%d) called %d times, want once", i, asked[i])
		}
	}
	for i := 0; i < g; i++ {
		if dep.PrimaryAddrs[i] != dep.Servers[i].Addr() {
			t.Errorf("PrimaryAddrs[%d] = %s, Servers[%d] listens on %s", i, dep.PrimaryAddrs[i], i, dep.Servers[i].Addr())
		}
		if dep.MirrorAddrs[i] != dep.Servers[g+i].Addr() {
			t.Errorf("MirrorAddrs[%d] = %s, Servers[%d] listens on %s", i, dep.MirrorAddrs[i], g+i, dep.Servers[g+i].Addr())
		}
	}
}

func TestTabularAndReportOverParallelResult(t *testing.T) {
	fs := chio.NewMemFS()
	buildDB(t, fs)
	query, err := ExtractQuery(fs, "nt", 568, 7)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParallelSearch(context.Background(), query, SearchConfig{
		Search:   pblast.NewConfig("nt", pblast.WithParams(blast.Params{Program: blast.BlastN})),
		Workers:  2,
		MasterFS: fs,
		WorkerFS: func(int) chio.FileSystem { return fs },
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := blast.WriteReport(&buf, out.Result); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "blastn search") {
		t.Error("report missing header")
	}
	buf.Reset()
	if err := blast.WriteTabular(&buf, out.Result); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("tabular output empty")
	}
}

func TestOpenPoolConcurrentQueries(t *testing.T) {
	fs := chio.NewMemFS()
	buildDB(t, fs)
	q1, err := ExtractQuery(fs, "nt", 568, 7)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := ExtractQuery(fs, "nt", 300, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SearchConfig{
		Search:   pblast.NewConfig("nt", pblast.WithParams(blast.Params{Program: blast.BlastN})),
		Workers:  3,
		MasterFS: fs,
		WorkerFS: func(int) chio.FileSystem { return fs },
	}
	alias, err := blastdb.ReadAlias(fs, "nt")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := OpenPool(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*seq.Sequence{q1, q2}
	outs := make([]*pblast.Outcome, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = pool.Submit(context.Background(), q, cfg.Search.Params, alias)
		}()
	}
	wg.Wait()
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		solo, err := ParallelSearch(context.Background(), q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, want := outs[i].Result, solo.Result
		if len(got.Hits) == 0 || len(got.Hits) != len(want.Hits) {
			t.Fatalf("query %d: %d hits on the shared pool, %d alone", i, len(got.Hits), len(want.Hits))
		}
		for h := range got.Hits {
			if got.Hits[h].SubjectID != want.Hits[h].SubjectID {
				t.Errorf("query %d hit %d: %s on the shared pool, %s alone", i, h, got.Hits[h].SubjectID, want.Hits[h].SubjectID)
			}
		}
	}
}
