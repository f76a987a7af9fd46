package pblast

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pario/internal/blast"
	"pario/internal/blastdb"
	"pario/internal/ceft"
	"pario/internal/chio"
	"pario/internal/mpi"
	"pario/internal/pvfs"
	"pario/internal/seq"
	"pario/internal/util"
)

// buildTestDB formats a synthetic nucleotide database with a planted
// query match onto fs and returns the query.
func buildTestDB(t *testing.T, fs chio.FileSystem, name string, fragments int) *seq.Sequence {
	t.Helper()
	return buildTestDBWith(t, fs, name, fragments, nil)
}

// buildTestDBWith is buildTestDB with a hook that may rewrite the 40
// subjects after the query is planted into nt17 and before they are
// formatted.
func buildTestDBWith(t *testing.T, fs chio.FileSystem, name string, fragments int, edit func(subjects []*seq.Sequence, query *seq.Sequence)) *seq.Sequence {
	t.Helper()
	rng := util.NewRNG(55)
	var seqs []*seq.Sequence
	for i := 0; i < 40; i++ {
		n := 2000 + rng.Intn(3000)
		data := make([]byte, n)
		for j := range data {
			data[j] = seq.NucLetter[rng.Intn(4)]
		}
		seqs = append(seqs, &seq.Sequence{
			ID:   "nt" + itoa(i),
			Kind: seq.Nucleotide,
			Data: data,
		})
	}
	// Query: 568 letters; plant its middle into sequence 17.
	qdata := make([]byte, 568)
	for j := range qdata {
		qdata[j] = seq.NucLetter[rng.Intn(4)]
	}
	query := &seq.Sequence{ID: "query568", Kind: seq.Nucleotide, Data: qdata}
	copy(seqs[17].Data[700:], qdata[100:400])
	if edit != nil {
		edit(seqs, query)
	}

	var buf bytes.Buffer
	if err := seq.WriteFasta(&buf, 70, seqs...); err != nil {
		t.Fatal(err)
	}
	if _, err := blastdb.Format(fs, name, seq.Nucleotide, fragments, seq.NewFastaReader(&buf, seq.Nucleotide).Read); err != nil {
		t.Fatal(err)
	}
	return query
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func sameFS(fs chio.FileSystem) func(int) chio.FileSystem {
	return func(int) chio.FileSystem { return fs }
}

// searchPool runs one query through a new pool of nWorkers, every rank
// running with cfg: the alias is read through masterFS, the workers
// read through workerFS and copy to scratch (nil for none).
func searchPool(ctx context.Context, nWorkers int, query *seq.Sequence, cfg Config, masterFS chio.FileSystem, workerFS, scratch func(int) chio.FileSystem) (*Outcome, error) {
	alias, err := blastdb.ReadAlias(masterFS, cfg.DBName)
	if err != nil {
		return nil, err
	}
	pool, err := NewPool(ctx, cfg, nWorkers, workerFS, scratch)
	if err != nil {
		return nil, err
	}
	pool.Resize(nWorkers)
	out, err := pool.Submit(ctx, query, cfg.Params, alias)
	if cerr := pool.Close(); err == nil {
		err = cerr
	}
	return out, err
}

// searchStream is the master's side of a run whose workers the test
// runs itself on the other ranks of c: it opens a stream on rank 0 with
// cfg, submits one query against the alias read through fs, and closes
// the stream, releasing the workers.
func searchStream(ctx context.Context, c mpi.Comm, fs chio.FileSystem, query *seq.Sequence, cfg Config) (*Outcome, error) {
	alias, err := blastdb.ReadAlias(fs, cfg.DBName)
	if err != nil {
		return nil, err
	}
	st, err := StartStream(ctx, c, cfg)
	if err != nil {
		return nil, err
	}
	out, err := st.Submit(ctx, query, cfg.Params, alias)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return out, err
}

func checkFound(t *testing.T, out *Outcome) {
	t.Helper()
	if out.Result == nil || len(out.Result.Hits) == 0 {
		t.Fatal("parallel search found nothing")
	}
	if out.Result.Hits[0].SubjectID != "nt17" {
		t.Fatalf("best hit = %s, want nt17", out.Result.Hits[0].SubjectID)
	}
	hsp := out.Result.Hits[0].HSPs[0]
	if hsp.QueryFrom > 105 || hsp.QueryTo < 395 {
		t.Errorf("query extents [%d,%d) miss planted region [100,400)", hsp.QueryFrom, hsp.QueryTo)
	}
}

func TestDatabaseSegmentationSharedMem(t *testing.T) {
	fs := chio.NewMemFS()
	query := buildTestDB(t, fs, "nt", 8)
	out, err := searchPool(context.Background(), 4, query, NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN})), fs, sameFS(fs), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFound(t, out)
	if len(out.Timeline) != 8 {
		t.Errorf("timeline holds %d tasks, want 8", len(out.Timeline))
	}
	if out.Result.Stats.DBSequences != 40 {
		t.Errorf("merged DB sequences = %d, want 40", out.Result.Stats.DBSequences)
	}
}

// serialSearch is the reference a parallel result must equal: one
// search over every fragment of the database in alias order, the way
// core.SerialSearch runs it.
func serialSearch(t *testing.T, fs chio.FileSystem, query *seq.Sequence, p blast.Params) *blast.Result {
	t.Helper()
	alias, err := blastdb.ReadAlias(fs, "nt")
	if err != nil {
		t.Fatal(err)
	}
	frags, err := blastdb.OpenAll(fs, alias)
	if err != nil {
		t.Fatal(err)
	}
	var sources []blast.SubjectSource
	for _, fr := range frags {
		defer fr.Close()
		sources = append(sources, fr.Source(0))
	}
	res, err := blast.Search(query, &blast.ChainSource{Sources: sources},
		blast.DBInfo{Letters: alias.Letters, Sequences: alias.Seqs}, p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A parallel search returns the serial search's Result field for field:
// every hit and HSP in the same order, and every Stats field — the
// query-wide cutoffs as well as the summed work counters — for each
// program variant, per-worker thread count and fragment count. The last
// rows give two subjects in different fragments the same ID and the
// same planted match: they stay two hits, in database order, and a
// one-target cut keeps the first.
func TestResultsMatchSerialSearch(t *testing.T) {
	type row struct {
		name   string
		p      blast.Params
		frags  int
		dupeID bool
	}
	var rows []row
	for _, v := range []struct {
		name string
		p    blast.Params
	}{
		{"blastn", blast.Params{Program: blast.BlastN}},
		{"filtered", blast.Params{Program: blast.BlastN, Filter: true}},
		{"megablast", blast.Params{Program: blast.BlastN, Greedy: true}},
	} {
		for _, threads := range []int{1, 3} {
			for _, frags := range []int{1, 5} {
				p := v.p
				p.Threads = threads
				rows = append(rows, row{fmt.Sprintf("%s/threads=%d/frags=%d", v.name, threads, frags), p, frags, false})
			}
		}
	}
	rows = append(rows,
		row{"blastn/duplicate-id", blast.Params{Program: blast.BlastN}, 5, true},
		row{"blastn/duplicate-id/max-target-seqs=1", blast.Params{Program: blast.BlastN, MaxTargetSeqs: 1}, 5, true})

	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			fs := chio.NewMemFS()
			var edit func([]*seq.Sequence, *seq.Sequence)
			if tc.dupeID {
				edit = func(subjects []*seq.Sequence, query *seq.Sequence) {
					subjects[18].ID = "nt17"
					copy(subjects[18].Data[700:], query.Data[100:400])
				}
			}
			query := buildTestDBWith(t, fs, "nt", tc.frags, edit)
			// A low-complexity run outside the planted region gives DUST
			// something to mask.
			copy(query.Data[450:], bytes.Repeat([]byte("A"), 64))
			if tc.dupeID {
				requireSplitID(t, fs, "nt17")
			}

			out, err := searchPool(context.Background(), 3, query, NewConfig("nt", WithParams(tc.p)), fs, sameFS(fs), nil)
			if err != nil {
				t.Fatal(err)
			}
			want := serialSearch(t, fs, query, tc.p)
			got := out.Result
			if len(want.Hits) == 0 {
				t.Fatal("serial search found nothing")
			}
			if tc.p.Filter && want.Stats.MaskedLetters == 0 {
				t.Error("filtered search masked nothing")
			}
			if !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Errorf("stats differ:\nparallel %+v\nserial   %+v", got.Stats, want.Stats)
			}
			if !reflect.DeepEqual(got.Hits, want.Hits) {
				t.Errorf("hits differ:\nparallel %s\nserial   %s", hitShape(got), hitShape(want))
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("parallel Result differs from the serial Result")
			}
		})
	}
}

// requireSplitID fails the test unless subjects named id sit in at least
// two different fragments of the "nt" database.
func requireSplitID(t *testing.T, fs chio.FileSystem, id string) {
	t.Helper()
	alias, err := blastdb.ReadAlias(fs, "nt")
	if err != nil {
		t.Fatal(err)
	}
	frags, err := blastdb.OpenAll(fs, alias)
	if err != nil {
		t.Fatal(err)
	}
	holders := 0
	for _, fr := range frags {
		for i := 0; i < fr.NumSequences(); i++ {
			s, err := fr.Sequence(i)
			if err != nil {
				t.Fatal(err)
			}
			if s.ID == id {
				holders++
				break
			}
		}
		fr.Close()
	}
	if holders < 2 {
		t.Fatalf("subjects named %s sit in %d fragment(s), want 2", id, holders)
	}
}

// hitShape renders a result's hit list as ID:HSP-count pairs.
func hitShape(r *blast.Result) string {
	var sb strings.Builder
	for _, h := range r.Hits {
		fmt.Fprintf(&sb, "%s:%d ", h.SubjectID, len(h.HSPs))
	}
	return sb.String()
}

func TestCopyToLocalMeasuresCopyTime(t *testing.T) {
	shared := chio.NewMemFS()
	query := buildTestDB(t, shared, "nt", 4)
	var mu sync.Mutex
	scratches := map[int]chio.FileSystem{}
	out, err := searchPool(context.Background(), 2, query, NewConfig("nt",
		WithParams(blast.Params{Program: blast.BlastN}),
		WithCopyToLocal(true)), shared, sameFS(shared), func(rank int) chio.FileSystem {
		mu.Lock()
		defer mu.Unlock()
		if scratches[rank] == nil {
			scratches[rank] = chio.NewMemFS()
		}
		return scratches[rank]
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFound(t, out)
	if out.CopyTime <= 0 {
		t.Error("copy time not measured")
	}
	// The scratch file systems must now hold fragment copies.
	total := 0
	for _, sc := range scratches {
		fis, _ := sc.List("")
		total += len(fis)
	}
	if total != 4 {
		t.Errorf("scratch copies = %d, want 4", total)
	}
}

// Copy-to-local is the worker rank's own decision: a master whose
// Config does not ask for it still gets copies from a worker whose
// Config does.
func TestWorkerConfigDecidesCopyToLocal(t *testing.T) {
	shared := chio.NewMemFS()
	query := buildTestDB(t, shared, "nt", 3)
	world, err := mpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	master := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}))
	scratch := chio.NewMemFS()
	werr := make(chan error, 1)
	go func() {
		werr <- RunWorker(context.Background(), world.Comm(1), master.Apply(WithCopyToLocal(true)), shared, scratch, nil)
	}()
	out, err := searchStream(context.Background(), world.Comm(0), shared, query, master)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-werr; err != nil {
		t.Fatalf("worker: %v", err)
	}
	checkFound(t, out)
	if out.CopyTime <= 0 {
		t.Error("copy time not measured")
	}
	alias, err := blastdb.ReadAlias(shared, "nt")
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range alias.Fragments {
		if _, err := scratch.Stat(fr.Path); err != nil {
			t.Errorf("scratch lacks fragment %s: %v", fr.Path, err)
		}
	}
}

// A long-lived pool keeps at most one temporary result per (worker,
// fragment) on the shared store, however many queries it serves.
func TestTempResultsStayBounded(t *testing.T) {
	const workers, frags, queries = 2, 4, 10
	fs := chio.NewMemFS()
	query := buildTestDB(t, fs, "nt", frags)
	alias, err := blastdb.ReadAlias(fs, "nt")
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}))
	pool, err := NewPool(context.Background(), cfg, workers, sameFS(fs), nil)
	if err != nil {
		t.Fatal(err)
	}
	pool.Resize(workers)
	for i := 0; i < queries; i++ {
		if _, err := pool.Submit(context.Background(), query, cfg.Params, alias); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	tmp, err := fs.List("tmp/")
	if err != nil {
		t.Fatal(err)
	}
	if len(tmp) == 0 || len(tmp) > workers*frags {
		t.Errorf("%d temporary results after %d queries, want 1..%d", len(tmp), queries, workers*frags)
	}
}

func TestCopyToLocalWithoutScratchFails(t *testing.T) {
	shared := chio.NewMemFS()
	query := buildTestDB(t, shared, "nt", 2)
	_, err := searchPool(context.Background(), 1, query, NewConfig("nt",
		WithParams(blast.Params{Program: blast.BlastN}),
		WithCopyToLocal(true)), shared, sameFS(shared), nil)
	if err == nil {
		t.Fatal("expected failure without scratch FS")
	}
}

// TestOverParallelFS is the full integration: format the DB onto a
// real PVFS or CEFT-PVFS deployment of four data servers and run the
// parallel search with one client per worker. PVFS stripes over all
// four; CEFT stripes over two and mirrors them onto the other two.
func TestOverParallelFS(t *testing.T) {
	type client interface {
		chio.FileSystem
		Close() error
	}
	for _, tc := range []struct {
		name                    string
		stripes, frags, workers int
		dial                    func(mgr string, addrs []string) (client, error)
	}{
		{"pvfs", 4, 6, 3, func(mgr string, addrs []string) (client, error) {
			return pvfs.Dial(mgr, addrs)
		}},
		{"ceft", 2, 4, 2, func(mgr string, addrs []string) (client, error) {
			return ceft.Dial(mgr, addrs[:2], addrs[2:], ceft.DefaultOptions())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mgr, err := pvfs.StartMetaServer(pvfs.MetaConfig{Addr: "127.0.0.1:0", NumServers: tc.stripes})
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()
			var addrs []string
			for i := 0; i < 4; i++ {
				ds, err := pvfs.StartDataServer(pvfs.DataServerConfig{ID: i, Addr: "127.0.0.1:0", Store: chio.NewMemFS()})
				if err != nil {
					t.Fatal(err)
				}
				defer ds.Close()
				addrs = append(addrs, ds.Addr())
			}
			masterCl, err := tc.dial(mgr.Addr(), addrs)
			if err != nil {
				t.Fatal(err)
			}
			defer masterCl.Close()
			query := buildTestDB(t, masterCl, "nt", tc.frags)

			var mu sync.Mutex
			var clients []client
			defer func() {
				for _, cl := range clients {
					cl.Close()
				}
			}()
			out, err := searchPool(context.Background(), tc.workers, query, NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN})), masterCl, func(rank int) chio.FileSystem {
				cl, err := tc.dial(mgr.Addr(), addrs)
				if err != nil {
					t.Errorf("worker %d dial: %v", rank, err)
					return chio.NewMemFS()
				}
				mu.Lock()
				clients = append(clients, cl)
				mu.Unlock()
				return cl
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkFound(t, out)
		})
	}
}

func TestMasterValidation(t *testing.T) {
	w, err := mpi.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := StartStream(context.Background(), w.Comm(0), NewConfig("x")); err == nil {
		t.Error("master with no workers accepted")
	}
}

func TestMissingDatabaseFails(t *testing.T) {
	fs := chio.NewMemFS()
	q := &seq.Sequence{ID: "q", Kind: seq.Nucleotide, Data: bytes.Repeat([]byte("ACGT"), 50)}
	_, err := searchPool(context.Background(), 2, q, NewConfig("absent", WithParams(blast.Params{Program: blast.BlastN})), fs, sameFS(fs), nil)
	if err == nil {
		t.Fatal("missing database accepted")
	}
}

func TestOutcomeTimingsPopulated(t *testing.T) {
	fs := chio.NewMemFS()
	query := buildTestDB(t, fs, "nt", 4)
	out, err := searchPool(context.Background(), 2, query, NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN})), fs, sameFS(fs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.WallTime <= 0 || out.SearchTime <= 0 {
		t.Errorf("timings: wall=%v search=%v", out.WallTime, out.SearchTime)
	}
}

// TestOutcomeTimeline: every accepted task must appear on the master's
// timeline with its worker, a master-clock start offset, and service
// times that sum to the outcome's SearchTime — the raw material of run
// reports.
func TestOutcomeTimeline(t *testing.T) {
	fs := chio.NewMemFS()
	query := buildTestDB(t, fs, "nt", 6)
	out, err := searchPool(context.Background(), 3, query, NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN})), fs, sameFS(fs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Timeline) != 6 {
		t.Fatalf("timeline has %d events, want 6", len(out.Timeline))
	}
	seen := map[int]bool{}
	var search time.Duration
	for _, ev := range out.Timeline {
		search += ev.Search
		if seen[ev.Index] {
			t.Errorf("task %d appears twice", ev.Index)
		}
		seen[ev.Index] = true
		if ev.Worker < 1 || ev.Worker > 3 {
			t.Errorf("task %d from out-of-range worker %d", ev.Index, ev.Worker)
		}
		if ev.Start < 0 {
			t.Errorf("task %d has negative start offset %v", ev.Index, ev.Start)
		}
		if ev.Reassigned {
			t.Errorf("task %d flagged reassigned in a healthy run", ev.Index)
		}
	}
	if search != out.SearchTime {
		t.Errorf("timeline search times sum to %v, outcome reports %v", search, out.SearchTime)
	}
}

func TestOverTCPTransport(t *testing.T) {
	// The same master/worker code must run across the TCP transport
	// (separate processes in production; goroutines with real sockets
	// here).
	fs := chio.NewMemFS()
	query := buildTestDB(t, fs, "nt", 4)
	router, err := mpi.StartRouter("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}))
	var wg sync.WaitGroup
	workerErrs := make([]error, 3)
	for r := 1; r <= 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := mpi.Dial(router.Addr(), r, 3)
			if err != nil {
				workerErrs[r] = err
				return
			}
			defer c.Close()
			workerErrs[r] = RunWorker(context.Background(), c, cfg, fs, nil, nil)
		}(r)
	}
	c0, err := mpi.Dial(router.Addr(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	out, err := searchStream(context.Background(), c0, fs, query, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for r, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", r, err)
		}
	}
	checkFound(t, out)
}

// crashingWorker takes the welcome and exactly one task, then vanishes
// without sending its result — a silent worker death.
func crashingWorker(c mpi.Comm) error {
	if err := c.Send(0, tagHello, nil); err != nil {
		return err
	}
	if _, err := c.Recv(context.Background(), 0, tagWelcome); err != nil {
		return err
	}
	if err := c.Send(0, tagReady, nil); err != nil {
		return err
	}
	var tk taskMsg
	if _, err := mpi.RecvGob(context.Background(), c, 0, tagTask, &tk); err != nil {
		return err
	}
	return nil // dies holding the task
}

func TestWorkerCrashReassignment(t *testing.T) {
	fs := chio.NewMemFS()
	query := buildTestDB(t, fs, "nt", 6)
	world, err := mpi.NewWorld(4) // master + crasher + 2 good workers
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig("nt",
		WithParams(blast.Params{Program: blast.BlastN}),
		WithTaskTimeout(300*time.Millisecond))
	var wg sync.WaitGroup
	errs := make([]error, 4)
	wg.Add(1)
	go func() { defer wg.Done(); errs[1] = crashingWorker(world.Comm(1)) }()
	for r := 2; r <= 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Let the crasher claim a task first, so a task is
			// guaranteed to be lost and need reassignment.
			time.Sleep(100 * time.Millisecond)
			errs[r] = RunWorker(context.Background(), world.Comm(r), cfg, fs, nil, nil)
		}(r)
	}
	out, masterErr := searchStream(context.Background(), world.Comm(0), fs, query, cfg)
	world.Close()
	wg.Wait()
	if masterErr != nil {
		t.Fatalf("master failed despite fault tolerance: %v", masterErr)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	checkFound(t, out)
	if out.Reassigned == 0 {
		t.Error("no task was reassigned although a worker crashed")
	}
	if len(out.Timeline) != 6 {
		t.Errorf("completed %d of 6 tasks", len(out.Timeline))
	}
}

func TestNoReassignmentWithoutTimeout(t *testing.T) {
	// Sanity: the fault-tolerant path stays off by default and normal
	// runs report zero reassignments.
	fs := chio.NewMemFS()
	query := buildTestDB(t, fs, "nt", 4)
	out, err := searchPool(context.Background(), 3, query, NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN})), fs, sameFS(fs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Reassigned != 0 {
		t.Errorf("unexpected reassignments: %d", out.Reassigned)
	}
	checkFound(t, out)
}

func TestSlowWorkerDuplicateResultDiscarded(t *testing.T) {
	// A worker that is merely slow (not dead) eventually returns a
	// result for a task that was already reassigned and completed;
	// the master must discard the duplicate and still merge cleanly.
	fs := chio.NewMemFS()
	query := buildTestDB(t, fs, "nt", 3)
	world, err := mpi.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig("nt",
		WithParams(blast.Params{Program: blast.BlastN}),
		WithTaskTimeout(200*time.Millisecond))
	var wg sync.WaitGroup
	errs := make([]error, 3)
	// Rank 1: slow worker — handles its first task only after a long
	// pause, then behaves normally.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := world.Comm(1)
		if err := c.Send(0, tagHello, nil); err != nil {
			errs[1] = err
			return
		}
		if _, err := c.Recv(context.Background(), 0, tagWelcome); err != nil {
			errs[1] = err
			return
		}
		if err := c.Send(0, tagReady, nil); err != nil {
			errs[1] = err
			return
		}
		var tk taskMsg
		if _, err := mpi.RecvGob(context.Background(), c, 0, tagTask, &tk); err != nil {
			errs[1] = err
			return
		}
		time.Sleep(700 * time.Millisecond) // long enough to be declared overdue
		if tk.Kind == taskSearch {
			rm := runTask(cfg, c.Rank(), &tk, fs, nil)
			if err := mpi.SendGob(c, 0, tagResult, rm); err != nil && !errorsIsClosed(err) {
				errs[1] = err
				return
			}
		}
		// Continue as a normal worker until released.
		for {
			if err := c.Send(0, tagReady, nil); err != nil {
				if !errorsIsClosed(err) {
					errs[1] = err
				}
				return
			}
			var t2 taskMsg
			if _, err := mpi.RecvGob(context.Background(), c, 0, tagTask, &t2); err != nil {
				if !errorsIsClosed(err) {
					errs[1] = err
				}
				return
			}
			if t2.Kind == taskDone {
				return
			}
			rm := runTask(cfg, c.Rank(), &t2, fs, nil)
			if err := mpi.SendGob(c, 0, tagResult, rm); err != nil {
				if !errorsIsClosed(err) {
					errs[1] = err
				}
				return
			}
		}
	}()
	wg.Add(1)
	go func() { defer wg.Done(); errs[2] = RunWorker(context.Background(), world.Comm(2), cfg, fs, nil, nil) }()
	out, masterErr := searchStream(context.Background(), world.Comm(0), fs, query, cfg)
	world.Close()
	wg.Wait()
	if masterErr != nil {
		t.Fatalf("master: %v", masterErr)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	checkFound(t, out)
	if len(out.Timeline) != 3 {
		t.Errorf("completed %d of 3 tasks", len(out.Timeline))
	}
}

func errorsIsClosed(err error) bool { return errors.Is(err, mpi.ErrClosed) }

func TestBatchMultiQuery(t *testing.T) {
	fs := chio.NewMemFS()
	q1 := buildTestDB(t, fs, "nt", 5) // plants q1's middle into nt17
	// A second query planted into a different sequence.
	rng := util.NewRNG(77)
	q2data := make([]byte, 400)
	for i := range q2data {
		q2data[i] = seq.NucLetter[rng.Intn(4)]
	}
	q2 := &seq.Sequence{ID: "query2", Kind: seq.Nucleotide, Data: q2data}
	// Plant q2 into fragment data by rewriting the database: easier to
	// regenerate with both plants.
	alias, err := blastdb.ReadAlias(fs, "nt")
	if err != nil {
		t.Fatal(err)
	}
	frags, err := blastdb.OpenAll(fs, alias)
	if err != nil {
		t.Fatal(err)
	}
	var all []*seq.Sequence
	for _, fr := range frags {
		for i := 0; i < fr.NumSequences(); i++ {
			s, err := fr.Sequence(i)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, s)
		}
		fr.Close()
	}
	for _, s := range all {
		if s.ID == "nt23" {
			copy(s.Letters()[300:], q2data[50:350])
		}
	}
	var buf bytes.Buffer
	if err := seq.WriteFasta(&buf, 70, all...); err != nil {
		t.Fatal(err)
	}
	if _, err := blastdb.Format(fs, "nt", seq.Nucleotide, 5, seq.NewFastaReader(&buf, seq.Nucleotide).Read); err != nil {
		t.Fatal(err)
	}

	outs := submitAll(t, fs, 3, NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN})), q1, q2)
	for qi, out := range outs {
		if len(out.Timeline) != 5 { // one task per fragment, per query
			t.Errorf("query %d: timeline holds %d tasks, want 5", qi, len(out.Timeline))
		}
	}
	r1, r2 := outs[0].Result, outs[1].Result
	if r1.QueryID != "query568" || r2.QueryID != "query2" {
		t.Fatalf("result order: %s, %s", r1.QueryID, r2.QueryID)
	}
	if len(r1.Hits) == 0 || r1.Hits[0].SubjectID != "nt17" {
		t.Errorf("query 1 best hit: %+v", r1.Hits)
	}
	if len(r2.Hits) == 0 || r2.Hits[0].SubjectID != "nt23" {
		t.Errorf("query 2 best hit: %+v", r2.Hits)
	}
}

// submitAll opens one pool of nWorkers over fs and submits every query
// to it at once — the shape of a multi-query run.
func submitAll(t *testing.T, fs chio.FileSystem, nWorkers int, cfg Config, queries ...*seq.Sequence) []*Outcome {
	t.Helper()
	alias, err := blastdb.ReadAlias(fs, cfg.DBName)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(context.Background(), cfg, nWorkers, sameFS(fs), nil)
	if err != nil {
		t.Fatal(err)
	}
	pool.Resize(nWorkers)
	outs := make([]*Outcome, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = pool.Submit(context.Background(), q, cfg.Params, alias)
		}()
	}
	wg.Wait()
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	return outs
}

func TestBatchMatchesIndividualRuns(t *testing.T) {
	fs := chio.NewMemFS()
	q1 := buildTestDB(t, fs, "nt", 4)
	q2 := q1.Subsequence(50, 450)
	q2.ID = "sub"
	cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}))
	batch := submitAll(t, fs, 2, cfg, q1, q2)
	for qi, q := range []*seq.Sequence{q1, q2} {
		single, err := searchPool(context.Background(), 2, q, cfg, fs, sameFS(fs), nil)
		if err != nil {
			t.Fatal(err)
		}
		b := batch[qi].Result
		s := single.Result
		if len(b.Hits) != len(s.Hits) {
			t.Errorf("query %d: batch %d hits vs single %d", qi, len(b.Hits), len(s.Hits))
			continue
		}
		for i := range b.Hits {
			if b.Hits[i].SubjectID != s.Hits[i].SubjectID ||
				b.Hits[i].HSPs[0].Score != s.Hits[i].HSPs[0].Score {
				t.Errorf("query %d hit %d differs between batch and single", qi, i)
			}
		}
		// Each submission merges its own tasks' statistics, however the
		// scheduler interleaved them with the other query's.
		if b.Stats != s.Stats {
			t.Errorf("query %d: merged stats differ:\nbatch  %+v\nsingle %+v", qi, b.Stats, s.Stats)
		}
	}
}

// A rank retired by Resize and started again must read through the
// file system it was first given: the pool memoizes per rank, so a
// factory that dials a client is called once per rank, not once per
// restart.
func TestPoolRestartedRankReusesFS(t *testing.T) {
	fs := chio.NewMemFS()
	query := buildTestDB(t, fs, "nt", 4)
	cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}))
	alias, err := blastdb.ReadAlias(fs, "nt")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	built := make(map[int]int)
	pool, err := NewPool(context.Background(), cfg, 3, func(rank int) chio.FileSystem {
		mu.Lock()
		built[rank]++
		mu.Unlock()
		return fs
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	search := func() {
		t.Helper()
		out, err := pool.Submit(context.Background(), query, cfg.Params, alias)
		if err != nil {
			t.Fatal(err)
		}
		checkFound(t, out)
	}
	waitSize := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			pool.mu.Lock()
			idle := len(pool.free)
			pool.mu.Unlock()
			if idle == 3-n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("pool did not settle at %d workers", n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	pool.Resize(3)
	search()
	pool.Resize(1)
	waitSize(1) // ranks 2 and 3 have left and freed their ranks
	pool.Resize(3)
	search()
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	for rank := 1; rank <= 3; rank++ {
		if built[rank] != 1 {
			t.Errorf("rank %d file system built %d times, want 1", rank, built[rank])
		}
	}
}

func TestWorkerTaskFailureSurfacesToMaster(t *testing.T) {
	// A worker whose file system errors mid-search must fail its task
	// and the master must surface the error (fail-fast without a
	// TaskTimeout policy).
	shared := chio.NewMemFS()
	query := buildTestDB(t, shared, "nt", 3)
	ffs := chio.NewFaultFS(shared)
	ffs.Arm(errors.New("simulated disk failure"))
	_, err := searchPool(context.Background(), 2, query, NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN})), shared /* master reads alias fine */, func(int) chio.FileSystem { return ffs }, nil)
	if err == nil {
		t.Fatal("master succeeded despite failing worker reads")
	}
	if !strings.Contains(err.Error(), "task") {
		t.Errorf("error does not identify the failed task: %v", err)
	}
}

// gatedFS holds a worker inside its first Open until release closes,
// counting every Open.
type gatedFS struct {
	chio.FileSystem
	entered, release chan struct{}
	opens            atomic.Int32
}

func (g *gatedFS) Open(name string) (chio.File, error) {
	if g.opens.Add(1) == 1 {
		close(g.entered)
		<-g.release
	}
	return g.FileSystem.Open(name)
}

// A cancelled Submit withdraws its query: the task already running
// finishes, but Close's drain must not run the seven still pending.
func TestCancelledSubmitWithdrawsTasks(t *testing.T) {
	mem := chio.NewMemFS()
	query := buildTestDB(t, mem, "nt", 8)
	alias, err := blastdb.ReadAlias(mem, "nt")
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedFS{FileSystem: mem, entered: make(chan struct{}), release: make(chan struct{})}
	cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}))
	pool, err := NewPool(context.Background(), cfg, 1, sameFS(gate), nil)
	if err != nil {
		t.Fatal(err)
	}
	pool.Resize(1)
	ctx, cancel := context.WithCancel(context.Background())
	submitted := make(chan error, 1)
	go func() {
		_, err := pool.Submit(ctx, query, cfg.Params, alias)
		submitted <- err
	}()
	<-gate.entered
	cancel()
	if err := <-submitted; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Submit returned %v, want context.Canceled", err)
	}
	close(gate.release)
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if n := gate.opens.Load(); n != 1 {
		t.Errorf("worker opened %d fragments, want 1: the withdrawn query kept running", n)
	}
}

// countingComm counts the Recv calls of every endpoint sharing recvs.
type countingComm struct {
	mpi.Comm
	recvs *atomic.Int64
}

func (c countingComm) Recv(ctx context.Context, from, tag int) (mpi.Message, error) {
	c.recvs.Add(1)
	return c.Comm.Recv(ctx, from, tag)
}

// An idle stream and its workers block in Recv rather than polling,
// even in the Pool's shape (cancellable context, quit channels), and a
// quit still reaches an idle worker.
func TestIdleStreamMakesNoReceives(t *testing.T) {
	world, err := mpi.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	var recvs atomic.Int64
	comm := func(rank int) mpi.Comm { return countingComm{world.Comm(rank), &recvs} }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := StartStream(ctx, comm(0), NewConfig("nt"))
	if err != nil {
		t.Fatal(err)
	}
	fs := chio.NewMemFS()
	quits := []chan struct{}{make(chan struct{}), make(chan struct{})}
	exited := []chan error{make(chan error, 1), make(chan error, 1)}
	for i := range quits {
		go func() { exited[i] <- RunWorker(ctx, comm(i+1), NewConfig("nt"), fs, nil, quits[i]) }()
	}
	// Joined and idle: the master has taken two hellos and two readies
	// and waits in its fifth Recv; each worker has taken its welcome
	// and waits in its second.
	const settled = 5 + 2*2
	for deadline := time.Now().Add(5 * time.Second); recvs.Load() < settled; {
		if time.Now().After(deadline) {
			t.Fatalf("joins made %d receives, want %d", recvs.Load(), settled)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(time.Second)
	if n := recvs.Load() - settled; n != 0 {
		t.Errorf("idle stream made %d receives in 1s, want 0", n)
	}
	close(quits[0])
	select {
	case err := <-exited[0]:
		if err != nil {
			t.Errorf("quit worker returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle worker did not notice its quit")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-exited[1]; err != nil {
		t.Errorf("released worker returned %v", err)
	}
}
