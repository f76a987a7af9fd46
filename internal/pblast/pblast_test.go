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
	"pario/internal/telemetry"
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
	pool, err := NewPool(ctx, cfg, nWorkers, workerFS, scratch, nil)
	if err != nil {
		return nil, err
	}
	out, err := pool.Submit(ctx, query, cfg.Params, alias)
	if cerr := pool.Close(); err == nil {
		err = cerr
	}
	return out, err
}

// searchStream is the master's side of a run whose workers the test
// runs itself on the other ranks of c: it opens a stream on rank 0 with
// cfg, submits one query against the alias read through fs, and closes
// the stream. The workers run on until the test closes c's transport.
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
// program variant and fragment count, with the ignored Params.Threads
// at one and three. The last
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
		WithParams(blast.Params{Program: blast.BlastN})), shared, sameFS(shared), func(rank int) chio.FileSystem {
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

// Copy-to-local is the worker rank's own decision, made by the scratch
// file system it is handed: a worker running the master's very Config
// copies each fragment once it has a scratch.
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
		werr <- RunWorker(context.Background(), world.Comm(1), master, shared, scratch)
	}()
	out, err := searchStream(context.Background(), world.Comm(0), shared, query, master)
	if err != nil {
		t.Fatal(err)
	}
	world.Close()
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
	pool, err := NewPool(context.Background(), cfg, workers, sameFS(fs), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
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
	if out.Reassigned != 0 {
		t.Errorf("healthy run reassigned %d tasks", out.Reassigned)
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
	router, err := mpi.Listen("127.0.0.1:0", 3)
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
			workerErrs[r] = RunWorker(context.Background(), c, cfg, fs, nil)
		}(r)
	}
	out, err := searchStream(context.Background(), router, fs, query, cfg)
	if err != nil {
		t.Fatal(err)
	}
	router.Close() // the workers' end signal
	wg.Wait()
	for r, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", r, err)
		}
	}
	checkFound(t, out)
}

// goneDeadline bounds each test in which a worker goes: a scheduler
// that loses a gone worker's task, or a worker that does not report
// itself gone, fails the test by name within seconds instead of
// hanging it until go test's timeout.
const goneDeadline = 2 * time.Second

// within returns the next value from ch, or fails t naming what once
// ctx has ended.
func within[T any](t testing.TB, ctx context.Context, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-ctx.Done():
		t.Fatalf("%s: nothing within %v", what, goneDeadline)
	}
	var zero T
	return zero
}

// waitDone turns wg.Wait into a channel that within can bound.
func waitDone(wg *sync.WaitGroup) <-chan struct{} {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	return done
}

// masterRun is the master's return from searchStream.
type masterRun struct {
	out *Outcome
	err error
}

// goMaster runs searchStream on its own goroutine, so that within can
// bound the wait for its return.
func goMaster(ctx context.Context, c mpi.Comm, fs chio.FileSystem, query *seq.Sequence, cfg Config) <-chan masterRun {
	ch := make(chan masterRun, 1)
	go func() {
		out, err := searchStream(ctx, c, fs, query, cfg)
		ch <- masterRun{out, err}
	}()
	return ch
}

// crashingWorker joins, takes exactly one task, then closes c without
// sending its result — a worker that dies holding the task.
func crashingWorker(c mpi.Comm) error {
	defer c.Close()
	if err := c.Send(0, tagReady, nil); err != nil {
		return err
	}
	m, err := c.Recv(context.Background())
	if err != nil {
		return err
	}
	var tk taskMsg
	return decode(m, &tk) // dies holding the task
}

func TestWorkerCrashReassignment(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), goneDeadline)
	defer cancel()
	fs := chio.NewMemFS()
	query := buildTestDB(t, fs, "nt", 6)
	world, err := mpi.NewWorld(4) // master + crasher + 2 good workers
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}))
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
			errs[r] = RunWorker(context.Background(), world.Comm(r), cfg, fs, nil)
		}(r)
	}
	res := within(t, ctx, goMaster(ctx, world.Comm(0), fs, query, cfg), "master")
	world.Close()
	if res.err != nil {
		t.Fatalf("master failed despite fault tolerance: %v", res.err)
	}
	within(t, ctx, waitDone(&wg), "workers")
	out := res.out
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

// A TCP worker that goes while it holds a task is reported by the
// router: the task runs on the other worker and Submit returns the
// serial search's result. When both workers go holding tasks, Submit
// fails naming them. Either way it returns within 2 s.
func TestGoneTCPWorker(t *testing.T) {
	for _, crashers := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d of 2", crashers), func(t *testing.T) {
			mem := chio.NewMemFS()
			query := buildTestDB(t, mem, "nt", 4)
			alias, err := blastdb.ReadAlias(mem, "nt")
			if err != nil {
				t.Fatal(err)
			}
			router, err := mpi.Listen("127.0.0.1:0", 3)
			if err != nil {
				t.Fatal(err)
			}
			defer router.Close()
			dial := func(rank int) mpi.Comm {
				c, err := mpi.Dial(router.Addr(), rank, 3)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				return c
			}
			cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}))
			st, err := StartStream(context.Background(), router, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			type result struct {
				out *Outcome
				err error
			}
			submitted := make(chan result, 1)
			go func() {
				out, err := st.Submit(ctx, query, cfg.Params, alias)
				submitted <- result{out, err}
			}()
			for r := 1; r <= crashers; r++ {
				if err := crashingWorker(dial(r)); err != nil {
					t.Fatal(err)
				}
			}
			if crashers == 2 {
				res := <-submitted
				if !errors.Is(res.err, ErrWorkersGone) || !strings.Contains(fmt.Sprint(res.err), "ranks [1 2]") {
					t.Fatalf("Submit with both workers gone returned %v, want ErrWorkersGone naming ranks [1 2]", res.err)
				}
				return
			}
			stayed := make(chan error, 1)
			go func() { stayed <- RunWorker(context.Background(), dial(2), cfg, mem, nil) }()
			res := <-submitted
			if res.err != nil {
				t.Fatalf("Submit failed because a worker was gone: %v", res.err)
			}
			if res.out.Reassigned < 1 {
				t.Errorf("reassigned %d tasks, want the one the gone worker held", res.out.Reassigned)
			}
			if want := serialSearch(t, mem, query, cfg.Params); !reflect.DeepEqual(res.out.Result, want) {
				t.Errorf("result differs from the serial search:\nparallel %s\nserial   %s", hitShape(res.out.Result), hitShape(want))
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			router.Close() // the staying worker's end signal
			if err := <-stayed; err != nil {
				t.Errorf("staying worker returned %v", err)
			}
		})
	}
}

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
	pool, err := NewPool(context.Background(), cfg, nWorkers, sameFS(fs), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
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

func TestWorkerTaskFailureSurfacesToMaster(t *testing.T) {
	// A worker whose file system errors mid-search must fail its task
	// and the master must surface the error (fail-fast).
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

// A result that names no task in flight is dropped without a panic
// and still counts as its sender's next Ready: one for a finished
// submission, one for a submission that never was, and two whose index
// lies outside their submission. Each time the sender gets the next
// task, and the query completes.
func TestStrayResultsAreDiscarded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), goneDeadline)
	defer cancel()
	mem := chio.NewMemFS()
	query := buildTestDB(t, mem, "nt", 5)
	alias, err := blastdb.ReadAlias(mem, "nt")
	if err != nil {
		t.Fatal(err)
	}
	world, err := mpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}))
	st, err := StartStream(ctx, world.Comm(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	submit := func() <-chan masterRun {
		ch := make(chan masterRun, 1)
		go func() {
			out, err := st.Submit(ctx, query, cfg.Params, alias)
			ch <- masterRun{out, err}
		}()
		return ch
	}
	// The test drives rank 1 by hand.
	w := world.Comm(1)
	nextTask := func() taskMsg {
		t.Helper()
		var tk taskMsg
		m, err := w.Recv(ctx)
		if err == nil {
			err = decode(m, &tk)
		}
		if err != nil {
			t.Fatalf("worker got no next task: %v", err)
		}
		return tk
	}
	send := func(rm *resultMsg) {
		t.Helper()
		if err := send(w, 0, tagResult, rm); err != nil {
			t.Fatal(err)
		}
	}
	var sr blast.Searcher
	answer := func(tk taskMsg) { send(runTask(ctx, cfg, &sr, 1, &tk, mem, nil)) }
	wantFound := func(run masterRun) {
		t.Helper()
		if run.err != nil {
			t.Fatal(run.err)
		}
		checkFound(t, run.out)
		if len(run.out.Timeline) != 5 {
			t.Errorf("completed %d of 5 tasks", len(run.out.Timeline))
		}
	}

	first := submit()
	if err := w.Send(0, tagReady, nil); err != nil {
		t.Fatal(err)
	}
	tk := nextTask()
	finished := tk.Sub
	for range 4 {
		answer(tk)
		tk = nextTask()
	}
	answer(tk)
	wantFound(within(t, ctx, first, "first query"))

	second := submit()
	held := []taskMsg{nextTask()}
	live := held[0].Sub
	for _, stray := range []resultMsg{
		{Sub: finished, Index: 0},
		{Sub: live + 100, Index: 0},
		{Sub: live, Index: 5},
		{Sub: live, Index: -1},
	} {
		send(&stray)
		held = append(held, nextTask())
	}
	seen := make(map[int]bool)
	for _, tk := range held {
		if tk.Sub != live || seen[tk.Index] {
			t.Fatalf("task %d of submission %d handed out after %d tasks of submission %d", tk.Index, tk.Sub, len(seen), live)
		}
		seen[tk.Index] = true
		answer(tk)
	}
	wantFound(within(t, ctx, second, "second query"))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// A worker whose message the master cannot read — a result that does
// not decode, or a tag no worker sends — is ended alone through the
// transport, over either transport: its Recv returns mpi.ErrClosed
// within 2 s, its task is re-run on the other worker, and both queries
// match the serial search.
func TestUnreadableWorkerIsDropped(t *testing.T) {
	for _, row := range []struct {
		name string
		tag  int
		data []byte
		tcp  bool
	}{
		{"garbage result", tagResult, []byte("garbage"), false},
		{"unexpected tag", tagTask, nil, false},
		{"garbage result over tcp", tagResult, []byte("garbage"), true},
	} {
		t.Run(row.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), goneDeadline)
			defer cancel()
			mem := chio.NewMemFS()
			query := buildTestDB(t, mem, "nt", 4)
			alias, err := blastdb.ReadAlias(mem, "nt")
			if err != nil {
				t.Fatal(err)
			}
			// comm returns rank r's endpoint; end closes rank 0's,
			// every other rank's end signal.
			var comm func(r int) mpi.Comm
			var end func()
			if row.tcp {
				l, err := mpi.Listen("127.0.0.1:0", 3)
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				comm = func(r int) mpi.Comm {
					if r == 0 {
						return l
					}
					c, err := mpi.Dial(l.Addr(), r, 3)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { c.Close() })
					return c
				}
				end = func() { l.Close() }
			} else {
				world, err := mpi.NewWorld(3)
				if err != nil {
					t.Fatal(err)
				}
				defer world.Close()
				comm, end = world.Comm, world.Close
			}
			cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}))
			st, err := StartStream(ctx, comm(0), cfg)
			if err != nil {
				t.Fatal(err)
			}
			submit := func() <-chan masterRun {
				ch := make(chan masterRun, 1)
				go func() {
					out, err := st.Submit(ctx, query, cfg.Params, alias)
					ch <- masterRun{out, err}
				}()
				return ch
			}
			// The test drives rank 2 by hand; it joins alone, so it
			// takes the first task.
			bad := comm(2)
			first := submit()
			if err := bad.Send(0, tagReady, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := bad.Recv(ctx); err != nil {
				t.Fatalf("rank 2 got no task: %v", err)
			}
			stayed := make(chan error, 1)
			go func(c mpi.Comm) { stayed <- RunWorker(context.Background(), c, cfg, mem, nil) }(comm(1))
			if err := bad.Send(0, row.tag, row.data); err != nil {
				t.Fatal(err)
			}
			want := serialSearch(t, mem, query, cfg.Params)
			wantSerial := func(run <-chan masterRun, what string) {
				t.Helper()
				res := within(t, ctx, run, what)
				if res.err != nil {
					t.Fatalf("%s: %v", what, res.err)
				}
				if !reflect.DeepEqual(res.out.Result, want) {
					t.Errorf("%s differs from the serial search:\nparallel %s\nserial   %s", what, hitShape(res.out.Result), hitShape(want))
				}
			}
			wantSerial(first, "first query")
			wantSerial(submit(), "second query")
			ended, stop := context.WithTimeout(context.Background(), goneDeadline)
			defer stop()
			if m, err := bad.Recv(ended); !errors.Is(err, mpi.ErrClosed) {
				t.Errorf("dropped rank 2 got %+v, %v; want mpi.ErrClosed within %v", m, err, goneDeadline)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			end()
			if err := within(t, ctx, stayed, "staying worker"); err != nil {
				t.Errorf("staying worker returned %v", err)
			}
		})
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
	pool, err := NewPool(context.Background(), cfg, 1, sameFS(gate), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
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

func (c countingComm) Recv(ctx context.Context) (mpi.Message, error) {
	c.recvs.Add(1)
	return c.Comm.Recv(ctx)
}

// An idle stream and its workers block in Recv rather than polling,
// even in the Pool's shape (cancellable contexts); a cancel still
// reaches an idle worker, and the world's close ends the other.
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
	leaving, leave := context.WithCancel(ctx)
	defer leave()
	exited := []chan error{make(chan error, 1), make(chan error, 1)}
	for i, wctx := range []context.Context{leaving, ctx} {
		go func() { exited[i] <- RunWorker(wctx, comm(i+1), NewConfig("nt"), fs, nil) }()
	}
	// Joined and idle: the master has taken two readies and waits in
	// its third Recv; each worker waits in its first.
	const settled = 3 + 2*1
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
	leave()
	select {
	case err := <-exited[0]:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled worker returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle worker did not notice its cancel")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	world.Close()
	if err := <-exited[1]; err != nil {
		t.Errorf("idle worker returned %v when the world closed", err)
	}
}

// Close makes no receive of its own: it drains the submissions and the
// loop returns, even while a worker still computes a withdrawn
// submission's task. The world's close then ends that worker cleanly.
func TestCloseMakesNoReceive(t *testing.T) {
	mem := chio.NewMemFS()
	query := buildTestDB(t, mem, "nt", 4)
	alias, err := blastdb.ReadAlias(mem, "nt")
	if err != nil {
		t.Fatal(err)
	}
	world, err := mpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	var recvs atomic.Int64
	cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}))
	st, err := StartStream(context.Background(), countingComm{world.Comm(0), &recvs}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedFS{FileSystem: mem, entered: make(chan struct{}), release: make(chan struct{})}
	exited := make(chan error, 1)
	go func() { exited <- RunWorker(context.Background(), world.Comm(1), cfg, gate, nil) }()
	ctx, cancel := context.WithCancel(context.Background())
	submitted := make(chan error, 1)
	go func() {
		_, err := st.Submit(ctx, query, cfg.Params, alias)
		submitted <- err
	}()
	<-gate.entered
	cancel()
	if err := <-submitted; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Submit returned %v, want context.Canceled", err)
	}
	// Rank 0 has now been sent all it gets before Close: the worker's
	// Ready and the wakes of the enqueue and the withdrawal. One Recv
	// each, and a fourth that blocks.
	const settled = 3 + 1
	for deadline := time.Now().Add(5 * time.Second); recvs.Load() < settled; {
		if time.Now().After(deadline) {
			t.Fatalf("the loop made %d receives, want %d", recvs.Load(), settled)
		}
		time.Sleep(time.Millisecond)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := recvs.Load() - settled; n != 0 {
		t.Errorf("Close made %d receives with a worker still in a withdrawn task, want 0", n)
	}
	close(gate.release)
	world.Close()
	if err := <-exited; err != nil {
		t.Errorf("worker returned %v when the world closed", err)
	}
}

// A TCP worker still computing a withdrawn task when the master's
// stream closes and its router goes ends cleanly: the result it then
// sends hits a connection the router has ended, which is the end
// signal, not a failure.
func TestRouterGoneWhileWorkerHoldsTask(t *testing.T) {
	mem := chio.NewMemFS()
	query := buildTestDB(t, mem, "nt", 4)
	alias, err := blastdb.ReadAlias(mem, "nt")
	if err != nil {
		t.Fatal(err)
	}
	router, err := mpi.Listen("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	dial := func(rank int) mpi.Comm {
		c, err := mpi.Dial(router.Addr(), rank, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}))
	st, err := StartStream(context.Background(), router, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	gate := &gatedFS{FileSystem: mem, entered: make(chan struct{}), release: make(chan struct{})}
	exited := make(chan error, 1)
	go func() { exited <- RunWorker(context.Background(), dial(1), cfg, gate, nil) }()
	ctx, cancel := context.WithCancel(context.Background())
	submitted := make(chan error, 1)
	go func() {
		_, err := st.Submit(ctx, query, cfg.Params, alias)
		submitted <- err
	}()
	<-gate.entered
	cancel()
	if err := <-submitted; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Submit returned %v, want context.Canceled", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	router.Close()
	close(gate.release)
	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("worker returned %v when the router ended its connection", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker still running 5s after its router closed")
	}
}

// TestKernelMetricsMatchStats: the registry's kernel counters must
// equal the work counters of the results the workers sent.
func TestKernelMetricsMatchStats(t *testing.T) {
	fs := chio.NewMemFS()
	query := buildTestDB(t, fs, "nt", 3)
	reg := telemetry.NewRegistry()
	cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}), WithTelemetry(NewTelemetry(reg)))
	out, err := searchPool(context.Background(), 2, query, cfg, fs, sameFS(fs), nil)
	if err != nil {
		t.Fatal(err)
	}
	st := out.Result.Stats
	if st.ScannedBases == 0 || st.PackedExts == 0 {
		t.Fatalf("search did no kernel work: %+v", st)
	}
	bases := reg.Gauge("pario_blast_scanned_bases_total", "").Value()
	exts := reg.Gauge("pario_blast_packed_exts_total", "").Value()
	if bases != float64(st.ScannedBases) || exts != float64(st.PackedExts) {
		t.Errorf("registry scanned_bases=%v packed_exts=%v, stats %d and %d",
			bases, exts, st.ScannedBases, st.PackedExts)
	}
}

// stallFS stalls every Open of a view bound to a context until that
// context ends, as a parallel-FS read does when its server hangs, and
// then fails it with the context's error.
type stallFS struct {
	chio.FileSystem
	ctx     context.Context
	entered chan struct{} // closed at the first stalled Open
	once    *sync.Once
}

func (f *stallFS) WithContext(ctx context.Context) chio.FileSystem {
	return &stallFS{FileSystem: f.FileSystem, ctx: ctx, entered: f.entered, once: f.once}
}

func (f *stallFS) Open(name string) (chio.File, error) {
	if f.ctx == nil {
		return f.FileSystem.Open(name)
	}
	f.once.Do(func() { close(f.entered) })
	<-f.ctx.Done()
	return nil, f.ctx.Err()
}

// A worker cancelled in the middle of a task leaves without reporting
// the error its own cancellation caused: the master re-queues the task
// and the query still returns the serial search's result.
func TestLeavingWorkerWithholdsSpoiledResult(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), goneDeadline)
	defer cancel()
	mem := chio.NewMemFS()
	query := buildTestDB(t, mem, "nt", 3)
	world, err := mpi.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}))
	stall := &stallFS{FileSystem: mem, entered: make(chan struct{}), once: new(sync.Once)}
	leaving, leave := context.WithCancel(context.Background())
	defer leave()
	left := make(chan error, 1)
	go func() { left <- RunWorker(leaving, world.Comm(1), cfg, stall, nil) }()
	master := goMaster(ctx, world.Comm(0), mem, query, cfg)
	within(t, ctx, stall.entered, "rank 1 taking a task")
	stayed := make(chan error, 1)
	go func() { stayed <- RunWorker(context.Background(), world.Comm(2), cfg, mem, nil) }()
	leave()
	if err := within(t, ctx, left, "leaving worker"); !errors.Is(err, context.Canceled) {
		t.Errorf("leaving worker returned %v, want context.Canceled", err)
	}
	res := within(t, ctx, master, "master")
	world.Close()
	if err := within(t, ctx, stayed, "staying worker"); err != nil {
		t.Errorf("staying worker returned %v", err)
	}
	if res.err != nil {
		t.Fatalf("Submit failed because a worker left: %v", res.err)
	}
	if res.out.Reassigned != 1 {
		t.Errorf("reassigned %d tasks, want the 1 the leaving worker held", res.out.Reassigned)
	}
	if want := serialSearch(t, mem, query, cfg.Params); !reflect.DeepEqual(res.out.Result, want) {
		t.Errorf("result differs from the serial search:\nparallel %s\nserial   %s", hitShape(res.out.Result), hitShape(want))
	}
}
