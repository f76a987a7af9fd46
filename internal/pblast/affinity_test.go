package pblast

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pario/internal/blast"
	"pario/internal/blastdb"
	"pario/internal/chio"
	"pario/internal/mpi"
	"pario/internal/seq"
	"pario/internal/telemetry"
)

// hookFS calls onOpen (when set) before every Open it passes on.
type hookFS struct {
	chio.FileSystem
	onOpen func(name string)
}

func (h *hookFS) Open(name string) (chio.File, error) {
	if h.onOpen != nil {
		h.onOpen(name)
	}
	return h.FileSystem.Open(name)
}

// pairBarrier holds each caller of wait until a second one arrives.
type pairBarrier struct {
	mu      sync.Mutex
	waiting chan struct{}
}

func (b *pairBarrier) wait() {
	b.mu.Lock()
	if ch := b.waiting; ch != nil {
		b.waiting = nil
		b.mu.Unlock()
		close(ch)
		return
	}
	ch := make(chan struct{})
	b.waiting = ch
	b.mu.Unlock()
	<-ch
}

// lockstepFS builds a four-fragment database whose fragment opens,
// through the returned file system, pass in pairs while the returned
// flag is set: every task of two workers reading through it starts
// alongside one on the other worker, so a submission's four tasks
// split two and two whatever the timing.
func lockstepFS(t *testing.T, cfg Config) (chio.FileSystem, *seq.Sequence, *blastdb.Alias, *atomic.Bool, chio.FileSystem) {
	t.Helper()
	mem := chio.NewMemFS()
	query := buildTestDB(t, mem, cfg.DBName, 4)
	alias, err := blastdb.ReadAlias(mem, cfg.DBName)
	if err != nil {
		t.Fatal(err)
	}
	fragment := make(map[string]bool)
	for _, fr := range alias.Fragments {
		fragment[fr.Path] = true
	}
	var lockstep atomic.Bool
	lockstep.Store(true)
	barrier := &pairBarrier{}
	fs := &hookFS{FileSystem: mem, onOpen: func(name string) {
		if fragment[name] && lockstep.Load() {
			barrier.wait()
		}
	}}
	return fs, query, alias, &lockstep, mem
}

// lockstepPool opens a pool of two workers over lockstepFS.
func lockstepPool(t *testing.T, cfg Config) (*Pool, *seq.Sequence, *blastdb.Alias, *atomic.Bool, chio.FileSystem) {
	t.Helper()
	fs, query, alias, lockstep, mem := lockstepFS(t, cfg)
	pool, err := NewPool(context.Background(), cfg, 2, sameFS(fs), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pool, query, alias, lockstep, mem
}

// handWorld stands up a stream on rank 0 of a three-rank world, for a
// test that runs the two workers itself: it returns the stream and a
// function that starts a worker on rank with ctx, reading fs, whose
// return arrives on the channel it gives back. The stream, the world
// and the workers are closed and joined at the end of the test.
func handWorld(t *testing.T, cfg Config) (*Stream, func(ctx context.Context, rank int, fs chio.FileSystem) <-chan error) {
	t.Helper()
	world, err := mpi.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	st, err := StartStream(context.Background(), world.Comm(0), cfg)
	if err != nil {
		world.Close()
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		st.Close()
		world.Close()
		wg.Wait()
	})
	return st, func(ctx context.Context, rank int, fs chio.FileSystem) <-chan error {
		exited := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			exited <- RunWorker(ctx, world.Comm(rank), cfg, fs, nil)
		}()
		return exited
	}
}

// workers maps each task index of out to the rank that ran it.
func workers(out *Outcome) map[int]int {
	w := make(map[int]int)
	for _, ev := range out.Timeline {
		w[ev.Index] = ev.Worker
	}
	return w
}

// A fragment's task in the next submission goes to the worker that
// searched it in the last one.
func TestAffinityReusesHolder(t *testing.T) {
	cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}))
	pool, query, alias, _, _ := lockstepPool(t, cfg)
	var outs []*Outcome
	for range 2 {
		out, err := pool.Submit(context.Background(), query, cfg.Params, alias)
		if err != nil {
			t.Fatal(err)
		}
		checkFound(t, out)
		outs = append(outs, out)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	first, second := workers(outs[0]), workers(outs[1])
	if len(first) != 4 || len(second) != 4 {
		t.Fatalf("timelines hold %d and %d tasks, want 4 each", len(first), len(second))
	}
	for i := range 4 {
		if first[i] != second[i] {
			t.Errorf("fragment %d: worker %d, then worker %d", i, first[i], second[i])
		}
	}
}

// pario_pblast_task_affinity_total counts a fresh pool's first
// submission as four cold dispatches and the next one as four held.
func TestAffinityTelemetryCounts(t *testing.T) {
	tel := NewTelemetry(telemetry.NewRegistry())
	cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}), WithTelemetry(tel))
	pool, query, alias, _, _ := lockstepPool(t, cfg)
	defer pool.Close()
	want := [][3]int64{{4, 0, 0}, {4, 4, 0}}
	for i := range want {
		if _, err := pool.Submit(context.Background(), query, cfg.Params, alias); err != nil {
			t.Fatal(err)
		}
		got := [3]int64{tel.affinity.With("cold").Value(), tel.affinity.With("held").Value(), tel.affinity.With("moved").Value()}
		if got != want[i] {
			t.Errorf("after submission %d: cold/held/moved = %v, want %v", i+1, got, want[i])
		}
	}
}

// Affinity never makes a worker wait: while the worker holding every
// fragment is stuck in one task, the other takes the rest.
func TestAffinityNeverIdlesAWorker(t *testing.T) {
	mem := chio.NewMemFS()
	query := buildTestDB(t, mem, "nt", 4)
	alias, err := blastdb.ReadAlias(mem, "nt")
	if err != nil {
		t.Fatal(err)
	}
	var (
		gated    atomic.Bool
		opens2   atomic.Int32
		released = make(chan struct{})
		release  = sync.OnceFunc(func() { close(released) })
	)
	holderFS := &hookFS{FileSystem: mem, onOpen: func(string) {
		if gated.Load() {
			<-released
		}
	}}
	otherFS := &hookFS{FileSystem: mem, onOpen: func(string) {
		if opens2.Add(1) == 3 {
			release()
		}
	}}
	cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}))
	st, startWorker := handWorld(t, cfg)
	startWorker(context.Background(), 1, holderFS)
	out, err := st.Submit(context.Background(), query, cfg.Params, alias)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workers(out) {
		if w != 1 {
			t.Fatalf("fragment %d ran on worker %d with only worker 1 in the pool", i, w)
		}
	}
	gated.Store(true)
	startWorker(context.Background(), 2, otherFS)
	done := make(chan struct{})
	go func() {
		defer close(done)
		out, err = st.Submit(context.Background(), query, cfg.Params, alias)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		release() // let the cleanup's Close finish
		t.Fatal("submission stalled behind the busy holder")
	}
	if err != nil {
		t.Fatal(err)
	}
	checkFound(t, out)
	ran := 0
	for _, w := range workers(out) {
		if w == 2 {
			ran++
		}
	}
	if ran < 3 {
		t.Errorf("the idle worker ran %d of the holder's 4 fragments, want at least 3", ran)
	}
}

// Fragments whose holder left, its context cancelled while idle, still
// run, on the rank that stays, and the result is the serial search's.
func TestAffinityDepartedHolder(t *testing.T) {
	cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}))
	fs, query, alias, lockstep, mem := lockstepFS(t, cfg)
	st, startWorker := handWorld(t, cfg)
	holder, leave := context.WithCancel(context.Background())
	defer leave()
	startWorker(context.Background(), 1, fs)
	left := startWorker(holder, 2, fs)
	out, err := st.Submit(context.Background(), query, cfg.Params, alias)
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	for _, w := range workers(out) {
		if w == 2 {
			held++
		}
	}
	if held != 2 {
		t.Fatalf("worker 2 ran %d fragments, want 2", held)
	}
	lockstep.Store(false)
	leave()
	select {
	case err := <-left:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("worker 2 returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker 2 did not leave")
	}
	out, err = st.Submit(context.Background(), query, cfg.Params, alias)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workers(out) {
		if w != 1 {
			t.Errorf("fragment %d ran on departed worker %d", i, w)
		}
	}
	if want := serialSearch(t, mem, query, cfg.Params); !reflect.DeepEqual(out.Result, want) {
		t.Errorf("result differs from the serial search:\nparallel %s\nserial   %s", hitShape(out.Result), hitShape(want))
	}
}
