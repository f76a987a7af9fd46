package pblast

import (
	"context"
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

// lockstepPool opens a pool of two workers over a four-fragment
// database whose fragment opens pass in pairs while the returned flag
// is set: every task starts alongside one on the other worker, so a
// submission's four tasks split two and two whatever the timing.
func lockstepPool(t *testing.T, cfg Config) (*Pool, *seq.Sequence, *blastdb.Alias, *atomic.Bool, chio.FileSystem) {
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
	pool, err := NewPool(context.Background(), cfg, 2, sameFS(fs), nil)
	if err != nil {
		t.Fatal(err)
	}
	pool.Resize(2)
	return pool, query, alias, &lockstep, mem
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
	pool, err := NewPool(context.Background(), cfg, 2, func(rank int) chio.FileSystem {
		if rank == 1 {
			return holderFS
		}
		return otherFS
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.Resize(1)
	out, err := pool.Submit(context.Background(), query, cfg.Params, alias)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workers(out) {
		if w != 1 {
			t.Fatalf("fragment %d ran on worker %d with only worker 1 in the pool", i, w)
		}
	}
	gated.Store(true)
	pool.Resize(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		out, err = pool.Submit(context.Background(), query, cfg.Params, alias)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		release() // let the deferred Close finish
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

// Fragments whose holder left through Resize still run, on the rank
// that stays, and the result is the serial search's.
func TestAffinityDepartedHolder(t *testing.T) {
	cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}))
	pool, query, alias, lockstep, mem := lockstepPool(t, cfg)
	defer pool.Close()
	out, err := pool.Submit(context.Background(), query, cfg.Params, alias)
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
	pool.Resize(1)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		pool.mu.Lock()
		left := len(pool.free) == 1
		pool.mu.Unlock()
		if left {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker 2 did not leave")
		}
	}
	out, err = pool.Submit(context.Background(), query, cfg.Params, alias)
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

// takeOne joins the stream on c, takes one task and returns its index
// without ever reporting a result — a worker that dies holding it.
func takeOne(t *testing.T, c mpi.Comm) int {
	t.Helper()
	if err := c.Send(0, tagHello, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(context.Background(), 0, tagWelcome); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(0, tagReady, nil); err != nil {
		t.Fatal(err)
	}
	var tk taskMsg
	if _, err := mpi.RecvGob(context.Background(), c, 0, tagTask, &tk); err != nil {
		t.Fatal(err)
	}
	return tk.Index
}

// Overdue tasks are re-sent longest-overdue first: by the time of their
// last assignment, not by index and not in map order.
func TestOverdueResentOldestFirst(t *testing.T) {
	fs := chio.NewMemFS()
	query := buildTestDB(t, fs, "nt", 3)
	world, err := mpi.NewWorld(6) // master, four dying workers, one survivor
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	const timeout = 200 * time.Millisecond
	cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}), WithTaskTimeout(timeout))
	type result struct {
		out *Outcome
		err error
	}
	master := make(chan result, 1)
	go func() {
		out, err := searchStream(context.Background(), world.Comm(0), fs, query, cfg)
		master <- result{out, err}
	}()
	// Ranks 1-3 take tasks 0, 1, 2 in turn; once all are overdue, rank
	// 4 takes the oldest (0), which makes task 0 the newest assignment.
	for r := 1; r <= 3; r++ {
		if got := takeOne(t, world.Comm(r)); got != r-1 {
			t.Fatalf("rank %d took task %d, want %d", r, got, r-1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(timeout + 50*time.Millisecond)
	if got := takeOne(t, world.Comm(4)); got != 0 {
		t.Fatalf("rank 4 was re-sent task %d, want the oldest, 0", got)
	}
	time.Sleep(timeout + 50*time.Millisecond)

	// Rank 5 runs whatever it is sent and records the order.
	c := world.Comm(5)
	var order []int
	if err := c.Send(0, tagHello, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(context.Background(), 0, tagWelcome); err != nil {
		t.Fatal(err)
	}
	for {
		if err := c.Send(0, tagReady, nil); err != nil {
			t.Fatal(err)
		}
		var tk taskMsg
		if _, err := mpi.RecvGob(context.Background(), c, 0, tagTask, &tk); err != nil {
			t.Fatal(err)
		}
		if tk.Kind == taskDone {
			break
		}
		order = append(order, tk.Index)
		if err := mpi.SendGob(c, 0, tagResult, runTask(cfg, c.Rank(), &tk, fs, nil)); err != nil {
			t.Fatal(err)
		}
	}
	res := <-master
	if res.err != nil {
		t.Fatal(res.err)
	}
	checkFound(t, res.out)
	if want := []int{1, 2, 0}; !reflect.DeepEqual(order, want) {
		t.Errorf("overdue tasks re-sent in order %v, want %v", order, want)
	}
}
