package pblast

import (
	"context"
	"fmt"
	"sync"

	"pario/internal/blast"
	"pario/internal/blastdb"
	"pario/internal/chio"
	"pario/internal/mpi"
	"pario/internal/readahead"
	"pario/internal/seq"
)

// WorkerFS stacks the worker-side read path over base, the per-rank
// view of the shared store: a readahead cache over each rank's own
// client (WithReadahead), and nothing else. The result is memoized per
// rank, so base is called once per rank however often a pool restarts
// that rank — re-dialing a parallel-FS client on every restart would
// leak its connections.
func (cfg Config) WorkerFS(base func(rank int) chio.FileSystem) func(rank int) chio.FileSystem {
	type slot struct {
		once sync.Once
		fs   chio.FileSystem
	}
	var (
		mu    sync.Mutex
		ranks = make(map[int]*slot)
	)
	return func(rank int) chio.FileSystem {
		mu.Lock()
		sl := ranks[rank]
		if sl == nil {
			sl = &slot{}
			ranks[rank] = sl
		}
		mu.Unlock()
		sl.once.Do(func() {
			sl.fs = base(rank)
			if cfg.raEnable {
				sl.fs = readahead.Wrap(sl.fs, cfg.raOpts...)
			}
		})
		return sl.fs
	}
}

// Pool is a parallel search stood up inside one process: an mpi
// world, the Stream scheduling on its rank 0, and workers on the
// other ranks reading through cfg.WorkerFS, every rank running with
// cfg. A one-shot search opens a pool, submits and closes it
// (core.ParallelSearch); a multi-query run is several concurrent
// Submits on one pool; the blastd service keeps
// one open for its lifetime and resizes it. Resize grows the pool by
// starting workers on free ranks and shrinks it by signalling graceful
// leave (each departing worker finishes its current task first).
type Pool struct {
	// OnWorkerError, when set before the first Resize, is told of
	// every worker that exits with an error while the pool is open.
	OnWorkerError func(rank int, err error)

	world    *mpi.World
	stream   *Stream
	cfg      Config
	workerFS func(rank int) chio.FileSystem
	scratch  func(rank int) chio.FileSystem

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	quits   map[int]chan struct{} // rank -> leave signal for live workers
	free    []int                 // ranks available for new workers
	closing bool
	err     error // first worker failure, reported by Close
}

// NewPool builds the mpi world (ranks 0..maxWorkers; rank 0 is the
// scheduler) and starts the stream. workerFS(rank) is each worker's
// view of the shared store (rank in [1, maxWorkers]); scratch, when
// non-nil, returns the worker's local scratch for CopyToLocal
// configurations. No workers run until Resize. Cancelling ctx aborts
// the pool's searches, including in-flight parallel-FS I/O on backends
// that support chio.ContextBinder.
func NewPool(ctx context.Context, cfg Config, maxWorkers int, workerFS, scratch func(rank int) chio.FileSystem) (*Pool, error) {
	if maxWorkers < 1 {
		return nil, fmt.Errorf("pblast: need at least 1 worker")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	world, err := mpi.NewWorld(maxWorkers + 1)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	stream, err := StartStream(ctx, world.Comm(0), cfg)
	if err != nil {
		cancel()
		world.Close()
		return nil, err
	}
	p := &Pool{
		world:    world,
		stream:   stream,
		cfg:      cfg,
		workerFS: cfg.WorkerFS(workerFS),
		scratch:  scratch,
		ctx:      ctx,
		cancel:   cancel,
		quits:    make(map[int]chan struct{}),
	}
	for r := maxWorkers; r >= 1; r-- {
		p.free = append(p.free, r)
	}
	return p, nil
}

// Submit runs one query through the pool and blocks for the merged
// result (see Stream.Submit).
func (p *Pool) Submit(ctx context.Context, query *seq.Sequence, params blast.Params, alias *blastdb.Alias) (*Outcome, error) {
	return p.stream.Submit(ctx, query, params, alias)
}

// Resize adjusts the number of live workers to n (clamped to the
// world size). Growth starts workers immediately; shrinkage signals
// the highest-ranked workers to leave after their current task.
func (p *Pool) Resize(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n = max(0, min(n, len(p.quits)+len(p.free)))
	for len(p.quits) < n {
		rank := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		quit := make(chan struct{})
		p.quits[rank] = quit
		p.wg.Add(1)
		go p.runWorker(rank, quit)
	}
	for len(p.quits) > n {
		// Retire the highest live rank so rank numbering stays dense.
		top := -1
		for rank := range p.quits {
			top = max(top, rank)
		}
		close(p.quits[top])
		delete(p.quits, top)
	}
}

// Size reports the number of live (or leaving-but-not-yet-left)
// workers.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.quits)
}

func (p *Pool) runWorker(rank int, quit chan struct{}) {
	defer p.wg.Done()
	var scratch chio.FileSystem
	if p.scratch != nil {
		scratch = p.scratch(rank)
	}
	err := RunWorker(p.ctx, p.world.Comm(rank), p.cfg, p.workerFS(rank), scratch, quit)
	p.mu.Lock()
	// A worker that left (or died) frees its rank for future growth;
	// drop any still-open quit channel if the exit was unsolicited.
	if q, live := p.quits[rank]; live {
		close(q)
		delete(p.quits, rank)
	}
	p.free = append(p.free, rank)
	// Once Close has begun, a straggler cut off mid-task is not a fault.
	failed := err != nil && !p.closing
	if failed && p.err == nil {
		p.err = fmt.Errorf("pblast: worker %d: %w", rank, err)
	}
	p.mu.Unlock()
	if failed && p.OnWorkerError != nil {
		p.OnWorkerError(rank, err)
	}
}

// Close drains the stream (completing queued submissions), releases
// the workers, and tears down the world. It returns the stream's
// terminal error, or else the first worker failure. Call it once.
func (p *Pool) Close() error {
	err := p.stream.Close()
	p.mu.Lock()
	p.closing = true
	p.mu.Unlock()
	// Cancel and shut the world down before joining the workers: with
	// fault-tolerant scheduling, stragglers may still be computing
	// reassigned duplicates and only learn of completion this way.
	p.cancel()
	p.world.Close()
	p.wg.Wait()
	if err == nil {
		err = p.err
	}
	return err
}
