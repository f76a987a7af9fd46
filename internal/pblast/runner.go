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
// client (WithReadahead), and nothing else. Each rank's worker asks
// for its file system once, when it starts.
func (cfg Config) WorkerFS(base func(rank int) chio.FileSystem) func(rank int) chio.FileSystem {
	if !cfg.raEnable {
		return base
	}
	return func(rank int) chio.FileSystem {
		return readahead.Wrap(base(rank), cfg.raOpts...)
	}
}

// Pool is a parallel search stood up inside one process: an mpi
// world, the Stream scheduling on its rank 0, and a fixed set of
// workers on the other ranks reading through cfg.WorkerFS, every rank
// running with cfg. A one-shot search opens a pool, submits and closes
// it (core.ParallelSearch); a multi-query run is several concurrent
// Submits on one pool; the blastd service keeps one open for its
// lifetime. Like an MPI job's world, the pool's size is fixed at
// start: a worker leaves it only by failing.
type Pool struct {
	world  *mpi.World
	stream *Stream

	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	live    int // workers that have not exited
	closing bool
	err     error // first worker failure, reported by Close
}

// NewPool builds the mpi world (ranks 0..workers; rank 0 is the
// scheduler), starts the stream and starts one worker on each other
// rank. workerFS(rank) is each worker's view of the shared store;
// scratch, when non-nil, returns the worker's local scratch, and a
// worker whose scratch is non-nil copies each fragment into it before
// searching (see RunWorker). onWorkerError (nil for none) is told of
// every worker that exits with an error while the pool is open.
// Cancelling ctx aborts the pool's searches, including in-flight
// parallel-FS I/O on backends that support chio.ContextBinder.
func NewPool(ctx context.Context, cfg Config, workers int, workerFS, scratch func(rank int) chio.FileSystem, onWorkerError func(rank int, err error)) (*Pool, error) {
	if workers < 1 {
		return nil, fmt.Errorf("pblast: need at least 1 worker")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	world, err := mpi.NewWorld(workers + 1)
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
	p := &Pool{world: world, stream: stream, cancel: cancel, live: workers}
	workerFS = cfg.WorkerFS(workerFS)
	p.wg.Add(workers)
	for rank := 1; rank <= workers; rank++ {
		go func() {
			defer p.wg.Done()
			var sfs chio.FileSystem
			if scratch != nil {
				sfs = scratch(rank)
			}
			p.exited(rank, RunWorker(ctx, world.Comm(rank), cfg, workerFS(rank), sfs), onWorkerError)
		}()
	}
	return p, nil
}

// Submit runs one query through the pool and blocks for the merged
// result (see Stream.Submit).
func (p *Pool) Submit(ctx context.Context, query *seq.Sequence, params blast.Params, alias *blastdb.Alias) (*Outcome, error) {
	return p.stream.Submit(ctx, query, params, alias)
}

// Size reports the number of workers still running.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// exited records the return of rank's worker.
func (p *Pool) exited(rank int, err error, onWorkerError func(rank int, err error)) {
	p.mu.Lock()
	p.live--
	// Once Close has begun, a straggler cut off mid-task is not a fault.
	failed := err != nil && !p.closing
	if failed && p.err == nil {
		p.err = fmt.Errorf("pblast: worker %d: %w", rank, err)
	}
	p.mu.Unlock()
	if failed && onWorkerError != nil {
		onWorkerError(rank, err)
	}
}

// Close drains the stream (completing queued submissions), then ends
// the workers by closing the world and joins them. It returns the
// stream's terminal error, or else the first worker failure. Call it
// once.
func (p *Pool) Close() error {
	err := p.stream.Close()
	p.mu.Lock()
	p.closing = true
	p.mu.Unlock()
	// The world's close is the workers' one end signal; the cancel also
	// aborts the reads of one still computing a withdrawn submission's
	// task.
	p.world.Close()
	p.cancel()
	p.wg.Wait()
	if err == nil {
		err = p.err
	}
	return err
}
