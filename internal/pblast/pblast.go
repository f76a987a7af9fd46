// Package pblast implements parallel BLAST in the style of mpiBLAST,
// by database segmentation (§2.2 of the paper): every worker searches
// the whole query against one fragment of the database at a time, and
// a master schedules those tasks onto idle workers over the mpi
// substrate. Each subject lives in exactly one fragment, so the master
// merges by concatenation (blast.Merge) and a parallel Result equals
// the serial search's. Workers read database fragments through any
// chio.FileSystem — the local-disk, PVFS, or CEFT-PVFS backends — so
// the three configurations the paper compares differ only in the file
// system handed to RunWorker, mirroring Figure 1's software stack.
//
// The scheduler is a continuous stream, not a one-shot batch: a
// Stream owns a persistent worker pool and accepts submissions (one
// query each) at any time, feeding their (query x fragment) tasks to
// whichever workers are idle. Workers join by announcing themselves
// (so a pool can grow while searches run) and leave gracefully
// between tasks; tasks held by a departed worker are re-queued. The
// classic one-shot entry point RunMaster is a thin wrapper that opens
// a stream, submits, and drains; a multi-query run is several
// concurrent Submits on one stream, and the always-on blastd service
// keeps the same stream open for its entire lifetime.
package pblast

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"context"

	"pario/internal/blast"
	"pario/internal/blastdb"
	"pario/internal/chio"
	"pario/internal/mpi"
	"pario/internal/readahead"
	"pario/internal/seq"
	"pario/internal/telemetry"
)

// Message tags.
const (
	tagJob = iota + 10
	tagReady
	tagTask
	tagResult
	tagHello
	tagLeave
	tagWake
)

// task kinds.
const (
	taskSearch = iota
	taskDone
)

// Config controls a parallel search. Construct it with NewConfig and
// the With* options; direct struct literals are deprecated.
type Config struct {
	// DBName is the database name (alias at DBName.pal).
	DBName string
	// Params are the BLAST parameters used by every worker.
	Params blast.Params
	// CopyToLocal reproduces the original mpiBLAST behaviour: each
	// worker first copies its fragment from the shared store to its
	// local scratch file system and then searches the local copy.
	CopyToLocal bool
	// ChunkBytes is the fragment streaming read size (0 = 16 MB).
	ChunkBytes int
	// TaskTimeout enables fault-tolerant scheduling: a task whose
	// result has not arrived within this duration is handed to
	// another idle worker, so a crashed worker cannot stall the job
	// (duplicate results are discarded). Zero disables reassignment.
	TaskTimeout time.Duration

	// tel is the master-side scheduling telemetry sink. Unexported so
	// it never travels in the gob-encoded job broadcast (gob skips
	// unexported fields); set it with WithTelemetry.
	tel *Telemetry
	// raEnable/raOpts describe the worker file-system stack WorkerFS
	// builds: a readahead block cache over each rank's own client.
	// Unexported, so local to the process that stacks: they never
	// travel in the job broadcast.
	raEnable bool
	raOpts   []readahead.Option
	// tracer records master-side task spans for submissions that carry
	// a span context. Unexported so it stays out of the job broadcast.
	tracer *telemetry.Tracer
}

// job is sent to each worker when it announces itself, before any
// tasks: the run-wide settings that do not vary per task.
type job struct {
	Config Config
}

// taskMsg is one unit of work: a query searched against a set of
// fragment files. Tasks carry the query and parameters inline, so a
// persistent worker pool serves any mix of queries — and databases —
// without re-broadcasting state.
type taskMsg struct {
	Kind  int
	Sub   int64 // submission the task belongs to
	Index int   // task index within the submission

	Query  seq.Sequence
	Params blast.Params
	// Paths are the fragment files to search, resolved by the master
	// from the database alias.
	Paths []string
	// DBLetters/DBSeqs are the whole-database totals used for search
	// statistics (E-values are database-wide, not per-fragment).
	DBLetters int64
	DBSeqs    int64

	// TraceID/SpanID propagate the submitting query's trace to the
	// worker, the same way rpcpool.Request carries the client span to
	// the data servers: additive gob fields, so an old worker decodes
	// a new master's task (ignoring them) and a new worker sees zeros
	// from an old master (disabling tracing) — the search itself is
	// unaffected either way. SpanID is this task's own span identity;
	// the worker parents its search span under it.
	TraceID uint64
	SpanID  uint64
}

type resultMsg struct {
	Sub        int64
	Index      int
	Err        string
	Result     *blast.Result
	CopyTime   time.Duration
	SearchTime time.Duration
	ReadBytes  int64
}

// TaskEvent is one completed task on the master's timeline: which
// worker ran it, when it was (last) assigned relative to the run
// start, and how long its copy and search phases took. The sequence of
// events is the per-worker task timeline a run report renders, and the
// raw material for straggler detection.
type TaskEvent struct {
	// Index is the task index within its submission: the position in
	// the alias of the fragment the task searched.
	Index int
	// Worker is the rank whose result was accepted.
	Worker int
	// Start is the task's (final) assignment time as an offset from
	// the scheduling loop's start — master-clock relative, so events
	// from one run compare without cross-process clock agreement.
	Start time.Duration
	// Copy and Search are the worker-reported phase durations.
	Copy   time.Duration
	Search time.Duration
	// Reassigned is true when the task had been handed to more than
	// one worker before this result arrived.
	Reassigned bool
}

// Outcome is the merged output of a parallel search.
type Outcome struct {
	Result *blast.Result
	// WallTime is the end-to-end master time including scheduling.
	WallTime time.Duration
	// CopyTime sums the workers' database copying time (the paper
	// measures it separately and subtracts it).
	CopyTime time.Duration
	// SearchTime sums the workers' search times.
	SearchTime time.Duration
	// Timeline records every accepted task in completion order.
	Timeline []TaskEvent
	// Reassigned counts tasks re-handed to another worker after their
	// original assignee went silent or left (fault-tolerant
	// scheduling and graceful worker departure).
	Reassigned int
}

// RunMaster drives a single-query search from rank 0: it reads the
// database alias through fs (the master's view of the shared store),
// opens a stream over the communicator, submits the query, and drains
// the workers.
//
// ctx governs the whole search: cancelling it aborts the scheduling
// loop, and when fs supports chio.ContextBinder the master's I/O —
// including in-flight parallel-FS reads — aborts with it.
func RunMaster(ctx context.Context, c mpi.Comm, fs chio.FileSystem, query *seq.Sequence, cfg Config) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if c.Size() < 2 {
		return nil, fmt.Errorf("pblast: need at least one worker (size %d)", c.Size())
	}
	alias, err := blastdb.ReadAlias(chio.BindContext(fs, ctx), cfg.DBName)
	if err != nil {
		return nil, fmt.Errorf("pblast: reading alias: %w", err)
	}
	st, err := StartStream(ctx, c, cfg)
	if err != nil {
		return nil, err
	}
	out, err := st.Submit(ctx, query, cfg.Params, alias)
	cerr := st.Close()
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	out.WallTime = time.Since(start)
	return out, nil
}

func decodeGob(data []byte, v interface{}) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// WorkerOption tunes RunWorker beyond its file systems.
type WorkerOption func(*workerOpts)

type workerOpts struct {
	pipe   *blast.PipeMetrics
	quit   <-chan struct{}
	tracer *telemetry.Tracer
}

// WithPipeMetrics publishes the worker's search-pipeline telemetry
// (shard busy/idle seconds, decode stalls, merge depth) into the
// given sink, so a multicore worker's compute-vs-I/O overlap shows up
// on its /metrics endpoint.
func WithPipeMetrics(m *blast.PipeMetrics) WorkerOption {
	return func(o *workerOpts) { o.pipe = m }
}

// WithWorkerTracer records a "search" span per traced task this worker
// runs, parented under the master's task span, with the task's file
// systems rebound to the span context so every fragment read (and its
// per-server RPCs) lands in the query's trace.
func WithWorkerTracer(t *telemetry.Tracer) WorkerOption {
	return func(o *workerOpts) { o.tracer = t }
}

// WithQuit hands the worker a graceful-departure signal: when quit
// fires, the worker finishes its current task (if any), announces its
// departure to the master, and returns nil. The master re-queues any
// task that was in flight to it. This is how a service shrinks its
// worker pool without aborting searches.
func WithQuit(quit <-chan struct{}) WorkerOption {
	return func(o *workerOpts) { o.quit = quit }
}

// RunWorker executes search tasks on any rank > 0. fs is this
// worker's file system onto the shared database store; scratch is the
// worker's local scratch space, used only when the job requests
// CopyToLocal (pass nil otherwise).
//
// The worker announces itself to the master first, so workers may
// join a running stream at any time. Cancelling ctx makes the worker
// leave and return ctx's error, and when fs supports
// chio.ContextBinder its in-flight parallel-FS reads abort too, so a
// cancelled query releases the I/O path immediately. For a graceful
// exit that completes the current task, use WithQuit.
func RunWorker(ctx context.Context, c mpi.Comm, fs chio.FileSystem, scratch chio.FileSystem, opts ...WorkerOption) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var o workerOpts
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	fs = chio.BindContext(fs, ctx)
	if scratch != nil {
		scratch = chio.BindContext(scratch, ctx)
	}
	// Every receive waits on rctx, which ends when ctx is cancelled or
	// quit closes, so an idle worker blocks without polling for either.
	// Tasks still run under ctx: a quit never aborts one.
	rctx, stop := context.WithCancel(ctx)
	defer stop()
	if o.quit != nil {
		go func() {
			select {
			case <-o.quit:
				stop()
			case <-rctx.Done():
			}
		}()
	}
	// exit maps a failed send or receive to the worker's return. When
	// rctx has ended the worker tells the master it is leaving and
	// returns ctx's error (nil after a quit). Otherwise a closed communicator means
	// the master completed and shut the world down — a clean exit, not
	// a fault (this worker may have been computing a reassigned
	// duplicate).
	exit := func(err error) error {
		if rctx.Err() != nil {
			c.Send(0, tagLeave, nil) // best effort; master may be gone
			return ctx.Err()
		}
		if errors.Is(err, mpi.ErrClosed) {
			return nil
		}
		return err
	}

	if err := c.Send(0, tagHello, nil); err != nil {
		return exit(err)
	}
	// Wait for the job reply. A stale task from a previous occupant of
	// this rank may still sit in the mailbox — discard anything that
	// is not the job (the master re-queued those tasks when the old
	// occupant left). A done-task here means the stream is draining.
	var j job
	for {
		m, err := c.Recv(rctx, 0, mpi.AnyTag)
		if err != nil {
			return exit(err)
		}
		if m.Tag == tagJob {
			if err := decodeGob(m.Data, &j); err != nil {
				return err
			}
			break
		}
		if m.Tag == tagTask {
			var t taskMsg
			if err := decodeGob(m.Data, &t); err != nil {
				return err
			}
			if t.Kind == taskDone {
				return nil
			}
		}
	}
	for {
		if err := rctx.Err(); err != nil {
			return exit(err)
		}
		if err := c.Send(0, tagReady, nil); err != nil {
			return exit(err)
		}
		// A task the master sends after rctx ends stays in the mailbox;
		// the master re-queues it when our leave arrives.
		var t taskMsg
		if _, err := mpi.RecvGob(rctx, c, 0, tagTask, &t); err != nil {
			return exit(err)
		}
		if t.Kind == taskDone {
			return nil
		}
		rm := runTracedTask(ctx, c.Rank(), o.tracer, &j, &t, fs, scratch, o.pipe)
		if err := mpi.SendGob(c, 0, tagResult, rm); err != nil {
			return exit(err)
		}
	}
}

// runTracedTask wraps runTask in a worker-side "search" span when the
// task carries a trace ID: the span parents under the master's task
// span, and the file systems are rebound to the span context so the
// fragment reads it issues — down to the data servers' serve:* spans —
// join the query's trace. Untraced tasks (old master, tracing off)
// take the plain path.
func runTracedTask(ctx context.Context, rank int, tr *telemetry.Tracer, j *job, t *taskMsg, fs, scratch chio.FileSystem, pipe *blast.PipeMetrics) *resultMsg {
	if tr == nil || t.TraceID == 0 {
		return runTask(j, t, fs, scratch, pipe)
	}
	ctx = telemetry.ContextWithSpan(ctx, telemetry.SpanContext{TraceID: t.TraceID, SpanID: t.SpanID})
	sctx, span := tr.Start(ctx, "search")
	span.SetServer(fmt.Sprintf("worker%d", rank))
	span.SetAttr("task", fmt.Sprintf("%d", t.Index))
	fs = chio.BindContext(fs, sctx)
	if scratch != nil {
		scratch = chio.BindContext(scratch, sctx)
	}
	rm := runTask(j, t, fs, scratch, pipe)
	span.AddBytes(rm.ReadBytes)
	var err error
	if rm.Err != "" {
		err = errors.New(rm.Err)
	}
	span.Finish(err)
	return rm
}

// runTask performs the fragment reads and search for one task.
func runTask(j *job, t *taskMsg, fs, scratch chio.FileSystem, pipe *blast.PipeMetrics) *resultMsg {
	rm := &resultMsg{Sub: t.Sub, Index: t.Index}
	fail := func(err error) *resultMsg {
		rm.Err = err.Error()
		return rm
	}
	info := blast.DBInfo{Letters: t.DBLetters, Sequences: t.DBSeqs}
	var sources []blast.SubjectSource
	searchStart := time.Now()
	for _, path := range t.Paths {
		readFS := fs
		if j.Config.CopyToLocal {
			if scratch == nil {
				return fail(fmt.Errorf("pblast: CopyToLocal requested but no scratch FS"))
			}
			copyStart := time.Now()
			n, err := chio.Copy(scratch, path, fs, path, j.Config.ChunkBytes)
			if err != nil {
				return fail(fmt.Errorf("copying %s: %w", path, err))
			}
			rm.CopyTime += time.Since(copyStart)
			rm.ReadBytes += n
			readFS = scratch
			searchStart = time.Now() // copy time excluded from search time
		}
		fr, err := blastdb.OpenFragment(readFS, path)
		if err != nil {
			return fail(fmt.Errorf("opening %s: %w", path, err))
		}
		defer fr.Close()
		sources = append(sources, fr.Source(j.Config.ChunkBytes))
	}

	query := t.Query
	res, err := blast.SearchWithMetrics(&query, &blast.ChainSource{Sources: sources}, info, t.Params, pipe)
	if err != nil {
		return fail(err)
	}
	// Record temporary results, as mpiBLAST workers do before the
	// master merges — these are the small (tens to hundreds of bytes)
	// writes visible in the paper's Figure 4 trace.
	if err := writeTempResult(fs, t.Sub, t.Index, res); err != nil {
		return fail(err)
	}
	rm.SearchTime = time.Since(searchStart)
	rm.Result = res
	return rm
}

// writeTempResult persists a compact per-task result summary.
func writeTempResult(fs chio.FileSystem, sub int64, index int, res *blast.Result) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "task %d query %s hits %d\n", index, res.QueryID, len(res.Hits))
	for _, h := range res.Hits {
		fmt.Fprintf(&buf, "%s %g\n", h.SubjectID, h.BestEValue())
	}
	for buf.Len() < 50 { // the paper's smallest result write is 50 bytes
		buf.WriteByte('\n')
	}
	return chio.WriteFull(fs, fmt.Sprintf("tmp/result.%d.%03d", sub, index), buf.Bytes())
}
