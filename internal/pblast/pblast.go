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
// whichever workers are idle. The protocol is mpiBLAST's worker loop:
// a worker sends Ready once to join (so a distributed worker may start
// while searches run), then receives a task and sends its result,
// which doubles as its next Ready, until its communicator closes: the
// end of a job reaches a worker only through the transport, never as a
// message. A worker that is gone (cancelled, crashed or cut off) is
// reported by the transport (mpi.TagGone), and its tasks are re-queued.
// A worker whose message the master cannot read is ended alone through
// the transport (mpi.Comm.Drop), so its Recv returns mpi.ErrClosed and
// it is reported gone the same way. When every worker is gone the
// submissions in flight fail with ErrWorkersGone. Each rank
// receives its messages in arrival order and dispatches on their tags.
// A one-shot search opens a stream, submits and closes it; a
// multi-query run is several concurrent Submits on one stream, and the
// always-on blastd service keeps the same stream open for its entire
// lifetime.
// The stream sends each fragment's task to the worker that searched
// that fragment last, whose cache most likely still holds its blocks,
// and to any idle worker when that one is busy.
//
// Every rank runs with its own Config, built from the same options:
// the master's Stream reads the scheduling telemetry and records task
// spans with its tracer; each worker's RunWorker reads ChunkBytes, adds
// its kernel counters to the telemetry and records search spans with
// its tracer. A worker copies each fragment to local disk first exactly
// when it is handed a scratch file system. Nothing of a Config crosses
// the wire: the query, parameters and fragment travel in each task.
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

// Message tags. A worker sends Ready once to join; after that each
// Result it sends is also its next Ready. The master sends workers only
// tasks, and itself a Wake; mpi.TagGone comes from the transport.
const (
	tagReady = iota + 10
	tagTask
	tagResult
	tagWake
)

// Config controls a parallel search. Construct it with NewConfig and
// the With* options; direct struct literals are deprecated.
type Config struct {
	// DBName is the database name (alias at DBName.pal).
	DBName string
	// Params are the BLAST parameters a caller submits queries with.
	Params blast.Params
	// ChunkBytes is the fragment streaming read size (0 = 16 MB).
	ChunkBytes int

	// tel is the scheduling telemetry sink (WithTelemetry); a worker
	// adds each search's kernel counters to it.
	tel *Telemetry
	// raEnable/raOpts describe the worker file-system stack WorkerFS
	// builds: a readahead block cache over each rank's own client.
	raEnable bool
	raOpts   []readahead.Option
	// tracer records the master's task spans and the worker's search
	// spans for submissions that carry a span context.
	tracer *telemetry.Tracer
}

// taskMsg is one unit of work: a query searched against one fragment
// file. Tasks carry the query and parameters inline, so a persistent
// worker pool serves any mix of queries — and databases — without
// re-broadcasting state.
type taskMsg struct {
	Sub   int64 // submission the task belongs to
	Index int   // task index within the submission

	Query  seq.Sequence
	Params blast.Params
	// Path is the fragment file to search, resolved by the master from
	// the database alias.
	Path string
	// DBLetters/DBSeqs are the whole-database totals used for search
	// statistics (E-values are database-wide, not per-fragment).
	DBLetters int64
	DBSeqs    int64

	// TraceID/SpanID propagate the submitting query's trace to the
	// worker, the same way rpcpool.Request carries the client span to
	// the data servers; zero means untraced. SpanID is this task's own
	// span identity; the worker parents its search span under it.
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
	// Reassigned counts tasks re-handed to another worker after the
	// transport reported their assignee gone.
	Reassigned int
}

// send and decode are the worker wire's one codec: a task or a result
// travels as one self-contained gob message, and the transport carries
// only its bytes. Each names the peer, so a codec that keeps state per
// peer changes these two alone.
func send(c mpi.Comm, to, tag int, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("pblast: encoding: %w", err)
	}
	return c.Send(to, tag, buf.Bytes())
}

func decode(m mpi.Message, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(m.Data)).Decode(v); err != nil {
		return fmt.Errorf("pblast: decoding a message from rank %d: %w", m.From, err)
	}
	return nil
}

// RunWorker executes search tasks on any rank > 0 with this rank's own
// cfg: ChunkBytes sets how it reads each fragment, cfg's telemetry
// receives its search kernel's counters, and cfg's tracer its search
// spans. fs is this worker's file system onto the shared database
// store. scratch, when non-nil, is the worker's local scratch space:
// the worker then reproduces the original mpiBLAST behaviour, copying
// each fragment from the shared store into scratch and searching the
// local copy. Pass nil to search the shared store directly.
//
// The worker loop is mpiBLAST's: send Ready once, then take a task,
// search it and send its result, which also asks for the next task,
// until c closes — World.Close in process, rank 0's Close over TCP —
// which is a clean return (nil), idle or mid-task. RunWorker closes c
// however it returns, so the transport reports this rank gone and the
// master re-queues any task still in flight to it. Cancelling ctx makes
// the worker leave: it withholds the result of a task its cancellation
// cut short and returns ctx's error. When fs supports chio.ContextBinder
// its in-flight parallel-FS reads abort too, so a cancelled query
// releases the I/O path immediately.
func RunWorker(ctx context.Context, c mpi.Comm, cfg Config, fs, scratch chio.FileSystem) error {
	defer c.Close()
	if ctx == nil {
		ctx = context.Background()
	}
	fs = chio.BindContext(fs, ctx)
	if scratch != nil {
		scratch = chio.BindContext(scratch, ctx)
	}
	// exit maps a failed send or receive to the worker's return: ctx's
	// error once ctx has ended; otherwise a closed communicator means
	// the master completed and shut the world down — a clean exit, not
	// a fault (this worker may have been computing a withdrawn
	// submission's task).
	exit := func(err error) error {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, mpi.ErrClosed) {
			return nil
		}
		return err
	}

	if err := c.Send(0, tagReady, nil); err != nil {
		return exit(err)
	}
	// One searcher for the worker's life: its scratch and the last
	// query's engine carry over from task to task.
	var sr blast.Searcher
	for {
		// A task the master sends after ctx ends stays in the mailbox;
		// the master re-queues it when it hears this rank is gone.
		var t taskMsg
		m, err := c.Recv(ctx)
		if err == nil {
			err = decode(m, &t)
		}
		if err != nil {
			return exit(err)
		}
		rm := runTask(ctx, cfg, &sr, c.Rank(), &t, fs, scratch)
		if err := ctx.Err(); err != nil {
			return exit(err) // the master re-queues the task
		}
		if err := send(c, 0, tagResult, rm); err != nil {
			return exit(err)
		}
	}
}

// runTask performs the fragment read and search for one task on the
// given worker rank, with the worker's searcher. When the task carries
// a trace ID and cfg has a tracer, the task runs in a worker-side
// "search" span parented under the master's task span, and the file
// systems are rebound to the span's context so the fragment reads it
// issues — down to the data servers' serve:* spans — join the query's
// trace.
func runTask(ctx context.Context, cfg Config, sr *blast.Searcher, rank int, t *taskMsg, fs, scratch chio.FileSystem) (rm *resultMsg) {
	rm = &resultMsg{Sub: t.Sub, Index: t.Index}
	if cfg.tracer != nil && t.TraceID != 0 {
		ctx = telemetry.ContextWithSpan(ctx, telemetry.SpanContext{TraceID: t.TraceID, SpanID: t.SpanID})
		sctx, span := cfg.tracer.Start(ctx, "search")
		span.SetServer(fmt.Sprintf("worker%d", rank))
		span.SetAttr("task", fmt.Sprintf("%d", t.Index))
		fs = chio.BindContext(fs, sctx)
		if scratch != nil {
			scratch = chio.BindContext(scratch, sctx)
		}
		defer func() {
			span.AddBytes(rm.ReadBytes)
			var err error
			if rm.Err != "" {
				err = errors.New(rm.Err)
			}
			span.Finish(err)
		}()
	}
	fail := func(err error) *resultMsg {
		rm.Err = err.Error()
		return rm
	}
	readFS := fs
	if scratch != nil {
		copyStart := time.Now()
		n, err := chio.Copy(scratch, t.Path, fs, t.Path, cfg.ChunkBytes)
		if err != nil {
			return fail(fmt.Errorf("copying %s: %w", t.Path, err))
		}
		rm.CopyTime = time.Since(copyStart)
		rm.ReadBytes = n
		readFS = scratch
	}
	searchStart := time.Now() // copy time excluded from search time
	fr, err := blastdb.OpenFragment(readFS, t.Path)
	if err != nil {
		return fail(fmt.Errorf("opening %s: %w", t.Path, err))
	}
	defer fr.Close()

	query := t.Query
	info := blast.DBInfo{Letters: t.DBLetters, Sequences: t.DBSeqs}
	res, err := sr.Search(&query, fr.Source(cfg.ChunkBytes), info, t.Params)
	if err != nil {
		return fail(err)
	}
	cfg.tel.observeKernel(res.Stats)
	// Record temporary results, as mpiBLAST workers do before the
	// master merges — these are the small (tens to hundreds of bytes)
	// writes visible in the paper's Figure 4 trace.
	if err := writeTempResult(fs, rank, t.Index, res); err != nil {
		return fail(err)
	}
	rm.SearchTime = time.Since(searchStart)
	rm.Result = res
	return rm
}

// writeTempResult persists a compact per-task result summary, named by
// worker rank and fragment index: a rank runs one task at a time, so no
// two writers share a name, and a long-lived pool keeps at most one
// file per (worker, fragment).
func writeTempResult(fs chio.FileSystem, rank, index int, res *blast.Result) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "task %d query %s hits %d\n", index, res.QueryID, len(res.Hits))
	for _, h := range res.Hits {
		fmt.Fprintf(&buf, "%s %g\n", h.SubjectID, h.BestEValue())
	}
	for buf.Len() < 50 { // the paper's smallest result write is 50 bytes
		buf.WriteByte('\n')
	}
	return chio.WriteFull(fs, fmt.Sprintf("tmp/result.%d.%03d", rank, index), buf.Bytes())
}
