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
// between tasks; tasks held by a departed worker are re-queued. A
// one-shot search opens a stream, submits and closes it; a multi-query
// run is several concurrent Submits on one stream, and the always-on
// blastd service keeps the same stream open for its entire lifetime.
// The stream sends each fragment's task to the worker that searched
// that fragment last, whose cache most likely still holds its blocks,
// and to any idle worker when that one is busy.
//
// Every rank runs with its own Config, built from the same options:
// the master's Stream reads TaskTimeout and the scheduling telemetry
// and records task spans with its tracer; each worker's RunWorker
// reads CopyToLocal, ChunkBytes, the telemetry's pipeline metrics and
// records search spans with its tracer. Nothing of a Config crosses
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

// Message tags.
const (
	tagWelcome = iota + 10
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
	// Params are the BLAST parameters a caller submits queries with.
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

	// tel is the scheduling telemetry sink (WithTelemetry); a worker
	// publishes its search-pipeline metrics into tel.Pipe().
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
	Kind  int
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
	// Reassigned counts tasks re-handed to another worker after their
	// original assignee went silent or left (fault-tolerant
	// scheduling and graceful worker departure).
	Reassigned int
}

func decodeGob(data []byte, v interface{}) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// RunWorker executes search tasks on any rank > 0 with this rank's own
// cfg: CopyToLocal and ChunkBytes decide how it reads each fragment,
// cfg's telemetry receives its search-pipeline metrics, and cfg's
// tracer its search spans. fs is this worker's file system onto the
// shared database store; scratch is the worker's local scratch space,
// used only when cfg.CopyToLocal is set (pass nil otherwise).
//
// The worker announces itself to the master first, so workers may
// join a running stream at any time. Cancelling ctx makes the worker
// leave and return ctx's error, and when fs supports
// chio.ContextBinder its in-flight parallel-FS reads abort too, so a
// cancelled query releases the I/O path immediately. Closing quit
// (nil for never) is the graceful departure: the worker finishes its
// current task, if any, announces its departure and returns nil, and
// the master re-queues any task still in flight to it. This is how a
// service shrinks its worker pool without aborting searches.
func RunWorker(ctx context.Context, c mpi.Comm, cfg Config, fs, scratch chio.FileSystem, quit <-chan struct{}) error {
	if ctx == nil {
		ctx = context.Background()
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
	if quit != nil {
		go func() {
			select {
			case <-quit:
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
	// Wait for the (empty) welcome. A stale task from a previous
	// occupant of this rank may still sit in the mailbox — discard
	// anything that is not the welcome (the master re-queued those
	// tasks when the old occupant left). A done-task here means the
	// stream is draining.
	for {
		m, err := c.Recv(rctx, 0, mpi.AnyTag)
		if err != nil {
			return exit(err)
		}
		if m.Tag == tagWelcome {
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
		rm := runTracedTask(ctx, cfg, c.Rank(), &t, fs, scratch)
		if err := mpi.SendGob(c, 0, tagResult, rm); err != nil {
			return exit(err)
		}
	}
}

// runTracedTask wraps runTask in a worker-side "search" span when the
// task carries a trace ID and cfg has a tracer: the span parents under
// the master's task span, and the file systems are rebound to the span
// context so the fragment reads it issues — down to the data servers'
// serve:* spans — join the query's trace. Untraced tasks take the
// plain path.
func runTracedTask(ctx context.Context, cfg Config, rank int, t *taskMsg, fs, scratch chio.FileSystem) *resultMsg {
	if cfg.tracer == nil || t.TraceID == 0 {
		return runTask(cfg, rank, t, fs, scratch)
	}
	ctx = telemetry.ContextWithSpan(ctx, telemetry.SpanContext{TraceID: t.TraceID, SpanID: t.SpanID})
	sctx, span := cfg.tracer.Start(ctx, "search")
	span.SetServer(fmt.Sprintf("worker%d", rank))
	span.SetAttr("task", fmt.Sprintf("%d", t.Index))
	fs = chio.BindContext(fs, sctx)
	if scratch != nil {
		scratch = chio.BindContext(scratch, sctx)
	}
	rm := runTask(cfg, rank, t, fs, scratch)
	span.AddBytes(rm.ReadBytes)
	var err error
	if rm.Err != "" {
		err = errors.New(rm.Err)
	}
	span.Finish(err)
	return rm
}

// runTask performs the fragment read and search for one task on the
// given worker rank.
func runTask(cfg Config, rank int, t *taskMsg, fs, scratch chio.FileSystem) *resultMsg {
	rm := &resultMsg{Sub: t.Sub, Index: t.Index}
	fail := func(err error) *resultMsg {
		rm.Err = err.Error()
		return rm
	}
	readFS := fs
	if cfg.CopyToLocal {
		if scratch == nil {
			return fail(fmt.Errorf("pblast: CopyToLocal requested but no scratch FS"))
		}
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
	res, err := blast.SearchWithMetrics(&query, fr.Source(cfg.ChunkBytes), info, t.Params, cfg.tel.Pipe())
	if err != nil {
		return fail(err)
	}
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
