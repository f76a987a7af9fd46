package pblast

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"pario/internal/blast"
	"pario/internal/blastdb"
	"pario/internal/mpi"
	"pario/internal/seq"
	"pario/internal/telemetry"
)

// ErrDraining is returned by Submit once Close has begun: the stream
// finishes in-flight submissions but accepts no new ones.
var ErrDraining = errors.New("pblast: stream draining")

// ErrWorkersGone fails every submission in flight when the transport
// has reported each worker rank gone, dropped ones included; the error
// wrapping it names them.
var ErrWorkersGone = errors.New("pblast: every worker is gone")

// Stream is a continuously-fed master scheduler: it owns rank 0 of a
// communicator and hands (query x fragment) tasks to whichever
// workers are idle, for as long as the stream lives. Submissions may
// arrive from any goroutine at any time; workers may join (with their
// first Ready) and go (the transport reports each gone rank; a worker
// whose message the master cannot read is dropped alone, through the
// transport, and so reported gone too) while
// searches run. Close drains in-flight submissions; the workers run
// until their communicator closes. This is the machinery behind the
// in-process Pool and, through it, the always-on blastd service, and
// behind mpiblast's distributed master.
type Stream struct {
	c   mpi.Comm
	cfg Config

	mu        sync.Mutex
	queue     []*submission // enqueued, not yet seen by the loop
	withdrawn []*submission // abandoned by a cancelled Submit
	nextSub   int64
	closing   bool

	loopDone chan struct{}
	loopErr  error
}

// submission is one query's worth of tasks moving through the stream.
type submission struct {
	id    int64
	tasks []taskState // one per fragment, in alias order
	// trace is the submitter's span context (zero when untraced): the
	// parent of the per-task spans the loop records.
	trace telemetry.SpanContext

	// Loop-owned while in flight; read by the awaiter after done.
	remaining int
	results   []*blast.Result
	out       *Outcome
	err       error

	done chan struct{}
	// cancelErr is the submitter's context error, written before the
	// submission is handed back through Stream.withdrawn.
	cancelErr error
}

// StartStream opens a stream on rank 0 of c. Workers running
// RunWorker on the other ranks join with their first Ready — none need
// exist yet — and serve until c's transport closes them: the stream
// never tells a worker to stop. The stream reads only the master's
// part of cfg: the scheduling telemetry and the tracer for task spans.
// How a task is read and searched is each worker's own Config; the
// query, parameters and database arrive per submission.
func StartStream(ctx context.Context, c mpi.Comm, cfg Config) (*Stream, error) {
	if c.Rank() != 0 {
		return nil, fmt.Errorf("pblast: stream must run on rank 0, not %d", c.Rank())
	}
	if c.Size() < 2 {
		return nil, fmt.Errorf("pblast: need at least one worker (size %d)", c.Size())
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Stream{c: c, cfg: cfg, loopDone: make(chan struct{})}
	go s.loop(ctx)
	return s, nil
}

// Submit searches one query against the database described by alias
// and returns the merged outcome — the one way a query enters the
// scheduler. The query becomes one task per fragment, each searching
// the full query against that fragment; the per-fragment results are
// concatenated in alias order (blast.Merge), so the outcome's Result
// is the one a serial search of the whole database returns.
//
// Submit blocks until the search completes, ctx is cancelled, or the
// stream fails; any number of goroutines may submit concurrently. A
// cancelled Submit withdraws the query: its unassigned tasks never run.
// alias must describe a database reachable through the workers' file
// systems.
func (s *Stream) Submit(ctx context.Context, query *seq.Sequence, params blast.Params, alias *blastdb.Alias) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if len(alias.Fragments) == 0 {
		return nil, fmt.Errorf("pblast: database %s has no fragments", alias.Title)
	}
	n := len(alias.Fragments)
	sub := &submission{
		tasks:     make([]taskState, n),
		remaining: n,
		results:   make([]*blast.Result, n),
		out:       &Outcome{},
		done:      make(chan struct{}),
	}
	// A traced submission's tasks carry its trace ID, each with its own
	// span ID, minted here so the master and the worker agree on the
	// task span's identity across the wire.
	sub.trace, _ = telemetry.SpanFromContext(ctx)
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	sub.id = s.nextSub
	s.nextSub++
	for i, fr := range alias.Fragments {
		t := &sub.tasks[i]
		t.sub = sub
		t.msg = taskMsg{
			Sub:       sub.id,
			Index:     i,
			Query:     *query,
			Params:    params,
			Path:      fr.Path,
			DBLetters: alias.Letters,
			DBSeqs:    alias.Seqs,
			TraceID:   sub.trace.TraceID,
		}
		if sub.trace.TraceID != 0 {
			t.msg.SpanID = telemetry.NewID()
		}
	}
	s.queue = append(s.queue, sub)
	s.mu.Unlock()
	s.wake()
	// The merge runs on the submitting goroutine, off the scheduling
	// loop.
	select {
	case <-sub.done:
	case <-ctx.Done():
		sub.cancelErr = ctx.Err()
		s.mu.Lock()
		s.withdrawn = append(s.withdrawn, sub)
		s.mu.Unlock()
		s.wake()
		return nil, sub.cancelErr
	}
	if sub.err != nil {
		return nil, sub.err
	}
	sub.out.Result = blast.Merge(query, sub.results, params)
	sub.out.WallTime = time.Since(start)
	return sub.out, nil
}

// wake nudges the scheduling loop out of a blocking receive by
// sending rank 0 a message to itself (both transports loop self-sends
// back through the local mailbox without touching the network).
func (s *Stream) wake() {
	s.c.Send(0, tagWake, nil) // best effort: a dead loop fails all waiters anyway
}

// Close drains the stream: new submissions are refused and in-flight
// submissions run to completion; then the loop returns without another
// receive. The workers are left to the transport: closing the world
// (in process) or rank 0's mpi.Listener (over TCP) ends each one, idle
// or still computing a withdrawn submission's task. Close returns the loop's
// terminal error, if any. It is idempotent and safe to call
// concurrently with Submit.
func (s *Stream) Close() error {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	s.wake()
	<-s.loopDone
	return s.loopErr
}

// Task lifecycle states inside the loop.
const (
	statePending = iota
	stateAssigned
	stateDone
)

// taskState is one task as the loop tracks it, held in its
// submission's table at the task's index.
type taskState struct {
	sub      *submission
	msg      taskMsg
	state    int       // statePending until dispatched
	at       time.Time // last assignment time
	to       int       // rank holding the task
	rehanded bool
}

// loop is the scheduling goroutine: the single owner of all task and
// worker state. Tasks go pending -> assigned -> done, many concurrent
// submissions share the workers, and a worker the transport reports
// gone (the loop drops one it cannot read through the transport) gives
// its assigned tasks back to the front of the line.
func (s *Stream) loop(ctx context.Context) {
	defer close(s.loopDone)

	subs := make(map[int64]*submission) // in flight; each holds its tasks
	var pending []*taskState            // FIFO; requeued tasks go to the front
	var idle []int
	// holder maps a fragment path to the rank it was last dispatched
	// to: that worker's cache most likely still holds its blocks.
	// Entries are never cleared — a stale one costs one cold read.
	holder := make(map[string]int)
	gone := make(map[int]bool) // reported by the transport; heard no more
	loopStart := time.Now()

	// failAll completes every in-flight submission with err and
	// records it as the stream's terminal error.
	failAll := func(err error) {
		for id, sub := range subs {
			sub.err = err
			close(sub.done)
			delete(subs, id)
		}
		s.mu.Lock()
		for _, sub := range s.queue {
			sub.err = err
			close(sub.done)
		}
		s.queue = nil
		s.closing = true
		s.mu.Unlock()
		s.loopErr = err
	}

	// finishSub completes a submission (err == nil means success).
	finishSub := func(sub *submission, err error) {
		sub.err = err
		delete(subs, sub.id)
		close(sub.done)
	}

	// drainQueue takes newly-enqueued submissions in flight and queues
	// their tasks, finishes withdrawn ones still in flight (their
	// pending tasks drop out of pickTask, late results are discarded), and
	// reports whether Close has been requested.
	drainQueue := func() bool {
		s.mu.Lock()
		fresh, withdrawn := s.queue, s.withdrawn
		s.queue, s.withdrawn = nil, nil
		closing := s.closing
		s.mu.Unlock()
		for _, sub := range fresh {
			subs[sub.id] = sub
			for i := range sub.tasks {
				pending = append(pending, &sub.tasks[i])
			}
		}
		for _, sub := range withdrawn {
			if subs[sub.id] == sub {
				finishSub(sub, sub.cancelErr)
			}
		}
		return closing
	}

	// recordTask emits one master-side "task" span covering an
	// assignment of a traced task, from hand-out to result (or to the
	// reassignment that abandoned it). A reassigned task deliberately
	// produces one span per assignment, all sharing the task's span ID:
	// obsreport's assembler flags the extras as duplicates, which is
	// exactly the rendering a re-run task should get.
	recordTask := func(ts *taskState, worker int, bytes int64, errStr string) {
		if ts.msg.TraceID == 0 || ts.at.IsZero() {
			return
		}
		s.cfg.tracer.Record(telemetry.Span{
			TraceID:  ts.msg.TraceID,
			SpanID:   ts.msg.SpanID,
			Parent:   ts.sub.trace.SpanID,
			Name:     "task",
			Server:   fmt.Sprintf("worker%d", worker),
			Start:    ts.at,
			Duration: time.Since(ts.at),
			Bytes:    bytes,
			Err:      errStr,
			Attrs:    map[string]string{"task": fmt.Sprintf("%d", ts.msg.Index)},
		})
	}

	// pickTask chooses work for an idle worker: the oldest pending
	// task whose fragment this worker searched last, else the oldest
	// pending task, so an idle worker never waits. A finished
	// submission's tasks drop out here.
	pickTask := func(worker int) *taskState {
		live, pick := pending[:0], -1
		for _, ts := range pending {
			if ts.state == statePending && subs[ts.sub.id] == ts.sub {
				if pick < 0 && holder[ts.msg.Path] == worker {
					pick = len(live)
				}
				live = append(live, ts)
			}
		}
		pending = live
		if len(pending) > 0 {
			pick = max(pick, 0)
			ts := pending[pick]
			pending = slices.Delete(pending, pick, pick+1)
			return ts
		}
		return nil
	}

	// dispatch pairs idle workers with assignable tasks and records
	// each worker as its fragment's holder.
	dispatch := func() error {
		for len(idle) > 0 {
			w := idle[0]
			ts := pickTask(w)
			if ts == nil {
				return nil
			}
			if err := send(s.c, w, tagTask, &ts.msg); err != nil {
				return err
			}
			ts.state = stateAssigned
			ts.at = time.Now()
			ts.to = w
			idle = idle[1:]
			h, held := holder[ts.msg.Path]
			s.cfg.tel.observeAffinity(held, h == w)
			holder[ts.msg.Path] = w
		}
		return nil
	}

	closing := false
	for {
		closing = drainQueue() || closing
		if closing && len(subs) == 0 {
			return
		}
		if err := ctx.Err(); err != nil {
			failAll(err)
			return
		}
		if len(gone) == s.c.Size()-1 {
			ranks := make([]int, len(gone))
			for i := range ranks {
				ranks[i] = i + 1
			}
			failAll(fmt.Errorf("%w: ranks %v", ErrWorkersGone, ranks))
			return
		}
		if err := dispatch(); err != nil {
			failAll(err)
			return
		}

		m, err := s.c.Recv(ctx)
		if err != nil {
			failAll(err)
			return
		}
		if gone[m.From] {
			continue
		}

		switch m.Tag {
		case tagWake:
			// Just a nudge; the top of the loop drains the queue.
		case tagReady:
			// A worker joined.
			idle = append(idle, m.From)
		case mpi.TagGone:
			// The transport reports the worker gone: it leaves the idle
			// list, each task it held goes back to the head of the line,
			// and nothing it sent after is heard.
			gone[m.From] = true
			idle = slices.DeleteFunc(idle, func(i int) bool { return i == m.From })
			for _, sub := range subs {
				for i := range sub.tasks {
					if ts := &sub.tasks[i]; ts.state == stateAssigned && ts.to == m.From {
						recordTask(ts, ts.to, 0, "reassigned: worker left")
						ts.state = statePending
						ts.rehanded = true
						ts.sub.out.Reassigned++
						s.cfg.tel.observeReassign()
						pending = slices.Insert(pending, 0, ts)
					}
				}
			}
		case tagResult:
			var rm resultMsg
			if decode(m, &rm) != nil {
				// Its peers' results still count: end only the sender,
				// whose TagGone then gives its tasks back.
				s.c.Drop(m.From)
				break
			}
			// Every result, kept or not, is also its sender's next Ready.
			idle = append(idle, m.From)
			// The index comes off the wire: check it before use.
			sub := subs[rm.Sub]
			if sub == nil || rm.Index < 0 || rm.Index >= len(sub.tasks) || sub.tasks[rm.Index].state == stateDone {
				break // from a finished submission, for a done task, or for none
			}
			ts := &sub.tasks[rm.Index]
			recordTask(ts, m.From, rm.ReadBytes, rm.Err)
			if rm.Err != "" {
				finishSub(sub, fmt.Errorf("pblast: task %d failed: %s", rm.Index, rm.Err))
				break
			}
			ts.state = stateDone
			sub.results[rm.Index] = rm.Result
			sub.remaining--
			sub.out.CopyTime += rm.CopyTime
			sub.out.SearchTime += rm.SearchTime
			sub.out.Timeline = append(sub.out.Timeline, TaskEvent{
				Index:      rm.Index,
				Worker:     m.From,
				Start:      ts.at.Sub(loopStart),
				Copy:       rm.CopyTime,
				Search:     rm.SearchTime,
				Reassigned: ts.rehanded,
			})
			s.cfg.tel.observeTask(m.From, rm.SearchTime, rm.CopyTime)
			if sub.remaining == 0 {
				finishSub(sub, nil)
			}
		default:
			s.c.Drop(m.From) // no worker sends it
		}
	}
}
