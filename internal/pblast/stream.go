package pblast

import (
	"context"
	"errors"
	"fmt"
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

// Stream is a continuously-fed master scheduler: it owns rank 0 of a
// communicator and hands (query x fragment) tasks to whichever
// workers are idle, for as long as the stream lives. Submissions may
// arrive from any goroutine at any time; workers may join (by
// announcing themselves) and leave (gracefully, via WithQuit) while
// searches run. Close drains in-flight submissions and releases the
// workers. This is the machinery behind the one-shot RunMaster, the
// in-process Pool and, through it, the always-on blastd service.
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
	id     int64
	query  seq.Sequence
	params blast.Params
	tasks  []*taskMsg
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
// RunWorker on the other ranks join as they announce themselves —
// none need exist yet. cfg supplies the run-wide settings every task
// inherits (CopyToLocal, ChunkBytes, TaskTimeout, telemetry);
// the query, parameters and database arrive per submission.
func StartStream(ctx context.Context, c mpi.Comm, cfg Config) (*Stream, error) {
	if c.Rank() != 0 {
		return nil, fmt.Errorf("pblast: stream must run on rank 0, not %d", c.Rank())
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
	sub := &submission{
		query:  *query,
		params: params,
		done:   make(chan struct{}),
	}
	for i, fr := range alias.Fragments {
		sub.tasks = append(sub.tasks, &taskMsg{
			Kind:      taskSearch,
			Index:     i,
			Query:     *query,
			Params:    params,
			Paths:     []string{fr.Path},
			DBLetters: alias.Letters,
			DBSeqs:    alias.Seqs,
		})
	}
	stampTrace(ctx, sub)
	if err := s.enqueue(sub); err != nil {
		return nil, err
	}
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
	sub.out.Result = blast.Merge(&sub.query, sub.results, sub.params)
	sub.out.WallTime = time.Since(start)
	return sub.out, nil
}

// stampTrace propagates the submitter's span context (if any) onto the
// submission and its tasks: every task gets the trace ID plus its own
// span ID, minted here so the master and the worker agree on the task
// span's identity across the wire.
func stampTrace(ctx context.Context, sub *submission) {
	sc, ok := telemetry.SpanFromContext(ctx)
	if !ok {
		return
	}
	sub.trace = sc
	for _, t := range sub.tasks {
		t.TraceID = sc.TraceID
		t.SpanID = telemetry.NewID()
	}
}

func (s *Stream) enqueue(sub *submission) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return ErrDraining
	}
	sub.id = s.nextSub
	s.nextSub++
	for _, t := range sub.tasks {
		t.Sub = sub.id
	}
	sub.remaining = len(sub.tasks)
	sub.results = make([]*blast.Result, len(sub.tasks))
	sub.out = &Outcome{}
	s.queue = append(s.queue, sub)
	s.mu.Unlock()
	s.wake()
	return nil
}

// wake nudges the scheduling loop out of a blocking receive by
// sending rank 0 a message to itself (both transports loop self-sends
// back through the local mailbox without touching the network).
func (s *Stream) wake() {
	s.c.Send(0, tagWake, nil) // best effort: a dead loop fails all waiters anyway
}

// Close drains the stream: new submissions are refused, in-flight
// submissions run to completion, and every worker still attached is
// released with a done-task. It returns the loop's terminal error, if
// any. Close is idempotent and safe to call concurrently with Submit.
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

type taskKey struct {
	sub int64
	idx int
}

type taskState struct {
	sub      *submission
	msg      *taskMsg
	state    int
	at       time.Time // last assignment time
	to       int       // rank holding the task
	rehanded bool
}

// loop is the scheduling goroutine: the single owner of all task and
// worker state. It mirrors the fault-tolerant scheduler the one-shot
// master used — pending -> assigned -> done with overdue reassignment
// and duplicate-result discard — generalized to many concurrent
// submissions and a worker set that changes underneath it.
func (s *Stream) loop(ctx context.Context) {
	defer close(s.loopDone)

	tasks := make(map[taskKey]*taskState)
	subs := make(map[int64]*submission)
	var pending []taskKey // FIFO; requeued tasks go to the front
	var idle []int
	active := make(map[int]bool) // joined and not departed
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
		for _, t := range sub.tasks {
			delete(tasks, taskKey{sub.id, t.Index})
		}
		delete(subs, sub.id)
		close(sub.done)
	}

	// drainQueue absorbs newly-enqueued submissions into the task
	// table, finishes withdrawn ones still in flight (their pending
	// tasks drop out of pickTask, late results are discarded), and
	// reports whether Close has been requested.
	drainQueue := func() bool {
		s.mu.Lock()
		fresh, gone := s.queue, s.withdrawn
		s.queue, s.withdrawn = nil, nil
		closing := s.closing
		s.mu.Unlock()
		for _, sub := range fresh {
			subs[sub.id] = sub
			for _, t := range sub.tasks {
				k := taskKey{sub.id, t.Index}
				tasks[k] = &taskState{sub: sub, msg: t, state: statePending}
				pending = append(pending, k)
			}
		}
		for _, sub := range gone {
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

	// requeue puts an assigned task back at the head of the line —
	// its holder departed.
	requeue := func(ts *taskState) {
		recordTask(ts, ts.to, 0, "reassigned: worker left")
		ts.state = statePending
		ts.rehanded = true
		ts.sub.out.Reassigned++
		s.cfg.tel.observeReassign()
		pending = append([]taskKey{{ts.sub.id, ts.msg.Index}}, pending...)
	}

	// pickTask chooses work for an idle worker: fresh tasks first,
	// then — with TaskTimeout set — an overdue assignment held by a
	// different worker (it may have died).
	pickTask := func(worker int) *taskState {
		for len(pending) > 0 {
			k := pending[0]
			ts := tasks[k]
			if ts == nil || ts.state != statePending {
				pending = pending[1:]
				continue
			}
			pending = pending[1:]
			return ts
		}
		if s.cfg.TaskTimeout > 0 {
			for _, ts := range tasks {
				if ts.state == stateAssigned && ts.to != worker &&
					time.Since(ts.at) >= s.cfg.TaskTimeout {
					recordTask(ts, ts.to, 0, "reassigned: overdue")
					ts.rehanded = true
					ts.sub.out.Reassigned++
					s.cfg.tel.observeReassign()
					return ts
				}
			}
		}
		return nil
	}

	// dispatch pairs idle workers with assignable tasks.
	dispatch := func() error {
		for len(idle) > 0 {
			w := idle[0]
			ts := pickTask(w)
			if ts == nil {
				return nil
			}
			if err := mpi.SendGob(s.c, w, tagTask, ts.msg); err != nil {
				return err
			}
			ts.state = stateAssigned
			ts.at = time.Now()
			ts.to = w
			idle = idle[1:]
		}
		return nil
	}

	closing := false
	for {
		closing = drainQueue() || closing
		if closing && len(subs) == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			failAll(err)
			return
		}
		if err := dispatch(); err != nil {
			failAll(err)
			return
		}

		// With TaskTimeout set the receive also ends every TaskTimeout/2,
		// so an idle loop still wakes to hand out overdue tasks.
		rctx, cancel := ctx, context.CancelFunc(func() {})
		if s.cfg.TaskTimeout > 0 {
			rctx, cancel = context.WithTimeout(ctx, s.cfg.TaskTimeout/2)
		}
		m, err := s.c.Recv(rctx, mpi.AnySource, mpi.AnyTag)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			continue // overdue tick: dispatch retries overdue tasks
		}
		if err != nil {
			failAll(err)
			return
		}

		switch m.Tag {
		case tagWake:
			// Just a nudge; the top of the loop drains the queue.
		case tagHello:
			// A worker joined: reply with the run-wide settings. It
			// sends Ready once it has them.
			active[m.From] = true
			if err := mpi.SendGob(s.c, m.From, tagJob, &job{Config: s.cfg}); err != nil {
				failAll(err)
				return
			}
		case tagReady:
			idle = append(idle, m.From)
		case tagLeave:
			delete(active, m.From)
			for i, w := range idle {
				if w == m.From {
					idle = append(idle[:i], idle[i+1:]...)
					break
				}
			}
			// Hand its in-flight tasks to someone else.
			for _, ts := range tasks {
				if ts.state == stateAssigned && ts.to == m.From {
					requeue(ts)
				}
			}
		case tagResult:
			var rm resultMsg
			if err := decodeGob(m.Data, &rm); err != nil {
				failAll(err)
				return
			}
			ts := tasks[taskKey{rm.Sub, rm.Index}]
			if ts == nil || ts.state == stateDone {
				break // duplicate from a reassigned task, or failed submission
			}
			recordTask(ts, m.From, rm.ReadBytes, rm.Err)
			if rm.Err != "" {
				finishSub(ts.sub, fmt.Errorf("pblast: task %d failed: %s", rm.Index, rm.Err))
				break
			}
			ts.state = stateDone
			sub := ts.sub
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
			failAll(fmt.Errorf("pblast: master got unexpected tag %d", m.Tag))
			return
		}
	}

	// Release phase: every worker currently waiting for work gets a
	// done-task, then late Ready/Hello messages are drained until all
	// attached workers have been released (a short deadline per wait
	// bounds the cost when workers have died); stragglers computing
	// duplicates learn of completion when the communicator shuts down.
	released := make(map[int]bool)
	release := func(w int) error {
		if released[w] {
			return nil
		}
		if err := mpi.SendGob(s.c, w, tagTask, &taskMsg{Kind: taskDone}); err != nil {
			return err
		}
		released[w] = true
		return nil
	}
	for _, w := range idle {
		if err := release(w); err != nil {
			s.loopErr = err
			return
		}
	}
	allReleased := func() bool {
		for w := range active {
			if !released[w] {
				return false
			}
		}
		return true
	}
	for !allReleased() {
		rctx, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
		m, err := s.c.Recv(rctx, mpi.AnySource, mpi.AnyTag)
		cancel()
		if err != nil {
			break
		}
		switch m.Tag {
		case tagReady, tagHello:
			if err := release(m.From); err != nil {
				s.loopErr = err
				return
			}
		case tagLeave:
			delete(active, m.From)
		}
		// Duplicate results and wakes are dropped on the floor.
	}
}
