package blastd

import (
	"context"
	"slices"
	"sync"
	"time"
)

// admitQueue is the admission controller in front of the worker pool.
// It bounds the number of searches running at once (MaxConcurrent),
// the number waiting (MaxDepth), and the number each client may have
// queued or running (MaxPerClient). Waiting requests are granted in
// arrival order. A draining queue rejects new arrivals but lets
// everything already admitted finish.
type admitQueue struct {
	maxDepth      int
	maxPerClient  int
	maxConcurrent int

	mu        sync.Mutex
	waiting   []*ticket // arrival order
	running   int
	perClient map[string]int
	draining  bool
	drained   chan struct{}

	// Observability hooks; any may be nil.
	onDepth  func(depth int)            // queue depth changed
	onReject func(reason string)        // admission rejected
	onWait   func(d time.Duration)      // time a granted ticket spent queued
	onClient func(client string, n int) // per-client in-flight changed (n==0 means gone)
}

type ticket struct {
	client   string
	enqueued time.Time
	grant    chan struct{}
	granted  bool
}

func newAdmitQueue(maxDepth, maxPerClient, maxConcurrent int) *admitQueue {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	return &admitQueue{
		maxDepth:      maxDepth,
		maxPerClient:  maxPerClient,
		maxConcurrent: maxConcurrent,
		perClient:     make(map[string]int),
		drained:       make(chan struct{}),
	}
}

// Admit blocks until the request may run, then returns a release
// function that must be called exactly once when the search finishes.
// It fails fast with ErrDraining, ErrQuotaExceeded or ErrOverloaded,
// and unblocks with ctx.Err() if the caller gives up while queued.
func (q *admitQueue) Admit(ctx context.Context, client string) (func(), error) {
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		q.reject("draining")
		return nil, ErrDraining
	}
	if q.maxPerClient > 0 && q.perClient[client] >= q.maxPerClient {
		q.mu.Unlock()
		q.reject("quota")
		return nil, ErrQuotaExceeded
	}

	t := &ticket{
		client:   client,
		enqueued: time.Now(),
		grant:    make(chan struct{}),
	}

	// Run immediately if a slot is free and nobody is ahead of us.
	if q.running < q.maxConcurrent && len(q.waiting) == 0 {
		t.granted = true
		q.running++
		q.setClient(client, +1)
		q.mu.Unlock()
		return func() { q.release(t) }, nil
	}

	if q.maxDepth > 0 && len(q.waiting) >= q.maxDepth {
		q.mu.Unlock()
		q.reject("overload")
		return nil, ErrOverloaded
	}
	q.waiting = append(q.waiting, t)
	q.setClient(client, +1)
	depth := len(q.waiting)
	q.mu.Unlock()
	if q.onDepth != nil {
		q.onDepth(depth)
	}

	select {
	case <-t.grant:
		if q.onWait != nil {
			q.onWait(time.Since(t.enqueued))
		}
		return func() { q.release(t) }, nil
	case <-ctx.Done():
		q.mu.Lock()
		if t.granted {
			// Lost the race: we were granted as the caller gave up.
			q.mu.Unlock()
			q.release(t)
			return nil, ctx.Err()
		}
		i := slices.Index(q.waiting, t)
		q.waiting = slices.Delete(q.waiting, i, i+1)
		q.setClient(client, -1)
		depth := len(q.waiting)
		q.checkDrainedLocked()
		q.mu.Unlock()
		if q.onDepth != nil {
			q.onDepth(depth)
		}
		return nil, ctx.Err()
	}
}

// release frees the ticket's slot and grants the next waiter(s).
func (q *admitQueue) release(t *ticket) {
	q.mu.Lock()
	q.running--
	q.setClient(t.client, -1)
	granted := q.grantLocked()
	depth := len(q.waiting)
	q.checkDrainedLocked()
	q.mu.Unlock()
	if q.onDepth != nil && granted > 0 {
		q.onDepth(depth)
	}
}

// grantLocked moves waiters into free slots. Caller holds q.mu.
func (q *admitQueue) grantLocked() int {
	n := 0
	for q.running < q.maxConcurrent && len(q.waiting) > 0 {
		t := q.waiting[0]
		q.waiting = slices.Delete(q.waiting, 0, 1)
		t.granted = true
		q.running++
		close(t.grant)
		n++
	}
	return n
}

// Drain stops admitting and waits (bounded by ctx) until every queued
// and running request has finished.
func (q *admitQueue) Drain(ctx context.Context) error {
	q.mu.Lock()
	q.draining = true
	q.checkDrainedLocked()
	q.mu.Unlock()
	select {
	case <-q.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (q *admitQueue) checkDrainedLocked() {
	if q.draining && q.running == 0 && len(q.waiting) == 0 {
		select {
		case <-q.drained:
		default:
			close(q.drained)
		}
	}
}

// Depth reports the number of requests waiting for a slot.
func (q *admitQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.waiting)
}

// Running reports the number of requests holding a slot.
func (q *admitQueue) Running() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.running
}

func (q *admitQueue) reject(reason string) {
	if q.onReject != nil {
		q.onReject(reason)
	}
}

func (q *admitQueue) setClient(client string, delta int) {
	n := q.perClient[client] + delta
	if n <= 0 {
		delete(q.perClient, client)
		n = 0
	} else {
		q.perClient[client] = n
	}
	if q.onClient != nil {
		q.onClient(client, n)
	}
}
