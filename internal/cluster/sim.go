// Package cluster is a deterministic process-based discrete-event
// simulation kernel. Simulated processes run as goroutines that the
// kernel schedules one at a time in virtual-time order, giving
// sequential determinism with the convenience of writing processes as
// straight-line code. Resources model contended hardware (disks,
// NICs, CPUs) as FIFO servers with capacity; queues provide
// process-to-process messaging. The paper's cluster-scale experiments
// (Figures 5-7, 9) run on models built from these primitives.
package cluster

import (
	"container/heap"
	"fmt"
)

// event wakes a process at a virtual time. seq breaks ties so event
// order is deterministic and FIFO for equal times.
type event struct {
	at   float64
	seq  int64
	proc *Proc
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Sim is a simulation instance. Not safe for concurrent use from
// outside; all concurrency is internal and lock-stepped.
type Sim struct {
	now    float64
	seq    int64
	events eventHeap
	yield  chan yieldMsg
	live   int // spawned and not yet finished
}

type yieldMsg struct {
	done bool
}

// New creates an empty simulation.
func New() *Sim {
	return &Sim{yield: make(chan yieldMsg)}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Proc is a simulated process. Its methods must only be called from
// inside the process's own function.
type Proc struct {
	sim    *Sim
	name   string
	resume chan struct{}
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.sim.now }

// Spawn starts a new process at the current virtual time.
func (s *Sim) Spawn(name string, fn func(p *Proc)) {
	p := &Proc{sim: s, name: name, resume: make(chan struct{})}
	s.live++
	go func() {
		<-p.resume
		fn(p)
		s.yield <- yieldMsg{done: true}
	}()
	s.schedule(p, s.now)
}

// schedule enqueues a wakeup for p at time at.
func (s *Sim) schedule(p *Proc, at float64) {
	s.seq++
	heap.Push(&s.events, event{at: at, seq: s.seq, proc: p})
}

// switchTo hands control to p and waits for it to yield or exit.
func (s *Sim) switchTo(p *Proc) {
	p.resume <- struct{}{}
	msg := <-s.yield
	if msg.done {
		s.live--
	}
}

// Run processes events until none remain. It returns the number of
// processes still blocked (0 in a well-formed model; non-zero means
// deadlock or processes waiting on messages that never come).
func (s *Sim) Run() int {
	return s.RunUntil(-1)
}

// RunUntil processes events until the heap is empty or virtual time
// would exceed limit (limit < 0 means no limit). It returns the
// number of processes still blocked or pending.
func (s *Sim) RunUntil(limit float64) int {
	for len(s.events) > 0 {
		ev := heap.Pop(&s.events).(event)
		if limit >= 0 && ev.at > limit {
			heap.Push(&s.events, ev)
			s.now = limit
			break
		}
		if ev.at > s.now {
			s.now = ev.at
		}
		s.switchTo(ev.proc)
	}
	return s.live
}

// block yields control to the kernel without scheduling a wakeup; the
// process resumes when something (resource grant, queue send)
// schedules it.
func (p *Proc) block() {
	p.sim.yield <- yieldMsg{}
	<-p.resume
}

// Sleep advances the process by d seconds of virtual time. Negative
// durations are treated as zero.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	p.sim.schedule(p, p.sim.now+d)
	p.block()
}

// Resource is a FIFO multi-server resource (capacity concurrent
// holders; further requesters queue in arrival order).
type Resource struct {
	sim      *Sim
	name     string
	capacity int
	inUse    int
	queue    []*Proc

	// statistics
	lastChange   float64
	busyIntegral float64 // integral of inUse over time
	acquisitions int64
}

// NewResource creates a resource with the given concurrency capacity.
func (s *Sim) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("cluster: resource %s capacity %d < 1", name, capacity))
	}
	return &Resource{sim: s, name: name, capacity: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// InUse returns the current holder count.
func (r *Resource) InUse() int { return r.inUse }

func (r *Resource) account() {
	dt := r.sim.now - r.lastChange
	r.busyIntegral += float64(r.inUse) * dt
	r.lastChange = r.sim.now
}

// Utilization returns the time-averaged fraction of capacity in use
// up to the current virtual time.
func (r *Resource) Utilization() float64 {
	if r.sim.now == 0 {
		return 0
	}
	r.account()
	return r.busyIntegral / (float64(r.capacity) * r.sim.now)
}

// Acquisitions returns how many grants the resource has made.
func (r *Resource) Acquisitions() int64 { return r.acquisitions }

// Acquire blocks until the process holds one unit of the resource.
func (p *Proc) Acquire(r *Resource) {
	r.account()
	r.acquisitions++
	if r.inUse < r.capacity {
		r.inUse++
		return
	}
	r.queue = append(r.queue, p)
	p.block()
	// The releaser incremented inUse on our behalf.
}

// Release frees one unit and hands it to the longest-waiting process,
// if any.
func (p *Proc) Release(r *Resource) {
	r.account()
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		// Ownership transfers directly: inUse stays the same.
		p.sim.schedule(next, p.sim.now)
		return
	}
	r.inUse--
	if r.inUse < 0 {
		panic("cluster: release of idle resource " + r.name)
	}
}

// Use acquires r, holds it for d seconds, then releases it.
func (p *Proc) Use(r *Resource, d float64) {
	p.Acquire(r)
	p.Sleep(d)
	p.Release(r)
}

// UseChunked acquires and releases r repeatedly in chunk-second
// slices totalling d seconds, letting equal-priority competitors
// interleave — a FIFO approximation of fair sharing used to model
// disk and CPU time slicing.
func (p *Proc) UseChunked(r *Resource, d, chunk float64) {
	if chunk <= 0 || chunk >= d {
		p.Use(r, d)
		return
	}
	remaining := d
	for remaining > 1e-12 {
		slice := chunk
		if slice > remaining {
			slice = remaining
		}
		p.Use(r, slice)
		remaining -= slice
	}
}

// Queue is an unbounded FIFO mailbox between processes.
type Queue struct {
	sim     *Sim
	name    string
	items   []interface{}
	waiters []*Proc
}

// NewQueue creates a mailbox.
func (s *Sim) NewQueue(name string) *Queue {
	return &Queue{sim: s, name: name}
}

// Send enqueues v and wakes the longest-waiting receiver, if any.
// Send never blocks.
func (p *Proc) Send(q *Queue, v interface{}) {
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		next := q.waiters[0]
		q.waiters = q.waiters[1:]
		p.sim.schedule(next, p.sim.now)
	}
}

// Recv blocks until an item is available and returns it.
func (p *Proc) Recv(q *Queue) interface{} {
	for len(q.items) == 0 {
		q.waiters = append(q.waiters, p)
		p.block()
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v
}

// TryRecv returns the next item without blocking, or (nil, false).
func (p *Proc) TryRecv(q *Queue) (interface{}, bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.items) }
