package blastd

import (
	"sync"
	"time"
)

// QuerySummary is one request's flight-recorder entry: the compressed
// life story of a query — who asked, what it cost at each phase, and
// the trace ID that unlocks the full span set — served newest-first at
// GET /debug/queries. It is the service-level analogue of the paper's
// per-phase timing tables, kept per query instead of per run.
type QuerySummary struct {
	TraceID  string    `json:"trace_id,omitempty"`
	Client   string    `json:"client"`
	DB       string    `json:"db"`
	Params   string    `json:"params,omitempty"` // result-affecting parameter signature
	Priority int       `json:"priority,omitempty"`
	Start    time.Time `json:"start"`
	Status   int       `json:"status"` // HTTP status the request mapped to
	Err      string    `json:"err,omitempty"`
	Cache    string    `json:"cache,omitempty"` // hit | miss | shared

	// Per-phase breakdown, milliseconds. QueueMS is the admission
	// wait; RunMS is the backend execution (cache misses only);
	// CopyMS/SearchMS are the workers' summed phase times; TotalMS is
	// end-to-end.
	QueueMS  float64 `json:"queue_ms"`
	RunMS    float64 `json:"run_ms,omitempty"`
	CopyMS   float64 `json:"copy_ms,omitempty"`
	SearchMS float64 `json:"search_ms,omitempty"`
	TotalMS  float64 `json:"total_ms"`

	// Task shape: how the scheduler decomposed the query. Zero tasks
	// means the answer never touched the pool (cache hit or shared
	// flight). StragglerTask is the slowest task's index (-1 when no
	// tasks ran) and StragglerMS its search time.
	Tasks         int     `json:"tasks,omitempty"`
	Reassigned    int     `json:"reassigned,omitempty"`
	StragglerTask int     `json:"straggler_task"`
	StragglerMS   float64 `json:"straggler_ms,omitempty"`

	// Bytes sums the trace's fragment-read spans — data moved off the
	// store for this query (zero for cache hits and for backends that
	// record no read spans).
	Bytes int64 `json:"bytes,omitempty"`

	// Slow marks queries at or over the -slow-query threshold; their
	// span sets are pinned against tracer-ring eviction.
	Slow bool `json:"slow,omitempty"`
}

// DefaultFlightSize is the flight-recorder ring capacity when the
// config leaves it zero.
const DefaultFlightSize = 64

// flightRecorder is a bounded ring of completed-request summaries.
type flightRecorder struct {
	mu   sync.Mutex
	buf  []QuerySummary
	next int
	full bool
}

func newFlightRecorder(capacity int) *flightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightSize
	}
	return &flightRecorder{buf: make([]QuerySummary, capacity)}
}

func (f *flightRecorder) add(q QuerySummary) {
	f.mu.Lock()
	f.buf[f.next] = q
	f.next++
	if f.next == len(f.buf) {
		f.next = 0
		f.full = true
	}
	f.mu.Unlock()
}

// Recent returns the recorded summaries, newest first.
func (f *flightRecorder) Recent() []QuerySummary {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.next
	if f.full {
		n = len(f.buf)
	}
	out := make([]QuerySummary, 0, n)
	for i := f.next - 1; i >= 0; i-- {
		out = append(out, f.buf[i])
	}
	if f.full {
		for i := len(f.buf) - 1; i >= f.next; i-- {
			out = append(out, f.buf[i])
		}
	}
	return out
}
