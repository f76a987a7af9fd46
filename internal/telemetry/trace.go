package telemetry

import (
	"context"
	"log/slog"
	"math/rand/v2"
	"sync"
	"time"
)

// Span is one timed, attributed unit of work. An application-level
// read through a striped backend produces one root span plus one child
// span per per-server RPC, all sharing a TraceID, so a single slow
// request decomposes into the server fetches that served it — the
// live-run equivalent of the paper's per-server instrumentation.
type Span struct {
	TraceID  uint64
	SpanID   uint64
	Parent   uint64 // parent span ID; 0 for a root span
	Name     string // "read", "write", "rpc:list_read", "serve:list_read", ...
	Server   string // server address (RPC spans) or server identity (server-side spans)
	Start    time.Time
	Duration time.Duration
	Bytes    int64  // payload bytes moved by this span
	Err      string // non-empty when the unit failed

	// Attrs carries low-cardinality key/value annotations (queue
	// priority, depth at enqueue, cache status, ...). Nil on most
	// spans; never mutated after Record.
	Attrs map[string]string
}

// NewID returns a non-zero random 64-bit trace/span ID.
func NewID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// SpanContext is the propagated part of a span: what travels in the
// RPC Request so server-side work is attributable to the client call
// that caused it.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sc; RPCs issued under it become
// children of sc.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext extracts the current span context, if any.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok
}

// Tracer records finished spans into a bounded in-memory ring buffer
// and logs spans slower than a configurable threshold. A nil *Tracer
// is valid and records nothing, so call sites need no guards.
type Tracer struct {
	mu   sync.Mutex
	buf  []Span
	next int
	full bool

	slow    time.Duration
	slowLog *slog.Logger

	// Pinned traces survive ring eviction: once PinTrace(id) is
	// called, the id's spans already in the ring are copied aside and
	// every later Record for it appends there too, until the pin is
	// evicted FIFO by newer pins. The slow-query flight recorder pins
	// queries over its threshold so their full span set stays
	// retrievable long after the ring has churned.
	pinned   map[uint64][]Span
	pinOrder []uint64
}

// Pinned-trace bounds: a debugging aid must not become an unbounded
// memory sink under a stream of slow queries.
const (
	MaxPinnedTraces = 16
	maxPinnedSpans  = 4096
)

// DefaultSpanBuffer is the ring capacity when NewTracer is given none.
const DefaultSpanBuffer = 2048

// NewTracer returns a tracer keeping the last capacity spans
// (DefaultSpanBuffer if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSpanBuffer
	}
	return &Tracer{buf: make([]Span, capacity)}
}

// SetSlowThreshold makes spans with Duration >= d emit one structured
// log line (to logger, or the process default when nil). d <= 0
// disables the slow log.
func (t *Tracer) SetSlowThreshold(d time.Duration, logger *slog.Logger) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.slow = d
	t.slowLog = logger
	t.mu.Unlock()
}

// Record stores a finished span and applies the slow-span log.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buf[t.next] = s
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
	if ps, ok := t.pinned[s.TraceID]; ok && len(ps) < maxPinnedSpans {
		t.pinned[s.TraceID] = append(ps, s)
	}
	slow, logger := t.slow, t.slowLog
	t.mu.Unlock()
	if slow > 0 && s.Duration >= slow {
		if logger == nil {
			logger = slog.Default()
		}
		logger.Warn("slow-span",
			"trace", IDString(s.TraceID), "span", IDString(s.SpanID),
			"parent", IDString(s.Parent), "name", s.Name, "server", s.Server,
			"dur", s.Duration, "bytes", s.Bytes, "err", s.Err)
	}
}

// Recent returns the buffered spans, oldest first.
func (t *Tracer) Recent() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recentLocked()
}

// recentLocked copies the ring, oldest first. Caller holds t.mu.
func (t *Tracer) recentLocked() []Span {
	if !t.full {
		return append([]Span(nil), t.buf[:t.next]...)
	}
	out := make([]Span, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// PinTrace protects trace id against ring eviction: its spans already
// in the ring are captured now and subsequent Records for it append to
// the captured set (bounded by maxPinnedSpans). At most MaxPinnedTraces
// traces stay pinned; older pins are dropped FIFO. Pinning an
// already-pinned id is a no-op, so the capture is never regressed.
func (t *Tracer) PinTrace(id uint64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.pinned[id]; ok {
		return
	}
	if t.pinned == nil {
		t.pinned = make(map[uint64][]Span)
	}
	var spans []Span
	for _, s := range t.recentLocked() {
		if s.TraceID == id {
			spans = append(spans, s)
		}
	}
	t.pinned[id] = spans
	t.pinOrder = append(t.pinOrder, id)
	for len(t.pinOrder) > MaxPinnedTraces {
		delete(t.pinned, t.pinOrder[0])
		t.pinOrder = t.pinOrder[1:]
	}
}

// TraceSpans returns every retained span of trace id, oldest first:
// the pinned set when the id is pinned, otherwise whatever of the
// trace still survives in the ring.
func (t *Tracer) TraceSpans(id uint64) []Span {
	if t == nil || id == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ps, ok := t.pinned[id]; ok {
		return append([]Span(nil), ps...)
	}
	var out []Span
	for _, s := range t.recentLocked() {
		if s.TraceID == id {
			out = append(out, s)
		}
	}
	return out
}

// ActiveSpan is an in-progress span opened by Start. Methods on a nil
// ActiveSpan are no-ops, so disabled tracing costs one nil check.
type ActiveSpan struct {
	t *Tracer
	s Span
}

// Start opens a span named name as a child of the span in ctx (or as a
// new trace root) and returns ctx rebound to the new span, so RPCs
// issued under it are attributed to it. Finish records the span.
// On a nil tracer, ctx is returned unchanged with a nil span.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	if t == nil {
		return ctx, nil
	}
	a := &ActiveSpan{t: t, s: Span{SpanID: NewID(), Name: name, Start: time.Now()}}
	if parent, ok := SpanFromContext(ctx); ok {
		a.s.TraceID = parent.TraceID
		a.s.Parent = parent.SpanID
	} else {
		a.s.TraceID = NewID()
	}
	return ContextWithSpan(ctx, SpanContext{TraceID: a.s.TraceID, SpanID: a.s.SpanID}), a
}

// Context returns the span's propagated identity.
func (a *ActiveSpan) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: a.s.TraceID, SpanID: a.s.SpanID}
}

// AddBytes attributes n payload bytes to the span.
func (a *ActiveSpan) AddBytes(n int64) {
	if a != nil {
		a.s.Bytes += n
	}
}

// SetServer attributes the span to a server.
func (a *ActiveSpan) SetServer(server string) {
	if a != nil {
		a.s.Server = server
	}
}

// SetAttr annotates the span with a key/value attribute.
func (a *ActiveSpan) SetAttr(key, value string) {
	if a == nil {
		return
	}
	if a.s.Attrs == nil {
		a.s.Attrs = make(map[string]string)
	}
	a.s.Attrs[key] = value
}

// Finish stamps the duration (and the error, when non-nil) and records
// the span.
func (a *ActiveSpan) Finish(err error) {
	if a == nil {
		return
	}
	a.s.Duration = time.Since(a.s.Start)
	if err != nil {
		a.s.Err = err.Error()
	}
	a.t.Record(a.s)
}
