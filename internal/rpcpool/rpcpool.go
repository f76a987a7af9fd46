// Package rpcpool is the shared client-transport layer of the
// parallel file systems: a bounded per-server connection pool plus the
// retry/timeout policy both the PVFS and CEFT-PVFS clients dial with.
// The paper's striped-read bandwidth (Figures 6-9) depends on many
// workers issuing stripe fetches to every data server concurrently;
// a single blocking connection per server serializes them and a single
// slow server stalls every worker forever. The pool multiplexes
// concurrent stripe fetches over up to PoolSize connections per
// server, and the Config's deadline/retry policy turns a hung or dead
// server into a bounded, classified error the layers above can act on
// (CEFT retries the mirror partner; PVFS surfaces chio.ErrTimeout or
// chio.ErrServerDown).
package rpcpool

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"sync"
	"time"

	"pario/internal/telemetry"
)

// Defaults for Config fields left zero, and the retry backoff's base
// and cap.
const (
	DefaultPoolSize     = 4
	DefaultTimeout      = 10 * time.Second
	DefaultRetries      = 2
	DefaultRetryBackoff = 25 * time.Millisecond
	DefaultMaxBackoff   = 2 * time.Second
)

// Config is the transport configuration shared by every parallel-FS
// client backend (pvfs.Dial and ceft.Dial both accept the same
// Option values that mutate it).
type Config struct {
	// PoolSize is the maximum number of concurrent connections kept
	// per server.
	PoolSize int
	// Timeout bounds each request/response attempt. Zero means no
	// per-attempt deadline (the context alone governs cancellation).
	Timeout time.Duration
	// Retries is how many times a failed attempt is retried (so a call
	// makes at most Retries+1 attempts).
	Retries int
	// Observer, when non-nil, receives one event per finished call
	// (after all retries).
	Observer Observer
	// Batch, when non-nil, receives one event per batch of stripe runs
	// issued to a server as one list-I/O RPC, so the RPCs saved by
	// coalescing are observable.
	Batch BatchObserver
	// Metrics, when non-nil, receives per-(server, op) transport
	// telemetry: latency histograms, outcome counters, retry and
	// reconnect counts, pool-wait time, payload bytes, batch coalescing.
	Metrics *Metrics
	// Tracer, when non-nil, records one span per RPC (attributed to
	// the span carried by the call's context, propagated on the wire)
	// so an application read decomposes into per-server fetches.
	Tracer *telemetry.Tracer
}

// DefaultConfig returns a production-sane fault policy.
func DefaultConfig() Config {
	return Config{
		PoolSize: DefaultPoolSize,
		Timeout:  DefaultTimeout,
		Retries:  DefaultRetries,
	}
}

// Apply folds opts over the defaults.
func Apply(opts ...Option) Config {
	cfg := DefaultConfig()
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}

// Option mutates a transport Config. The same option values are
// accepted by every backend's Dial.
type Option func(*Config)

// WithPoolSize bounds the connections kept per server.
func WithPoolSize(n int) Option { return func(c *Config) { c.PoolSize = n } }

// WithTimeout bounds each request/response attempt.
func WithTimeout(d time.Duration) Option { return func(c *Config) { c.Timeout = d } }

// WithRetries sets how many times a failed attempt is retried.
func WithRetries(n int) Option { return func(c *Config) { c.Retries = n } }

// WithObserver installs a per-call statistics sink.
func WithObserver(o Observer) Option { return func(c *Config) { c.Observer = o } }

// WithBatchObserver installs a per-batch coalescing statistics sink.
func WithBatchObserver(o BatchObserver) Option { return func(c *Config) { c.Batch = o } }

// WithMetrics installs a transport metric set (see NewMetrics); one
// set is typically shared by every client a process dials.
func WithMetrics(m *Metrics) Option { return func(c *Config) { c.Metrics = m } }

// WithTracer installs a span tracer on the transport: every RPC
// records one span carrying the server, op, latency, and payload size.
func WithTracer(t *telemetry.Tracer) Option { return func(c *Config) { c.Tracer = t } }

// Metrics is the transport-level metric set shared by every
// parallel-FS client backend, registered on a telemetry.Registry. The
// per-(server, op) latency histograms are the live view the paper's
// hot-spot analysis needs: a stressed data server shows up as one
// address whose p95 balloons while its peers stay flat.
type Metrics struct {
	// Calls counts finished RPCs by server, op, and outcome
	// ("ok", "error", or "timeout").
	Calls *telemetry.CounterVec
	// Latency is the end-to-end call latency (including retries and
	// backoff) by server and op, in seconds.
	Latency *telemetry.HistogramVec
	// Retries counts retry attempts by server.
	Retries *telemetry.CounterVec
	// Reconnects counts pool connection dials by server (beyond the
	// steady state, redials after discarded connections).
	Reconnects *telemetry.CounterVec
	// PoolWait is the time a call spent waiting for a pooled
	// connection, by server, in seconds.
	PoolWait *telemetry.HistogramVec
	// BytesOut / BytesIn count request / response payload bytes by
	// server.
	BytesOut *telemetry.CounterVec
	// BytesIn counts response payload bytes by server.
	BytesIn *telemetry.CounterVec
	// Batches counts batches of stripe runs issued to a server as list
	// I/O; BatchRuns sums the runs they carried and BatchRPCs the round
	// trips actually issued, so BatchRuns-BatchRPCs is the RPCs that
	// coalescing saved.
	Batches, BatchRuns, BatchRPCs *telemetry.CounterVec
}

// NewMetrics registers the transport metric families on reg.
// Registration is idempotent, so independently dialed clients may each
// call this against a shared registry.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		Calls: reg.CounterVec("pario_rpc_calls_total",
			"Finished RPCs by server, op, and outcome.", "server", "op", "outcome"),
		Latency: reg.HistogramVec("pario_rpc_latency_seconds",
			"End-to-end RPC latency (including retries) by server and op.", "server", "op"),
		Retries: reg.CounterVec("pario_rpc_retries_total",
			"RPC retry attempts by server.", "server"),
		Reconnects: reg.CounterVec("pario_rpc_reconnects_total",
			"Transport connection dials by server.", "server"),
		PoolWait: reg.HistogramVec("pario_rpc_pool_wait_seconds",
			"Time spent waiting for a pooled connection, by server.", "server"),
		BytesOut: reg.CounterVec("pario_rpc_bytes_out_total",
			"Request payload bytes by server.", "server"),
		BytesIn: reg.CounterVec("pario_rpc_bytes_in_total",
			"Response payload bytes by server.", "server"),
		Batches: reg.CounterVec("pario_rpc_batches_total",
			"Coalesced stripe-run batches on the striped I/O path.", "server"),
		BatchRuns: reg.CounterVec("pario_rpc_batch_runs_total",
			"Stripe runs carried by coalesced batches.", "server"),
		BatchRPCs: reg.CounterVec("pario_rpc_batch_rpcs_total",
			"Round trips actually issued for coalesced batches.", "server"),
	}
}

// Outcome classifies an RPC result for the Calls counter.
func Outcome(err error, timeout bool) string {
	switch {
	case err == nil:
		return "ok"
	case timeout:
		return "timeout"
	default:
		return "error"
	}
}

// Observer receives one event per finished RPC (after retries).
// Implementations must be safe for concurrent use.
type Observer interface {
	ObserveCall(server string, latency time.Duration, retries int, err error)
}

// BatchObserver receives one event per coalesced batch on the striped
// I/O path: runs stripe runs destined for one server were issued as
// rpcs round trips (rpcs < runs means coalescing saved RPCs).
// Implementations must be safe for concurrent use.
type BatchObserver interface {
	ObserveBatch(server string, runs, rpcs int)
}

// Backoff returns the pause before retry attempt (0-based):
// DefaultRetryBackoff doubled per attempt, capped at
// DefaultMaxBackoff, with full jitter.
func Backoff(attempt int) time.Duration {
	d := DefaultRetryBackoff
	for i := 0; i < attempt && d < DefaultMaxBackoff; i++ {
		d *= 2
	}
	if d > DefaultMaxBackoff {
		d = DefaultMaxBackoff
	}
	// Full jitter over [d/2, d): desynchronizes the retry herd when
	// many workers hit the same stressed server at once.
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rand.Int63n(int64(half)))
}

// Sleep pauses for d or until ctx is done, returning ctx's error in
// the latter case.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// ErrPoolClosed is returned by Get after Close.
var ErrPoolClosed = errors.New("rpcpool: pool closed")

// Pool is a bounded pool of connections to one server. Connections
// are dialed lazily up to the bound; Get blocks (context-aware) when
// all are checked out. The zero value is not usable; use New.
type Pool[C io.Closer] struct {
	dial  func() (C, error)
	slots chan struct{} // capacity = bound; a held token = one live or in-flight conn

	mu     sync.Mutex
	idle   []C
	closed bool
}

// New returns a pool of at most size connections created by dial.
func New[C io.Closer](size int, dial func() (C, error)) *Pool[C] {
	if size < 1 {
		size = 1
	}
	return &Pool[C]{dial: dial, slots: make(chan struct{}, size)}
}

// Get returns an idle connection, dialing a new one when under the
// bound, or blocks until one is returned or ctx is done.
func (p *Pool[C]) Get(ctx context.Context) (C, error) {
	var zero C
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		return zero, ctx.Err()
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.slots
		return zero, ErrPoolClosed
	}
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	c, err := p.dial()
	if err != nil {
		<-p.slots
		return zero, err
	}
	return c, nil
}

// Put returns a healthy connection for reuse.
func (p *Pool[C]) Put(c C) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		<-p.slots
		return
	}
	p.idle = append(p.idle, c)
	p.mu.Unlock()
	<-p.slots
}

// Discard drops a broken connection, freeing its slot so a fresh one
// can be dialed.
func (p *Pool[C]) Discard(c C) {
	c.Close()
	<-p.slots
}

// Warm establishes (and parks) one connection, verifying the server
// is reachable — what Dial uses to fail fast on a bad address.
func (p *Pool[C]) Warm(ctx context.Context) error {
	c, err := p.Get(ctx)
	if err != nil {
		return err
	}
	p.Put(c)
	return nil
}

// Close closes every idle connection and fails subsequent Gets.
// Checked-out connections are closed as they come back.
func (p *Pool[C]) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	var first error
	for _, c := range idle {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
