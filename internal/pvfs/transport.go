package pvfs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"pario/internal/chio"
	"pario/internal/rpcpool"
	"pario/internal/telemetry"
)

// respPool recycles the Responses of the data path's list RPCs, with
// the capacity of their SegLens and their destination list.
// readResponse sets every field, so a recycled Response needs no reset.
var respPool = sync.Pool{New: func() interface{} { return new(Response) }}

// getResp returns a recycled (or fresh) Response for a pooled call.
func getResp() *Response { return respPool.Get().(*Response) }

// putResp returns a Response to the pool once its payload has been
// consumed. The caller must not retain resp.Data afterwards.
func putResp(resp *Response) {
	clear(resp.into) // the pool keeps no reference to caller memory
	resp.into = resp.into[:0]
	respPool.Put(resp)
}

// transport is the resilient RPC path to one server: a bounded
// connection pool plus the Config's deadline/retry policy. All client
// traffic (Client, MetaConn, DataConn) flows through transports, so
// concurrent stripe fetches parallelize across pooled connections
// instead of serializing on a single conn mutex, and a hung or dead
// server yields a bounded chio.ErrTimeout / chio.ErrServerDown instead
// of blocking forever.
type transport struct {
	addr string
	cfg  rpcpool.Config
	pool *rpcpool.Pool[*conn]
}

func newTransport(addr string, cfg rpcpool.Config) *transport {
	size := cfg.PoolSize
	if size < 1 {
		size = rpcpool.DefaultPoolSize
	}
	dial := func() (*conn, error) {
		if m := cfg.Metrics; m != nil {
			m.Reconnects.With(addr).Inc()
		}
		return dialConn(addr)
	}
	return &transport{
		addr: addr,
		cfg:  cfg,
		pool: rpcpool.New(size, dial),
	}
}

// warm verifies the server is reachable by establishing one pooled
// connection, so Dial fails fast on a bad address.
func (t *transport) warm(ctx context.Context) error {
	if err := t.pool.Warm(ctx); err != nil {
		return classifyErr(t.addr, err)
	}
	return nil
}

func (t *transport) close() error { return t.pool.Close() }

// call performs one RPC with the transport's retry policy: up to
// Retries+1 attempts, each on a (possibly fresh) pooled connection
// under a per-attempt deadline, with jittered exponential backoff
// between attempts. The protocol's operations are idempotent, so every
// transport fault is safe to retry; only context cancellation is not.
// Errors are classified per the chio error contract, and the Observer
// (if any) sees one event per call.
func (t *transport) call(ctx context.Context, req *Request) (*Response, error) {
	resp := new(Response)
	if err := t.callInto(ctx, req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// callInto is call decoding into a caller-supplied Response, so hot
// paths can recycle responses (and their payload buffers) through
// respPool instead of allocating one per RPC.
func (t *transport) callInto(ctx context.Context, req *Request, resp *Response) error {
	start := time.Now()
	var parent telemetry.SpanContext
	if t.cfg.Tracer != nil {
		// Stamp the propagated trace identity onto the wire request: the
		// RPC becomes a child of the span in ctx (the application-level
		// read or write that caused it), or a root of its own.
		if sc, ok := telemetry.SpanFromContext(ctx); ok {
			parent = sc
			req.TraceID = sc.TraceID
		} else {
			req.TraceID = telemetry.NewID()
		}
		req.SpanID = telemetry.NewID()
	}
	attempts := t.cfg.Retries + 1
	if attempts < 1 {
		attempts = 1
	}
	var err error
	retries := 0
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if serr := rpcpool.Sleep(ctx, rpcpool.Backoff(i-1)); serr != nil {
				break
			}
			retries++
		}
		err = t.attempt(ctx, req, resp)
		if err == nil || ctx.Err() != nil || errors.Is(err, ErrWireVersion) {
			break // a peer of another wire version will not change its mind
		}
	}
	if err != nil {
		err = classifyErr(t.addr, err)
	}
	elapsed := time.Since(start)
	if obs := t.cfg.Observer; obs != nil {
		obs.ObserveCall(t.addr, elapsed, retries, err)
	}
	t.observeCall(req, resp, start, elapsed, retries, err, parent)
	return err
}

// observeCall publishes one finished RPC into the configured metric
// set and span tracer.
func (t *transport) observeCall(req *Request, resp *Response, start time.Time, elapsed time.Duration, retries int, err error, parent telemetry.SpanContext) {
	op := req.Op.String()
	sent := int64(req.payloadLen())
	bytes := sent
	if err == nil {
		bytes += resp.payloadLen
	}
	if m := t.cfg.Metrics; m != nil {
		m.Latency.With(t.addr, op).ObserveDuration(elapsed)
		m.Calls.With(t.addr, op, rpcpool.Outcome(err, errors.Is(err, chio.ErrTimeout))).Inc()
		if retries > 0 {
			m.Retries.With(t.addr).Add(int64(retries))
		}
		if sent > 0 {
			m.BytesOut.With(t.addr).Add(sent)
		}
		if err == nil && resp.payloadLen > 0 {
			m.BytesIn.With(t.addr).Add(resp.payloadLen)
		}
	}
	if tr := t.cfg.Tracer; tr != nil {
		s := telemetry.Span{
			TraceID:  req.TraceID,
			SpanID:   req.SpanID,
			Parent:   parent.SpanID,
			Name:     "rpc:" + op,
			Server:   t.addr,
			Start:    start,
			Duration: elapsed,
			Bytes:    bytes,
		}
		if err != nil {
			s.Err = err.Error()
		}
		tr.Record(s)
	}
}

// observeBatch reports one coalesced batch (runs stripe runs issued as
// rpcs round trips) to the configured BatchObserver and metric set.
func (t *transport) observeBatch(runs, rpcs int) {
	if obs := t.cfg.Batch; obs != nil {
		obs.ObserveBatch(t.addr, runs, rpcs)
	}
	if m := t.cfg.Metrics; m != nil {
		m.Batches.With(t.addr).Inc()
		m.BatchRuns.With(t.addr).Add(int64(runs))
		m.BatchRPCs.With(t.addr).Add(int64(rpcs))
	}
}

// attempt runs a single request/response exchange on a pooled
// connection. The connection's socket deadline is the tighter of the
// per-attempt Timeout and the context deadline, and cancellation of
// ctx mid-exchange forces the socket deadline into the past so an
// in-flight read aborts immediately. A failed connection is
// discarded (the pool redials on demand); a healthy one goes back for
// reuse.
func (t *transport) attempt(ctx context.Context, req *Request, resp *Response) error {
	var cn *conn
	var err error
	if m := t.cfg.Metrics; m != nil {
		waitStart := time.Now()
		cn, err = t.pool.Get(ctx)
		m.PoolWait.With(t.addr).ObserveDuration(time.Since(waitStart))
	} else {
		cn, err = t.pool.Get(ctx)
	}
	if err != nil {
		return err
	}
	var deadline time.Time
	if t.cfg.Timeout > 0 {
		deadline = time.Now().Add(t.cfg.Timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	cn.setDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { cn.setDeadline(time.Now().Add(-time.Second)) })
	err = cn.call(req, resp)
	stop()
	if err != nil {
		t.pool.Discard(cn)
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return err
	}
	cn.setDeadline(time.Time{})
	t.pool.Put(cn)
	return nil
}

// classifyErr maps transport faults onto the chio error contract:
// deadline expiry becomes chio.ErrTimeout, an unreachable or
// disconnected server becomes chio.ErrServerDown, and context
// cancellation passes through unwrapped so deliberate aborts stay
// distinguishable from faults.
func classifyErr(addr string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, chio.ErrTimeout) || errors.Is(err, chio.ErrServerDown) ||
		errors.Is(err, context.Canceled) {
		return err
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %s: %v", chio.ErrTimeout, addr, err)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %s: %v", chio.ErrTimeout, addr, err)
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return fmt.Errorf("%w: %s: %v", chio.ErrServerDown, addr, err)
	}
	return err
}
