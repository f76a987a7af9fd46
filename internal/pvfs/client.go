package pvfs

import (
	"context"
	"fmt"
	"sync"

	"pario/internal/chio"
	"pario/internal/rpcpool"
)

// Client is a PVFS client. It implements chio.FileSystem: metadata
// operations go to the manager, data operations are decomposed into
// per-server stripe runs and issued to all data servers in parallel.
// A Client is safe for concurrent use; stripe fetches from concurrent
// readers multiplex over the per-server connection pools.
type Client struct {
	cfg  rpcpool.Config
	ctx  context.Context
	meta *transport
	data []*DataConn
}

// Dial connects to the manager and every data server. Transport
// behavior (pool size, per-request timeout, retry budget, stripe-size
// hint for created files) is set with rpcpool options shared with the
// CEFT backend:
//
//	cl, err := pvfs.Dial(mgr, iods,
//		rpcpool.WithTimeout(2*time.Second),
//		rpcpool.WithRetries(3))
func Dial(mgrAddr string, dataAddrs []string, opts ...rpcpool.Option) (*Client, error) {
	if len(dataAddrs) == 0 {
		return nil, fmt.Errorf("pvfs: no data servers")
	}
	cfg := rpcpool.Apply(opts...)
	cl := &Client{cfg: cfg, ctx: context.Background(), meta: newTransport(mgrAddr, cfg)}
	all := []*transport{cl.meta}
	for _, a := range dataAddrs {
		d := &DataConn{t: newTransport(a, cfg)}
		cl.data = append(cl.data, d)
		all = append(all, d.t)
	}
	// Establish one connection per server up front so a bad address
	// fails Dial instead of the first operation.
	warmCtx := context.Background()
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		warmCtx, cancel = context.WithTimeout(warmCtx, cfg.Timeout)
		defer cancel()
	}
	errs := make([]error, len(all))
	var wg sync.WaitGroup
	for i, tr := range all {
		wg.Add(1)
		go func(i int, tr *transport) {
			defer wg.Done()
			errs[i] = tr.warm(warmCtx)
		}(i, tr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			cl.Close()
			return nil, err
		}
	}
	return cl, nil
}

// BackendName returns "pvfs".
func (cl *Client) BackendName() string { return "pvfs" }

// NumServers returns the data server count.
func (cl *Client) NumServers() int { return len(cl.data) }

// WithContext implements chio.ContextBinder: the returned view shares
// this client's connection pools, but its operations (including
// in-flight stripe reads) abort when ctx is done.
func (cl *Client) WithContext(ctx context.Context) chio.FileSystem {
	if ctx == nil {
		ctx = context.Background()
	}
	c2 := *cl
	c2.ctx = ctx
	return &c2
}

// Close releases all pooled connections.
func (cl *Client) Close() error {
	var first error
	if cl.meta != nil {
		first = cl.meta.close()
	}
	for _, d := range cl.data {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (cl *Client) metaCall(ctx context.Context, req *Request) (*Response, error) {
	resp, err := cl.meta.call(ctx, req)
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		if resp.NotFound {
			return nil, fmt.Errorf("%w: %s", chio.ErrNotExist, req.Name)
		}
		return nil, resp.err()
	}
	return resp, nil
}

// Create implements chio.FileSystem: it allocates (or truncates) the
// file and clears any stale pieces on the data servers.
func (cl *Client) Create(name string) (chio.File, error) {
	resp, err := cl.metaCall(cl.ctx, &Request{Op: OpCreate, Name: name, Stripe: cl.cfg.StripeSize})
	if err != nil {
		return nil, err
	}
	m := resp.Meta
	// Clear old pieces in parallel.
	errs := make([]error, len(cl.data))
	var wg sync.WaitGroup
	for i, d := range cl.data {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = d.RemovePiece(cl.ctx, m.Handle)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cl.file(m), nil
}

// Open implements chio.FileSystem.
func (cl *Client) Open(name string) (chio.File, error) {
	resp, err := cl.metaCall(cl.ctx, &Request{Op: OpLookup, Name: name})
	if err != nil {
		return nil, err
	}
	return cl.file(resp.Meta), nil
}

// Stat implements chio.FileSystem.
func (cl *Client) Stat(name string) (chio.FileInfo, error) {
	resp, err := cl.metaCall(cl.ctx, &Request{Op: OpStat, Name: name})
	if err != nil {
		return chio.FileInfo{}, err
	}
	return chio.FileInfo{Name: name, Size: resp.Meta.Size}, nil
}

// Remove implements chio.FileSystem.
func (cl *Client) Remove(name string) error {
	resp, err := cl.metaCall(cl.ctx, &Request{Op: OpRemove, Name: name})
	if err != nil {
		return err
	}
	m := resp.Meta
	var wg sync.WaitGroup
	for _, d := range cl.data {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.RemovePiece(cl.ctx, m.Handle) // best effort: the name is already gone
		}()
	}
	wg.Wait()
	return nil
}

// List implements chio.FileSystem.
func (cl *Client) List(prefix string) ([]chio.FileInfo, error) {
	resp, err := cl.metaCall(cl.ctx, &Request{Op: OpList, Name: prefix})
	if err != nil {
		return nil, err
	}
	out := make([]chio.FileInfo, 0, len(resp.Metas))
	for _, m := range resp.Metas {
		out = append(out, chio.FileInfo{Name: m.Name, Size: m.Size})
	}
	return out, nil
}

// LoadMap fetches the manager's latest per-server load reports.
func (cl *Client) LoadMap() (map[int]float64, error) {
	resp, err := cl.metaCall(cl.ctx, &Request{Op: OpLoadQuery})
	if err != nil {
		return nil, err
	}
	return resp.Loads, nil
}

// file opens m on this client (and its bound context).
func (cl *Client) file(m Meta) *File {
	return NewFile(cl.ctx, direct{cl}, cl.cfg.Tracer, m)
}

// direct is the PVFS client's Store: every data server holds the only
// copy of its pieces, so a plan executes on exactly one connection per
// server and any failure fails the operation.
type direct struct{ cl *Client }

func (d direct) NumServers() int { return len(d.cl.data) }

func (d direct) StatSize(ctx context.Context, name string) (int64, error) {
	resp, err := d.cl.metaCall(ctx, &Request{Op: OpStat, Name: name})
	if err != nil {
		return 0, err
	}
	return resp.Meta.Size, nil
}

func (d direct) GrowSize(ctx context.Context, name string, size int64) error {
	_, err := d.cl.metaCall(ctx, &Request{Op: OpSetSize, Name: name, Length: size})
	return err
}

func (d direct) ReadRuns(ctx context.Context, handle uint64, plan ReadPlan, dst []byte) error {
	_, err := FanOut(plan.Runs, func(server int, list []StripeRun) error {
		return d.cl.data[server].ReadRuns(ctx, handle, list, dst)
	})
	return err
}

func (d direct) WriteRuns(ctx context.Context, handle uint64, runs [][]StripeRun, p []byte) error {
	_, err := FanOut(runs, func(server int, list []StripeRun) error {
		return d.cl.data[server].WriteRuns(ctx, handle, list, p)
	})
	return err
}

func (d direct) Settle(context.Context) error { return nil }
