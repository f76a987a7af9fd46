package pvfs

import (
	"context"
	"fmt"
	"sync"

	"pario/internal/chio"
	"pario/internal/rpcpool"
	"pario/internal/telemetry"
)

// Client is the one client of the PVFS wire: it implements
// chio.FileSystem and chio.ContextBinder for PVFS and, through package
// ceft, for CEFT-PVFS. Metadata operations go to the manager; data
// operations are planned by File and executed by the client's Store. A
// Client is safe for concurrent use; stripe fetches from concurrent
// readers multiplex over the per-server connection pools.
type Client struct {
	ctx    context.Context
	meta   *MetaConn
	st     Store
	tracer *telemetry.Tracer
}

// Store is the per-backend half of a Client: how a striping plan and a
// piece removal execute against the data servers. The PVFS store talks
// to each server directly; CEFT-PVFS picks a replica per server. All
// methods must be safe for concurrent use.
type Store interface {
	// BackendName names the file system ("pvfs", "ceft-pvfs").
	BackendName() string
	// NumServers is the number of data servers files are striped over.
	NumServers() int
	// ReadRuns fetches plan's runs of the piece set handle into dst.
	ReadRuns(ctx context.Context, handle uint64, plan ReadPlan, dst []byte) error
	// WriteRuns stores runs (one list per data server, BufOff indexing
	// p) into the piece set handle.
	WriteRuns(ctx context.Context, handle uint64, runs [][]StripeRun, p []byte) error
	// RemovePieces deletes the piece set handle from the data servers.
	RemovePieces(ctx context.Context, handle uint64) error
	// Close drops the data-server connections.
	Close() error
}

// NewClient returns a client over the manager connection meta and the
// store st, both of which it owns. tracer, when non-nil, records a root
// span per application-level read or write.
func NewClient(meta *MetaConn, st Store, tracer *telemetry.Tracer) *Client {
	return &Client{ctx: context.Background(), meta: meta, st: st, tracer: tracer}
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
	meta := &MetaConn{t: newTransport(mgrAddr, cfg), stripe: cfg.StripeSize}
	st := make(direct, len(dataAddrs))
	all := []*transport{meta.t}
	for i, a := range dataAddrs {
		st[i] = &DataConn{t: newTransport(a, cfg)}
		all = append(all, st[i].t)
	}
	cl := NewClient(meta, st, cfg.Tracer)
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
		go func() {
			defer wg.Done()
			errs[i] = tr.warm(warmCtx)
		}()
	}
	wg.Wait()
	if err := firstErr(errs); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// BackendName implements chio.FileSystem with the store's name.
func (cl *Client) BackendName() string { return cl.st.BackendName() }

// NumServers returns the data server count.
func (cl *Client) NumServers() int { return cl.st.NumServers() }

// WithContext implements chio.ContextBinder: the returned view shares
// this client's connection pools and store, but its operations
// (including in-flight stripe reads) abort when ctx is done.
func (cl *Client) WithContext(ctx context.Context) chio.FileSystem {
	if ctx == nil {
		ctx = context.Background()
	}
	c2 := *cl
	c2.ctx = ctx
	return &c2
}

// Close closes the store and releases all pooled connections.
func (cl *Client) Close() error {
	first := cl.st.Close()
	if err := cl.meta.Close(); first == nil {
		first = err
	}
	return first
}

// Create implements chio.FileSystem: it allocates (or truncates) the
// file and clears any stale pieces on the data servers.
func (cl *Client) Create(name string) (chio.File, error) {
	m, err := cl.meta.Create(cl.ctx, name)
	if err != nil {
		return nil, err
	}
	if err := cl.st.RemovePieces(cl.ctx, m.Handle); err != nil {
		return nil, err
	}
	return cl.file(m), nil
}

// Open implements chio.FileSystem.
func (cl *Client) Open(name string) (chio.File, error) {
	m, err := cl.meta.Lookup(cl.ctx, name)
	if err != nil {
		return nil, err
	}
	return cl.file(m), nil
}

// Stat implements chio.FileSystem.
func (cl *Client) Stat(name string) (chio.FileInfo, error) {
	m, err := cl.meta.Stat(cl.ctx, name)
	if err != nil {
		return chio.FileInfo{}, err
	}
	return chio.FileInfo{Name: name, Size: m.Size}, nil
}

// Remove implements chio.FileSystem.
func (cl *Client) Remove(name string) error {
	m, err := cl.meta.Remove(cl.ctx, name)
	if err != nil {
		return err
	}
	cl.st.RemovePieces(cl.ctx, m.Handle) // best effort: the name is already gone
	return nil
}

// List implements chio.FileSystem.
func (cl *Client) List(prefix string) ([]chio.FileInfo, error) {
	metas, err := cl.meta.List(cl.ctx, prefix)
	if err != nil {
		return nil, err
	}
	out := make([]chio.FileInfo, 0, len(metas))
	for _, m := range metas {
		out = append(out, chio.FileInfo{Name: m.Name, Size: m.Size})
	}
	return out, nil
}

// LoadMap fetches the manager's latest per-server load reports.
func (cl *Client) LoadMap() (map[int]float64, error) { return cl.meta.LoadQuery(cl.ctx) }

// file opens m on this client (and its bound context).
func (cl *Client) file(m Meta) *File {
	f := &File{cl: cl, meta: m}
	f.Init(f)
	return f
}

// direct is the PVFS client's Store: every data server holds the only
// copy of its pieces, so a plan executes on exactly one connection per
// server and any failure fails the operation.
type direct []*DataConn

func (d direct) BackendName() string { return "pvfs" }

func (d direct) NumServers() int { return len(d) }

func (d direct) ReadRuns(ctx context.Context, handle uint64, plan ReadPlan, dst []byte) error {
	_, err := FanOut(plan.Runs, func(server int, list []StripeRun) error {
		return d[server].ReadRuns(ctx, handle, list, dst)
	})
	return err
}

func (d direct) WriteRuns(ctx context.Context, handle uint64, runs [][]StripeRun, p []byte) error {
	_, err := FanOut(runs, func(server int, list []StripeRun) error {
		return d[server].WriteRuns(ctx, handle, list, p)
	})
	return err
}

func (d direct) RemovePieces(ctx context.Context, handle uint64) error {
	return firstErr(RemoveEach(ctx, d, handle))
}

func (d direct) Close() error {
	var first error
	for _, c := range d {
		if err := c.Close(); first == nil {
			first = err
		}
	}
	return first
}

// RemoveEach deletes the piece of handle from every server in conns,
// all concurrently, and returns one error slot per connection.
func RemoveEach(ctx context.Context, conns []*DataConn, handle uint64) []error {
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i, d := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = d.RemovePiece(ctx, handle)
		}()
	}
	wg.Wait()
	return errs
}

// firstErr returns the first non-nil error of errs.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
