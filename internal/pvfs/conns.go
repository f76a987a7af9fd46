package pvfs

import (
	"context"
	"fmt"
	"sync"

	"pario/internal/chio"
	"pario/internal/rpcpool"
)

// MetaConn is a typed client connection to the metadata server, the
// one manager client: a Client owns one, and CEFT-PVFS dials its own to
// hand to NewClient. It rides the shared transport layer, so calls are
// pooled, deadline-bounded, and retried per the dial options.
type MetaConn struct {
	t *transport
}

// DialMeta connects to a manager.
func DialMeta(addr string, opts ...rpcpool.Option) (*MetaConn, error) {
	m := newMetaConn(addr, rpcpool.Apply(opts...))
	if err := m.t.warm(); err != nil {
		m.t.close()
		return nil, err
	}
	return m, nil
}

// newMetaConn returns a MetaConn without probing the manager; the
// first request dials.
func newMetaConn(addr string, cfg rpcpool.Config) *MetaConn {
	return &MetaConn{t: newTransport(addr, cfg)}
}

// Close releases the pooled connections.
func (m *MetaConn) Close() error { return m.t.close() }

func (m *MetaConn) call(ctx context.Context, req *Request) (*Response, error) {
	resp, err := m.t.call(ctx, req)
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

// meta sends op on name and returns the metadata it is answered with.
func (m *MetaConn) meta(ctx context.Context, op Op, name string) (Meta, error) {
	resp, err := m.call(ctx, &Request{Op: op, Name: name})
	if err != nil {
		return Meta{}, err
	}
	return resp.Meta, nil
}

// Create creates or truncates a file and returns its metadata.
func (m *MetaConn) Create(ctx context.Context, name string) (Meta, error) {
	return m.meta(ctx, OpCreate, name)
}

// Stat returns an existing file's metadata.
func (m *MetaConn) Stat(ctx context.Context, name string) (Meta, error) {
	return m.meta(ctx, OpStat, name)
}

// Remove deletes the name and returns the removed metadata (so the
// caller can clear pieces).
func (m *MetaConn) Remove(ctx context.Context, name string) (Meta, error) {
	return m.meta(ctx, OpRemove, name)
}

// GrowSize records that the file now extends to at least size bytes.
func (m *MetaConn) GrowSize(ctx context.Context, name string, size int64) error {
	_, err := m.call(ctx, &Request{Op: OpSetSize, Name: name, Length: size})
	return err
}

// List returns metadata for every file whose name has the prefix.
func (m *MetaConn) List(ctx context.Context, prefix string) ([]Meta, error) {
	resp, err := m.call(ctx, &Request{Op: OpList, Name: prefix})
	if err != nil {
		return nil, err
	}
	return resp.Metas, nil
}

// LoadQuery fetches the latest per-server load heartbeats.
func (m *MetaConn) LoadQuery(ctx context.Context) (map[int]float64, error) {
	resp, err := m.call(ctx, &Request{Op: OpLoadQuery})
	if err != nil {
		return nil, err
	}
	return resp.Loads, nil
}

// ReportLoad pushes a load heartbeat: a data server's, or a test's
// synthetic load.
func (m *MetaConn) ReportLoad(ctx context.Context, serverID int, load float64) error {
	_, err := m.call(ctx, &Request{Op: OpLoadReport, ServerID: serverID, Load: load})
	return err
}

// DataConn is a typed client connection to one data server, riding the
// shared transport layer.
type DataConn struct {
	t *transport
}

// DialData connects to a data server.
func DialData(addr string, opts ...rpcpool.Option) (*DataConn, error) {
	d := &DataConn{t: newTransport(addr, rpcpool.Apply(opts...))}
	if err := d.t.warm(); err != nil {
		d.t.close()
		return nil, err
	}
	return d, nil
}

// DialDataLazy returns a DataConn without probing the server; the
// first request dials. CEFT uses it, and WarmEach, so a degraded
// cluster — one dead server in a mirror pair — can still be dialed.
func DialDataLazy(addr string, opts ...rpcpool.Option) *DataConn {
	return &DataConn{t: newTransport(addr, rpcpool.Apply(opts...))}
}

// Addr returns the server address this connection was dialed with.
func (d *DataConn) Addr() string { return d.t.addr }

// Close releases the pooled connections.
func (d *DataConn) Close() error { return d.t.close() }

func (d *DataConn) call(ctx context.Context, req *Request) (*Response, error) {
	resp, err := d.t.call(ctx, req)
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, resp.err()
	}
	return resp, nil
}

// WarmEach opens one pooled connection to each server of conns, all at
// once, and returns one error slot per connection: the probe Dial makes
// of every server, with no round trip.
func WarmEach(conns []*DataConn) []error {
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i, d := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = d.t.warm()
		}()
	}
	wg.Wait()
	return errs
}

// RemovePiece deletes the server's piece of the handle.
func (d *DataConn) RemovePiece(ctx context.Context, handle uint64) error {
	_, err := d.call(ctx, &Request{Op: OpPieceRemove, Handle: handle})
	return err
}
