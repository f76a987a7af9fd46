package main

import (
	"sync"

	"pario/internal/ceft"
	"pario/internal/chio"
	"pario/internal/core"
	"pario/internal/rpcpool"
)

// cluster is a loopback deployment with in-memory stores: CEFT 2+2 or
// PVFS with 4 servers. On a traced instance every store sits inside a
// store shim and every client it dials is observed and sits under the
// lower shim.
type cluster struct {
	tr   *recorder
	ceft *core.CEFTDeployment
	pvfs *core.PVFSDeployment

	mirrors map[string]bool // CEFT mirror group addresses

	mu        sync.Mutex
	observers []*rpcObserver
	clients   []*ceft.Client // every CEFT client dialed, for its audit
}

const (
	ceftGroup   = 2
	pvfsServers = 4
)

// stores returns StartPVFS/StartCEFT's store function and, on a
// traced instance, the shims' buffers by server id, which still need
// their server's address.
func stores(tr *recorder, n int) (func(int) chio.FileSystem, []*spanBuf) {
	if tr == nil {
		return nil, nil
	}
	bufs := make([]*spanBuf, n)
	return func(i int) chio.FileSystem {
		bufs[i] = tr.buf(0, "")
		return wrapFS(chio.NewMemFS(), bufs[i], layerStore, "store")
	}, bufs
}

func startCEFT(tr *recorder) (*cluster, error) {
	store, bufs := stores(tr, 2*ceftGroup)
	dep, err := core.StartCEFT(ceftGroup, store)
	if err != nil {
		return nil, err
	}
	c := &cluster{tr: tr, ceft: dep, mirrors: map[string]bool{}}
	for _, a := range dep.MirrorAddrs {
		c.mirrors[a] = true
	}
	for i, b := range bufs {
		b.server = dep.Servers[i].Addr() // ids 0..g-1 primary, g..2g-1 mirror
	}
	return c, nil
}

func startPVFS(tr *recorder) (*cluster, error) {
	store, bufs := stores(tr, pvfsServers)
	dep, err := core.StartPVFS(pvfsServers, store)
	if err != nil {
		return nil, err
	}
	for i, b := range bufs {
		b.server = dep.DataAddrs[i]
	}
	return &cluster{tr: tr, pvfs: dep}, nil
}

func (c *cluster) backend() string {
	if c.ceft != nil {
		return "ceft"
	}
	return "pvfs"
}

func (c *cluster) mgrAddr() string {
	if c.ceft != nil {
		return c.ceft.Mgr.Addr()
	}
	return c.pvfs.Mgr.Addr()
}

// client is one dialed client as a rank sees it.
type client struct {
	fs    chio.FileSystem
	close func() error
	buf   *spanBuf // its spans; nil on an untraced instance
}

// dial connects a new client for rank. extra options apply on both
// kinds of instance (the service adds its production metric set).
func (c *cluster) dial(rank int, extra ...rpcpool.Option) (*client, error) {
	return c.dialTraced(c.tr, rank, extra...)
}

// dialPlain connects a client without shim or observer even on a
// traced instance, for the rungs measured beside the workload.
func (c *cluster) dialPlain() (*client, error) { return c.dialTraced(nil, 0) }

func (c *cluster) dialTraced(tr *recorder, rank int, extra ...rpcpool.Option) (*client, error) {
	opts := extra
	var buf *spanBuf
	if tr != nil {
		buf = tr.buf(rank, "")
		obs := newRPCObserver(buf, c.mgrAddr())
		c.mu.Lock()
		c.observers = append(c.observers, obs)
		c.mu.Unlock()
		opts = append(opts[:len(opts):len(opts)], rpcpool.WithObserver(obs), rpcpool.WithBatchObserver(obs))
	}
	var cl *client
	if c.ceft != nil {
		cc, err := c.ceft.Client(ceft.DefaultOptions(), opts...)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.clients = append(c.clients, cc)
		c.mu.Unlock()
		cl = &client{fs: cc, close: cc.Close}
	} else {
		pc, err := c.pvfs.Client(opts...)
		if err != nil {
			return nil, err
		}
		cl = &client{fs: pc, close: pc.Close}
	}
	if tr != nil {
		cl.fs = wrapFS(cl.fs, buf, layerClient, "client")
		cl.buf = buf
	}
	return cl, nil
}

// load copies the database in through a client of its own.
func (c *cluster) load(db *database) error {
	cl, err := c.dialPlain()
	if err != nil {
		return err
	}
	if err := db.copyTo(cl.fs); err != nil {
		cl.close()
		return err
	}
	return cl.close()
}

// facts are the storage layers' inputs this cluster can supply.
func (c *cluster) facts() storageFacts {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := storageFacts{
		backend:   c.backend(),
		observers: append([]*rpcObserver(nil), c.observers...),
		mirrors:   c.mirrors,
	}
	for _, cc := range c.clients {
		f.audits = append(f.audits, cc.Audit())
	}
	return f
}

func (c *cluster) close() {
	if c.ceft != nil {
		c.ceft.Close()
	}
	if c.pvfs != nil {
		c.pvfs.Close()
	}
}
