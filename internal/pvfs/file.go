package pvfs

import (
	"fmt"
	"io"
	"sync"

	"pario/internal/chio"
)

// File is an open striped file: the cached metadata and every
// chio.File operation, planned here and executed by its client's
// Store. It implements chio.VectorReaderAt; a contiguous read is a
// one-segment list. Read, Write and Seek come from the embedded
// chio.Cursor.
type File struct {
	chio.Cursor
	cl *Client // the (possibly context-bound) client that opened it

	mu     sync.Mutex
	meta   Meta
	closed bool
}

// Name implements chio.File.
func (f *File) Name() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.meta.Name
}

var errFileClosed = fmt.Errorf("pvfs: file already closed")

// handle returns the file's metadata, or an error once closed.
func (f *File) handle() (Meta, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return Meta{}, errFileClosed
	}
	return f.meta, nil
}

// Size returns the file size as the manager now records it.
func (f *File) Size() (int64, error) {
	m, err := f.handle()
	if err == nil {
		err = f.refreshSize(&m)
	}
	return m.Size, err
}

// refreshSize re-fetches the file size from the manager.
func (f *File) refreshSize(m *Meta) error {
	cur, err := f.cl.meta.Stat(f.cl.ctx, m.Name)
	if err != nil {
		return err
	}
	m.Size = cur.Size
	f.mu.Lock()
	if !f.closed {
		f.meta.Size = cur.Size
	}
	f.mu.Unlock()
	return nil
}

// readv is ReadvAt under a root span called spanName; it also returns
// the metadata the read was planned against.
func (f *File) readv(spanName string, segs []chio.Seg, dst []byte) ([]int64, Meta, error) {
	m, err := f.handle()
	if err != nil {
		return nil, m, err
	}
	// The last segment reaches furthest in the ascending list PlanRead
	// requires; if it passes the cached size, the file may have grown
	// since open.
	if n := len(segs); n > 0 && segs[n-1].Off+segs[n-1].Len > m.Size {
		if err := f.refreshSize(&m); err != nil {
			return nil, m, err
		}
	}
	plan, err := PlanRead(segs, dst, m, f.cl.st.NumServers())
	if err != nil {
		return nil, m, err
	}
	var served int64
	for _, n := range plan.Lens {
		served += n
	}
	if served == 0 {
		return plan.Lens, m, nil // all of it past EOF: nothing to fetch
	}
	ctx, sp := f.cl.tracer.Start(f.cl.ctx, spanName)
	if err := f.cl.st.ReadRuns(ctx, m.Handle, plan, dst); err != nil {
		sp.Finish(err)
		return nil, m, err
	}
	sp.AddBytes(served)
	sp.Finish(nil)
	return plan.Lens, m, nil
}

// ReadvAt implements chio.VectorReaderAt: the whole segment list, which
// must be ascending and disjoint, costs one list-I/O RPC per data
// server, issued in parallel. Holes read as zeros; segments past EOF
// come back short with their dst tails zeroed.
func (f *File) ReadvAt(segs []chio.Seg, dst []byte) ([]int64, error) {
	lens, _, err := f.readv("readv", segs, dst)
	return lens, err
}

// ReadAt implements io.ReaderAt as a one-segment list read.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("pvfs: negative read offset")
	}
	lens, m, err := f.readv("read", []chio.Seg{{Off: off, Len: int64(len(p))}}, p)
	if err != nil {
		return 0, err
	}
	if off >= m.Size || lens[0] < int64(len(p)) {
		err = io.EOF
	}
	return int(lens[0]), err
}

// WriteAt implements io.WriterAt: the range is decomposed into
// per-server runs for the store to write, and the manager's size is
// advanced when the write extends the file.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("pvfs: negative write offset")
	}
	m, err := f.handle()
	if err != nil {
		return 0, err
	}
	n := int64(len(p))
	if n == 0 {
		return 0, nil
	}
	ctx, sp := f.cl.tracer.Start(f.cl.ctx, "write")
	err = f.cl.st.WriteRuns(ctx, m.Handle, decompose(off, n, m.StripeSize, f.cl.st.NumServers()), p)
	// The size RPC is needed only when the write extends the file. Our
	// cached size can lag the manager's (another writer may have grown
	// the file) but never exceeds it, so off+n <= cached size proves the
	// manager already records at least off+n and the RPC is redundant.
	if err == nil && off+n > m.Size {
		if err = f.cl.meta.GrowSize(ctx, m.Name, off+n); err == nil {
			f.mu.Lock()
			if !f.closed && off+n > f.meta.Size {
				f.meta.Size = off + n
			}
			f.mu.Unlock()
		}
	}
	if err != nil {
		sp.Finish(err)
		return 0, err
	}
	sp.AddBytes(n)
	sp.Finish(nil)
	return int(n), nil
}

// Seek implements io.Seeker through the embedded cursor; a closed
// file refuses it whatever the whence.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	if _, err := f.handle(); err != nil {
		return 0, err
	}
	return f.Cursor.Seek(offset, whence)
}

// Close invalidates the handle — subsequent operations on the file
// fail. A second Close is a safe no-op. The client's pooled
// connections are shared across files and stay open.
func (f *File) Close() error {
	f.mu.Lock()
	f.closed = true
	f.meta = Meta{}
	f.mu.Unlock()
	return nil
}
