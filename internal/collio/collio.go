// Package collio implements collective two-phase reads over any
// chio.FileSystem: the multi-client analogue of the vectored read
// path. N readers of interleaved pieces of one shared file each ask
// for their own ranges; independently those reads cost one round of
// server RPCs apiece, even when the ranges overlap or abut. This
// layer runs the two phases of the classic collective-I/O protocol
// instead: a short registration phase in which concurrent readers of
// one file enroll their ranges in the open "round" (closed by the
// fan-in bound or the window timer), then an exchange phase in which
// the round's ranges are sorted, overlapping and adjacent ones merged,
// the merged list fetched with one chio.ReadvAt — one list-I/O RPC per
// data server on the parallel-FS backends — and the bytes scattered
// back to every waiter. Reads are single-flight across readers: K
// readers touching the same hot stripe in a round cost one fetch.
//
// No search path uses it: database segmentation gives every worker
// whole fragments of its own, so rounds never combine across workers.
// The package stays for the benchmark's collective-scan rung and the
// root package's collective-scan test and benchmark, which measure
// the interleaved pattern it exists for.
//
// One FS instance must be shared by the readers whose reads should
// combine; per-reader wrappers (readahead caches, tracers) stack on
// top of it. Writes pass straight through to the backend.
package collio

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pario/internal/chio"
)

// DefaultWindow is how long a round collects ranges before fetching
// when nothing closes it early. It only delays reads that miss every
// cache above this layer, and it is the window in which neighbouring
// workers' ranges combine.
const DefaultWindow = 2 * time.Millisecond

// Option tunes a collective FS.
type Option func(*FS)

// WithWindow sets the round collection window. Zero still
// single-flights whatever registers while a fetch is being set up,
// but does not wait for stragglers.
func WithWindow(d time.Duration) Option {
	return func(fs *FS) {
		if d >= 0 {
			fs.ag.window = d
		}
	}
}

// WithMaxFanIn closes a round as soon as n waiters have enrolled,
// bounding both latency and per-round buffer size. Zero means no
// fan-in bound (rounds close on the window timer).
func WithMaxFanIn(n int) Option {
	return func(fs *FS) {
		if n >= 0 {
			fs.ag.maxFanIn = n
		}
	}
}

// Stats is a point-in-time snapshot of the layer's counters.
type Stats struct {
	// Rounds is the number of collective rounds executed.
	Rounds int64
	// Ranges is the number of waiter ranges registered.
	Ranges int64
	// MergedSegments is the number of segments actually fetched; the
	// gap to Ranges is the merge win.
	MergedSegments int64
	// DedupBytes counts bytes served to waiters beyond bytes fetched —
	// the overlap that single-flighting deduplicated.
	DedupBytes int64
}

// FS wraps an inner chio.FileSystem with the collective read layer.
// Views bound to different contexts (WithContext) share one
// aggregator, as do all files opened through them.
type FS struct {
	inner chio.FileSystem // this view's backend (context-bound)
	ctx   context.Context // this view's context; Background for the root
	ag    *aggregator
}

// Wrap layers collective reads over inner. The rounds themselves run
// against inner as given (not against any context-bound view), so a
// cancelled reader abandons its round without aborting the fetch the
// other waiters share.
func Wrap(inner chio.FileSystem, opts ...Option) *FS {
	fs := &FS{
		inner: inner,
		ctx:   context.Background(),
		ag: &aggregator{
			inner:  inner,
			window: DefaultWindow,
			open:   make(map[string]*round),
			files:  make(map[string]chio.File),
		},
	}
	for _, o := range opts {
		if o != nil {
			o(fs)
		}
	}
	return fs
}

// Stats returns the layer's counters so far.
func (fs *FS) Stats() Stats {
	return Stats{
		Rounds:         fs.ag.nRounds.Load(),
		Ranges:         fs.ag.nRanges.Load(),
		MergedSegments: fs.ag.nMerged.Load(),
		DedupBytes:     fs.ag.nDedup.Load(),
	}
}

// BackendName implements chio.FileSystem.
func (fs *FS) BackendName() string { return fs.inner.BackendName() + "+coll" }

// Create implements chio.FileSystem; the aggregator's cached handle
// for the name is dropped (Create truncates).
func (fs *FS) Create(name string) (chio.File, error) {
	fs.ag.dropHandle(name)
	f, err := fs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return fs.file(f, name), nil
}

// Open implements chio.FileSystem.
func (fs *FS) Open(name string) (chio.File, error) {
	f, err := fs.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return fs.file(f, name), nil
}

// Stat implements chio.FileSystem.
func (fs *FS) Stat(name string) (chio.FileInfo, error) { return fs.inner.Stat(name) }

// Remove implements chio.FileSystem; the cached handle is dropped.
func (fs *FS) Remove(name string) error {
	fs.ag.dropHandle(name)
	return fs.inner.Remove(name)
}

// List implements chio.FileSystem.
func (fs *FS) List(prefix string) ([]chio.FileInfo, error) { return fs.inner.List(prefix) }

// WithContext implements chio.ContextBinder: the returned view shares
// this FS's aggregator — its reads still combine with every other
// view's — but a done context abandons waits and unbinds pass-through
// operations.
func (fs *FS) WithContext(ctx context.Context) chio.FileSystem {
	if ctx == nil {
		ctx = context.Background()
	}
	f2 := *fs
	f2.inner = chio.BindContext(fs.inner, ctx)
	f2.ctx = ctx
	return &f2
}

// waiter is one enrolled read range.
type waiter struct {
	off    int64
	length int64
}

// extent is one merged fetched range; data holds the served bytes
// (short of the requested length only at EOF).
type extent struct {
	off    int64
	length int64 // requested length; len(data) <= length
	data   []byte
}

// round is one collective read round on one file.
type round struct {
	name    string
	waiters []waiter

	closeOnce sync.Once
	closeNow  chan struct{} // ends the registration phase early
	done      chan struct{} // results published

	extents []extent
	err     error
}

// aggregator is the shared two-phase engine: at most one open round
// per file name collects ranges; its leader goroutine fetches and
// scatters.
type aggregator struct {
	inner    chio.FileSystem
	window   time.Duration
	maxFanIn int

	nRounds, nRanges atomic.Int64
	nMerged, nDedup  atomic.Int64

	mu    sync.Mutex
	open  map[string]*round
	files map[string]chio.File
}

// join enrolls a range in the file's open round, starting one (and
// its leader) if none is collecting.
func (ag *aggregator) join(name string, off, length int64) *round {
	ag.mu.Lock()
	r := ag.open[name]
	if r == nil {
		r = &round{
			name:     name,
			closeNow: make(chan struct{}),
			done:     make(chan struct{}),
		}
		ag.open[name] = r
		go ag.lead(r)
	}
	r.waiters = append(r.waiters, waiter{off: off, length: length})
	full := ag.maxFanIn > 0 && len(r.waiters) >= ag.maxFanIn
	ag.mu.Unlock()
	if full {
		r.closeOnce.Do(func() { close(r.closeNow) })
	}
	return r
}

// mergeRanges sorts ranges by offset and merges overlapping and
// adjacent ones into maximal extents.
func mergeRanges(ws []waiter) []waiter {
	sorted := make([]waiter, 0, len(ws))
	for _, w := range ws {
		if w.length > 0 {
			sorted = append(sorted, w)
		}
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].off < sorted[b].off })
	out := sorted[:0]
	for _, w := range sorted {
		if k := len(out); k > 0 && w.off <= out[k-1].off+out[k-1].length {
			if end := w.off + w.length; end > out[k-1].off+out[k-1].length {
				out[k-1].length = end - out[k-1].off
			}
		} else {
			out = append(out, w)
		}
	}
	return out
}

// lead runs one round: wait out the registration phase, snapshot,
// fetch the merged ranges once, publish.
func (ag *aggregator) lead(r *round) {
	t := time.NewTimer(ag.window)
	select {
	case <-t.C:
	case <-r.closeNow:
		t.Stop()
	}
	ag.mu.Lock()
	if ag.open[r.name] == r {
		delete(ag.open, r.name)
	}
	waiters := r.waiters
	ag.mu.Unlock()
	ag.execute(r, waiters)
	close(r.done)
}

// execute is the exchange phase: one vectored read for the round's
// merged ranges, results parked on the round for the waiters to copy
// out.
func (ag *aggregator) execute(r *round, waiters []waiter) {
	ag.nRounds.Add(1)
	ag.nRanges.Add(int64(len(waiters)))
	merged := mergeRanges(waiters)
	if len(merged) == 0 {
		return
	}
	var want, fetch int64
	for _, w := range waiters {
		want += w.length
	}
	for _, e := range merged {
		fetch += e.length
	}
	ag.nMerged.Add(int64(len(merged)))
	if d := want - fetch; d > 0 {
		ag.nDedup.Add(d)
	}

	f, err := ag.handle(r.name)
	if err != nil {
		r.err = err
		return
	}
	segs := make([]chio.Seg, len(merged))
	for i, e := range merged {
		segs[i] = chio.Seg{Off: e.off, Len: e.length}
	}
	dst := make([]byte, fetch)
	lens, err := chio.ReadvAt(f, segs, dst)
	if err != nil {
		ag.dropHandle(r.name)
		r.err = err
		return
	}
	r.extents = make([]extent, len(merged))
	var base int64
	for i, e := range merged {
		r.extents[i] = extent{off: e.off, length: e.length, data: dst[base : base+lens[i]]}
		base += e.length
	}
}

// handle returns the aggregator's cached read handle for name,
// opening one on first use. Rounds share it; it is dropped on fetch
// errors and on Create/Remove of the name.
func (ag *aggregator) handle(name string) (chio.File, error) {
	ag.mu.Lock()
	f := ag.files[name]
	ag.mu.Unlock()
	if f != nil {
		return f, nil
	}
	opened, err := ag.inner.Open(name)
	if err != nil {
		return nil, err
	}
	ag.mu.Lock()
	if cur := ag.files[name]; cur != nil {
		ag.mu.Unlock()
		opened.Close()
		return cur, nil
	}
	ag.files[name] = opened
	ag.mu.Unlock()
	return opened, nil
}

func (ag *aggregator) dropHandle(name string) {
	ag.mu.Lock()
	f := ag.files[name]
	delete(ag.files, name)
	ag.mu.Unlock()
	if f != nil {
		f.Close()
	}
}

// copyOut serves one waiter's range from the round's extents,
// returning the byte count before EOF. Every enrolled range is
// contained in exactly one merged extent.
func (r *round) copyOut(p []byte, off int64) int {
	i := sort.Search(len(r.extents), func(i int) bool {
		return r.extents[i].off+r.extents[i].length > off
	})
	if i >= len(r.extents) || off < r.extents[i].off {
		return 0
	}
	e := r.extents[i]
	rel := off - e.off
	if rel >= int64(len(e.data)) {
		return 0
	}
	return copy(p, e.data[rel:])
}

// file is an open handle through the collective layer. Its streaming
// calls are cursor reads and writes through the collective path.
type file struct {
	chio.Cursor
	fs    *FS
	inner chio.File
	name  string
	ctx   context.Context
}

// file opens a handle on inner, the backend's file called name.
func (fs *FS) file(inner chio.File, name string) *file {
	f := &file{fs: fs, inner: inner, name: name, ctx: fs.ctx}
	f.Init(f)
	return f
}

// Name implements chio.File.
func (f *file) Name() string { return f.name }

// Size implements chio.Positional with the inner file's size.
func (f *file) Size() (int64, error) { return f.inner.Seek(0, io.SeekEnd) }

// ReadAt implements io.ReaderAt by enrolling the range in the file's
// collective round and copying its share of the round's fetch.
func (f *file) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("collio: negative read offset")
	}
	if len(p) == 0 {
		return 0, nil
	}
	r := f.fs.ag.join(f.name, off, int64(len(p)))
	select {
	case <-r.done:
	case <-f.ctx.Done():
		// Abandon the round (it completes for the other waiters) and
		// report the caller's own cancellation.
		return 0, f.ctx.Err()
	}
	if r.err != nil {
		return 0, r.err
	}
	n := r.copyOut(p, off)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt, passing straight through. The layer
// holds no cache to invalidate; readers racing a write see either
// byte order, as they would against the bare backend.
func (f *file) WriteAt(p []byte, off int64) (int, error) { return f.inner.WriteAt(p, off) }

// Close closes the file's own inner handle. The aggregator's cached
// round handle is independent and stays usable for other readers.
func (f *file) Close() error { return f.inner.Close() }
