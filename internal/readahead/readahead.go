// Package readahead layers a client-side block cache and a sequential
// prefetcher over any chio.FileSystem. BLAST workers scan their
// database fragments mostly sequentially in reads much smaller than a
// stripe, so the striped backends pay one round of server RPCs per
// small read. This layer caches whole blocks (defaulting to the
// paper's 64 KB stripe unit), serves subsequent small reads from an
// LRU cache, and — once it detects a sequential scan — fetches the
// next run of blocks asynchronously with one backend read, so the
// network transfer overlaps with the worker's compute and each data
// server serves a few large requests, the overlap and the access
// pattern the paper attributes the parallel-I/O speedup to.
//
// Consistency: writes through this layer invalidate every overlapping
// cached block (plus any cached short tail block, which a growing file
// makes stale). Writes by *other* clients to the same backend are not
// observed; the layer is intended for the paper's workload of
// replicated read-mostly database fragments.
package readahead

import (
	"container/list"
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"pario/internal/chio"
	"pario/internal/iotrace"
)

// Defaults for options left unset.
const (
	// DefaultBlockSize is the cache block size — the paper's stripe
	// unit, so one block maps onto one stripe of the data servers.
	DefaultBlockSize = 64 * 1024
	// DefaultCapacity is the cache capacity in blocks (8 MB at the
	// default block size).
	DefaultCapacity = 128
	// DefaultWindow is how many blocks ahead of a sequential scan the
	// prefetcher keeps planned (1 MiB at the default block size). It
	// refills the window once half of it has been read, so each refill
	// is a run of at least half a window, fetched with one backend read.
	DefaultWindow = 16
)

// Option tunes a readahead FS.
type Option func(*FS)

// WithBlockSize sets the cache block size in bytes. Larger blocks
// amortize more per-RPC overhead per fetch; the sweet spot is a small
// multiple of stripe size times the data-server count.
func WithBlockSize(n int64) Option {
	return func(fs *FS) {
		if n > 0 {
			fs.blockSize = n
		}
	}
}

// WithCapacity sets the cache capacity in blocks.
func WithCapacity(blocks int) Option {
	return func(fs *FS) {
		if blocks > 0 {
			fs.capacity = blocks
		}
	}
}

// WithWindow sets the prefetch depth in blocks; 0 disables
// prefetching (the cache still serves re-reads).
func WithWindow(blocks int) Option {
	return func(fs *FS) {
		if blocks >= 0 {
			fs.window = blocks
		}
	}
}

// WithStats installs a shared counter sink (cache hits/misses,
// prefetch issued/wasted). Useful to aggregate across workers.
func WithStats(s *iotrace.CacheStats) Option {
	return func(fs *FS) {
		if s != nil {
			fs.stats = s
		}
	}
}

// FS wraps an inner chio.FileSystem with the block cache and
// prefetcher. Views bound to different contexts (WithContext) share
// one cache.
type FS struct {
	inner     chio.FileSystem
	blockSize int64
	capacity  int
	window    int
	stats     *iotrace.CacheStats
	cache     *blockCache
}

// Wrap layers readahead over inner.
func Wrap(inner chio.FileSystem, opts ...Option) *FS {
	fs := &FS{
		inner:     inner,
		blockSize: DefaultBlockSize,
		capacity:  DefaultCapacity,
		window:    DefaultWindow,
	}
	for _, o := range opts {
		if o != nil {
			o(fs)
		}
	}
	if fs.stats == nil {
		fs.stats = &iotrace.CacheStats{}
	}
	fs.cache = newBlockCache(fs.capacity)
	return fs
}

// Stats returns the FS's counter sink (the shared one if WithStats was
// used, a private one otherwise).
func (fs *FS) Stats() *iotrace.CacheStats { return fs.stats }

// BackendName implements chio.FileSystem.
func (fs *FS) BackendName() string { return fs.inner.BackendName() + "+ra" }

// Create implements chio.FileSystem; any cached blocks of the name are
// dropped (Create truncates).
func (fs *FS) Create(name string) (chio.File, error) {
	fs.cache.invalidateAll(name)
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

// Remove implements chio.FileSystem; cached blocks of the name are
// dropped.
func (fs *FS) Remove(name string) error {
	fs.cache.invalidateAll(name)
	return fs.inner.Remove(name)
}

// List implements chio.FileSystem.
func (fs *FS) List(prefix string) ([]chio.FileInfo, error) { return fs.inner.List(prefix) }

// WithContext implements chio.ContextBinder: the returned view shares
// this FS's cache and counters, with the inner backend bound to ctx
// when it supports binding.
func (fs *FS) WithContext(ctx context.Context) chio.FileSystem {
	inner := chio.BindContext(fs.inner, ctx)
	if inner == fs.inner {
		return fs
	}
	f2 := *fs
	f2.inner = inner
	return &f2
}

// blockSpan returns the indices of the first and last block touched
// by [off, off+length) — the one block-range computation shared by the
// read, prefetch-planning, and write-invalidation paths. hi is
// inclusive; a zero-length range spans only its starting block.
func blockSpan(off, length, blockSize int64) (lo, hi int64) {
	lo = off / blockSize
	hi = lo
	if length > 0 {
		hi = (off + length - 1) / blockSize
	}
	return lo, hi
}

// blockKey identifies one cached block.
type blockKey struct {
	name string
	idx  int64
}

// block is one cached block. data and eof are immutable once the block
// is published; accessed is written under the cache mutex.
type block struct {
	key        blockKey
	data       []byte
	eof        bool // fetch hit EOF: the block is the file's (possibly short) tail
	prefetched bool // fetched speculatively
	accessed   bool // served at least one read (wasted-prefetch accounting)
	elem       *list.Element
}

// run tracks one in-flight fetch of contiguous blocks, read with one
// backend ReadAt, so concurrent readers (and the prefetcher) coalesce
// onto it. Every block of the run maps to it in the in-flight table.
// blocks and err are written before done is closed.
type run struct {
	done   chan struct{}
	first  int64 // index of the run's first block
	count  int64 // blocks in the run
	gen    *atomic.Uint64
	at     uint64   // gen when the run was claimed
	blocks []*block // the run's blocks in order, once done without error
	err    error
}

// block returns the run's block idx once the run is done.
func (r *run) block(idx int64) *block { return r.blocks[idx-r.first] }

// blockCache is the shared LRU block cache.
type blockCache struct {
	mu       sync.Mutex
	capacity int
	blocks   map[blockKey]*block
	lru      *list.List // front = most recently used
	inflight map[blockKey]*run
	// gen holds one invalidation counter per name, bumped under mu and
	// read without it: a fetch claimed before an invalidation must not
	// populate the cache after it (its data may predate the write), and
	// a borrowed view compares its captured value to report staleness.
	// Cells are never removed, so a handle keeps its name's cell.
	gen map[string]*atomic.Uint64
	// tail maps a name to the index of the last block holding its data
	// (-1 for an empty file), past which prefetch plans nothing. A
	// fetch that returns some bytes and EOF sets it, and so does the
	// size lookup of a handle's first prefetch. The mark outlives the
	// block's eviction and goes with the next invalidation of the name.
	tail map[string]int64
}

func newBlockCache(capacity int) *blockCache {
	if capacity < 1 {
		capacity = 1
	}
	return &blockCache{
		capacity: capacity,
		blocks:   make(map[blockKey]*block),
		lru:      list.New(),
		inflight: make(map[blockKey]*run),
		gen:      make(map[string]*atomic.Uint64),
		tail:     make(map[string]int64),
	}
}

// genCell returns name's generation cell, creating it. Caller holds mu.
func (c *blockCache) genCell(name string) *atomic.Uint64 {
	g, ok := c.gen[name]
	if !ok {
		g = new(atomic.Uint64)
		c.gen[name] = g
	}
	return g
}

// remove drops b from the cache. Caller holds mu.
func (c *blockCache) remove(b *block) {
	delete(c.blocks, b.key)
	c.lru.Remove(b.elem)
}

// insert publishes b, evicting LRU victims over capacity. Caller
// holds mu.
func (c *blockCache) insert(b *block, stats *iotrace.CacheStats) {
	if old, ok := c.blocks[b.key]; ok {
		c.remove(old)
	}
	b.elem = c.lru.PushFront(b)
	c.blocks[b.key] = b
	for len(c.blocks) > c.capacity {
		victim := c.lru.Back().Value.(*block)
		c.remove(victim)
		if victim.prefetched && !victim.accessed {
			stats.PrefetchWasted()
		}
	}
}

// invalidateRange drops every block overlapping [off, off+length) of
// name, plus every short (EOF) block of name and its tail mark — a
// write that grows the file makes a cached short tail stale even
// without overlapping it.
func (c *blockCache) invalidateRange(name string, off, length, blockSize int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.genCell(name).Add(1)
	delete(c.tail, name)
	lo, hi := blockSpan(off, length, blockSize)
	for key, b := range c.blocks {
		if key.name != name {
			continue
		}
		if b.eof || (length > 0 && key.idx >= lo && key.idx <= hi) {
			c.remove(b)
		}
	}
}

// invalidateAll drops every block of name and its tail mark.
func (c *blockCache) invalidateAll(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.genCell(name).Add(1)
	delete(c.tail, name)
	for key, b := range c.blocks {
		if key.name == name {
			c.remove(b)
		}
	}
}

// present reports whether key is cached or being fetched. Caller
// holds mu.
func (c *blockCache) present(key blockKey) bool {
	_, cached := c.blocks[key]
	_, inflight := c.inflight[key]
	return cached || inflight
}

// claim registers an in-flight run of name's blocks from idx up to
// last, stopping before the first block that is cached or in flight,
// at name's tail mark and after DefaultWindow blocks; the run holds at
// least idx. The length cap bounds the buffer one cached block or
// borrowed view can keep alive. Caller holds mu and has checked that
// idx is neither cached nor in flight.
func (c *blockCache) claim(name string, idx, last int64) *run {
	last = min(last, idx+DefaultWindow-1)
	if t, ok := c.tail[name]; ok {
		last = min(last, max(idx, t))
	}
	g := c.genCell(name)
	r := &run{done: make(chan struct{}), first: idx, gen: g, at: g.Load()}
	for i := idx; i <= last && (i == idx || !c.present(blockKey{name, i})); i++ {
		c.inflight[blockKey{name, i}] = r
		r.count++
	}
	return r
}

// getBlock returns block idx of name: from the cache, by joining the
// run already in flight, or by claiming a run of its own and reading
// it through inner, all decided under one hold of the cache mutex. An
// own run spans the missing blocks from idx up to last, the last block
// the caller needs, and is returned so the caller takes those blocks
// from it; every block of it counts as a miss. A cached block or one
// from a successful joined run counts as a hit. A failed joined run
// falls back to one synchronous retry of idx alone (counted as the
// miss) so a transient prefetch error never surfaces to a reader that
// could succeed.
func (fs *FS) getBlock(inner chio.File, name string, idx, last int64) (*block, *run, error) {
	c := fs.cache
	key := blockKey{name, idx}
	retry := false // a joined run failed and its miss is counted
	for {
		c.mu.Lock()
		if b, ok := c.blocks[key]; ok {
			c.lru.MoveToFront(b.elem)
			b.accessed = true
			c.mu.Unlock()
			if !retry {
				fs.stats.Hit()
			}
			return b, nil, nil
		}
		r, joined := c.inflight[key]
		if !joined {
			if retry {
				last = idx
			}
			r = c.claim(name, idx, last)
			c.mu.Unlock()
			if !retry {
				for range r.count {
					fs.stats.Miss()
				}
			}
			if err := fs.fetch(inner, name, r, false); err != nil {
				return nil, nil, err
			}
			return r.block(idx), r, nil
		}
		c.mu.Unlock()
		<-r.done
		if r.err == nil {
			b := r.block(idx)
			c.mu.Lock()
			b.accessed = true
			c.mu.Unlock()
			if !retry {
				fs.stats.Hit()
			}
			return b, nil, nil
		}
		if retry {
			return nil, nil, r.err
		}
		retry = true
		fs.stats.Miss()
	}
}

// fetch reads the claimed run r of name with one backend ReadAt into
// one buffer, publishes each block as its own sub-slice of it (capacity
// clipped to the block) unless a write bumped the name's generation
// since the claim, and releases the claim to every reader waiting on
// it. A failed read fails every block of the run. It is the one fetch
// path of demand misses and prefetches alike.
func (fs *FS) fetch(inner chio.File, name string, r *run, prefetched bool) error {
	c, bs := fs.cache, fs.blockSize
	buf := make([]byte, r.count*bs)
	n, err := inner.ReadAt(buf, r.first*bs)
	eof := err == io.EOF
	if eof {
		err = nil
	}
	end := int64(n)
	c.mu.Lock()
	for i := range r.count {
		delete(c.inflight, blockKey{name, r.first + i})
	}
	if err != nil {
		c.mu.Unlock()
		if prefetched {
			for range r.count {
				fs.stats.PrefetchAborted()
			}
		}
		r.err = err
		close(r.done)
		return err
	}
	fresh := r.gen.Load() == r.at // no write invalidated the name while we fetched
	r.blocks = make([]*block, r.count)
	for i := range r.count {
		lo := min(i*bs, end)
		hi := min(lo+bs, end)
		b := &block{
			key:        blockKey{name, r.first + i},
			data:       buf[lo:hi:hi],
			eof:        eof && hi == end,
			prefetched: prefetched,
			accessed:   !prefetched,
		}
		r.blocks[i] = b
		if fresh {
			c.insert(b, fs.stats)
		} else if prefetched {
			fs.stats.PrefetchAborted()
		}
	}
	if fresh && eof && end > 0 {
		c.tail[name] = r.first + (end-1)/bs
	}
	c.mu.Unlock()
	close(r.done)
	return nil
}

// file is an open handle through the readahead layer. Its streaming
// calls are cursor reads and writes through the cache.
type file struct {
	chio.Cursor
	fs    *FS
	inner chio.File
	name  string
	gen   *atomic.Uint64 // the name's generation cell in the cache

	mu      sync.Mutex
	next    int64 // block index a sequential scan would touch next
	planned int64 // first block the prefetcher has not yet planned
}

// file opens a handle on inner, the backend's file called name.
func (fs *FS) file(inner chio.File, name string) *file {
	fs.cache.mu.Lock()
	gen := fs.cache.genCell(name)
	fs.cache.mu.Unlock()
	f := &file{fs: fs, inner: inner, name: name, gen: gen}
	f.Init(f)
	return f
}

// Name implements chio.File.
func (f *file) Name() string { return f.name }

// Size implements chio.Positional with the inner file's size.
func (f *file) Size() (int64, error) { return f.inner.Seek(0, io.SeekEnd) }

// ReadAt implements io.ReaderAt through the block cache. A read that
// continues the previous one (block-wise) is treated as a sequential
// scan and triggers prefetch of the following window. The blocks it
// misses are fetched as runs, one backend read each.
func (f *file) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("readahead: negative read offset")
	}
	if len(p) == 0 {
		return 0, nil
	}
	bs := f.fs.blockSize
	f.planRead(off, int64(len(p)))
	_, last := blockSpan(off, int64(len(p)), bs)

	n := 0
	var own *run // the run this read fetched, holding the blocks after idx
	for n < len(p) {
		pos := off + int64(n)
		idx := pos / bs
		var b *block
		if own != nil && idx < own.first+own.count {
			b = own.block(idx)
		} else {
			var err error
			if b, own, err = f.fs.getBlock(f.inner, f.name, idx, last); err != nil {
				return n, err
			}
		}
		blockOff := pos - idx*bs
		if blockOff >= int64(len(b.data)) {
			// Short (EOF) block exhausted — or a stale handle read past
			// the end of a full non-EOF block, which also means EOF here.
			return n, io.EOF
		}
		c := copy(p[n:], b.data[blockOff:])
		n += c
		if b.eof && n < len(p) && blockOff+int64(c) >= int64(len(b.data)) {
			return n, io.EOF
		}
	}
	return n, nil
}

// planRead runs the shared pre-read bookkeeping for ReadAt and
// ReadView, before the read looks its blocks up, so the window's runs
// overlap the read's own fetch. Sequential-scan detection: the read
// starts in the block the previous read ended in or the one after it.
// Each block is planned once per handle: the mark planned is the first
// block not yet planned, and a sequential read refills the window — up
// to window blocks past its own last block — only once half of the
// window has been read, so each refill is a run of at least half a
// window. A non-sequential read resets the mark to just after itself,
// so the next sequential read plans from there.
func (f *file) planRead(off, length int64) {
	firstBlock, lastBlock := blockSpan(off, length, f.fs.blockSize)
	f.mu.Lock()
	seq := firstBlock == f.next || firstBlock == f.next-1
	f.next = lastBlock + 1
	if !seq {
		f.planned = f.next
	}
	if !seq || f.planned-f.next > int64(f.fs.window/2) {
		f.mu.Unlock()
		return
	}
	from, to := max(f.next, f.planned), lastBlock+int64(f.fs.window)
	f.planned = max(f.planned, to+1)
	f.mu.Unlock()
	if from <= to {
		f.prefetch(from, to)
	}
}

// prefetch speculatively fetches blocks [from, to] (inclusive) of the
// file in the background, stopping at the tail mark. A name without a
// mark first asks the backend for its size, so no run is planned past
// the end of the file. Under one hold of the cache mutex it claims
// every block that is neither cached nor in flight, each maximal
// stretch of them as one run read with one backend ReadAt, so a reader
// arriving before the run's goroutine starts joins it instead of
// starting its own. Errors are dropped: the reader that eventually
// needs a block of a failed run retries it synchronously.
func (f *file) prefetch(from, to int64) {
	c, bs := f.fs.cache, f.fs.blockSize
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, known := c.tail[f.name]; !known {
		at := f.gen.Load()
		c.mu.Unlock()
		size, err := f.Size()
		c.mu.Lock()
		if err == nil && f.gen.Load() == at {
			c.tail[f.name] = (size+bs-1)/bs - 1
		}
	}
	if last, ok := c.tail[f.name]; ok {
		to = min(to, last)
	}
	for idx := from; idx <= to; idx++ {
		if c.present(blockKey{f.name, idx}) {
			continue
		}
		r := c.claim(f.name, idx, to)
		for range r.count {
			f.fs.stats.PrefetchIssued()
		}
		go f.fs.fetch(f.inner, f.name, r, true)
		idx += r.count - 1
	}
}

// ReadView implements chio.ViewReaderAt. A range contained in a single
// cache block is served as a borrowed slice of the block's bytes, with
// no copy and with the rest of the block as its capacity: published
// blocks are immutable (invalidation drops cache references, never
// rewrites data), so the slice stays valid for as long as the caller
// holds it, and the generation captured here lets View.Stale report
// when a write has since superseded any of the block. A range
// straddling blocks falls back to an owned copy through ReadAt. Both
// paths run the same sequential-detection and prefetch logic, so a
// scan through ReadView prefetches exactly like one through ReadAt.
func (f *file) ReadView(off, n int64) (chio.View, error) {
	if off < 0 {
		return chio.View{}, fmt.Errorf("readahead: negative read offset")
	}
	if n == 0 {
		return chio.OwnedView(nil), nil
	}
	bs := f.fs.blockSize
	firstBlock, lastBlock := blockSpan(off, n, bs)
	if firstBlock != lastBlock {
		f.fs.stats.BorrowCopy()
		buf := make([]byte, n)
		m, err := f.ReadAt(buf, off)
		if err != nil && err != io.EOF {
			return chio.View{}, err
		}
		return chio.OwnedView(buf[:m]), err
	}
	// Capture the generation before the block lookup: a write racing
	// this read can only make the view look stale, never fresh.
	at := f.gen.Load()
	f.planRead(off, n)
	b, _, err := f.fs.getBlock(f.inner, f.name, firstBlock, firstBlock)
	if err != nil {
		return chio.View{}, err
	}
	blockOff := off - firstBlock*bs
	if blockOff >= int64(len(b.data)) {
		return chio.View{}, io.EOF
	}
	data := b.data[blockOff:]
	if int64(len(data)) >= n {
		data = data[:n]
	} else {
		err = io.EOF // short (EOF) block: serve what exists
	}
	f.fs.stats.BorrowHit()
	return chio.NewBorrowedView(data, f.gen, at), err
}

// WriteAt implements io.WriterAt: the write goes straight through, and
// every cached block it touches (plus any cached EOF tail) is dropped
// so subsequent reads refetch fresh bytes.
func (f *file) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.inner.WriteAt(p, off)
	if n > 0 {
		f.fs.cache.invalidateRange(f.name, off, int64(n), f.fs.blockSize)
	}
	return n, err
}

// Close closes the inner file. Cached blocks persist (they belong to
// the FS, not the handle); in-flight prefetches against the closed
// handle fail harmlessly and are retried by later readers.
func (f *file) Close() error { return f.inner.Close() }
