// Package readahead layers a client-side block cache and a sequential
// prefetcher over any chio.FileSystem. BLAST workers scan their
// database fragments mostly sequentially in reads much smaller than a
// stripe, so the striped backends pay one round of server RPCs per
// small read. This layer fetches whole blocks (defaulting to the
// paper's 64 KB stripe unit), serves subsequent small reads from an
// LRU cache, and — once it detects a sequential scan — pipelines the
// next several blocks asynchronously so the network transfer overlaps
// with the worker's compute, the same overlap the paper attributes the
// parallel-I/O speedup to.
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

	"pario/internal/chio"
	"pario/internal/iotrace"
)

// Defaults for options left unset.
const (
	// DefaultBlockSize is the cache block size — the paper's stripe
	// unit, so one block fetch maps onto one stripe-aligned vectored
	// read round.
	DefaultBlockSize = 64 * 1024
	// DefaultCapacity is the cache capacity in blocks (8 MB at the
	// default block size).
	DefaultCapacity = 128
	// DefaultWindow is how many blocks ahead the prefetcher runs once a
	// sequential scan is detected.
	DefaultWindow = 4
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

// fetch tracks one in-flight block fetch so concurrent readers (and
// the prefetcher) coalesce onto a single backend read. b and err are
// written before done is closed.
type fetch struct {
	done chan struct{}
	b    *block
	err  error
}

// blockCache is the shared LRU block cache.
type blockCache struct {
	mu       sync.Mutex
	capacity int
	blocks   map[blockKey]*block
	lru      *list.List // front = most recently used
	inflight map[blockKey]*fetch
	// gen counts invalidations per name; a fetch started before an
	// invalidation must not populate the cache after it (its data may
	// predate the write).
	gen map[string]uint64
	// tail maps a name to the index of its short (EOF) block once one
	// has been published: the block holding the file's last byte, past
	// which prefetch plans nothing. An empty EOF block only bounds the
	// end, so it sets no mark. The mark outlives the block's eviction
	// and goes with the next invalidation of the name.
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
		inflight: make(map[blockKey]*fetch),
		gen:      make(map[string]uint64),
		tail:     make(map[string]int64),
	}
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
	c.gen[name]++
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
	c.gen[name]++
	delete(c.tail, name)
	for key, b := range c.blocks {
		if key.name == name {
			c.remove(b)
		}
	}
}

// getBlock returns block idx of name: from the cache, by joining the
// fetch already in flight, or by claiming the block and reading it
// through inner, all decided under one hold of the cache mutex. A
// cached block or a successful joined fetch counts as a hit, a fetch
// of its own as a miss, exactly one per call. A failed joined fetch
// falls back to one synchronous retry (counted as the miss) so a
// transient prefetch error never surfaces to a reader that could
// succeed.
func (fs *FS) getBlock(inner chio.File, name string, idx int64) (*block, error) {
	c := fs.cache
	key := blockKey{name, idx}
	retry := false // a joined fetch failed and its miss is counted
	for {
		c.mu.Lock()
		if b, ok := c.blocks[key]; ok {
			c.lru.MoveToFront(b.elem)
			b.accessed = true
			c.mu.Unlock()
			if !retry {
				fs.stats.Hit()
			}
			return b, nil
		}
		fl, joined := c.inflight[key]
		if !joined {
			claimed, gen := c.claim(key)
			c.mu.Unlock()
			if !retry {
				fs.stats.Miss()
			}
			return fs.runFetch(inner, name, idx, false, claimed, gen)
		}
		c.mu.Unlock()
		<-fl.done
		if fl.err == nil {
			c.mu.Lock()
			fl.b.accessed = true
			c.mu.Unlock()
			if !retry {
				fs.stats.Hit()
			}
			return fl.b, nil
		}
		if retry {
			return nil, fl.err
		}
		retry = true
		fs.stats.Miss()
	}
}

// claim registers an in-flight fetch of key and returns it with the
// name's current generation. Caller holds mu and has checked that key
// is neither cached nor in flight.
func (c *blockCache) claim(key blockKey) (*fetch, uint64) {
	fl := &fetch{done: make(chan struct{})}
	c.inflight[key] = fl
	return fl, c.gen[key.name]
}

// runFetch performs the backend read of a claimed block, publishes the
// result unless a write bumped the name's generation past gen, and
// releases the claim fl to every reader waiting on it.
func (fs *FS) runFetch(inner chio.File, name string, idx int64, prefetched bool, fl *fetch, gen uint64) (*block, error) {
	c := fs.cache
	key := blockKey{name, idx}
	buf := make([]byte, fs.blockSize)
	n, err := inner.ReadAt(buf, idx*fs.blockSize)
	eof := err == io.EOF
	if eof {
		err = nil
	}
	if err != nil {
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		if prefetched {
			fs.stats.PrefetchAborted()
		}
		fl.err = err
		close(fl.done)
		return nil, err
	}
	b := &block{
		key:        key,
		data:       buf[:n:n],
		eof:        eof,
		prefetched: prefetched,
		accessed:   !prefetched,
	}
	c.mu.Lock()
	delete(c.inflight, key)
	// Publish only if no write invalidated the name while we fetched.
	if c.gen[name] == gen {
		c.insert(b, fs.stats)
		if eof && n > 0 {
			c.tail[name] = idx
		}
	} else if prefetched {
		fs.stats.PrefetchAborted()
	}
	c.mu.Unlock()
	fl.b = b
	close(fl.done)
	return b, nil
}

// present reports whether key is cached or being fetched.
func (c *blockCache) present(key blockKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, cached := c.blocks[key]
	_, inflight := c.inflight[key]
	return cached || inflight
}

// generation returns the current invalidation generation for name.
// Borrowed views capture it at read time and compare later to detect
// writes that superseded their bytes.
func (c *blockCache) generation(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen[name]
}

// prefetch speculatively fetches blocks [from, to] (inclusive) of name
// in the background, stopping at name's tail mark when it has one.
// Under one hold of the cache mutex it claims every block that is
// neither cached nor in flight, so a reader arriving before the
// goroutine runs joins the fetch instead of starting its own. Errors
// are dropped: the reader that eventually needs a failed block
// retries synchronously.
func (fs *FS) prefetch(inner chio.File, name string, from, to int64) {
	c := fs.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	if last, ok := c.tail[name]; ok {
		to = min(to, last)
	}
	for idx := from; idx <= to; idx++ {
		key := blockKey{name, idx}
		if _, ok := c.blocks[key]; ok {
			continue
		}
		if _, ok := c.inflight[key]; ok {
			continue
		}
		fl, gen := c.claim(key)
		fs.stats.PrefetchIssued()
		go fs.runFetch(inner, name, idx, true, fl, gen)
	}
}

// file is an open handle through the readahead layer. Its streaming
// calls are cursor reads and writes through the cache.
type file struct {
	chio.Cursor
	fs    *FS
	inner chio.File
	name  string

	mu      sync.Mutex
	next    int64 // block index a sequential scan would touch next
	planned int64 // first block the prefetcher has not yet planned
}

// file opens a handle on inner, the backend's file called name.
func (fs *FS) file(inner chio.File, name string) *file {
	f := &file{fs: fs, inner: inner, name: name}
	f.Init(f)
	return f
}

// Name implements chio.File.
func (f *file) Name() string { return f.name }

// Size implements chio.Positional with the inner file's size.
func (f *file) Size() (int64, error) { return f.inner.Seek(0, io.SeekEnd) }

// ReadAt implements io.ReaderAt through the block cache. A read that
// continues the previous one (block-wise) is treated as a sequential
// scan and triggers prefetch of the following window.
func (f *file) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("readahead: negative read offset")
	}
	if len(p) == 0 {
		return 0, nil
	}
	bs := f.fs.blockSize
	if from, to := f.planRead(off, int64(len(p))); from <= to {
		defer f.fs.prefetch(f.inner, f.name, from, to)
	}

	n := 0
	for n < len(p) {
		pos := off + int64(n)
		idx := pos / bs
		b, err := f.fs.getBlock(f.inner, f.name, idx)
		if err != nil {
			return n, err
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
// ReadView. Sequential-scan detection: the read starts in the block
// the previous read ended in or the one after it; if so, fire the
// prefetch before serving the read so the next blocks' fetches
// overlap this one's. Each block is planned once per handle: a
// sequential read plans only the part of its window past the
// high-water mark, and a non-sequential read resets the mark to just
// after itself, so the next sequential read plans from there.
//
// Once the cache holds the file's short (EOF) block, nothing past it
// is planned: such a block would fetch no data, and on PVFS each one
// still costs the manager a size query. So that a read reaching the
// tail for the first time learns where the file ends before it plans
// past it, a read whose last block is neither cached nor in flight
// gets its window back as [from, to] to issue once it has its own
// blocks (from > to when there is nothing to issue). That read waits
// for its block either way, and the window still runs ahead of the
// reads that follow.
func (f *file) planRead(off, length int64) (from, to int64) {
	firstBlock, lastBlock := blockSpan(off, length, f.fs.blockSize)
	f.mu.Lock()
	seq := firstBlock == f.next || firstBlock == f.next-1
	f.next = lastBlock + 1
	if !seq {
		f.planned = f.next
		f.mu.Unlock()
		return 0, -1
	}
	from, to = max(f.next, f.planned), lastBlock+int64(f.fs.window)
	f.planned = max(f.planned, to+1)
	f.mu.Unlock()
	if from <= to && f.fs.cache.present(blockKey{f.name, lastBlock}) {
		f.fs.prefetch(f.inner, f.name, from, to)
		return 0, -1
	}
	return from, to
}

// ReadView implements chio.ViewReaderAt. A range contained in a single
// cache block is served as a borrowed slice of the block's bytes with
// no copy: published blocks are immutable (invalidation drops cache
// references, never rewrites data), so the slice stays valid for as
// long as the caller holds it, and the generation captured here lets
// View.Stale report when a write has since superseded the range. A
// range straddling blocks falls back to an owned copy through ReadAt.
// Both paths run the same sequential-detection and prefetch logic, so
// a scan through ReadView prefetches exactly like one through ReadAt.
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
	gen := f.fs.cache.generation(f.name)
	if from, to := f.planRead(off, n); from <= to {
		defer f.fs.prefetch(f.inner, f.name, from, to)
	}
	b, err := f.fs.getBlock(f.inner, f.name, firstBlock)
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
	cache, name := f.fs.cache, f.name
	return chio.NewBorrowedView(data, func() bool {
		return cache.generation(name) != gen
	}), err
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
