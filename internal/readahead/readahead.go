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
	return &file{fs: fs, inner: f, name: name}, nil
}

// Open implements chio.FileSystem.
func (fs *FS) Open(name string) (chio.File, error) {
	f, err := fs.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: fs, inner: f, name: name}, nil
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
// name, plus every short (EOF) block of name — a write that grows the
// file makes a cached short tail stale even without overlapping it.
func (c *blockCache) invalidateRange(name string, off, length, blockSize int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen[name]++
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

// invalidateAll drops every block of name.
func (c *blockCache) invalidateAll(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen[name]++
	for key, b := range c.blocks {
		if key.name == name {
			c.remove(b)
		}
	}
}

// getBlock returns the cached (or freshly fetched) block idx of name,
// reading through inner on a miss. A block being delivered by an
// in-flight prefetch counts as a hit; a failed in-flight fetch falls
// back to a synchronous retry so a transient prefetch error never
// surfaces to a reader that could succeed.
func (fs *FS) getBlock(inner chio.File, name string, idx int64) (*block, error) {
	c := fs.cache
	key := blockKey{name, idx}
	c.mu.Lock()
	if b, ok := c.blocks[key]; ok {
		c.lru.MoveToFront(b.elem)
		b.accessed = true
		c.mu.Unlock()
		fs.stats.Hit()
		return b, nil
	}
	fl := c.inflight[key]
	c.mu.Unlock()
	if fl != nil {
		<-fl.done
		if fl.err == nil {
			fs.stats.Hit()
			c.mu.Lock()
			fl.b.accessed = true
			c.mu.Unlock()
			return fl.b, nil
		}
	}
	fs.stats.Miss()
	return fs.fetchBlock(inner, name, idx, false)
}

// fetchBlock reads block idx of name through inner and publishes it,
// deduplicating against concurrent fetches of the same block.
func (fs *FS) fetchBlock(inner chio.File, name string, idx int64, prefetched bool) (*block, error) {
	c := fs.cache
	key := blockKey{name, idx}
	c.mu.Lock()
	if b, ok := c.blocks[key]; ok { // raced with another fetch
		c.lru.MoveToFront(b.elem)
		if !prefetched {
			b.accessed = true
		}
		c.mu.Unlock()
		return b, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, fl.err
		}
		if !prefetched {
			c.mu.Lock()
			fl.b.accessed = true
			c.mu.Unlock()
		}
		return fl.b, nil
	}
	fl := &fetch{done: make(chan struct{})}
	c.inflight[key] = fl
	gen := c.gen[name]
	c.mu.Unlock()

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
	} else if prefetched {
		fs.stats.PrefetchAborted()
	}
	c.mu.Unlock()
	fl.b = b
	close(fl.done)
	return b, nil
}

// generation returns the current invalidation generation for name.
// Borrowed views capture it at read time and compare later to detect
// writes that superseded their bytes.
func (c *blockCache) generation(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen[name]
}

// uncached returns the block indices in [from, to] (inclusive) of
// name that are neither cached nor already being fetched — the blocks
// a demand read or prefetch would actually go to the backend for.
func (c *blockCache) uncached(name string, from, to int64) []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int64
	for idx := from; idx <= to; idx++ {
		key := blockKey{name, idx}
		if _, ok := c.blocks[key]; ok {
			continue
		}
		if _, ok := c.inflight[key]; ok {
			continue
		}
		out = append(out, idx)
	}
	return out
}

// prefetch speculatively fetches the given blocks of name in the
// background. Errors are dropped: the reader that eventually needs a
// failed block retries synchronously.
func (fs *FS) prefetch(inner chio.File, name string, idxs []int64) {
	for _, idx := range idxs {
		fs.stats.PrefetchIssued()
		go fs.fetchBlock(inner, name, idx, true)
	}
}

// file is an open handle through the readahead layer.
type file struct {
	fs    *FS
	inner chio.File
	name  string

	mu   sync.Mutex
	off  int64 // streaming position for Read/Write/Seek
	next int64 // block index a sequential scan would touch next
}

// Name implements chio.File.
func (f *file) Name() string { return f.name }

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
	f.planRead(off, int64(len(p)))

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
// overlap this one's.
func (f *file) planRead(off, length int64) {
	firstBlock, lastBlock := blockSpan(off, length, f.fs.blockSize)
	f.mu.Lock()
	seq := firstBlock == f.next || firstBlock == f.next-1
	f.next = lastBlock + 1
	f.mu.Unlock()
	if !seq || f.fs.window <= 0 {
		return
	}
	if planned := f.fs.cache.uncached(f.name, lastBlock+1, lastBlock+int64(f.fs.window)); len(planned) > 0 {
		f.fs.prefetch(f.inner, f.name, planned)
	}
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
	f.planRead(off, n)
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

// Read implements io.Reader at the streaming position.
func (f *file) Read(p []byte) (int, error) {
	f.mu.Lock()
	off := f.off
	f.mu.Unlock()
	n, err := f.ReadAt(p, off)
	f.mu.Lock()
	f.off = off + int64(n)
	f.mu.Unlock()
	return n, err
}

// Write implements io.Writer at the streaming position.
func (f *file) Write(p []byte) (int, error) {
	f.mu.Lock()
	off := f.off
	f.mu.Unlock()
	n, err := f.WriteAt(p, off)
	f.mu.Lock()
	f.off = off + int64(n)
	f.mu.Unlock()
	return n, err
}

// Seek implements io.Seeker. SeekEnd delegates to the inner file for
// the authoritative size.
func (f *file) Seek(offset int64, whence int) (int64, error) {
	if whence == io.SeekEnd {
		pos, err := f.inner.Seek(offset, io.SeekEnd)
		if err != nil {
			return 0, err
		}
		f.mu.Lock()
		f.off = pos
		f.mu.Unlock()
		return pos, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var next int64
	switch whence {
	case io.SeekStart:
		next = offset
	case io.SeekCurrent:
		next = f.off + offset
	default:
		return 0, fmt.Errorf("readahead: bad whence %d", whence)
	}
	if next < 0 {
		return 0, fmt.Errorf("readahead: negative seek position")
	}
	f.off = next
	return next, nil
}

// Close closes the inner file. Cached blocks persist (they belong to
// the FS, not the handle); in-flight prefetches against the closed
// handle fail harmlessly and are retried by later readers.
func (f *file) Close() error { return f.inner.Close() }
