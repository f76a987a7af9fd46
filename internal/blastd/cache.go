package blastd

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"pario/internal/blast"
	"pario/internal/seq"
)

// cacheKey identifies a search result: the query content, the
// database (name and version, so reformatting a database invalidates
// its entries), and the search parameters that affect the result.
type cacheKey struct {
	queryHash string
	db        string
	version   string
	params    string
}

func makeCacheKey(query seq.Sequence, db, version string, params blast.Params) cacheKey {
	h := sha256.New()
	h.Write([]byte(query.ID))
	h.Write([]byte{0})
	h.Write(query.Data)
	return cacheKey{
		queryHash: hex.EncodeToString(h.Sum(nil)),
		db:        db,
		version:   version,
		params:    paramsSignature(params),
	}
}

// paramsSignature folds the result-affecting parameters into a string.
// Threads is excluded: the search ignores it.
func paramsSignature(p blast.Params) string {
	return fmt.Sprintf("%v|%g|%d|%t|%t",
		p.Program, p.EValue, p.MaxTargetSeqs, p.Filter, p.Greedy)
}

// resultCache is a bounded LRU of finished search results with
// single-flight semantics: concurrent requests for the same key share
// one backend search instead of each running their own.
type resultCache struct {
	max int

	mu      sync.Mutex
	ll      *list.List // front = most recent
	items   map[cacheKey]*list.Element
	flights map[cacheKey]*flight

	// Observability hooks; any may be nil.
	onHit        func()
	onMiss       func()
	onShared     func() // joined an in-progress flight
	onInvalidate func(n int)
}

type cacheEntry struct {
	key cacheKey
	res *blast.Result
}

type flight struct {
	done chan struct{}
	res  *blast.Result
	err  error
}

func newResultCache(max int) *resultCache {
	if max < 1 {
		max = 1
	}
	return &resultCache{
		max:     max,
		ll:      list.New(),
		items:   make(map[cacheKey]*list.Element),
		flights: make(map[cacheKey]*flight),
	}
}

// Cache lookup statuses reported by Do — also the values of the cache
// span's status attribute and the flight recorder's cache field.
const (
	cacheHit    = "hit"    // answered from a stored entry
	cacheMiss   = "miss"   // this caller ran the backend search
	cacheShared = "shared" // joined an identical in-flight search
)

// Do returns the cached result for key, or runs fn exactly once to
// produce it (concurrent callers with the same key wait for the first
// call's outcome). status reports how the result was obtained:
// cacheHit, cacheMiss (this caller's own fn execution) or cacheShared.
func (c *resultCache) Do(ctx context.Context, key cacheKey, fn func() (*blast.Result, error)) (res *blast.Result, status string, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		res := el.Value.(*cacheEntry).res
		c.mu.Unlock()
		if c.onHit != nil {
			c.onHit()
		}
		return res, cacheHit, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		if c.onShared != nil {
			c.onShared()
		}
		select {
		case <-f.done:
			return f.res, cacheShared, f.err
		case <-ctx.Done():
			return nil, cacheShared, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	if c.onMiss != nil {
		c.onMiss()
	}

	f.res, f.err = fn()

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.addLocked(key, f.res)
	}
	c.mu.Unlock()
	close(f.done)
	return f.res, cacheMiss, f.err
}

// addLocked inserts and evicts beyond capacity. Caller holds c.mu.
func (c *resultCache) addLocked(key cacheKey, res *blast.Result) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).res = res
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		delete(c.items, el.Value.(*cacheEntry).key)
		c.ll.Remove(el)
	}
}

// InvalidateDB drops every entry for the named database (all
// versions) and returns how many were removed. In-progress flights
// are left alone: they complete under the version they started with,
// and a version bump changes the key so stale flights are never
// consulted for new requests.
func (c *resultCache) InvalidateDB(db string) int {
	c.mu.Lock()
	removed := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if e.key.db == db {
			delete(c.items, e.key)
			c.ll.Remove(el)
			removed++
		}
		el = next
	}
	c.mu.Unlock()
	if removed > 0 && c.onInvalidate != nil {
		c.onInvalidate(removed)
	}
	return removed
}

// Len reports the number of cached results.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func (k cacheKey) String() string {
	return strings.Join([]string{k.queryHash[:12], k.db, k.version, k.params}, "/")
}
