package iotrace

import (
	"sync/atomic"

	"pario/internal/telemetry"
)

// CacheStats aggregates the client-side readahead/block-cache counters
// of package readahead: whether the working set is being served from
// cached blocks (hits) or going to the data servers (misses), and
// whether the prefetcher's speculation is paying off (issued vs
// wasted). All methods are safe for concurrent use; a single CacheStats
// is typically shared by every worker's readahead layer.
type CacheStats struct {
	hits            atomic.Int64
	misses          atomic.Int64
	prefetchIssued  atomic.Int64
	prefetchWasted  atomic.Int64
	prefetchAborted atomic.Int64
	borrowHits      atomic.Int64
	borrowCopies    atomic.Int64
}

// Hit records a block read served from the cache (including blocks a
// still-in-flight prefetch delivered).
func (c *CacheStats) Hit() { c.hits.Add(1) }

// Miss records a block read that had to fetch from the backend.
func (c *CacheStats) Miss() { c.misses.Add(1) }

// PrefetchIssued records one speculative block fetch started.
func (c *CacheStats) PrefetchIssued() { c.prefetchIssued.Add(1) }

// PrefetchWasted records a prefetched block evicted without ever being
// read.
func (c *CacheStats) PrefetchWasted() { c.prefetchWasted.Add(1) }

// PrefetchAborted records a speculative fetch whose result was
// discarded before publication — the fetch failed, or the cached file
// generation changed underneath it.
func (c *CacheStats) PrefetchAborted() { c.prefetchAborted.Add(1) }

// BorrowHit records a ReadView served as a zero-copy borrowed slice of
// a cache block.
func (c *CacheStats) BorrowHit() { c.borrowHits.Add(1) }

// BorrowCopy records a ReadView that had to fall back to an owned copy
// (range straddled cache blocks, or a racing write superseded the
// borrowed bytes and the caller re-read).
func (c *CacheStats) BorrowCopy() { c.borrowCopies.Add(1) }

// Register exposes the counters on reg as scrape-time functions, so a
// zero-value CacheStats (the readahead layer's default) shows up on
// /metrics without changing how it is updated.
func (c *CacheStats) Register(reg *telemetry.Registry) {
	if c == nil || reg == nil {
		return
	}
	reg.CounterFunc("pario_readahead_hits_total",
		"Block reads served from the readahead cache.",
		func() float64 { return float64(c.hits.Load()) })
	reg.CounterFunc("pario_readahead_misses_total",
		"Block reads that fetched from the backend.",
		func() float64 { return float64(c.misses.Load()) })
	reg.CounterFunc("pario_readahead_prefetch_issued_total",
		"Speculative block fetches started.",
		func() float64 { return float64(c.prefetchIssued.Load()) })
	reg.CounterFunc("pario_readahead_prefetch_wasted_total",
		"Prefetched blocks evicted without ever being read.",
		func() float64 { return float64(c.prefetchWasted.Load()) })
	reg.CounterFunc("pario_readahead_prefetch_aborted_total",
		"Speculative fetches discarded before publication.",
		func() float64 { return float64(c.prefetchAborted.Load()) })
	reg.GaugeFunc("pario_readahead_hit_ratio",
		"Cache hits over hits+misses, 0 with no traffic.",
		func() float64 { return c.Snapshot().HitRate() })
	reg.CounterFunc("pario_readahead_borrow_hits_total",
		"ReadViews served zero-copy as borrowed cache-block slices.",
		func() float64 { return float64(c.borrowHits.Load()) })
	reg.CounterFunc("pario_readahead_borrow_copies_total",
		"ReadViews that fell back to an owned copy.",
		func() float64 { return float64(c.borrowCopies.Load()) })
	reg.GaugeFunc("pario_readahead_zero_copy_ratio",
		"Borrowed ReadViews over all ReadViews, 0 with no view traffic.",
		func() float64 { return c.Snapshot().ZeroCopyRate() })
}

// CacheSnapshot is a point-in-time copy of the counters.
type CacheSnapshot struct {
	Hits            int64
	Misses          int64
	PrefetchIssued  int64
	PrefetchWasted  int64
	PrefetchAborted int64
	BorrowHits      int64
	BorrowCopies    int64
}

// Snapshot returns the current counter values.
func (c *CacheStats) Snapshot() CacheSnapshot {
	return CacheSnapshot{
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		PrefetchIssued:  c.prefetchIssued.Load(),
		PrefetchWasted:  c.prefetchWasted.Load(),
		PrefetchAborted: c.prefetchAborted.Load(),
		BorrowHits:      c.borrowHits.Load(),
		BorrowCopies:    c.borrowCopies.Load(),
	}
}

// HitRate returns hits/(hits+misses), or 0 with no traffic.
func (s CacheSnapshot) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// ZeroCopyRate returns borrowed views over all views, or 0 with no
// view traffic.
func (s CacheSnapshot) ZeroCopyRate() float64 {
	total := s.BorrowHits + s.BorrowCopies
	if total == 0 {
		return 0
	}
	return float64(s.BorrowHits) / float64(total)
}
