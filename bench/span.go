package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layers, outermost first. A span's parent is the innermost span of
// an outer layer that contains it in time, within the same rank (or,
// for store spans, on the same server).
const (
	layerRun = iota
	layerTask
	layerFS
	layerClient
	layerRPC
	layerStore
	numLayers
)

// allRanks marks a run span that covers every rank of a sequential
// repetition.
const allRanks = -1

// span is one timed call at a layer boundary, as the trace file
// stores it. Times are nanoseconds since the recorder's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Name   string `json:"name"`
	Op     int    `json:"op"` // repetition or request; -1: outside any
	Rank   int    `json:"rank"`
	Server string `json:"server,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`

	layer int
	kids  []interval
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps every span of a traced run in memory; each source
// (a shim, an observer) appends to a buffer of its own so sources do
// not contend. Sources record only while on is set, which limits the
// trace to the timed operations.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// spanBuf is one source's spans, all of one rank (and, for a store
// shim, one server).
type spanBuf struct {
	rec    *recorder
	rank   int
	server string
	mu     sync.Mutex
	spans  []span
}

func (b *spanBuf) recording() bool { return b.rec.on.Load() }

func (r *recorder) buf(rank int, server string) *spanBuf {
	b := &spanBuf{rec: r, rank: rank, server: server}
	r.mu.Lock()
	r.bufs = append(r.bufs, b)
	r.mu.Unlock()
	return b
}

func (b *spanBuf) add(layer int, name string, start, end time.Time, bytes int64) {
	b.addOp(layer, name, -1, b.server, start, end, bytes)
}

func (b *spanBuf) addOp(layer int, name string, op int, server string, start, end time.Time, bytes int64) {
	if !b.recording() {
		return
	}
	s := span{
		Name: name, Op: op, Rank: b.rank, Server: server, Bytes: bytes,
		Start: int64(start.Sub(b.rec.epoch)), End: int64(end.Sub(b.rec.epoch)),
		layer: layer,
	}
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

// lastEnd is when the latest span recorded so far ended.
func (b *spanBuf) lastEnd() (time.Time, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var end int64
	for _, s := range b.spans {
		end = max(end, s.End)
	}
	return b.rec.epoch.Add(time.Duration(end)), len(b.spans) > 0
}

// assemble merges the buffers into one tree: ids, parents, the op each
// span belongs to, and self times.
func (r *recorder) assemble() []*span {
	r.mu.Lock()
	var all []*span
	for _, b := range r.bufs {
		b.mu.Lock()
		for i := range b.spans {
			all = append(all, &b.spans[i])
		}
		b.mu.Unlock()
	}
	r.mu.Unlock()
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Start != all[j].Start {
			return all[i].Start < all[j].Start
		}
		return all[i].layer < all[j].layer
	})
	for i, s := range all {
		s.ID = i + 1
	}

	// Run through store layers by rank; runs that cover all ranks join
	// every rank's group.
	byRank := map[int][]*span{}
	var shared []*span
	for _, s := range all {
		switch {
		case s.layer == layerStore:
		case s.Rank == allRanks:
			shared = append(shared, s)
		default:
			byRank[s.Rank] = append(byRank[s.Rank], s)
		}
	}
	for _, group := range byRank {
		assignParents(mergeByStart(group, shared))
	}
	// Store spans have no rank: their parent is the RPC to their
	// server that contains them.
	byServer := map[string][]*span{}
	for _, s := range all {
		if (s.layer == layerRPC || s.layer == layerStore) && s.Server != "" {
			byServer[s.Server] = append(byServer[s.Server], s)
		}
	}
	for _, group := range byServer {
		assignParents(group)
	}

	for _, s := range all { // start order: a parent precedes its children
		if s.Parent != 0 {
			p := all[s.Parent-1]
			if s.Op < 0 {
				s.Op = p.Op
			}
			p.kids = append(p.kids, interval{s.Start, s.End})
		}
	}
	for _, s := range all {
		s.Self = selfTime(interval{s.Start, s.End}, s.kids)
		s.kids = nil
	}
	return all
}

// mergeByStart merges two start-ordered span lists.
func mergeByStart(a, b []*span) []*span {
	out := make([]*span, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if b[0].Start < a[0].Start || (b[0].Start == a[0].Start && b[0].layer < a[0].layer) {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

// assignParents gives each span of a start-ordered group, unless it
// has one already, the innermost still-open span of an outer layer
// that contains it.
func assignParents(group []*span) {
	var open [numLayers][]*span
	for _, s := range group {
		for l := range open {
			live := open[l][:0]
			for _, o := range open[l] {
				if o.End >= s.Start {
					live = append(live, o)
				}
			}
			open[l] = live
		}
		if s.Parent == 0 {
		search:
			for l := s.layer - 1; l >= 0; l-- {
				for i := len(open[l]) - 1; i >= 0; i-- {
					if o := open[l][i]; o.End >= s.End {
						s.Parent = o.ID
						break search
					}
				}
			}
		}
		open[s.layer] = append(open[s.layer], s)
	}
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// mergeIntervals returns the union of ivs as disjoint ascending
// intervals.
func mergeIntervals(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	out := s[:1]
	for _, iv := range s[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// covered is how much of iv the merged intervals cover.
func covered(iv interval, merged []interval) int64 {
	i := sort.Search(len(merged), func(i int) bool { return merged[i].hi > iv.lo })
	var sum int64
	for ; i < len(merged) && merged[i].lo < iv.hi; i++ {
		sum += min(merged[i].hi, iv.hi) - max(merged[i].lo, iv.lo)
	}
	return sum
}

// selfTime is a span's duration minus the part of it its children
// cover; children may overlap each other and stick out of the parent.
func selfTime(parent interval, kids []interval) int64 {
	return parent.hi - parent.lo - covered(parent, mergeIntervals(kids))
}

// spanSet answers the per-layer questions over an assembled trace.
type spanSet struct{ spans []*span }

func (ss spanSet) named(names ...string) []*span {
	var out []*span
	for _, s := range ss.spans {
		for _, n := range names {
			if s.Name == n {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

func sumDur(spans []*span) float64 {
	var ns int64
	for _, s := range spans {
		ns += s.dur()
	}
	return float64(ns) / 1e9
}

func sumBytes(spans []*span) int64 {
	var n int64
	for _, s := range spans {
		n += s.Bytes
	}
	return n
}

// groupKey separates what may run at the same time without one
// causing the other: ranks above the wire, servers below it.
func groupKey(s *span, byServer bool) any {
	if byServer {
		return s.Server
	}
	return s.Rank
}

func groupIntervals(spans []*span, byServer bool) map[any][]interval {
	m := map[any][]interval{}
	for _, s := range spans {
		k := groupKey(s, byServer)
		m[k] = append(m[k], interval{s.Start, s.End})
	}
	return m
}

// busy is the time at least one of the spans was open, per group,
// summed over groups: concurrent spans of one rank count once.
func busy(spans []*span, byServer bool) float64 {
	var ns int64
	for _, ivs := range groupIntervals(spans, byServer) {
		for _, iv := range mergeIntervals(ivs) {
			ns += iv.hi - iv.lo
		}
	}
	return float64(ns) / 1e9
}

// layerSelf is the time of the outer spans that no inner span of the
// same group covers. Where the inner calls are made synchronously it
// equals the sum of the outer spans' self times; it also stays right
// when the inner layer runs ahead on its own, as prefetch does.
func layerSelf(outer, inner []*span, byServer bool) float64 {
	cover := map[any][]interval{}
	for k, ivs := range groupIntervals(inner, byServer) {
		cover[k] = mergeIntervals(ivs)
	}
	var ns int64
	for _, s := range outer {
		iv := interval{s.Start, s.End}
		ns += iv.hi - iv.lo - covered(iv, cover[groupKey(s, byServer)])
	}
	return float64(ns) / 1e9
}

// traceFileSpans caps the trace file at the earliest spans, a few
// repetitions' worth; the per-layer numbers use every span.
const traceFileSpans = 50000

func writeTrace(dir, workload string, seed uint64, spans []*span) (string, error) {
	kept := spans[:min(len(spans), traceFileSpans)] // spans are in start order
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	blob, err := json.Marshal(struct {
		Workload string  `json:"workload"`
		Seed     uint64  `json:"seed"`
		Total    int     `json:"spans_total"`
		Spans    []*span `json:"spans"`
	}{workload, seed, len(spans), kept})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, blob, 0o644)
}
