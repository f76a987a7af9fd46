// Package tsdb is the live time-series layer: a dependency-free
// in-process store that samples metric registries (local or scraped
// over HTTP) on a fixed interval into fixed-size ring buffers, with
// the window queries load decisions need — rate and increase with
// counter-reset detection, growth of a gauge, and quantile-over-time
// and SLO burn reconstructed from the log-bucketed histogram
// expositions.
//
// The paper diagnosed its I/O bottleneck from server-side utilization
// traces over time, and the openMosix I/O-balancing line of work shows
// placement decisions must be driven by windowed load history, not
// instantaneous samples. One-shot snapshots (/metrics, obsreport)
// answer "what is the state"; this package answers "what has the state
// been doing" — the substrate the alert engine (rules.go) and the
// pariotop dashboard stand on, and the history the closed-loop
// rebalancing work will consume.
package tsdb

import (
	"sort"
	"strings"
	"sync"
	"time"

	"pario/internal/telemetry"
	"pario/internal/util"
)

// Point is one sample of one series.
type Point struct {
	T time.Time
	V float64
}

// Series is a copied-out view of one stored series: its identity and
// its retained points, oldest first.
type Series struct {
	Name   string
	Labels map[string]string
	Points []Point
}

// Label returns the value of label key, or "".
func (s Series) Label(key string) string { return s.Labels[key] }

// series is the stored form: a fixed-capacity ring of points.
type series struct {
	name   string
	labels map[string]string
	buf    []Point
	next   int
	full   bool
	last   time.Time // newest appended timestamp, for staleness checks
}

func (s *series) append(p Point) {
	s.buf[s.next] = p
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
		s.full = true
	}
	s.last = p.T
}

// points returns the retained points oldest-first.
func (s *series) points() []Point {
	if !s.full {
		return append([]Point(nil), s.buf[:s.next]...)
	}
	out := make([]Point, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// labelSep joins label key=value pairs into series keys; it cannot
// appear in metric names or label keys.
const labelSep = "\x1f"

func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	for _, k := range util.SortedKeys(labels) {
		sb.WriteString(labelSep)
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(labels[k])
	}
	return sb.String()
}

// DefaultCapacity is the per-series ring size when NewStore is given
// none: at a 1-second sample interval it retains four minutes of
// history, comfortably more than any rule window in use.
const DefaultCapacity = 256

// Store holds every sampled series. All methods are safe for
// concurrent use; appends and queries share one RWMutex — the sampler
// writes once per interval and queries copy points out, so contention
// is negligible at dashboard rates.
type Store struct {
	mu       sync.RWMutex
	capacity int
	series   map[string]*series
}

// NewStore returns an empty store retaining capacity points per series
// (DefaultCapacity if capacity <= 0).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{capacity: capacity, series: make(map[string]*series)}
}

// Append records every sample at time t. extraLabels (may be nil) are
// merged into each sample's label set — the collector stamps scraped
// samples with their instance name this way, so the same family from
// different processes lands in distinct series.
func (st *Store) Append(t time.Time, samples []telemetry.Sample, extraLabels map[string]string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, sm := range samples {
		labels := sm.Labels
		if len(extraLabels) > 0 {
			merged := make(map[string]string, len(labels)+len(extraLabels))
			for k, v := range labels {
				merged[k] = v
			}
			for k, v := range extraLabels {
				merged[k] = v
			}
			labels = merged
		}
		key := seriesKey(sm.Name, labels)
		s, ok := st.series[key]
		if !ok {
			s = &series{
				name:   sm.Name,
				labels: labels,
				buf:    make([]Point, st.capacity),
			}
			st.series[key] = s
		}
		s.append(Point{T: t, V: sm.Value})
	}
}

// Select returns copies of every series of family name whose labels
// are a superset of match (nil match selects the whole family).
func (st *Store) Select(name string, match map[string]string) []Series {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []Series
	for _, s := range st.series {
		if s.name != name || !telemetry.LabelsMatch(s.labels, match) {
			continue
		}
		out = append(out, Series{Name: s.name, Labels: s.labels, Points: s.points()})
	}
	sort.Slice(out, func(i, j int) bool {
		return seriesKey(out[i].Name, out[i].Labels) < seriesKey(out[j].Name, out[j].Labels)
	})
	return out
}

// SeriesCount reports how many distinct series the store holds.
func (st *Store) SeriesCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.series)
}

// window trims points to those with T in (now-window, now]. Points
// are oldest-first already.
func windowPoints(pts []Point, now time.Time, window time.Duration) []Point {
	cut := now.Add(-window)
	i := 0
	for i < len(pts) && !pts[i].T.After(cut) {
		i++
	}
	// Keep one point before the cut when available: rate and increase
	// over the window need the value at the window's opening edge, or a
	// counter that only ticked once inside the window reads as no
	// increase.
	if i > 0 {
		i--
	}
	return pts[i:]
}

// --- single-series window functions -------------------------------

// Increase returns the total increase of a counter series over the
// window, detecting resets: a sample lower than its predecessor means
// the process restarted and the counter restarted from zero, so the
// post-reset value is itself the increase since the reset.
func (s Series) Increase(now time.Time, window time.Duration) (float64, bool) {
	pts := windowPoints(s.Points, now, window)
	if len(pts) < 2 {
		return 0, false
	}
	var inc float64
	for i := 1; i < len(pts); i++ {
		if d := pts[i].V - pts[i-1].V; d >= 0 {
			inc += d
		} else {
			inc += pts[i].V // counter reset
		}
	}
	return inc, true
}

// Rate returns the per-second rate of increase of a counter series
// over the window (reset-aware), and false when fewer than two points
// are retained in the window.
func (s Series) Rate(now time.Time, window time.Duration) (float64, bool) {
	pts := windowPoints(s.Points, now, window)
	if len(pts) < 2 {
		return 0, false
	}
	inc, _ := s.Increase(now, window)
	span := pts[len(pts)-1].T.Sub(pts[0].T).Seconds()
	if span <= 0 {
		return 0, false
	}
	return inc / span, true
}

// Last returns the newest sample value.
func (s Series) Last() (float64, bool) {
	if len(s.Points) == 0 {
		return 0, false
	}
	return s.Points[len(s.Points)-1].V, true
}

// Growth returns how many consecutive most-recent steps were strictly
// increasing — the "queue depth has been growing for N samples"
// signal. A series [3 5 5 6 7 9] has growth 3 (the 5→6, 6→7 and 7→9
// steps; the flat 5→5 step breaks the run).
func (s Series) Growth() int {
	pts := s.Points
	n := 0
	for i := len(pts) - 1; i > 0; i-- {
		if pts[i].V > pts[i-1].V {
			n++
		} else {
			break
		}
	}
	return n
}

// --- store-level aggregate queries --------------------------------

// sum adds fn over every series of family name matching match that can
// answer it; ok is false when none could.
func (st *Store) sum(name string, match map[string]string, fn func(Series) (float64, bool)) (total float64, ok bool) {
	for _, s := range st.Select(name, match) {
		if v, okS := fn(s); okS {
			total += v
			ok = true
		}
	}
	return total, ok
}

// Rate sums the per-second rates of every series of family name
// matching match. ok is false when no matching series had enough
// points.
func (st *Store) Rate(name string, match map[string]string, now time.Time, window time.Duration) (float64, bool) {
	return st.sum(name, match, func(s Series) (float64, bool) { return s.Rate(now, window) })
}

// RateBy folds per-second rates of family name into a map keyed by
// label, summing series that share a key — per-server RPC rates from
// a counter split by server, op and outcome, for example.
func (st *Store) RateBy(name, label string, match map[string]string, now time.Time, window time.Duration) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range st.Select(name, match) {
		key, ok := s.Labels[label]
		if !ok {
			continue
		}
		if r, okr := s.Rate(now, window); okr {
			out[key] += r
		}
	}
	return out
}

// Increase sums reset-aware counter increases over the window across
// matching series.
func (st *Store) Increase(name string, match map[string]string, now time.Time, window time.Duration) (float64, bool) {
	return st.sum(name, match, func(s Series) (float64, bool) { return s.Increase(now, window) })
}

// Latest sums the newest value across matching series (gauges).
func (st *Store) Latest(name string, match map[string]string) (float64, bool) {
	return st.sum(name, match, Series.Last)
}
