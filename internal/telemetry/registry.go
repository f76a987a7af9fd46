// Package telemetry is the observability substrate of the system: a
// dependency-free metrics registry (counters, gauges, log-bucketed
// latency histograms, all labelable), lightweight span tracing with
// trace-ID propagation across the RPC wire, and a debug HTTP server
// exposing both live (Prometheus text /metrics, /debug/traces JSON,
// net/http/pprof).
//
// The paper's CEFT-PVFS hot-spot skipping depends on the metadata
// server observing per-server load, and its Figure 4 access-pattern
// analysis came from instrumenting BLAST's I/O; this package is the
// shared measurement layer both live on. Every client transport,
// data server, and the worker runtime publish into a Registry, so a
// live run can be inspected instead of waiting for exit dumps.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metric kind names used in the Prometheus exposition.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored; counters are monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta atomically.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a log-bucketed distribution of float64 observations
// (latencies in seconds by convention). Buckets double from MinBucket;
// observations beyond the last bound land in a +Inf overflow bucket.
// All methods are safe for concurrent use and lock-free on the
// observation path.
type Histogram struct {
	bounds []float64 // upper bounds, ascending
	counts []atomic.Int64
	over   atomic.Int64 // +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // Float64bits, CAS-added
	max    atomic.Uint64 // Float64bits

	// Exemplar slots: the trace that last landed in each bucket
	// (index NumBuckets = +Inf), exposed OpenMetrics-style in the
	// Prometheus text so a latency bucket links to a concrete trace.
	// Allocated on first ObserveExemplar; mutex-guarded because
	// exemplar updates are per-request, not per-RPC.
	exMu sync.Mutex
	ex   []exemplarSlot
}

type exemplarSlot struct {
	traceID uint64
	value   float64
}

// Histogram bucket layout: 30 power-of-two buckets from 1µs to ~537s
// cover any RPC or task latency this system produces.
const (
	// MinBucket is the first histogram bucket's upper bound in seconds.
	MinBucket = 1e-6
	// NumBuckets is the number of finite histogram buckets.
	NumBuckets = 30
)

func newHistogram() *Histogram {
	h := &Histogram{
		bounds: make([]float64, NumBuckets),
		counts: make([]atomic.Int64, NumBuckets),
	}
	b := MinBucket
	for i := range h.bounds {
		h.bounds[i] = b
		b *= 2
	}
	return h
}

// Observe records one value. NaN and negative values are clamped to 0.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.counts) {
		h.counts[i].Add(1)
	} else {
		h.over.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveExemplar records v like Observe and, for a non-zero traceID,
// remembers it as the destination bucket's exemplar, replacing the
// previous one. The exposition then links that bucket to the trace —
// "what query last landed at p99" without joining external systems.
func (h *Histogram) ObserveExemplar(v float64, traceID uint64) {
	h.Observe(v)
	if traceID == 0 {
		return
	}
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	i := sort.SearchFloat64s(h.bounds, v) // len(h.bounds) = +Inf slot
	h.exMu.Lock()
	if h.ex == nil {
		h.ex = make([]exemplarSlot, NumBuckets+1)
	}
	h.ex[i] = exemplarSlot{traceID: traceID, value: v}
	h.exMu.Unlock()
}

func (h *Histogram) exemplarSlots() []exemplarSlot {
	h.exMu.Lock()
	defer h.exMu.Unlock()
	if h.ex == nil {
		return nil
	}
	return append([]exemplarSlot(nil), h.ex...)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Max returns the largest observed value.
func (h *Histogram) Max() float64 { return math.Float64frombits(h.max.Load()) }

// Mean returns Sum/Count, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation within the bucket holding the target rank. The
// overflow bucket reports the observed max.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n >= target && n > 0 {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			frac := (target - cum) / n
			return lower + frac*(h.bounds[i]-lower)
		}
		cum += n
	}
	return h.Max()
}

// point is one collected sample plus how the exposition writes its
// value: integer instruments (counters, bucket and count series) render
// as %d, float and computed ones as %g. The value itself is the float64
// every consumer sees, so text and Snapshot agree exactly (a count past
// 2^53 rounds the same way in both).
type point struct {
	Sample
	integer bool
}

// metric is any single instrument that can report its current samples
// under a family name and its child's label set.
type metric interface {
	collect(out []point, name string, labels map[string]string) []point
}

func (c *Counter) collect(out []point, name string, labels map[string]string) []point {
	return append(out, point{Sample{Name: name, Labels: labels, Value: float64(c.Value())}, true})
}

func (g *Gauge) collect(out []point, name string, labels map[string]string) []point {
	return append(out, point{Sample{Name: name, Labels: labels, Value: g.Value()}, false})
}

func (h *Histogram) collect(out []point, name string, labels map[string]string) []point {
	// Prometheus histogram convention: cumulative _bucket{le=...},
	// then _sum and _count. Empty buckets are skipped to keep the page
	// readable; the +Inf bucket is always present.
	ex := h.exemplarSlots()
	bucket := func(i int, le string, cum int64) point {
		withLE := make(map[string]string, len(labels)+1)
		for k, v := range labels {
			withLE[k] = v
		}
		withLE["le"] = le
		p := point{Sample{Name: name + "_bucket", Labels: withLE, Value: float64(cum)}, true}
		if ex != nil && ex[i].traceID != 0 {
			p.Exemplar = &Exemplar{
				Labels: map[string]string{"trace_id": IDString(ex[i].traceID)},
				Value:  ex[i].value,
			}
		}
		return p
	}
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		cum += n
		if n == 0 {
			continue
		}
		out = append(out, bucket(i, formatFloat(h.bounds[i]), cum))
	}
	cum += h.over.Load()
	out = append(out, bucket(NumBuckets, "+Inf", cum),
		point{Sample{Name: name + "_sum", Labels: labels, Value: h.Sum()}, false},
		point{Sample{Name: name + "_count", Labels: labels, Value: float64(h.Count())}, true})
	return out
}

// funcMetric exposes a value computed at collect time.
type funcMetric struct {
	fn func() float64
}

func (f *funcMetric) collect(out []point, name string, labels map[string]string) []point {
	return append(out, point{Sample{Name: name, Labels: labels, Value: f.fn()}, false})
}

// family is one named metric family: a kind, a label schema, and the
// per-label-set children.
type family struct {
	name   string
	help   string
	kind   string
	labels []string

	mu       sync.RWMutex
	children map[string]metric
	// order remembers insertion keys split back into label values for
	// sorted exposition.
	keys map[string][]string
}

// labelSep joins label values into child keys; it cannot appear in
// addresses or op names.
const labelSep = "\x1f"

func (f *family) child(lvs []string, make func() metric) metric {
	if len(lvs) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s wants %d label values, got %d",
			f.name, len(f.labels), len(lvs)))
	}
	key := strings.Join(lvs, labelSep)
	f.mu.RLock()
	m, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	m = make()
	f.children[key] = m
	f.keys[key] = append([]string(nil), lvs...)
	return m
}

// CounterVec is a labeled counter family.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values (created on
// first use).
func (v *CounterVec) With(lvs ...string) *Counter {
	return v.fam.child(lvs, func() metric { return &Counter{} }).(*Counter)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(lvs ...string) *Gauge {
	return v.fam.child(lvs, func() metric { return &Gauge{} }).(*Gauge)
}

// Delete removes the child for the given label values from the
// exposition, so a gauge tracking a departed entity (e.g. a dead
// server's load) does not linger at its last value. Deleting an
// absent child is a no-op; With after Delete recreates it fresh.
func (v *GaugeVec) Delete(lvs ...string) { v.fam.delete(lvs) }

func (f *family) delete(lvs []string) {
	if len(lvs) != len(f.labels) {
		return
	}
	key := strings.Join(lvs, labelSep)
	f.mu.Lock()
	delete(f.children, key)
	delete(f.keys, key)
	f.mu.Unlock()
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(lvs ...string) *Histogram {
	return v.fam.child(lvs, func() metric { return newHistogram() }).(*Histogram)
}

// Each calls fn for every child histogram with its label values.
func (v *HistogramVec) Each(fn func(lvs []string, h *Histogram)) {
	v.fam.each(func(lvs []string, m metric) { fn(lvs, m.(*Histogram)) })
}

// Each calls fn for every child counter with its label values.
func (v *CounterVec) Each(fn func(lvs []string, c *Counter)) {
	v.fam.each(func(lvs []string, m metric) { fn(lvs, m.(*Counter)) })
}

func (f *family) each(fn func(lvs []string, m metric)) {
	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type pair struct {
		lvs []string
		m   metric
	}
	pairs := make([]pair, 0, len(keys))
	for _, k := range keys {
		pairs = append(pairs, pair{f.keys[k], f.children[k]})
	}
	f.mu.RUnlock()
	for _, p := range pairs {
		fn(p.lvs, p.m)
	}
}

// Registry holds metric families and reads them out as typed samples
// (Snapshot) or Prometheus text (WritePrometheus). Registration is
// idempotent: asking for an existing name with the same kind returns
// the existing family, so concurrent components can all "register" the
// same metric safely.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) register(name, help, kind string, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: metric %s re-registered as %s(%d labels), was %s(%d labels)",
				name, kind, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		children: make(map[string]metric),
		keys:     make(map[string][]string),
	}
	r.fams[name] = f
	return f
}

// Counter returns (registering on first use) the unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil)
	return f.child(nil, func() metric { return &Counter{} }).(*Counter)
}

// CounterVec returns the labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, kindCounter, labels)}
}

// CounterFunc registers a counter whose value is computed at scrape
// time — the bridge for components that keep their own atomics.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindCounter, nil)
	f.child(nil, func() metric { return &funcMetric{fn: fn} })
}

// Gauge returns (registering on first use) the unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil)
	return f.child(nil, func() metric { return &Gauge{} }).(*Gauge)
}

// GaugeVec returns the labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, kindGauge, labels)}
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil)
	f.child(nil, func() metric { return &funcMetric{fn: fn} })
}

// Histogram returns (registering on first use) the unlabeled histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	f := r.register(name, help, kindHistogram, nil)
	return f.child(nil, func() metric { return newHistogram() }).(*Histogram)
}

// HistogramVec returns the labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	return &HistogramVec{fam: r.register(name, help, kindHistogram, labels)}
}

// familyPoints is one family's identity and current samples: what the
// exposition formatter and Snapshot both read.
type familyPoints struct {
	name, help, kind string
	labels           []string // label schema, in exposition order
	points           []point
}

// collect reads every instrument once, families and label sets in
// sorted order.
func (r *Registry) collect() []familyPoints {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	out := make([]familyPoints, len(fams))
	for i, f := range fams {
		fp := familyPoints{name: f.name, help: f.help, kind: f.kind, labels: f.labels}
		f.each(func(lvs []string, m metric) {
			var labels map[string]string
			if len(lvs) > 0 {
				labels = make(map[string]string, len(lvs))
				for j, k := range f.labels {
					labels[k] = lvs[j]
				}
			}
			fp.points = m.collect(fp.points, f.name, labels)
		})
		out[i] = fp
	}
	return out
}

// Snapshot returns the registry's current samples, typed: exactly the
// samples, in exactly the order, WritePrometheus renders (histograms
// expanded to their non-empty cumulative buckets, +Inf, _sum and
// _count). In-process consumers — the tsdb sampler, the run-report
// builder — read this; text is only for bytes leaving the process.
// Label maps may be shared between samples and must not be mutated.
func (r *Registry) Snapshot() []Sample {
	var out []Sample
	for _, f := range r.collect() {
		for _, p := range f.points {
			out = append(out, p.Sample)
		}
	}
	return out
}
