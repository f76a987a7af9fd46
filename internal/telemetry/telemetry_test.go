package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("pario_test_total", "test counter")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := reg.Gauge("pario_test_gauge", "test gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestRegistryIdempotentAndMismatch(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("pario_same_total", "h")
	b := reg.Counter("pario_same_total", "h")
	if a != b {
		t.Fatal("re-registering the same counter returned a different instrument")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering an existing name with a different kind did not panic")
		}
	}()
	reg.Gauge("pario_same_total", "h")
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram()
	// Bounds are MinBucket * 2^i. A value equal to a bound lands in
	// that bound's bucket; the next representable value above it lands
	// in the following bucket.
	h.Observe(MinBucket)     // bucket 0
	h.Observe(2 * MinBucket) // bucket 1 (== bounds[1])
	h.Observe(3 * MinBucket) // bucket 2 (between bounds[1] and bounds[2])
	h.Observe(1e9)           // far beyond the last bound: +Inf bucket
	if got := h.counts[0].Load(); got != 1 {
		t.Errorf("bucket 0 = %d, want 1", got)
	}
	if got := h.counts[1].Load(); got != 1 {
		t.Errorf("bucket 1 = %d, want 1", got)
	}
	if got := h.counts[2].Load(); got != 1 {
		t.Errorf("bucket 2 = %d, want 1", got)
	}
	if got := h.over.Load(); got != 1 {
		t.Errorf("+Inf bucket = %d, want 1", got)
	}
	if got := h.Count(); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
	if got := h.Max(); got != 1e9 {
		t.Errorf("max = %g, want 1e9", got)
	}
	// NaN and negatives clamp to zero, which lands in bucket 0.
	h.Observe(math.NaN())
	h.Observe(-1)
	if got := h.counts[0].Load(); got != 3 {
		t.Errorf("bucket 0 after NaN/negative = %d, want 3", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram()
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", q)
	}
	// 100 observations of ~1ms: the median must fall inside the bucket
	// containing 1ms.
	for i := 0; i < 100; i++ {
		h.Observe(1e-3)
	}
	q := h.Quantile(0.5)
	if q <= 0.5e-3 || q > 2.1e-3 {
		t.Fatalf("median = %g, want within the 1ms bucket", q)
	}
	if p0 := h.Quantile(-1); p0 < 0 {
		t.Fatalf("clamped quantile = %g, want >= 0", p0)
	}
	// q=1 interpolates to the containing bucket's upper bound, so it
	// may exceed the exact max but never the next power-of-two bound.
	if p100 := h.Quantile(2); p100 < h.Max() || p100 > 2*h.Max() {
		t.Fatalf("q=1 -> %g, want within [max, 2*max] = [%g, %g]", p100, h.Max(), 2*h.Max())
	}
}

func TestConcurrentRegistrationAndObservation(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				reg.Counter("pario_conc_total", "h").Inc()
				reg.CounterVec("pario_conc_vec_total", "h", "server").With(fmt.Sprintf("s%d", i%3)).Inc()
				reg.Histogram("pario_conc_seconds", "h").Observe(float64(i) * 1e-6)
				reg.GaugeVec("pario_conc_gauge", "h", "server").With("s0").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("pario_conc_total", "h").Value(); got != 1600 {
		t.Fatalf("concurrent counter = %d, want 1600", got)
	}
	if got := reg.Histogram("pario_conc_seconds", "h").Count(); got != 1600 {
		t.Fatalf("concurrent histogram count = %d, want 1600", got)
	}
	var total int64
	reg.CounterVec("pario_conc_vec_total", "h", "server").Each(func(lvs []string, c *Counter) {
		total += c.Value()
	})
	if total != 1600 {
		t.Fatalf("labeled counter sum = %d, want 1600", total)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pario_x_total", "a counter").Add(7)
	reg.GaugeVec("pario_x_gauge", "a gauge", "server").With("iod0").Set(1.5)
	reg.Histogram("pario_x_seconds", "a histogram").Observe(1e-3)
	reg.CounterFunc("pario_x_func", "a func metric", func() float64 { return 42 })

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP pario_x_total a counter",
		"# TYPE pario_x_total counter",
		"pario_x_total 7",
		`pario_x_gauge{server="iod0"} 1.5`,
		`pario_x_seconds_bucket{le="+Inf"} 1`,
		"pario_x_seconds_count 1",
		"pario_x_func 42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Buckets must be cumulative: the 1ms observation's bucket line and
	// the +Inf line both read 1.
	if !strings.Contains(out, `le="0.001024"`) && !strings.Contains(out, `le="0.001048576"`) {
		t.Errorf("exposition missing the bucket containing 1ms\n%s", out)
	}
}

func TestWritePrometheusPropagatesError(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pario_e_total", "h").Inc()
	if err := reg.WritePrometheus(failWriter{}); err == nil {
		t.Fatal("WritePrometheus on a failing writer returned nil")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("sink failed") }

func TestTracerRingBuffer(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Record(Span{SpanID: uint64(i + 1), Name: fmt.Sprintf("s%d", i)})
	}
	got := tr.Recent()
	if len(got) != 4 {
		t.Fatalf("Recent returned %d spans, want 4", len(got))
	}
	for i, s := range got {
		if want := fmt.Sprintf("s%d", i+2); s.Name != want {
			t.Fatalf("span %d = %q, want %q (oldest first)", i, s.Name, want)
		}
	}
}

func TestSpanParenting(t *testing.T) {
	tr := NewTracer(8)
	ctx, root := tr.Start(context.Background(), "read")
	_, child := tr.Start(ctx, "rpc:piece_read")
	child.SetServer("127.0.0.1:7001")
	child.AddBytes(4096)
	child.Finish(nil)
	root.AddBytes(4096)
	root.Finish(errors.New("short read"))

	spans := tr.Recent()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	c, r := spans[0], spans[1]
	if c.TraceID != r.TraceID {
		t.Fatalf("trace IDs differ: child %x root %x", c.TraceID, r.TraceID)
	}
	if c.Parent != r.SpanID {
		t.Fatalf("child parent = %x, want root span %x", c.Parent, r.SpanID)
	}
	if r.Parent != 0 {
		t.Fatalf("root parent = %x, want 0", r.Parent)
	}
	if c.Server != "127.0.0.1:7001" || c.Bytes != 4096 {
		t.Fatalf("child attribution = %+v", c)
	}
	if r.Err != "short read" {
		t.Fatalf("root err = %q, want %q", r.Err, "short read")
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.Start(context.Background(), "read")
	if sp != nil {
		t.Fatal("nil tracer returned a non-nil span")
	}
	if _, ok := SpanFromContext(ctx); ok {
		t.Fatal("nil tracer rebound the context")
	}
	sp.AddBytes(1)
	sp.SetServer("x")
	sp.Finish(nil)
	tr.Record(Span{})
	if got := tr.Recent(); got != nil {
		t.Fatalf("nil tracer Recent = %v, want nil", got)
	}
}

func TestDebugServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pario_dbg_total", "h").Add(3)
	tr := NewTracer(8)
	tr.Record(Span{TraceID: 1, SpanID: 2, Name: "read", Bytes: 128, Duration: time.Millisecond})

	dbg, err := StartDebug("127.0.0.1:0", reg, tr)
	if err != nil {
		t.Fatalf("StartDebug: %v", err)
	}
	defer dbg.Close()

	body, ctype := httpGet(t, "http://"+dbg.Addr()+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	if !strings.Contains(body, "pario_dbg_total 3") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	body, ctype = httpGet(t, "http://"+dbg.Addr()+"/debug/traces")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/debug/traces content type = %q", ctype)
	}
	var page struct {
		Spans []map[string]any `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatalf("/debug/traces is not JSON: %v\n%s", err, body)
	}
	if len(page.Spans) != 1 || page.Spans[0]["name"] != "read" {
		t.Fatalf("/debug/traces = %v", page.Spans)
	}

	if body, _ = httpGet(t, "http://"+dbg.Addr()+"/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline returned nothing")
	}
}

func httpGet(t *testing.T, url string) (body, contentType string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return string(b), resp.Header.Get("Content-Type")
}
