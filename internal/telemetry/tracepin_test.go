package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestSpanAttrs(t *testing.T) {
	tr := NewTracer(4)
	_, sp := tr.Start(context.Background(), "queue")
	sp.SetAttr("priority", "2")
	sp.SetAttr("depth", "7")
	sp.Finish(nil)
	got := tr.Recent()
	if len(got) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(got))
	}
	if got[0].Attrs["priority"] != "2" || got[0].Attrs["depth"] != "7" {
		t.Fatalf("attrs = %v", got[0].Attrs)
	}

	var nilSpan *ActiveSpan
	nilSpan.SetAttr("k", "v") // must not panic
}

func TestPinTraceSurvivesRingEviction(t *testing.T) {
	tr := NewTracer(4)
	tr.Record(Span{TraceID: 7, SpanID: 1, Name: "queue"})
	tr.Record(Span{TraceID: 7, SpanID: 2, Name: "task"})
	tr.PinTrace(7)
	// Flood the ring so trace 7 would normally be evicted.
	for i := 0; i < 10; i++ {
		tr.Record(Span{TraceID: 99, SpanID: uint64(100 + i), Name: "noise"})
	}
	got := tr.TraceSpans(7)
	if len(got) != 2 {
		t.Fatalf("pinned trace has %d spans, want 2: %v", len(got), got)
	}
	// Spans recorded after pinning still land in the pinned set.
	tr.Record(Span{TraceID: 7, SpanID: 3, Name: "request"})
	if got = tr.TraceSpans(7); len(got) != 3 {
		t.Fatalf("pinned trace after late record has %d spans, want 3", len(got))
	}
}

func TestTraceSpansUnpinnedFallsBackToRing(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(Span{TraceID: 5, SpanID: 1, Name: "a"})
	tr.Record(Span{TraceID: 6, SpanID: 2, Name: "b"})
	got := tr.TraceSpans(5)
	if len(got) != 1 || got[0].Name != "a" {
		t.Fatalf("ring filter = %v", got)
	}
	if got := tr.TraceSpans(12345); len(got) != 0 {
		t.Fatalf("unknown trace returned %v", got)
	}
}

func TestPinTraceEvictsOldestPin(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < MaxPinnedTraces+2; i++ {
		id := uint64(i + 1)
		tr.Record(Span{TraceID: id, SpanID: id, Name: "s"})
		tr.PinTrace(id)
	}
	// The two oldest pins fell off; their spans are gone once the ring
	// has also moved on.
	for i := 0; i < DefaultSpanBuffer; i++ {
		tr.Record(Span{TraceID: 9999, SpanID: uint64(i), Name: "noise"})
	}
	if got := tr.TraceSpans(1); len(got) != 0 {
		t.Fatalf("evicted pin still returned %v", got)
	}
	if got := tr.TraceSpans(MaxPinnedTraces + 2); len(got) != 1 {
		t.Fatalf("latest pin lost: %v", got)
	}

	var nilTr *Tracer
	nilTr.PinTrace(1) // must not panic
	if got := nilTr.TraceSpans(1); got != nil {
		t.Fatalf("nil tracer TraceSpans = %v", got)
	}
}

func TestTracesHandlerFilters(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(Span{TraceID: 0xabc, SpanID: 1, Name: "request", Duration: time.Millisecond})
	tr.Record(Span{TraceID: 0xdef, SpanID: 2, Name: "queue", Attrs: map[string]string{"depth": "3"}})
	tr.Record(Span{TraceID: 0xdef, SpanID: 3, Name: "task"})
	h := TracesHandler(tr)

	decode := func(target string) []map[string]any {
		t.Helper()
		req := httptest.NewRequest("GET", target, nil)
		rec := httptest.NewRecorder()
		h(rec, req)
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d: %s", target, rec.Code, rec.Body.String())
		}
		var page struct {
			Spans []map[string]any `json:"spans"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", target, err)
		}
		return page.Spans
	}

	if spans := decode("/debug/traces"); len(spans) != 3 {
		t.Fatalf("unfiltered = %d spans, want 3", len(spans))
	}
	spans := decode("/debug/traces?trace=" + fmt.Sprintf("%016x", 0xdef))
	if len(spans) != 2 || spans[0]["name"] != "queue" {
		t.Fatalf("?trace= filter = %v", spans)
	}
	if attrs, ok := spans[0]["attrs"].(map[string]any); !ok || attrs["depth"] != "3" {
		t.Fatalf("attrs not exposed: %v", spans[0])
	}
	if spans := decode("/debug/traces?limit=1"); len(spans) != 1 || spans[0]["name"] != "task" {
		t.Fatalf("?limit= filter = %v", spans)
	}

	req := httptest.NewRequest("GET", "/debug/traces?trace=nothex", nil)
	rec := httptest.NewRecorder()
	h(rec, req)
	if rec.Code != 400 {
		t.Fatalf("bad trace param: status %d, want 400", rec.Code)
	}
}

func TestHistogramExemplarExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("pario_ex_seconds", "test latency")
	h.Observe(0.0001) // no exemplar on this one
	h.ObserveExemplar(0.003, 0xdeadbeef)
	h.ObserveExemplar(1e12, 0x77) // lands in the +Inf bucket

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	want := fmt.Sprintf(`# {trace_id="%016x"} 0.003`, uint64(0xdeadbeef))
	if !strings.Contains(out, want) {
		t.Fatalf("exposition missing exemplar %q:\n%s", want, out)
	}
	if !strings.Contains(out, fmt.Sprintf(`trace_id="%016x"`, uint64(0x77))) {
		t.Fatalf("+Inf exemplar missing:\n%s", out)
	}

	if n := exemplarCount(reg, "pario_ex_seconds_bucket"); n != 2 {
		t.Fatalf("%d exemplars sampled, want 2", n)
	}

	// A zero trace ID records the observation but no exemplar.
	h2 := reg.Histogram("pario_ex2_seconds", "no trace")
	h2.ObserveExemplar(0.5, 0)
	if n := exemplarCount(reg, "pario_ex2_seconds_bucket"); n != 0 {
		t.Fatalf("zero-trace exemplar stored: %d sampled", n)
	}
	if got := h2.Count(); got != 1 {
		t.Fatalf("observation lost: count = %d", got)
	}
}

func exemplarCount(reg *Registry, name string) int {
	n := 0
	for _, s := range reg.Snapshot() {
		if s.Name == name && s.Exemplar != nil {
			n++
		}
	}
	return n
}

func TestParseTargets(t *testing.T) {
	targets, err := ParseTargets("blastd=localhost:7044,iod0=http://localhost:9101/")
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 2 || targets[0].Name != "blastd" || targets[1].Name != "iod0" {
		t.Fatalf("targets = %+v", targets)
	}
	if got := targets[0].URL("/metrics"); got != "http://localhost:7044/metrics" {
		t.Fatalf("host:port URL = %q", got)
	}
	if got := targets[1].URL("/metrics"); got != "http://localhost:9101/metrics" {
		t.Fatalf("full-URL URL = %q", got)
	}
	// A bare address is named by its address.
	targets, err = ParseTargets("localhost:7044, localhost:9101")
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 2 || targets[0].Name != "localhost:7044" || targets[1].Addr != "localhost:9101" {
		t.Fatalf("bare addresses = %+v", targets)
	}
	if targets, err := ParseTargets(" "); err != nil || len(targets) != 0 {
		t.Fatalf("empty spec = %+v, %v", targets, err)
	}
	if _, err := ParseTargets("blastd=,iod0=:9101"); err == nil {
		t.Fatal("empty address accepted")
	}
}
