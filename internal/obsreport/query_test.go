package obsreport

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pario/internal/telemetry"
)

// querySpans builds the canonical traced-query shape: request > queue +
// cache > task > search > serve, split across two processes.
func querySpans(trace uint64) ([]SpanRecord, []SpanRecord) {
	blastd := []SpanRecord{
		span(trace, 1, 0, "request", "blastd", t0, 20*time.Millisecond, 0),
		span(trace, 2, 1, "queue", "blastd", t0, 2*time.Millisecond, 0),
		span(trace, 3, 1, "cache", "blastd", t0.Add(2*time.Millisecond), 17*time.Millisecond, 0),
		span(trace, 4, 3, "task", "blastd", t0.Add(3*time.Millisecond), 8*time.Millisecond, 0),
		span(trace, 5, 4, "search", "blastd", t0.Add(3*time.Millisecond), 7*time.Millisecond, 0),
	}
	iod := []SpanRecord{
		span(trace, 6, 5, "serve:piece_readv", "iod0", t0.Add(4*time.Millisecond), 2*time.Millisecond, 4096),
	}
	return blastd, iod
}

func tracesServer(t *testing.T, spans []SpanRecord) *httptest.Server {
	t.Helper()
	tr := telemetry.NewTracer(64)
	for _, sp := range spans {
		s := sp.Span
		s.Server = sp.Process
		tr.Record(s)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/traces", telemetry.TracesHandler(tr))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestFetchAndAssembleQuery(t *testing.T) {
	const trace = 0xabcdef12
	blastdSpans, iodSpans := querySpans(trace)
	// The blastd target also holds spans from another trace that the
	// ?trace= filter must drop.
	noisy := append([]SpanRecord{span(0x999, 50, 0, "request", "blastd", t0, time.Millisecond, 0)}, blastdSpans...)
	ts1 := tracesServer(t, noisy)
	ts2 := tracesServer(t, iodSpans)

	targets := []telemetry.Target{
		{Name: "blastd", Addr: strings.TrimPrefix(ts1.URL, "http://")},
		{Name: "iod0", Addr: strings.TrimPrefix(ts2.URL, "http://")},
		{Name: "dead", Addr: "127.0.0.1:1"}, // unreachable: warning, not failure
	}
	spans, errs := FetchTraceSpans(context.Background(), targets, trace)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "dead") {
		t.Fatalf("errs = %v", errs)
	}
	if len(spans) != 6 {
		t.Fatalf("fetched %d spans, want 6", len(spans))
	}
	for _, sp := range spans {
		if sp.TraceID != trace {
			t.Fatalf("foreign span fetched: %+v", sp)
		}
	}

	tree := AssembleQuery(trace, spans)
	if tree == nil {
		t.Fatal("AssembleQuery returned nil")
	}
	if tree.Spans != 6 || tree.Orphans != 0 || tree.Duplicates != 0 {
		t.Fatalf("tree counts = %+v", tree)
	}
	if len(tree.Roots) != 1 || tree.Roots[0].Span.Name != "request" {
		t.Fatalf("roots = %+v", tree.Roots)
	}
	if AssembleQuery(trace, nil) != nil {
		t.Fatal("AssembleQuery of no spans should be nil")
	}
}

func TestQueryPhases(t *testing.T) {
	const trace = 0x77
	blastdSpans, iodSpans := querySpans(trace)
	tree := AssembleQuery(trace, append(blastdSpans, iodSpans...))
	phases := QueryPhases(tree)
	got := map[string]QueryPhase{}
	for _, p := range phases {
		got[p.Name] = p
	}
	for _, want := range []string{"request", "queue", "cache", "task", "search", "server"} {
		if got[want].Spans == 0 {
			t.Errorf("phase %q missing: %+v", want, phases)
		}
	}
	if got["server"].Bytes != 4096 {
		t.Errorf("server phase bytes = %d", got["server"].Bytes)
	}
	if got["queue"].Seconds <= 0 || got["task"].Seconds <= 0 {
		t.Errorf("phase seconds not summed: %+v", phases)
	}
	// Phases follow the query's own lifecycle order, not alphabetical.
	if len(phases) >= 2 && (phases[0].Name != "request" || phases[1].Name != "queue") {
		t.Errorf("phase order = %+v", phases)
	}
}

func TestRenderQueryTimeline(t *testing.T) {
	const trace = 0x4a1f
	blastdSpans, iodSpans := querySpans(trace)
	tree := AssembleQuery(trace, append(blastdSpans, iodSpans...))

	var b strings.Builder
	RenderQuery(&b, tree)
	out := b.String()
	if !strings.Contains(out, fmt.Sprintf("%016x", uint64(trace))) {
		t.Errorf("render lacks trace ID:\n%s", out)
	}
	for _, want := range []string{"request", "queue", "cache", "task", "search", "serve:piece_readv", "iod0", "Phases"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	// Every span row carries a gantt bar.
	if strings.Count(out, "|") < 12 { // 6 spans x 2 bar edges
		t.Errorf("gantt bars missing:\n%s", out)
	}
}

func TestParseTracesAttrsRoundTrip(t *testing.T) {
	tr := telemetry.NewTracer(8)
	tr.Record(telemetry.Span{
		TraceID: 5, SpanID: 1, Name: "queue",
		Attrs: map[string]string{"priority": "2", "depth": "9"},
	})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/traces", telemetry.TracesHandler(tr))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	spans, errs := FetchTraceSpans(context.Background(),
		[]telemetry.Target{{Name: "p", Addr: strings.TrimPrefix(ts.URL, "http://")}}, 5)
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	if len(spans) != 1 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Attrs["priority"] != "2" || spans[0].Attrs["depth"] != "9" {
		t.Fatalf("attrs lost in scrape: %+v", spans[0])
	}
}
