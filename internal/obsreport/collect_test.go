package obsreport

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"pario/internal/telemetry"
)

func TestParsePrometheus(t *testing.T) {
	page := `# HELP pario_iod_load Smoothed load.
# TYPE pario_iod_load gauge
pario_iod_load{server="iod0"} 2.5
pario_iod_bytes_served_total{server="iod0"} 4096
pario_server_requests_total{server="iod0",op="piece_readv",outcome="ok"} 7
pario_iod_queue_wait_seconds_sum{server="iod0"} 0.125
pario_pblast_tasks_completed_total 12
odd_label{msg="a \"quoted\" value, with comma"} 1
`
	samples, err := telemetry.ParseText(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 6 {
		t.Fatalf("samples: %d", len(samples))
	}
	snap := Snapshot{Samples: samples}
	if v := snap.Sum("pario_iod_load", map[string]string{"server": "iod0"}); v != 2.5 {
		t.Errorf("load: %g", v)
	}
	if v := snap.Sum("pario_pblast_tasks_completed_total", nil); v != 12 {
		t.Errorf("unlabeled counter: %g", v)
	}
	per := snap.PerLabel("pario_server_requests_total", "server")
	if per["iod0"] != 7 {
		t.Errorf("per-label fold: %+v", per)
	}
	var quoted *Sample
	for i := range samples {
		if samples[i].Name == "odd_label" {
			quoted = &samples[i]
		}
	}
	if quoted == nil || quoted.Labels["msg"] != `a "quoted" value, with comma` {
		t.Errorf("escaped label: %+v", quoted)
	}
}

// TestScrapeRoundtrip runs a real debug endpoint and checks that what
// went into the registry and tracer comes back out of RemoteSnapshot
// intact — IDs, parents, durations, bytes.
func TestScrapeRoundtrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)
	reg.CounterVec("pario_iod_bytes_served_total", "bytes", "server").With("iod0").Add(12345)
	want := telemetry.Span{
		TraceID: 0xabc, SpanID: 0xdef, Parent: 0x123,
		Name: "rpc:piece_readv", Server: "127.0.0.1:7001",
		Start: time.Now().UTC(), Duration: 1500 * time.Microsecond, Bytes: 512,
		Err: "deadline exceeded",
	}
	tracer.Record(want)

	dbg, err := telemetry.StartDebug("127.0.0.1:0", reg, tracer)
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()

	snap := RemoteSnapshot(context.Background(), telemetry.Target{Name: "iod0", Addr: dbg.Addr()})
	if snap.Err != nil {
		t.Fatal(snap.Err)
	}
	if v := snap.Sum("pario_iod_bytes_served_total", map[string]string{"server": "iod0"}); v != 12345 {
		t.Errorf("scraped bytes: %g", v)
	}
	if len(snap.Spans) != 1 {
		t.Fatalf("spans: %d", len(snap.Spans))
	}
	got := snap.Spans[0]
	if got.Process != "iod0" {
		t.Errorf("process: %s", got.Process)
	}
	if got.TraceID != want.TraceID || got.SpanID != want.SpanID || got.Parent != want.Parent {
		t.Errorf("IDs: %+v", got.Span)
	}
	if got.Name != want.Name || got.Server != want.Server || got.Bytes != want.Bytes || got.Err != want.Err {
		t.Errorf("attributes: %+v", got.Span)
	}
	if got.Duration != want.Duration {
		t.Errorf("duration: %v", got.Duration)
	}
}

// TestScrapeFailure: an unreachable endpoint degrades into Snapshot.Err
// and a report that still builds.
func TestScrapeFailure(t *testing.T) {
	snap := RemoteSnapshot(context.Background(), telemetry.Target{Name: "gone", Addr: "127.0.0.1:1"})
	if snap.Err == nil {
		t.Fatal("no error scraping a closed port")
	}
	b := NewBuilder("t")
	b.AddSnapshot(snap)
	rep := b.Build()
	if len(rep.Processes) != 1 || rep.Processes[0].Err == "" {
		t.Errorf("failure not recorded: %+v", rep.Processes)
	}
}

// TestLocalSnapshotMatchesScrape: the in-process path (typed registry
// snapshot, tracer ring) and the HTTP path (text and JSON over the
// wire, decoded back) must be indistinguishable — same samples, same
// spans, and so the same report — for a registry holding every
// instrument kind and label values that need escaping.
func TestLocalSnapshotMatchesScrape(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)
	reg.Counter("pario_pblast_tasks_completed_total", "tasks").Add(3)
	reg.CounterVec("pario_iod_bytes_served_total", "bytes", "server").With("iod0").Add(4096)
	reg.CounterVec("pario_iod_bytes_served_total", "bytes", "server").With("iod1").Add(1024)
	reg.CounterVec("pario_server_requests_total", "reqs", "server", "op", "outcome").With("iod0", "list_read", "ok").Add(9)
	reg.GaugeVec("pario_iod_load", "load", "server").With("iod0").Set(2.5)
	reg.GaugeVec("pario_blastd_client_inflight", "inflight", "client").With("bad\xffutf \"q\"\n\x01").Set(1)
	reg.GaugeFunc("pario_process_start_time_seconds", "start", func() float64 { return 1.7e9 + 0.125 })
	h := reg.HistogramVec("pario_iod_queue_wait_seconds", "wait", "server").With("iod0")
	h.Observe(0.004)
	h.ObserveExemplar(0.25, 0xfeed)
	reg.Counter("pario_blast_scanned_bases_total", "bases").Add(1 << 40)
	reg.Counter("pario_collio_rounds_total", "rounds").Add(2)

	start := time.Now().UTC().Truncate(time.Microsecond)
	tracer.Record(telemetry.Span{TraceID: 1, SpanID: 2, Name: "read", Start: start, Duration: 3 * time.Millisecond, Bytes: 4096})
	tracer.Record(telemetry.Span{TraceID: 1, SpanID: 3, Parent: 2, Name: "rpc:list_read", Server: "127.0.0.1:7001",
		Start: start, Duration: 2 * time.Millisecond, Bytes: 4096, Err: "timeout",
		Attrs: map[string]string{"attempt": "2"}})
	tracer.Record(telemetry.Span{TraceID: 1, SpanID: 4, Parent: 3, Name: "serve:list_read", Server: "iod0", Start: start, Duration: time.Millisecond})

	ts := httptest.NewServer(debugMux(reg, tracer))
	defer ts.Close()

	local := LocalSnapshot("p", reg, tracer)
	scraped := RemoteSnapshot(context.Background(), telemetry.Target{Name: "p", Addr: ts.URL})
	if local.Err != nil || scraped.Err != nil {
		t.Fatalf("local err %v, scraped err %v", local.Err, scraped.Err)
	}
	if !reflect.DeepEqual(local.Samples, scraped.Samples) {
		t.Errorf("samples differ:\nlocal   %+v\nscraped %+v", local.Samples, scraped.Samples)
	}
	if !reflect.DeepEqual(local.Spans, scraped.Spans) {
		t.Errorf("spans differ:\nlocal   %+v\nscraped %+v", local.Spans, scraped.Spans)
	}

	build := func(s Snapshot) *Report {
		b := NewBuilder("t")
		b.AddSnapshot(s)
		rep := b.Build()
		rep.GeneratedAt = time.Time{}
		rep.Processes = nil // names the source, the one intended difference
		return rep
	}
	if l, s := build(local), build(scraped); !reflect.DeepEqual(l, s) {
		t.Errorf("reports differ:\nlocal   %+v\nscraped %+v", l, s)
	} else if l.SearchKernel.ScannedBases != 1<<40 || len(l.Servers) != 2 || l.CriticalPath.RPCSeconds == 0 {
		t.Errorf("derived sections empty: %+v", l)
	}
}

// debugMux serves reg and tr the way every daemon does.
func debugMux(reg *telemetry.Registry, tr *telemetry.Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", telemetry.MetricsHandler(reg))
	mux.HandleFunc("/debug/traces", telemetry.TracesHandler(tr))
	return mux
}
