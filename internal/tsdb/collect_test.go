package tsdb

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pario/internal/telemetry"
)

// checkNoGoroutineLeak fails the test if the goroutine count has not
// returned to its baseline. HTTP client keep-alives and the runtime
// need a moment to wind down, so the check retries briefly before
// judging.
func checkNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	var n int
	for {
		runtime.GC()
		n = runtime.NumGoroutine()
		if n <= baseline || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n > baseline {
		buf := make([]byte, 1<<16)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("goroutine leak: %d > baseline %d\n%s", n, baseline, buf)
	}
}

func TestCollectorScrapesTargets(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "pario_test_requests_total{op=\"read\"} %d\n", calls.Add(100))
	}))
	defer srv.Close()

	st := NewStore(0)
	c := NewCollector(st, time.Second, WithTargets(telemetry.Target{Name: "iod0", Addr: srv.URL}))
	ctx := context.Background()
	c.CollectOnce(ctx)
	time.Sleep(20 * time.Millisecond) // distinct timestamps for the rate
	c.CollectOnce(ctx)

	series := st.Select("pario_test_requests_total", nil)
	if len(series) != 1 {
		t.Fatalf("series = %+v", series)
	}
	if got := series[0].Label(InstanceLabel); got != "iod0" {
		t.Fatalf("instance label = %q", got)
	}
	if got := series[0].Label("op"); got != "read" {
		t.Fatalf("op label = %q", got)
	}
	if len(series[0].Points) != 2 {
		t.Fatalf("points = %+v", series[0].Points)
	}
	rate, ok := st.Rate("pario_test_requests_total", nil, time.Now(), time.Minute)
	if !ok || rate <= 0 {
		t.Fatalf("rate = %v, %v; want > 0", rate, ok)
	}
	if err := c.TargetErr("iod0"); err != nil {
		t.Fatalf("target err: %v", err)
	}
}

func TestCollectorLocalRegistryAndEngine(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := reg.Gauge("pario_test_gauge", "x")
	g.Set(42)
	rules := []Rule{{Name: "high", Eval: latest("pario_test_gauge"), Op: ">", Threshold: 10}}
	st := NewStore(0)
	engine := NewEngine(st, rules, nil)
	c := NewCollector(st, time.Second, WithRegistry(reg), WithEngine(engine))
	c.CollectOnce(context.Background())

	if v, ok := st.Latest("pario_test_gauge", nil); !ok || v != 42 {
		t.Fatalf("latest = %v, %v", v, ok)
	}
	// The engine ran as part of the pass.
	if f := c.Engine().Firing(); len(f) != 1 || f[0].Rule != "high" {
		t.Fatalf("alerts = %+v", engine.Alerts())
	}
}

// TestLocalAndScrapedSeriesIdentical: a collector sampling a registry
// in-process and one scraping the same registry over HTTP must store
// the same series with the same values — only the instance label the
// scraper stamps tells them apart.
func TestLocalAndScrapedSeriesIdentical(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("pario_test_total", "c").Add(7)
	reg.GaugeVec("pario_test_inflight", "g", "client").With("a\x01b \"q\"\n").Set(1.5)
	reg.GaugeFunc("pario_test_func", "f", func() float64 { return 1234567 })
	h := reg.HistogramVec("pario_test_seconds", "h", "server", "op").With("iod0", "read")
	h.Observe(0.002)
	h.ObserveExemplar(3, 0xbeef)
	srv := httptest.NewServer(telemetry.MetricsHandler(reg))
	defer srv.Close()

	local, scraped := NewStore(0), NewStore(0)
	NewCollector(local, time.Second, WithRegistry(reg)).CollectOnce(context.Background())
	c := NewCollector(scraped, time.Second, WithTargets(telemetry.Target{Name: "p", Addr: srv.URL}))
	c.CollectOnce(context.Background())
	if err := c.TargetErr("p"); err != nil {
		t.Fatal(err)
	}

	type row struct {
		key string
		v   float64
	}
	dump := func(st *Store) []row {
		st.mu.RLock()
		defer st.mu.RUnlock()
		var out []row
		for _, s := range st.series {
			labels := map[string]string{}
			for k, v := range s.labels {
				if k != InstanceLabel {
					labels[k] = v
				} else if v != "p" {
					t.Errorf("instance label = %q", v)
				}
			}
			out = append(out, row{seriesKey(s.name, labels), s.points()[0].V})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
		return out
	}
	l, s := dump(local), dump(scraped)
	if len(l) != 8 { // counter, gauge, func, 3 buckets, sum, count
		t.Fatalf("only %d local series: %+v", len(l), l)
	}
	if !reflect.DeepEqual(l, s) {
		t.Errorf("series differ:\nlocal   %+v\nscraped %+v", l, s)
	}
}

func TestCollectorRecordsScrapeErrors(t *testing.T) {
	st := NewStore(0)
	c := NewCollector(st, time.Second,
		WithTargets(telemetry.Target{Name: "dead", Addr: "127.0.0.1:1"}))
	c.CollectOnce(context.Background())
	if err := c.TargetErr("dead"); err == nil {
		t.Fatal("no error recorded for unreachable target")
	}
}

func TestCollectorStartStopNoLeak(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Gauge("pario_test_gauge", "x").Set(1)
	c := NewCollector(NewStore(0), 5*time.Millisecond, WithRegistry(reg))
	c.Start(context.Background())
	time.Sleep(30 * time.Millisecond)
	c.Stop()
	if n := c.Store().SeriesCount(); n == 0 {
		t.Fatal("loop never sampled")
	}
	// Stop is idempotent and must not hang or panic.
	c.Stop()
	if n := collectorGoroutines(5 * time.Second); n != 0 {
		t.Fatalf("%d collector goroutines still running 5s after Stop", n)
	}
}

func TestCollectorStopBeforeStart(t *testing.T) {
	c := NewCollector(NewStore(0), time.Second)
	c.Stop()
	// A Start after Stop must not launch the loop.
	c.Start(context.Background())
	if n := collectorGoroutines(5 * time.Second); n != 0 {
		t.Fatalf("Start after Stop left %d collector goroutines running", n)
	}
}

// collectorFrame matches a stack frame of a Collector method or of a
// goroutine one started.
var collectorFrame = regexp.MustCompile(`tsdb\.\(\*Collector\)`)

// collectorGoroutines waits up to limit for every goroutine with a
// Collector frame on its stack to exit, and returns how many remain.
// Only the collector's own goroutines count, so no other test's or the
// runtime's goroutines can read as a leak.
func collectorGoroutines(limit time.Duration) int {
	buf := make([]byte, 1<<16)
	for deadline := time.Now().Add(limit); ; time.Sleep(time.Millisecond) {
		n := runtime.Stack(buf, true)
		if n == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		count := 0
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if collectorFrame.MatchString(g) {
				count++
			}
		}
		if count == 0 || time.Now().After(deadline) {
			return count
		}
	}
}

func TestDebugServerShutdownNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	reg := telemetry.NewRegistry()
	reg.Gauge("pario_test_gauge", "x").Set(7)
	dbg, err := telemetry.StartDebug("127.0.0.1:0", reg, telemetry.NewTracer(0))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + dbg.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := dbg.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	http.DefaultClient.CloseIdleConnections()
	checkNoGoroutineLeak(t, baseline)
}
