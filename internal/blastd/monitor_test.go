package blastd

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"pario/internal/telemetry"
	"pario/internal/tsdb"
)

func TestMonitorLifecycleAndAlertsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	degraded := reg.Counter("pario_ceft_degraded_writes_total", "Writes that lost their mirror copy.")
	srv, _, query := newTestServer(t, func(cfg *Config) {
		cfg.Registry = reg
		cfg.MonitorInterval = 10 * time.Millisecond
	})
	if srv.Monitor() == nil {
		t.Fatal("monitor not started")
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Keep searching over HTTP while CEFT writes lose their mirror
	// copy, until degraded_writes fires: the monitor samples and
	// evaluates while the server serves.
	reqBody, err := json.Marshal(&SearchRequest{
		DB: "nt", Query: ">" + query.ID + "\n" + string(query.Data), Client: "t",
	})
	if err != nil {
		t.Fatal(err)
	}
	degradedFiring := func() bool {
		for _, a := range srv.Monitor().Engine().Firing() {
			if a.Rule == "degraded_writes" {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(10 * time.Second)
	for !degradedFiring() {
		if time.Now().After(deadline) {
			t.Fatalf("degraded_writes never fired; alerts = %+v", srv.Alerts())
		}
		degraded.Inc()
		resp, err := ts.Client().Post(ts.URL+"/search", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("search status %d", resp.StatusCode)
		}
		time.Sleep(15 * time.Millisecond)
	}
	resp, err := ts.Client().Get(ts.URL + "/debug/alerts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Alerts []tsdb.Alert `json:"alerts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range body.Alerts {
		if a.Rule == "degraded_writes" && a.State == tsdb.StateFiring {
			found = true
		}
	}
	if !found {
		t.Fatalf("/debug/alerts missing firing degraded_writes rule: %+v", body.Alerts)
	}

	// Drain stops the collector; no monitor goroutine survives.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()
	if n := collectorGoroutines(5 * time.Second); n != 0 {
		t.Fatalf("%d collector goroutines still running 5s after Drain", n)
	}
}

// collectorFrame matches a stack frame of a tsdb.Collector method or
// of a goroutine one started.
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

func TestMonitorDisabledByDefault(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	if srv.Monitor() != nil {
		t.Fatal("monitor running without MonitorInterval")
	}
	if srv.Alerts() != nil {
		t.Fatal("alerts non-nil without monitor")
	}
}

// meters are the families the default rules read, registered before
// the first scrape so every series has a point to measure from.
type meters struct {
	depth              *telemetry.Gauge
	latency            *telemetry.Histogram
	rpcs               *telemetry.CounterVec
	hits, misses, degr *telemetry.Counter
}

// rpcs returns traffic adding a, b and c storage RPCs a second to
// servers iod0, iod1 and iod2.
func rpcs(a, b, c int64) func(*meters, int) {
	return func(m *meters, _ int) {
		m.rpcs.With("iod0").Add(a)
		m.rpcs.With("iod1").Add(b)
		m.rpcs.With("iod2").Add(c)
	}
}

// TestDefaultRules drives blastd's rule set with simulated traffic,
// scraped into a store once a second as the monitor's collector does.
// Ten seconds of each burst must fire exactly its rule, with the
// rule's value (and, for server_skew, the hot server); the idle row
// must raise nothing at all. A row with an after phase then runs forty
// more seconds of that traffic, under which the alert must resolve:
// for server_skew and cache_collapse the traffic stays skewed or
// missing but falls below the rule's activity gate, the path by which
// a firing alert resolves when load stops.
func TestDefaultRules(t *testing.T) {
	for _, tc := range []struct {
		name    string
		burst   func(m *meters, sec int)
		fires   string // the one alert after the burst; "" for none
		value   float64
		subject string
		after   func(m *meters, sec int) // nil: no resolve phase
	}{
		{name: "idle", burst: func(*meters, int) {}},
		{
			name:  "queue_growing",
			burst: func(m *meters, sec int) { m.depth.Set(float64(sec)) },
			fires: "queue_growing", value: 9,
			after: func(m *meters, _ int) { m.depth.Set(0) },
		},
		{
			name: "slo_burn",
			burst: func(m *meters, _ int) {
				for _, v := range []float64{0.1, 0.1, 0.1, 0.1, 3} {
					m.latency.Observe(v)
				}
			},
			fires: "slo_burn", value: 0.2,
		},
		{
			name:  "server_skew",
			burst: rpcs(30, 10, 10),
			fires: "server_skew", value: 1.8, subject: "iod0",
			after: rpcs(4, 1, 1),
		},
		{
			name: "cache_collapse",
			burst: func(m *meters, _ int) {
				m.hits.Add(1)
				m.misses.Add(19)
			},
			fires: "cache_collapse", value: 0.05,
			after: func(m *meters, sec int) {
				if sec%2 == 0 {
					m.misses.Inc()
				}
			},
		},
		{
			name: "degraded_writes",
			burst: func(m *meters, sec int) {
				if sec == 5 {
					m.degr.Inc()
				}
			},
			fires: "degraded_writes", value: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			m := &meters{
				depth:   reg.Gauge("pario_blastd_queue_depth", ""),
				latency: reg.Histogram("pario_blastd_request_seconds", ""),
				rpcs:    reg.CounterVec("pario_rpc_calls_total", "", "server"),
				hits:    reg.Counter("pario_blastd_cache_hits_total", ""),
				misses:  reg.Counter("pario_blastd_cache_misses_total", ""),
				degr:    reg.Counter("pario_ceft_degraded_writes_total", ""),
			}
			st := tsdb.NewStore(0)
			e := tsdb.NewEngine(st, defaultRules, nil)
			t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
			sec := 0
			run := func(secs int, traffic func(*meters, int)) {
				for end := sec + secs; sec < end; sec++ {
					traffic(m, sec)
					now := t0.Add(time.Duration(sec) * time.Second)
					st.Append(now, reg.Snapshot(), nil)
					e.Eval(now)
				}
			}

			run(10, tc.burst)
			alerts := e.Alerts()
			if tc.fires == "" {
				if len(alerts) != 0 {
					t.Fatalf("alerts = %+v; want none", alerts)
				}
				return
			}
			if len(alerts) != 1 || alerts[0].Rule != tc.fires || alerts[0].State != tsdb.StateFiring {
				t.Fatalf("alerts = %+v; want %s firing alone", alerts, tc.fires)
			}
			if a := alerts[0]; math.Abs(a.Value-tc.value) > 1e-9 || a.Subject != tc.subject {
				t.Fatalf("%s: value %v subject %q; want %v %q", tc.fires, a.Value, a.Subject, tc.value, tc.subject)
			}
			if tc.after == nil {
				return
			}
			run(40, tc.after)
			if alerts := e.Alerts(); len(alerts) != 1 || alerts[0].State != tsdb.StateResolved {
				t.Fatalf("after the burst: alerts = %+v; want %s resolved", alerts, tc.fires)
			}
		})
	}
}
