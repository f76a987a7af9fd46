package tsdb_test

import (
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"pario/internal/blastd"
	"pario/internal/telemetry"
	"pario/internal/tsdb"
)

// fuzzStore holds ten seconds of the series the default rules read: a
// rising gauge, per-server counters, a hit/miss pair and a latency
// histogram, scraped once a second the way the collector scrapes.
func fuzzStore(t0 time.Time) *tsdb.Store {
	reg := telemetry.NewRegistry()
	depth := reg.Gauge("pario_blastd_queue_depth", "queue depth")
	calls := reg.CounterVec("pario_rpc_calls_total", "rpcs", "server")
	hits := reg.Counter("pario_blastd_cache_hits_total", "hits")
	misses := reg.Counter("pario_blastd_cache_misses_total", "misses")
	degraded := reg.Counter("pario_ceft_degraded_writes_total", "degraded")
	lat := reg.Histogram("pario_blastd_request_seconds", "latency")
	st := tsdb.NewStore(0)
	for i := 0; i <= 10; i++ {
		depth.Set(float64(i))
		calls.With("iod0").Add(30)
		calls.With("iod1").Add(10)
		hits.Add(1)
		misses.Add(9)
		if i%4 == 0 {
			degraded.Inc()
		}
		lat.Observe(0.1 * float64(i))
		st.Append(t0.Add(time.Duration(i)*time.Second), reg.Snapshot(), nil)
	}
	return st
}

// FuzzParseRules feeds arbitrary text to the alert-rule parser, seeded
// with blastd's default rules and a quantile rule of each spelling.
// ParseRules must return an error or a rule set, never panic, and every
// rule set it accepts must evaluate over a populated store, through
// pending, firing and resolved, and read back without a panic.
func FuzzParseRules(f *testing.F) {
	for _, line := range strings.Split(blastd.DefaultAlertRules, "\n") {
		if line != "" {
			f.Add(line)
		}
	}
	f.Add(blastd.DefaultAlertRules)
	f.Add(`p: p99(pario_blastd_request_seconds) > 0.5 window 5s for 2`)
	f.Add(`q: quantile(0.75, pario_blastd_request_seconds{instance="blastd"}) <= 1`)
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	st := fuzzStore(t0)
	quiet := tsdb.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	f.Fuzz(func(t *testing.T, text string) {
		rules, err := tsdb.ParseRules(text)
		if err != nil {
			return
		}
		e := tsdb.NewEngine(st, rules, tsdb.WithWindow(5*time.Second), quiet)
		for _, at := range []time.Duration{8, 9, 10, 60} {
			e.Eval(t0.Add(at * time.Second))
		}
		names := make(map[string]bool, len(rules))
		for _, r := range rules {
			names[r.Name] = true
		}
		for _, a := range e.Alerts() {
			if !names[a.Rule] {
				t.Fatalf("alert %+v names no rule in %q", a, text)
			}
		}
	})
}
