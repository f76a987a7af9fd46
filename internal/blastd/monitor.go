package blastd

import (
	"context"
	"log/slog"
	"time"

	"pario/internal/tsdb"
	"pario/internal/util"
)

// The in-process monitor: a tsdb collector sampling the server's own
// registry on a fixed interval, with an alert engine evaluating the
// default SLO rules after every tick. The history and alert state feed
// /debug/alerts and pariotop; firing/resolved transitions land in the
// service log.

// defaultRules is the rule set every monitored blastd evaluates.
//
//   - queue_growing: admission queue depth rising on at least four
//     consecutive samples — demand outrunning the worker pool.
//   - slo_burn: more than 10% of the window's searches slower than
//     the 2-second latency objective.
//   - server_skew: per-server storage RPC rates diverging (hottest
//     server beyond 1.75x the mean, with at least 5 RPC/s mean so idle
//     clusters never alert) — the paper's hot-server signature.
//   - cache_collapse: result-cache hit ratio below 10% under real
//     traffic (at least 1 lookup/s) — version churn or a worthless
//     cache.
//   - degraded_writes: any CEFT write that lost its mirror copy.
//
// The two activity gates make their rules non-evaluable when load
// stops, which is how a firing skew or collapse alert resolves.
var defaultRules = []tsdb.Rule{
	{
		Name: "queue_growing", Op: ">=", Threshold: 4, For: 2,
		Eval: func(st *tsdb.Store, _ time.Time, _ time.Duration) (v float64, _ string, ok bool) {
			for _, s := range st.Select("pario_blastd_queue_depth", nil) {
				if g := float64(s.Growth()); !ok || g > v {
					v, ok = g, true
				}
			}
			return v, "", ok
		},
	},
	{
		Name: "slo_burn", Op: ">", Threshold: 0.10, For: 2, Window: 30 * time.Second,
		Eval: func(st *tsdb.Store, now time.Time, window time.Duration) (float64, string, bool) {
			v, ok := st.BurnOverTime("pario_blastd_request_seconds", nil, 2.0, now, window)
			return v, "", ok
		},
	},
	{
		Name: "server_skew", Op: ">", Threshold: 1.75, For: 2, Window: 10 * time.Second,
		Eval: func(st *tsdb.Store, now time.Time, window time.Duration) (float64, string, bool) {
			rates := st.RateBy("pario_rpc_calls_total", "server", nil, now, window)
			if len(rates) < 2 {
				return 0, "", false
			}
			peak, hot, mean := util.Spread(rates)
			if mean < 5 {
				return 0, "", false
			}
			return peak / mean, hot, true
		},
	},
	{
		Name: "cache_collapse", Op: "<", Threshold: 0.10, For: 3, Window: 30 * time.Second,
		Eval: func(st *tsdb.Store, now time.Time, window time.Duration) (float64, string, bool) {
			hits, _ := st.Rate("pario_blastd_cache_hits_total", nil, now, window)
			misses, _ := st.Rate("pario_blastd_cache_misses_total", nil, now, window)
			if hits+misses < 1 {
				return 0, "", false
			}
			return hits / (hits + misses), "", true
		},
	},
	{
		Name: "degraded_writes", Op: ">", Threshold: 0, Window: 30 * time.Second,
		Eval: func(st *tsdb.Store, now time.Time, window time.Duration) (float64, string, bool) {
			v, ok := st.Increase("pario_ceft_degraded_writes_total", nil, now, window)
			return v, "", ok
		},
	},
}

// DefaultMonitorInterval is the sampling period when Config enables
// the monitor without choosing one.
const DefaultMonitorInterval = 2 * time.Second

// startMonitor builds and launches the collector+engine pair. The
// collector owns one goroutine; Drain stops it and waits for exit.
func (s *Server) startMonitor(interval time.Duration, logger *slog.Logger) {
	store := tsdb.NewStore(0)
	engine := tsdb.NewEngine(store, defaultRules, logger)
	s.monitor = tsdb.NewCollector(store, interval,
		tsdb.WithRegistry(s.reg), tsdb.WithEngine(engine))
	// Background context: the monitor's lifetime is bounded by Drain,
	// not by the request context that built the server.
	s.monitor.Start(context.Background())
}

// Monitor returns the server's collector, or nil when monitoring is
// disabled.
func (s *Server) Monitor() *tsdb.Collector { return s.monitor }

// Alerts returns the current alert states (nil when monitoring is
// disabled), firing first.
func (s *Server) Alerts() []tsdb.Alert {
	if s.monitor == nil {
		return nil
	}
	return s.monitor.Engine().Alerts()
}
