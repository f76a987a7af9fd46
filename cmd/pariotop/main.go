// Command pariotop is the live cluster dashboard: it polls every
// daemon's /metrics endpoint on an interval, keeps the samples in an
// in-process tsdb ring, and renders per-server RPC and byte rates,
// queue and worker-pool state, cache effectiveness, collective-I/O
// merge ratios and any active alerts — the terminal view of the load
// imbalance the paper could only reconstruct after a run.
//
//	pariotop -targets iod0=127.0.0.1:9101,iod1=127.0.0.1:9102,blastd=127.0.0.1:7044
//	pariotop -targets blastd=127.0.0.1:7044 -interval 500ms -frames 10 -plain
//
// Rates are computed from consecutive scrapes over a sliding window
// (-window), so the first frame shows dashes and numbers appear from
// the second scrape on. -plain prints frames sequentially without
// clearing the screen, for logs and scripts; -frames 0 runs until
// interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"pario/internal/telemetry"
	"pario/internal/tsdb"
	"pario/internal/util"
)

func main() {
	var (
		targetsF = flag.String("targets", "", "comma-separated name=host:port /metrics endpoints (required)")
		interval = flag.Duration("interval", time.Second, "scrape and refresh period")
		window   = flag.Duration("window", 10*time.Second, "sliding window for rate computations")
		frames   = flag.Int("frames", 0, "stop after this many frames (0 = run until interrupted)")
		plain    = flag.Bool("plain", false, "no screen clearing; print frames sequentially")
	)
	flag.Parse()
	targets, err := telemetry.ParseTargets(*targetsF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pariotop:", err)
		os.Exit(2)
	}
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "pariotop: -targets is required")
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	store := tsdb.NewStore(0)
	coll := tsdb.NewCollector(store, *interval, tsdb.WithTargets(targets...))
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()

	for frame := 1; ; frame++ {
		coll.CollectOnce(ctx)
		out := render(ctx, store, coll, targets, time.Now(), *window, frame)
		if !*plain {
			fmt.Print("\x1b[2J\x1b[H")
		}
		fmt.Print(out)
		if *frames > 0 && frame >= *frames {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// render draws one frame from the store's current window.
func render(ctx context.Context, store *tsdb.Store, coll *tsdb.Collector, targets []telemetry.Target, now time.Time, window time.Duration, frame int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pariotop  %s  frame %d  window %s  targets %d\n\n",
		now.Format("15:04:05"), frame, window, len(targets))

	renderServers(&b, store, now, window)
	renderClients(&b, store, now, window)
	renderBlastd(&b, store, now, window)
	renderSlowQueries(ctx, &b, targets)
	renderCollio(&b, store, now, window)
	renderAlerts(ctx, &b, targets)
	renderTargetErrs(&b, coll, targets)
	return b.String()
}

// renderServers shows the storage daemons' own view: request and byte
// rates and load per scraped instance, from the server-side families.
func renderServers(b *strings.Builder, store *tsdb.Store, now time.Time, window time.Duration) {
	reqRates := store.RateBy("pario_server_requests_total", tsdb.InstanceLabel, nil, now, window)
	if len(reqRates) == 0 {
		return
	}
	fmt.Fprintf(b, "STORAGE SERVERS        req/s      bytes/s   load  inflight\n")
	for _, name := range util.SortedKeys(reqRates) {
		match := map[string]string{tsdb.InstanceLabel: name}
		bytesRate, _ := store.Rate("pario_iod_bytes_served_total", match, now, window)
		load, _ := store.Latest("pario_iod_load", match)
		inflight, _ := store.Latest("pario_iod_inflight", match)
		fmt.Fprintf(b, "  %-18s %8.1f %12s %6.2f %9.0f\n",
			name, reqRates[name], util.FormatBytes(int64(bytesRate)), load, inflight)
	}
	b.WriteByte('\n')
}

// renderClients shows the client-side per-server RPC rates — the
// family the skew alert watches — summed across every scraped
// instance, keyed by the server label the clients stamp.
func renderClients(b *strings.Builder, store *tsdb.Store, now time.Time, window time.Duration) {
	rates := store.RateBy("pario_rpc_calls_total", "server", nil, now, window)
	if len(rates) == 0 {
		return
	}
	max, _, mean := util.Spread(rates)
	fmt.Fprintf(b, "CLIENT RPC BY SERVER   rpc/s   out/s        in/s\n")
	for _, name := range util.SortedKeys(rates) {
		match := map[string]string{"server": name}
		out, _ := store.Rate("pario_rpc_bytes_out_total", match, now, window)
		in, _ := store.Rate("pario_rpc_bytes_in_total", match, now, window)
		mark := ""
		if mean > 0 && rates[name] > 1.75*mean {
			mark = "  << hot"
		}
		fmt.Fprintf(b, "  %-18s %7.1f %7s %11s%s\n",
			name, rates[name], util.FormatBytes(int64(out)), util.FormatBytes(int64(in)), mark)
	}
	if mean > 0 {
		fmt.Fprintf(b, "  spread (max/mean): %.2f\n", max/mean)
	}
	b.WriteByte('\n')
}

// renderBlastd shows the search service: queue, pool, latency, cache.
func renderBlastd(b *strings.Builder, store *tsdb.Store, now time.Time, window time.Duration) {
	workers, ok := store.Latest("pario_blastd_workers", nil)
	if !ok {
		return
	}
	depth, _ := store.Latest("pario_blastd_queue_depth", nil)
	running, _ := store.Latest("pario_blastd_searches_running", nil)
	reqRate, _ := store.Rate("pario_blastd_requests_total", nil, now, window)
	p50, okP50 := store.QuantileOverTime("pario_blastd_request_seconds", nil, 0.50, now, window)
	p99, okP99 := store.QuantileOverTime("pario_blastd_request_seconds", nil, 0.99, now, window)
	hits, _ := store.Rate("pario_blastd_cache_hits_total", nil, now, window)
	misses, _ := store.Rate("pario_blastd_cache_misses_total", nil, now, window)

	fmt.Fprintf(b, "BLASTD  workers %.0f  running %.0f  queue %.0f  %.1f req/s\n",
		workers, running, depth, reqRate)
	fmt.Fprintf(b, "  latency p50 %s  p99 %s", fmtSecs(p50, okP50), fmtSecs(p99, okP99))
	if hits+misses > 0 {
		fmt.Fprintf(b, "  cache hit %.0f%%", 100*hits/(hits+misses))
	}
	b.WriteString("\n\n")
}

// slowQueryRows caps the slow-query panel.
const slowQueryRows = 5

// querySummary mirrors the fields of blastd's /debug/queries entries
// that the panel shows; unknown fields are ignored, so the dashboard
// keeps working against newer daemons.
type querySummary struct {
	TraceID string  `json:"trace_id"`
	Client  string  `json:"client"`
	DB      string  `json:"db"`
	Cache   string  `json:"cache"`
	Status  int     `json:"status"`
	QueueMS float64 `json:"queue_ms"`
	TotalMS float64 `json:"total_ms"`
	Tasks   int     `json:"tasks"`
	Slow    bool    `json:"slow"`
}

// renderSlowQueries polls each target's /debug/queries (only blastd
// serves it; others are skipped) and lists the slowest recent queries
// with the trace IDs that feed pariostat -query.
func renderSlowQueries(ctx context.Context, b *strings.Builder, targets []telemetry.Target) {
	var all []querySummary
	for _, t := range targets {
		var body struct {
			Queries []querySummary `json:"queries"`
		}
		fetchDebug(ctx, t, "/debug/queries", &body)
		all = append(all, body.Queries...)
	}
	if len(all) == 0 {
		return
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].TotalMS > all[j].TotalMS })
	if len(all) > slowQueryRows {
		all = all[:slowQueryRows]
	}
	fmt.Fprintf(b, "SLOWEST RECENT QUERIES   total     queue  cache   tasks  status\n")
	for _, q := range all {
		id := q.TraceID
		if id == "" {
			id = "-"
		}
		mark := ""
		if q.Slow {
			mark = "  << slow"
		}
		fmt.Fprintf(b, "  %-16s %3s %8.1fms %7.1fms  %-6s %6d %7d%s\n",
			id, q.DB, q.TotalMS, q.QueueMS, orDash(q.Cache), q.Tasks, q.Status, mark)
	}
	b.WriteByte('\n')
}

// fetchDebug reads one of a target's optional JSON debug endpoints
// into v, leaving v empty when the target does not serve it or does
// not answer within the scrape timeout.
func fetchDebug(ctx context.Context, t telemetry.Target, path string, v any) {
	ctx, cancel := context.WithTimeout(ctx, tsdb.ScrapeTimeout)
	defer cancel()
	// Best effort by design: a daemon without the endpoint is skipped.
	_ = telemetry.FetchJSON(ctx, t, path, v)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// renderCollio shows the collective-I/O layer's merge effectiveness.
func renderCollio(b *strings.Builder, store *tsdb.Store, now time.Time, window time.Duration) {
	ranges, ok := store.Rate("pario_collio_ranges_total", nil, now, window)
	if !ok {
		return
	}
	merged, _ := store.Rate("pario_collio_merged_segments_total", nil, now, window)
	rounds, _ := store.Rate("pario_collio_rounds_total", nil, now, window)
	dedup, _ := store.Rate("pario_collio_dedup_bytes_total", nil, now, window)
	fmt.Fprintf(b, "COLLIO  %.1f rounds/s  %.1f ranges/s -> %.1f segments/s",
		rounds, ranges, merged)
	if ranges > 0 {
		fmt.Fprintf(b, "  (merge ratio %.1fx)", ranges/maxf(merged, 1e-9))
	}
	if dedup > 0 {
		fmt.Fprintf(b, "  dedup %s/s", util.FormatBytes(int64(dedup)))
	}
	b.WriteString("\n\n")
}

// renderAlerts polls each target's /debug/alerts (daemons without the
// endpoint are skipped) and lists non-resolved alerts.
func renderAlerts(ctx context.Context, b *strings.Builder, targets []telemetry.Target) {
	var lines []string
	for _, t := range targets {
		var body struct {
			Alerts []tsdb.Alert `json:"alerts"`
		}
		fetchDebug(ctx, t, "/debug/alerts", &body)
		for _, a := range body.Alerts {
			if a.State == tsdb.StateResolved {
				continue
			}
			subject := ""
			if a.Subject != "" {
				subject = " subject=" + a.Subject
			}
			lines = append(lines, fmt.Sprintf("  [%s] %s %s (%.2f %s %g)%s",
				t.Name, strings.ToUpper(string(a.State)), a.Rule,
				a.Value, a.Op, a.Threshold, subject))
		}
	}
	if len(lines) == 0 {
		fmt.Fprintf(b, "ALERTS  none\n")
		return
	}
	fmt.Fprintf(b, "ALERTS\n%s\n", strings.Join(lines, "\n"))
}

// renderTargetErrs reports targets whose last scrape failed, so a dead
// daemon is visible instead of silently frozen at its last numbers.
func renderTargetErrs(b *strings.Builder, coll *tsdb.Collector, targets []telemetry.Target) {
	for _, t := range targets {
		if err := coll.TargetErr(t.Name); err != nil {
			fmt.Fprintf(b, "SCRAPE ERROR  %s: %v\n", t.Name, err)
		}
	}
}

func fmtSecs(v float64, ok bool) string {
	if !ok {
		return "--"
	}
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
