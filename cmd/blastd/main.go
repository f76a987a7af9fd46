// Command blastd is the always-on parallel BLAST search service: it
// keeps a worker pool warm over the shared store and serves searches
// over HTTP, with admission control, per-client quotas and a result
// cache keyed by database version.
//
//	POST /search            {"db":"nt","query":">q\nACGT...","program":"blastn"}
//	GET  /metrics           Prometheus text metrics
//	GET  /healthz           200 ok / 503 draining
//	POST /admin/invalidate  ?db=NAME after reformatting a database
//
// The storage flags mirror mpiblast: -io local reads -root, -io
// pvfs/-io ceft dial the parallel file system daemons. SIGTERM (or
// SIGINT) drains: new requests get 503, queued and running searches
// finish, then the process exits.
//
// Examples:
//
//	blastd -db nt -workers 8 -io local -root /data
//	blastd -db nt -workers 8 -io ceft -mgr 10.0.0.1:7000 \
//	    -primary 10.0.0.2:7001,10.0.0.3:7001 -mirror 10.0.0.4:7001,10.0.0.5:7001
package main

import (
	"context"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pario/internal/blastd"
	"pario/internal/core"
	"pario/internal/pblast"
	"pario/internal/rpcpool"
	"pario/internal/telemetry"
)

var logger *slog.Logger

func main() {
	var (
		listen = flag.String("listen", "127.0.0.1:7044", "HTTP listen address")
		dbs    = flag.String("db", "", "comma-separated databases to serve (empty = any on the store)")

		workers    = flag.Int("workers", 4, "persistent worker ranks")
		maxWorkers = flag.Int("max-workers", 0, "cap for growing the pool later (default -workers)")

		queueDepth    = flag.Int("queue-depth", 64, "max requests waiting for a slot")
		maxPerClient  = flag.Int("max-per-client", 8, "max queued+running requests per client")
		maxConcurrent = flag.Int("max-concurrent", 4, "max searches running at once")
		cacheSize     = flag.Int("cache-size", 256, "result cache entries")
		drainTimeout  = flag.Duration("drain-timeout", 60*time.Second, "bound on completing in-flight work at shutdown")

		monitorInterval = flag.Duration("monitor-interval", blastd.DefaultMonitorInterval, "in-process monitor sampling period (0 disables alerts and /debug/alerts)")
		alertRules      = flag.String("alert-rules", "", "path to extra alert rules layered over the defaults (one rule per line)")

		slowQuery  = flag.Duration("slow-query", 0, "pin full span sets for queries at or over this latency (0 disables pinning)")
		flightSize = flag.Int("flight-size", blastd.DefaultFlightSize, "per-query flight recorder entries served at /debug/queries")
	)
	// The storage and worker flags are mpiblast's, declared once in core.
	store := core.NewStore()
	store.RegisterFlags(flag.CommandLine, core.AddrFlags|core.ModeFlags|core.TransportFlags)
	var tune core.WorkerFlags
	tune.RegisterFlags(flag.CommandLine)
	flag.Parse()
	logger = telemetry.NewProcessLogger("blastd")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg, "blastd")
	tracer := telemetry.NewTracer(0)

	rpcMetrics := rpcpool.NewMetrics(reg)
	// Cumulative RPC round trips across every server and op: the
	// sampler behind pario_blastd_rpc_ops_per_search.
	rpcOps := func() int64 {
		var total int64
		rpcMetrics.Calls.Each(func(_ []string, c *telemetry.Counter) { total += c.Value() })
		return total
	}

	// Storage wiring: rank 0 is the master's view, and every worker
	// rank keeps the one client it was first given however often the
	// pool restarts it.
	store.Logger = logger
	ranks, err := store.OpenRanks(rpcpool.WithMetrics(rpcMetrics), rpcpool.WithTracer(tracer))
	if err != nil {
		fatal(err)
	}
	defer ranks.Close()
	ranks.RegisterDegradedWrites(reg)

	searchOpts := append(tune.Options(reg, nil), pblast.WithTelemetry(pblast.NewTelemetry(reg)))

	var serve []string
	if *dbs != "" {
		serve = strings.Split(*dbs, ",")
	}
	extraRules := ""
	if *alertRules != "" {
		b, err := os.ReadFile(*alertRules)
		if err != nil {
			fatal(err)
		}
		extraRules = string(b)
	}
	// The pool gets a background context deliberately: SIGTERM must
	// trigger the graceful drain below, not tear the stream down
	// mid-task.
	srv, err := blastd.New(context.Background(), blastd.Config{
		DBs:           serve,
		FS:            core.PerRank(ranks.FS, fatal)(0),
		WorkerFS:      core.PerRank(ranks.FS, fatal),
		Scratch:       core.PerRank(tune.ScratchFS, fatal),
		Search:        pblast.NewConfig("", searchOpts...),
		Workers:       *workers,
		MaxWorkers:    *maxWorkers,
		QueueDepth:    *queueDepth,
		MaxPerClient:  *maxPerClient,
		MaxConcurrent: *maxConcurrent,
		CacheSize:     *cacheSize,
		Registry:      reg,
		Tracer:        tracer,
		RPCOps:        rpcOps,
		SlowQuery:     *slowQuery,
		FlightSize:    *flightSize,
		Logger:        logger,

		MonitorInterval: *monitorInterval,
		AlertRules:      extraRules,
		MonitorLogger:   logger,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logger.Error("http serve failed", "err", err)
		}
	}()
	logger.Info("blastd up",
		"addr", ln.Addr().String(), "io", store.IO, "workers", *workers,
		"max_concurrent", *maxConcurrent, "queue_depth", *queueDepth)

	// Block until SIGTERM/SIGINT, then drain: stop admitting, let
	// queued and running searches finish, shut the pool and the
	// listener down.
	<-ctx.Done()
	logger.Info("draining", "timeout", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Error("drain incomplete", "err", err)
		httpSrv.Close()
		os.Exit(1)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Error("http shutdown incomplete", "err", err)
	}
	logger.Info("drained cleanly")
}

func fatal(err error) {
	logger.Error("fatal", "err", err)
	os.Exit(1)
}
