package blastd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"pario/internal/blast"
	"pario/internal/chio"
	"pario/internal/pblast"
	"pario/internal/seq"
	"pario/internal/telemetry"
	"pario/internal/tsdb"
)

// Config wires a Server to its storage, worker pool and policy knobs.
type Config struct {
	// DBs restricts which database names may be searched. Empty means
	// any database whose alias resolves on FS.
	DBs []string
	// FS is the master's view of the shared store (alias files).
	FS chio.FileSystem
	// WorkerFS builds each worker rank's view of the shared store.
	WorkerFS func(rank int) chio.FileSystem
	// Scratch builds each worker's local scratch (nil unless the
	// search config copies fragments to local disk).
	Scratch func(rank int) chio.FileSystem

	// Search is the base pblast configuration (built with
	// pblast.NewConfig and options); per-request fields — program,
	// e-value, filter — override its Params.
	Search pblast.Config
	// Workers is the number of persistent workers to start.
	Workers int
	// MaxWorkers caps later growth via Resize; default Workers.
	MaxWorkers int

	// QueueDepth bounds waiting requests (default 64).
	QueueDepth int
	// MaxPerClient bounds one client's queued+running requests
	// (default 8).
	MaxPerClient int
	// MaxConcurrent bounds searches running at once (default 4).
	MaxConcurrent int
	// CacheSize bounds the result cache entries (default 256).
	CacheSize int

	// Registry receives the service metrics (a fresh one is created
	// if nil). Tracer, when set, enables per-query tracing: the server
	// starts a root span per request, threads it through admission,
	// cache and the worker pool, and serves the spans on /debug/traces.
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer

	// SlowQuery, when positive, marks queries whose end-to-end latency
	// reaches it as slow in the flight recorder and pins their full
	// span set against tracer-ring eviction, so the trace behind a bad
	// latency is still whole when someone comes looking.
	SlowQuery time.Duration
	// FlightSize bounds the /debug/queries ring (default
	// DefaultFlightSize).
	FlightSize int
	// Logger receives the per-request access-log lines (default: the
	// process slog default).
	Logger *slog.Logger

	// MonitorInterval, when positive, starts the in-process monitor:
	// a tsdb collector sampling Registry every interval, with the
	// DefaultAlertRules evaluated after each tick and alert state on
	// GET /debug/alerts. Zero disables monitoring.
	MonitorInterval time.Duration
	// AlertRules holds extra rules (tsdb rule syntax, one per line)
	// layered over DefaultAlertRules; same-name rules override.
	AlertRules string
	// MonitorLogger receives alert firing/resolved lines (default:
	// the process slog default logger).
	MonitorLogger *slog.Logger

	// RPCOps, when set, returns the cumulative count of storage RPC
	// round trips this process's clients have issued (for example the
	// sum of rpcpool.Metrics.Calls). The server samples it around
	// each backend search and exposes the deltas as the
	// pario_blastd_rpc_ops_per_search histogram — the per-request
	// server-op cost that list I/O and readahead drive down.
	// Deltas are approximate when searches overlap: concurrent
	// searches' ops land in whichever windows are open.
	RPCOps func() int64
}

// Server is the blastd service core: admission queue in front of a
// persistent worker pool, with a version-keyed result cache. The HTTP
// layer (Handler) is a thin JSON shim over Search, so tests and other
// front ends can drive the same path directly.
type Server struct {
	cfg      Config
	reg      *telemetry.Registry
	catalog  *dbCatalog
	cache    *resultCache
	queue    *admitQueue
	pool     *pblast.Pool
	flight   *flightRecorder
	monitor  *tsdb.Collector
	draining atomic.Bool
	started  time.Time

	mRequests  *telemetry.CounterVec
	mReqSecs   *telemetry.Histogram
	mDepthPeak *telemetry.Gauge
	mInflight  *telemetry.Gauge
	mRPCOps    *telemetry.Histogram
}

// New starts the worker pool and returns a ready-to-serve Server.
// Close (or Drain) must be called to release the pool.
func New(ctx context.Context, cfg Config) (*Server, error) {
	if cfg.FS == nil {
		return nil, fmt.Errorf("blastd: Config.FS is required")
	}
	if cfg.WorkerFS == nil {
		return nil, fmt.Errorf("blastd: Config.WorkerFS is required")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 4
	}
	if cfg.MaxWorkers < cfg.Workers {
		cfg.MaxWorkers = cfg.Workers
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxPerClient == 0 {
		cfg.MaxPerClient = 8
	}
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 4
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 256
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}

	// Thread the tracer into the scheduler and its in-process workers:
	// the master records per-task spans, the workers their search and
	// I/O spans, all under the request's trace.
	if cfg.Tracer != nil {
		cfg.Search = cfg.Search.Apply(pblast.WithTracer(cfg.Tracer))
	}

	s := &Server{
		cfg:     cfg,
		reg:     reg,
		catalog: newDBCatalog(cfg.FS, cfg.DBs),
		cache:   newResultCache(cfg.CacheSize),
		queue:   newAdmitQueue(cfg.QueueDepth, cfg.MaxPerClient, cfg.MaxConcurrent),
		flight:  newFlightRecorder(cfg.FlightSize),
		started: time.Now(),
	}

	pool, err := pblast.NewPool(ctx, cfg.Search, cfg.MaxWorkers, cfg.WorkerFS, cfg.Scratch)
	if err != nil {
		return nil, err
	}
	s.pool = pool

	s.wireMetrics()
	if cfg.MonitorInterval > 0 {
		if err := s.startMonitor(cfg.MonitorInterval, cfg.AlertRules, cfg.MonitorLogger); err != nil {
			pool.Close()
			return nil, err
		}
	}
	pool.Resize(cfg.Workers)
	return s, nil
}

func (s *Server) wireMetrics() {
	reg := s.reg
	s.mRequests = reg.CounterVec("pario_blastd_requests_total",
		"HTTP search requests by status code.", "code")
	s.mReqSecs = reg.Histogram("pario_blastd_request_seconds",
		"End-to-end search request latency.")
	s.mDepthPeak = reg.Gauge("pario_blastd_queue_depth_peak",
		"High-water mark of the admission queue depth.")
	s.mInflight = reg.Gauge("pario_blastd_searches_inflight",
		"Backend searches currently executing (cache misses).")
	if s.cfg.RPCOps != nil {
		s.mRPCOps = reg.Histogram("pario_blastd_rpc_ops_per_search",
			"Storage RPC round trips per backend search (approximate under overlap).")
	}

	reg.GaugeFunc("pario_blastd_queue_depth",
		"Requests waiting for an execution slot.",
		func() float64 { return float64(s.queue.Depth()) })
	reg.GaugeFunc("pario_blastd_searches_running",
		"Requests holding an execution slot.",
		func() float64 { return float64(s.queue.Running()) })
	reg.GaugeFunc("pario_blastd_cache_entries",
		"Results held in the cache.",
		func() float64 { return float64(s.cache.Len()) })
	reg.GaugeFunc("pario_blastd_workers",
		"Live workers in the pool.",
		func() float64 { return float64(s.pool.Size()) })
	reg.GaugeFunc("pario_blastd_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })

	timeInQueue := reg.Histogram("pario_blastd_time_in_queue_seconds",
		"Time admitted requests spent waiting for a slot.")
	rejected := reg.CounterVec("pario_blastd_admission_rejected_total",
		"Requests shed at admission, by reason.", "reason")
	clientInflight := reg.GaugeVec("pario_blastd_client_inflight",
		"Queued+running requests per client.", "client")
	s.queue.onWait = timeInQueue.ObserveDuration
	s.queue.onReject = func(reason string) { rejected.With(reason).Inc() }
	s.queue.onClient = func(client string, n int) {
		if n == 0 {
			clientInflight.Delete(client)
			return
		}
		clientInflight.With(client).Set(float64(n))
	}
	s.queue.onDepth = func(depth int) {
		if d := float64(depth); d > s.mDepthPeak.Value() {
			s.mDepthPeak.Set(d)
		}
	}

	hits := reg.Counter("pario_blastd_cache_hits_total",
		"Searches answered from the result cache.")
	misses := reg.Counter("pario_blastd_cache_misses_total",
		"Searches that had to run on the worker pool.")
	shared := reg.Counter("pario_blastd_singleflight_shared_total",
		"Requests that joined an identical in-flight search.")
	invalidated := reg.Counter("pario_blastd_cache_invalidated_total",
		"Cache entries dropped by database invalidation.")
	s.cache.onHit = hits.Inc
	s.cache.onMiss = misses.Inc
	s.cache.onShared = shared.Inc
	s.cache.onInvalidate = func(n int) { invalidated.Add(int64(n)) }

	workerErrors := reg.CounterVec("pario_blastd_worker_errors_total",
		"Workers that exited with an error.", "rank")
	s.pool.OnWorkerError = func(rank int, err error) {
		workerErrors.With(fmt.Sprint(rank)).Inc()
	}
}

// SearchRequest is the JSON body of POST /search.
type SearchRequest struct {
	// DB names the database to search.
	DB string `json:"db"`
	// Query is the query sequence: a FASTA record or a bare sequence.
	Query string `json:"query"`
	// Program names the BLAST program: "blastn", the only one, which
	// is also the default. Any other name is a bad query.
	Program string `json:"program,omitempty"`
	// EValue is the report threshold (default 10).
	EValue float64 `json:"evalue,omitempty"`
	// MaxTargetSeqs caps reported subjects (0 = server default).
	MaxTargetSeqs int `json:"max_target_seqs,omitempty"`
	// Megablast enables greedy gapped extension.
	Megablast bool `json:"megablast,omitempty"`
	// Filter masks low-complexity query regions.
	Filter bool `json:"filter,omitempty"`
	// Client identifies the caller for quota accounting; the HTTP
	// layer falls back to the X-Client header, then the remote host.
	Client string `json:"client,omitempty"`
	// Priority orders queued requests (higher runs sooner).
	Priority int `json:"priority,omitempty"`
}

// SearchResponse is the JSON body of a successful search.
type SearchResponse struct {
	QueryID   string        `json:"query_id"`
	DB        string        `json:"db"`
	DBVersion string        `json:"db_version"`
	Cached    bool          `json:"cached"`
	ElapsedMS float64       `json:"elapsed_ms"`
	NumHits   int           `json:"num_hits"`
	TraceID   string        `json:"trace_id,omitempty"`
	Result    *blast.Result `json:"result"`
}

// Search runs one request through admission, cache and pool. Errors
// satisfy the package error contract (ErrBadQuery, ErrDBNotFound,
// ErrOverloaded, ErrQuotaExceeded, ErrDraining) where applicable.
//
// With a Tracer configured, the whole request runs under one trace:
// the HTTP handler's root span when called through Handler, or a root
// opened here for direct callers. Queue wait, cache lookup, the
// scheduler's per-task spans and the workers' search and I/O spans all
// share its trace ID, and every outcome — including rejections — lands
// in the flight recorder at /debug/queries.
func (s *Server) Search(ctx context.Context, req *SearchRequest) (*SearchResponse, error) {
	start := time.Now()
	if s.draining.Load() {
		return nil, ErrDraining
	}

	var root *telemetry.ActiveSpan
	if _, ok := telemetry.SpanFromContext(ctx); !ok && s.cfg.Tracer != nil {
		ctx, root = s.cfg.Tracer.Start(ctx, "request")
	}
	sc, _ := telemetry.SpanFromContext(ctx)

	client := req.Client
	if client == "" {
		client = "anonymous"
	}
	fe := QuerySummary{
		TraceID:       traceIDString(sc.TraceID),
		Client:        client,
		DB:            req.DB,
		Priority:      req.Priority,
		Start:         start,
		StragglerTask: -1,
	}
	var (
		queueWait   time.Duration
		runTime     time.Duration
		out         *pblast.Outcome
		cacheStatus string
	)
	// finish closes the request's trace and files its flight-recorder
	// entry; every return path goes through it.
	finish := func(err error) error {
		total := time.Since(start)
		fe.Status = http.StatusOK
		if err != nil {
			fe.Status = httpStatus(err)
			fe.Err = err.Error()
		}
		fe.Cache = cacheStatus
		fe.QueueMS = durMS(queueWait)
		fe.RunMS = durMS(runTime)
		fe.TotalMS = durMS(total)
		if out != nil {
			fe.Tasks = len(out.Timeline)
			fe.CopyMS = durMS(out.CopyTime)
			fe.SearchMS = durMS(out.SearchTime)
			fe.Reassigned = out.Reassigned
			// Completion order: on a tie the first task to finish stays.
			for _, ev := range out.Timeline {
				if ms := durMS(ev.Search); ms > fe.StragglerMS || fe.StragglerTask < 0 {
					fe.StragglerTask, fe.StragglerMS = ev.Index, ms
				}
			}
		}
		if s.cfg.SlowQuery > 0 && total >= s.cfg.SlowQuery {
			fe.Slow = true
			s.cfg.Tracer.PinTrace(sc.TraceID)
		}
		for _, sp := range s.cfg.Tracer.TraceSpans(sc.TraceID) {
			if sp.Name == "read" {
				fe.Bytes += sp.Bytes
			}
		}
		s.flight.add(fe)
		if root != nil {
			root.Finish(err)
		}
		return err
	}

	progName := req.Program
	if progName == "" {
		progName = "blastn"
	}
	prog, err := blast.ParseProgram(progName)
	if err != nil {
		return nil, finish(fmt.Errorf("%w: %v", ErrBadQuery, err))
	}
	query, err := parseQuery(req.Query)
	if err != nil {
		return nil, finish(err)
	}

	info, err := s.catalog.Lookup(req.DB)
	if err != nil {
		return nil, finish(err)
	}

	params := s.cfg.Search.Params
	params.Program = prog
	params.EValue = req.EValue
	if params.EValue == 0 {
		params.EValue = 10
	}
	if req.MaxTargetSeqs > 0 {
		params.MaxTargetSeqs = req.MaxTargetSeqs
	}
	params.Greedy = req.Megablast
	params.Filter = req.Filter
	fe.Params = paramsSignature(params)
	// The engine's own check, run before admission so invalid
	// parameters never take a queue slot or reach the pool.
	if err := params.Defaults().Validate(); err != nil {
		return nil, finish(fmt.Errorf("%w: %v", ErrBadQuery, err))
	}

	// Queue span: a sibling of the later cache span (the returned ctx
	// is discarded), annotated with the priority and the queue depth
	// seen at enqueue.
	depthAt := s.queue.Depth()
	queueStart := time.Now()
	_, qspan := s.cfg.Tracer.Start(ctx, "queue")
	qspan.SetAttr("priority", fmt.Sprint(req.Priority))
	qspan.SetAttr("depth", fmt.Sprint(depthAt))
	release, err := s.queue.Admit(ctx, client, req.Priority)
	queueWait = time.Since(queueStart)
	qspan.Finish(err)
	if err != nil {
		return nil, finish(err)
	}
	defer release()

	// Cache span: on a miss it covers the backend run, and the pool
	// submission happens under its context so the scheduler's task
	// spans become its children; on a hit or shared flight it shows
	// the lookup or the wait.
	cctx, cspan := s.cfg.Tracer.Start(ctx, "cache")
	key := makeCacheKey(*query, req.DB, info.Version, params)
	res, cacheStatus, err := s.cache.Do(cctx, key, func() (*blast.Result, error) {
		runStart := time.Now()
		defer func() { runTime = time.Since(runStart) }()
		s.mInflight.Add(1)
		defer s.mInflight.Add(-1)
		var opsBefore int64
		if s.mRPCOps != nil {
			opsBefore = s.cfg.RPCOps()
		}
		o, err := s.pool.Submit(cctx, query, params, info.Alias)
		if s.mRPCOps != nil {
			if d := s.cfg.RPCOps() - opsBefore; d >= 0 {
				s.mRPCOps.Observe(float64(d))
			}
		}
		if err != nil {
			return nil, err
		}
		out = o
		return o.Result, nil
	})
	cspan.SetAttr("status", cacheStatus)
	cspan.Finish(err)
	if err != nil {
		return nil, finish(err)
	}
	finish(nil)
	return &SearchResponse{
		QueryID:   query.ID,
		DB:        req.DB,
		DBVersion: info.Version,
		Cached:    cacheStatus != cacheMiss,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		NumHits:   len(res.Hits),
		TraceID:   traceIDString(sc.TraceID),
		Result:    res,
	}, nil
}

// durMS renders a duration as fractional milliseconds.
func durMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// traceIDString renders a trace ID as fixed-width hex, or "" when
// tracing is off.
func traceIDString(id uint64) string {
	if id == 0 {
		return ""
	}
	return telemetry.IDString(id)
}

// parseQuery accepts a FASTA record or a bare sequence of nucleotide
// letters.
func parseQuery(text string) (*seq.Sequence, error) {
	text = strings.TrimSpace(text)
	q := &seq.Sequence{ID: "query", Kind: seq.Nucleotide}
	if strings.HasPrefix(text, ">") {
		var err error
		if q, err = seq.NewFastaReader(strings.NewReader(text), seq.Nucleotide).Read(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
		}
	} else {
		q.Data = make([]byte, 0, len(text))
		for _, b := range []byte(text) {
			switch b {
			case ' ', '\t', '\r', '\n':
			default:
				q.Data = append(q.Data, b)
			}
		}
	}
	if q.Len() == 0 {
		return nil, fmt.Errorf("%w: empty query", ErrBadQuery)
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	return q, nil
}

// InvalidateDB re-reads the database's alias and drops cached results
// for it. It reports the new version and how many entries were shed.
func (s *Server) InvalidateDB(name string) (version string, invalidated int, err error) {
	info, _, err := s.catalog.Refresh(name)
	if err != nil {
		return "", 0, err
	}
	return info.Version, s.cache.InvalidateDB(name), nil
}

// Pool exposes the worker pool for resizing.
func (s *Server) Pool() interface {
	Resize(n int)
	Size() int
} {
	return s.pool
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain stops admitting requests, waits (bounded by ctx) for queued
// and running searches to finish, then shuts the worker pool down.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	if s.monitor != nil {
		// Stop sampling first so teardown noise never fires alerts;
		// Stop blocks until the collector goroutine has exited.
		s.monitor.Stop()
	}
	qerr := s.queue.Drain(ctx)
	perr := s.pool.Close()
	if qerr != nil {
		return qerr
	}
	return perr
}

// Close is Drain with a 30-second bound, for defer convenience.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.Drain(ctx)
}

// Handler returns the HTTP API:
//
//	POST /search            run a search (SearchRequest -> SearchResponse)
//	GET  /metrics           Prometheus text metrics
//	GET  /healthz           200 ok / 503 draining
//	POST /admin/invalidate  ?db=NAME re-version a database, drop its cache
//	GET  /debug/traces      recent spans; ?trace=<id> one trace, ?limit=N tail
//	GET  /debug/queries     flight recorder: per-query summaries, newest first
//	GET  /debug/alerts      alert engine state (when the monitor is on)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /search", s.handleSearch)
	mux.Handle("GET /metrics", telemetry.MetricsHandler(s.reg))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /admin/invalidate", func(w http.ResponseWriter, r *http.Request) {
		db := r.URL.Query().Get("db")
		if db == "" {
			http.Error(w, `{"error":"missing db parameter"}`, http.StatusBadRequest)
			return
		}
		version, n, err := s.InvalidateDB(db)
		if err != nil {
			writeError(w, err)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"db": db, "version": version, "invalidated": n,
		})
	})
	mux.HandleFunc("GET /debug/alerts", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		alerts := s.Alerts()
		if alerts == nil {
			alerts = []tsdb.Alert{}
		}
		json.NewEncoder(w).Encode(struct {
			Alerts []tsdb.Alert `json:"alerts"`
		}{Alerts: alerts})
	})
	mux.Handle("GET /debug/traces", telemetry.TracesHandler(s.cfg.Tracer))
	mux.HandleFunc("GET /debug/queries", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		queries := s.flight.Recent()
		if queries == nil {
			queries = []QuerySummary{}
		}
		json.NewEncoder(w).Encode(struct {
			Queries []QuerySummary `json:"queries"`
		}{Queries: queries})
	})
	return mux
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// Root span for the whole request; its trace ID goes out on the
	// response header immediately, so even a failed request hands the
	// caller the handle to its spans.
	ctx, root := s.cfg.Tracer.Start(r.Context(), "request")
	tid := root.Context().TraceID
	if tid != 0 {
		w.Header().Set("X-Pario-Trace", telemetry.IDString(tid))
	}
	var req SearchRequest
	body := io.LimitReader(r.Body, 16<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		err = fmt.Errorf("%w: invalid JSON: %v", ErrBadQuery, err)
		root.Finish(err)
		s.finishRequest(w, http.StatusBadRequest, err, start, tid, clientAddr(r))
		return
	}
	if req.Client == "" {
		req.Client = r.Header.Get("X-Client")
	}
	if req.Client == "" {
		req.Client = clientAddr(r)
	}
	resp, err := s.Search(ctx, &req)
	if err != nil {
		root.Finish(err)
		s.finishRequest(w, httpStatus(err), err, start, tid, req.Client)
		return
	}
	root.Finish(nil)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
	s.observeRequest(http.StatusOK, nil, start, tid, req.Client)
}

// clientAddr is the transport-level fallback client identity.
func clientAddr(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

func (s *Server) finishRequest(w http.ResponseWriter, code int, err error, start time.Time, tid uint64, client string) {
	writeErrorCode(w, code, err)
	s.observeRequest(code, err, start, tid, client)
}

// observeRequest is the single exit point of every HTTP search
// request: status-code counter, latency histogram (with the trace ID
// as the bucket's exemplar), and one access-log line — so a shed 429
// or malformed 400 is just as attributable as a success.
func (s *Server) observeRequest(code int, err error, start time.Time, tid uint64, client string) {
	dur := time.Since(start)
	s.mRequests.With(fmt.Sprint(code)).Inc()
	s.mReqSecs.ObserveExemplar(dur.Seconds(), tid)
	logger := s.cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	if err != nil {
		logger.Info("request", "trace", traceIDString(tid), "client", client,
			"status", code, "dur", dur, "err", err.Error())
		return
	}
	logger.Info("request", "trace", traceIDString(tid), "client", client,
		"status", code, "dur", dur)
}

// httpStatus maps the package error contract onto HTTP statuses.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrQuotaExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrBadQuery):
		return http.StatusBadRequest
	case errors.Is(err, ErrDBNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

func writeError(w http.ResponseWriter, err error) {
	writeErrorCode(w, httpStatus(err), err)
}

func writeErrorCode(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	switch code {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
