// Command mpiblast runs the parallel BLAST of the paper in one of its
// three I/O configurations:
//
//	-io local      conventional I/O: every worker reads the fragments
//	               from -root (optionally copying to -scratch first,
//	               like the original mpiBLAST)
//	-io pvfs       workers read through PVFS clients; give the
//	               metadata server with -mgr and data servers with
//	               -servers host:port,host:port,...
//	-io ceft       workers read through CEFT-PVFS clients; give -mgr,
//	               -primary and -mirror server lists
//
// Workers run as in-process ranks over the mpi substrate (the same
// code runs across machines via the TCP transport; see package mpi).
//
// Examples:
//
//	mpiblast -db nt -query q.fasta -workers 8 -io local -root /data
//	mpiblast -db nt -query q.fasta -workers 8 -io pvfs \
//	    -mgr 10.0.0.1:7000 -servers 10.0.0.2:7001,10.0.0.3:7001
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"pario/internal/blast"
	"pario/internal/ceft"
	"pario/internal/chio"
	"pario/internal/collio"
	"pario/internal/core"
	"pario/internal/iotrace"
	"pario/internal/mpi"
	"pario/internal/obsreport"
	"pario/internal/pblast"
	"pario/internal/pvfs"
	"pario/internal/readahead"
	"pario/internal/rpcpool"
	"pario/internal/seq"
	"pario/internal/telemetry"
)

// logger is the process-wide structured logger, set first thing in
// main so fatal paths and library callbacks share it.
var logger *slog.Logger

func main() {
	var (
		db       = flag.String("db", "", "database name (required)")
		queryF   = flag.String("query", "", "query FASTA file (required)")
		workers  = flag.Int("workers", 4, "number of worker ranks")
		ioMode   = flag.String("io", "local", "local|pvfs|ceft")
		root     = flag.String("root", ".", "shared store directory (local mode)")
		scratch  = flag.String("scratch", "", "per-worker scratch directory; enables copy-to-local")
		mgr      = flag.String("mgr", "", "metadata server address (pvfs/ceft)")
		servers  = flag.String("servers", "", "comma-separated data servers (pvfs)")
		primary  = flag.String("primary", "", "comma-separated primary group (ceft)")
		mirror   = flag.String("mirror", "", "comma-separated mirror group (ceft)")
		program  = flag.String("program", "blastn", "BLAST program")
		evalue   = flag.Float64("evalue", 10, "e-value cutoff")
		querySeg = flag.Bool("query-segmentation", false, "split the query instead of the database")
		mega     = flag.Bool("megablast", false, "megablast mode (blastn only)")
		threads  = flag.Int("threads", runtime.NumCPU(), "search shards per worker task (1 = sequential engine)")
		filterLC = flag.Bool("F", false, "mask low-complexity query regions")
		traceOut = flag.String("trace", "", "write a Figure 4 style I/O trace to this file")
		outfmt   = flag.String("outfmt", "report", "report|tabular")

		// Transport tuning (pvfs/ceft modes).
		ioTimeout = flag.Duration("io-timeout", rpcpool.DefaultTimeout, "per-request parallel-FS deadline")
		ioRetries = flag.Int("io-retries", rpcpool.DefaultRetries, "parallel-FS retry budget per request")
		ioPool    = flag.Int("io-pool", rpcpool.DefaultPoolSize, "parallel-FS connections per server")
		rpcStats  = flag.Bool("rpc-stats", false, "print per-server RPC latency/retry counters at exit")

		// Live observability endpoints and run reports.
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/traces and /debug/pprof on this address (empty = off)")
		slowRPC   = flag.Duration("slow-rpc", 0, "log spans slower than this threshold (0 disables; needs -debug-addr or -report)")
		reportOut = flag.String("report", "", "write a cluster-wide run report (JSON) to this file and print its rendering")
		collect   = flag.String("collect", "", "comma-separated name=host:port debug endpoints to scrape into the report (e.g. iod0=127.0.0.1:9101,mgr=127.0.0.1:9100)")

		// Task sizing and CEFT hot-spot tuning.
		chunk      = flag.Int("chunk", 0, "worker read chunk size in bytes (0 = backend default)")
		hotFactor  = flag.Float64("hot-factor", 0, "ceft: a server is hot above this multiple of the median load (0 = default)")
		minHotLoad = flag.Float64("min-hot-load", -1, "ceft: absolute load floor below which no server is hot (-1 = default)")

		// Client-side readahead/block cache (any -io mode).
		raEnable = flag.Bool("readahead", false, "enable the client-side readahead/block cache on worker reads")
		raBlock  = flag.Int64("ra-block", readahead.DefaultBlockSize, "readahead block size in bytes")
		raCache  = flag.Int("ra-cache", readahead.DefaultCapacity, "readahead cache capacity in blocks")
		raWindow = flag.Int("ra-window", readahead.DefaultWindow, "readahead prefetch depth in blocks (0 disables prefetch)")

		// Collective two-phase reads across the in-process workers.
		collEnable = flag.Bool("collio", false, "enable collective two-phase reads: concurrent worker reads of one file combine into one list-I/O RPC per server per round")
		collWindow = flag.Duration("collio-window", collio.DefaultWindow, "collective read round collection window")
		collFanIn  = flag.Int("collio-fanin", 0, "close a collective round once this many readers enrolled (0 = window/coverage only)")

		// Distributed mode: run this process as one rank of a
		// multi-process (multi-machine) job over the TCP transport.
		router      = flag.String("router", "", "message router address; enables distributed mode")
		startRouter = flag.Bool("start-router", false, "rank 0 also starts the router at -router")
		rank        = flag.Int("rank", 0, "this process's rank (0 = master)")
		size        = flag.Int("size", 0, "total ranks including the master (distributed mode)")
	)
	flag.Parse()
	logger = telemetry.NewProcessLogger("mpiblast")
	if *db == "" || *queryF == "" {
		fmt.Fprintln(os.Stderr, "mpiblast: -db and -query are required")
		flag.Usage()
		os.Exit(2)
	}
	prog, err := blast.ParseProgram(*program)
	if err != nil {
		fatal(err)
	}
	collectTargets, err := telemetry.ParseTargets(*collect)
	if err != nil {
		fatal(err)
	}

	// Ctrl-C cancels the whole job, aborting in-flight parallel-FS I/O.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// -debug-addr (live HTTP endpoints) and -report (post-run report)
	// both need the observability stack: a metrics registry and span
	// tracer shared by every transport this process dials.
	var (
		reg    *telemetry.Registry
		tracer *telemetry.Tracer
	)
	if *debugAddr != "" || *reportOut != "" {
		reg = telemetry.NewRegistry()
		telemetry.RegisterBuildInfo(reg, "mpiblast")
		tracer = telemetry.NewTracer(0)
		tracer.SetSlowThreshold(*slowRPC, logger)
	}
	if *debugAddr != "" {
		dbg, err := telemetry.StartDebug(*debugAddr, reg, tracer)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		logger.Info("debug endpoints up", "url", fmt.Sprintf("http://%s/metrics", dbg.Addr()))
	}

	// One transport metric set shared by every client this process
	// dials: live on /metrics when there is a registry, and the source
	// of the -rpc-stats exit dump either way.
	var metrics *rpcpool.Metrics
	if reg != nil {
		metrics = rpcpool.NewMetrics(reg)
	} else if *rpcStats {
		metrics = rpcpool.NewMetrics(telemetry.NewRegistry())
	}
	transportOpts := func() []rpcpool.Option {
		return []rpcpool.Option{
			rpcpool.WithTimeout(*ioTimeout),
			rpcpool.WithRetries(*ioRetries),
			rpcpool.WithPoolSize(*ioPool),
			rpcpool.WithMetrics(metrics),
			rpcpool.WithTracer(tracer),
		}
	}

	// One counter sink shared by every worker's readahead layer.
	var cacheStats *iotrace.CacheStats
	raOpts := func() []readahead.Option {
		opts := []readahead.Option{
			readahead.WithBlockSize(*raBlock),
			readahead.WithCapacity(*raCache),
			readahead.WithWindow(*raWindow),
		}
		if *rpcStats || reg != nil {
			if cacheStats == nil {
				cacheStats = &iotrace.CacheStats{}
				cacheStats.Register(reg)
			}
			opts = append(opts, readahead.WithStats(cacheStats))
		}
		return opts
	}

	var masterFS chio.FileSystem
	var workerFS func(rank int) chio.FileSystem
	var closers []func() error
	var ceftClients []*ceft.Client
	defer func() {
		for _, c := range closers {
			c()
		}
		if *rpcStats {
			fmt.Fprint(os.Stderr, metrics.Format())
		}
		if cacheStats != nil && *rpcStats {
			fmt.Fprintln(os.Stderr, cacheStats.Snapshot().Format())
		}
	}()

	switch *ioMode {
	case "local":
		fs, err := chio.NewLocalFS(*root)
		if err != nil {
			fatal(err)
		}
		masterFS = fs
		workerFS = func(int) chio.FileSystem { return fs }
	case "pvfs":
		if *mgr == "" || *servers == "" {
			fatal(fmt.Errorf("pvfs mode needs -mgr and -servers"))
		}
		addrs := strings.Split(*servers, ",")
		mk := func() (chio.FileSystem, error) {
			cl, err := pvfs.Dial(*mgr, addrs, transportOpts()...)
			if err != nil {
				return nil, err
			}
			closers = append(closers, cl.Close)
			return cl, nil
		}
		m, err := mk()
		if err != nil {
			fatal(err)
		}
		masterFS = m
		workerFS = func(int) chio.FileSystem {
			fs, err := mk()
			if err != nil {
				fatal(err)
			}
			return fs
		}
	case "ceft":
		if *mgr == "" || *primary == "" || *mirror == "" {
			fatal(fmt.Errorf("ceft mode needs -mgr, -primary and -mirror"))
		}
		prim := strings.Split(*primary, ",")
		mirr := strings.Split(*mirror, ",")
		ceftOpts := ceft.DefaultOptions()
		if *hotFactor > 0 {
			ceftOpts.HotFactor = *hotFactor
		}
		if *minHotLoad >= 0 {
			ceftOpts.MinHotLoad = *minHotLoad
		}
		ceftOpts.Logger = logger
		mk := func() (chio.FileSystem, error) {
			cl, err := ceft.Dial(*mgr, prim, mirr, ceftOpts, transportOpts()...)
			if err != nil {
				return nil, err
			}
			closers = append(closers, cl.Close)
			ceftClients = append(ceftClients, cl)
			return cl, nil
		}
		m, err := mk()
		if err != nil {
			fatal(err)
		}
		masterFS = m
		workerFS = func(int) chio.FileSystem {
			fs, err := mk()
			if err != nil {
				fatal(err)
			}
			return fs
		}
	default:
		fatal(fmt.Errorf("unknown -io mode %q", *ioMode))
	}

	modeName := "db-seg"
	if *querySeg {
		modeName = "query-seg"
	}

	// -report: after the search, pull metrics and span buffers from
	// this process and every -collect endpoint, fold in the scheduling
	// timeline and the CEFT hot-spot audits, and write the run report.
	var reportB *obsreport.Builder
	if *reportOut != "" {
		reportB = obsreport.NewBuilder(fmt.Sprintf("%s/%s", *ioMode, *db))
	}
	writeReport := func(nQueries, nWorkers int) {
		if reportB == nil {
			return
		}
		reportB.SetRun(obsreport.RunInfo{
			DB: *db, Query: *queryF, Backend: *ioMode, Mode: modeName,
			Workers: nWorkers, Queries: nQueries,
		})
		reportB.AddSnapshot(obsreport.LocalSnapshot("master", reg, tracer))
		for _, t := range collectTargets {
			reportB.AddSnapshot(obsreport.RemoteSnapshot(ctx, t))
		}
		for _, cl := range ceftClients {
			reportB.AddCEFTAudit(cl.Audit())
		}
		rep := reportB.Build()
		if err := rep.WriteJSONFile(*reportOut); err != nil {
			fatal(err)
		}
		rep.RenderText(os.Stderr)
		logger.Info("run report written", "path", *reportOut)
	}

	// Distributed mode: each process is one rank over TCP.
	if *router != "" {
		if *size < 2 {
			fatal(fmt.Errorf("distributed mode needs -size >= 2"))
		}
		if *rank > 0 {
			// Worker rank: serve tasks and exit. Retry the dial so
			// workers may start before the master's router is up.
			comm, err := mpi.DialRetry(*router, *rank, *size, 30*time.Second)
			if err != nil {
				fatal(err)
			}
			defer comm.Close()
			var scratchFS chio.FileSystem
			if *scratch != "" {
				scratchFS, err = chio.NewLocalFS(fmt.Sprintf("%s/worker%d", *scratch, *rank))
				if err != nil {
					fatal(err)
				}
			}
			fs := workerFS(*rank)
			if *raEnable {
				fs = readahead.Wrap(fs, raOpts()...)
			}
			if err := pblast.RunWorker(ctx, comm, fs, scratchFS,
				pblast.WithPipeMetrics(blast.NewPipeMetrics(reg))); err != nil {
				fatal(err)
			}
			return
		}
		// Master rank: optionally start the router, then drive the job.
		if *startRouter {
			r, err := mpi.StartRouter(*router, *size)
			if err != nil {
				fatal(err)
			}
			defer r.Close()
		}
		comm, err := mpi.Dial(*router, 0, *size)
		if err != nil {
			fatal(err)
		}
		defer comm.Close()
		queries := loadQueries(*queryF, prog)
		searchOpts := []pblast.Option{
			pblast.WithParams(blast.Params{Program: prog, EValue: *evalue, Greedy: *mega, Filter: *filterLC}),
			pblast.WithThreads(*threads),
			pblast.WithChunkBytes(*chunk),
			pblast.WithTelemetry(pblast.NewTelemetry(reg)),
		}
		if *querySeg {
			searchOpts = append(searchOpts, pblast.WithMode(pblast.QuerySegmentation))
		}
		cfg := pblast.NewConfig(*db, searchOpts...)
		out := bufio.NewWriter(os.Stdout)
		for _, q := range queries {
			res, err := pblast.RunMaster(ctx, comm, masterFS, q, cfg)
			if err != nil {
				fatal(err)
			}
			if reportB != nil {
				reportB.AddOutcome(res)
			}
			writeResult(out, *outfmt, res, q)
		}
		out.Flush()
		writeReport(len(queries), *size-1)
		return
	}

	queries := loadQueries(*queryF, prog)

	searchOpts := []pblast.Option{
		pblast.WithParams(blast.Params{Program: prog, EValue: *evalue, Greedy: *mega, Filter: *filterLC}),
		pblast.WithThreads(*threads),
		pblast.WithChunkBytes(*chunk),
		pblast.WithTelemetry(pblast.NewTelemetry(reg)),
	}
	if *querySeg {
		searchOpts = append(searchOpts, pblast.WithMode(pblast.QuerySegmentation))
	}
	if *raEnable {
		searchOpts = append(searchOpts, pblast.WithReadahead(raOpts()...))
	}
	if *collEnable {
		collOpts := []collio.Option{
			collio.WithWindow(*collWindow),
			collio.WithMaxFanIn(*collFanIn),
		}
		if reg != nil {
			collOpts = append(collOpts, collio.WithTelemetry(reg))
		}
		searchOpts = append(searchOpts, core.WithCollectiveIO(collOpts...))
	}
	if *scratch != "" {
		searchOpts = append(searchOpts, pblast.WithCopyToLocal(true))
	}
	cfg := core.SearchConfig{
		Search:   pblast.NewConfig(*db, searchOpts...),
		Workers:  *workers,
		MasterFS: masterFS,
		WorkerFS: workerFS,
	}
	if *scratch != "" {
		cfg.Scratch = func(rank int) chio.FileSystem {
			fs, err := chio.NewLocalFS(fmt.Sprintf("%s/worker%d", *scratch, rank))
			if err != nil {
				fatal(err)
			}
			return fs
		}
	}
	var trace *iotrace.Trace
	if *traceOut != "" {
		trace = iotrace.NewTrace()
		cfg.Trace = trace
	}

	start := time.Now()
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	if len(queries) > 1 && cfg.Search.Mode == pblast.DatabaseSegmentation && !cfg.Search.CopyToLocal {
		// Multi-query batch: one (query x fragment) scheduling pass.
		batch, err := core.ParallelSearchBatch(ctx, queries, cfg)
		if err != nil {
			fatal(err)
		}
		if reportB != nil {
			reportB.AddBatchOutcome(batch)
		}
		for qi, res := range batch.Results {
			single := &pblast.Outcome{
				Result:     res,
				WallTime:   batch.WallTime,
				CopyTime:   batch.CopyTime,
				SearchTime: batch.SearchTime,
			}
			writeResult(out, *outfmt, single, queries[qi])
		}
	} else {
		for _, q := range queries {
			res, err := core.ParallelSearch(ctx, q, cfg)
			if err != nil {
				fatal(err)
			}
			if reportB != nil {
				reportB.AddOutcome(res)
			}
			writeResult(out, *outfmt, res, q)
		}
	}
	fmt.Fprintf(out, "# total elapsed %.2fs over %s backend\n",
		time.Since(start).Seconds(), masterFS.BackendName())

	if trace != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteScatter(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(out, "# %s\n# trace written to %s\n", trace.Summarize().Format(), *traceOut)
	}
	out.Flush()
	writeReport(len(queries), *workers)
}

// loadQueries reads the query FASTA file.
func loadQueries(path string, prog blast.Program) []*seq.Sequence {
	qf, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	queries, err := seq.NewFastaReader(qf, prog.QueryKind()).ReadAll()
	qf.Close()
	if err != nil {
		fatal(err)
	}
	if len(queries) == 0 {
		fatal(fmt.Errorf("no queries in %s", path))
	}
	return queries
}

// writeResult renders one query's merged outcome.
func writeResult(out *bufio.Writer, outfmt string, res *pblast.Outcome, q *seq.Sequence) {
	var err error
	switch outfmt {
	case "tabular":
		err = blast.WriteTabular(out, res.Result)
	default:
		err = blast.WriteReport(out, res.Result, q, nil)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(out, "# wall %.2fs, worker search time %.2fs, copy time %.2fs\n",
		res.WallTime.Seconds(), res.SearchTime.Seconds(), res.CopyTime.Seconds())
}

func fatal(err error) {
	if logger != nil {
		logger.Error(err.Error())
	} else {
		fmt.Fprintln(os.Stderr, "mpiblast:", err)
	}
	os.Exit(1)
}
