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
	"sort"
	"sync"
	"time"

	"pario/internal/blast"
	"pario/internal/blastdb"
	"pario/internal/chio"
	"pario/internal/core"
	"pario/internal/mpi"
	"pario/internal/obsreport"
	"pario/internal/pblast"
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
		evalue   = flag.Float64("evalue", 10, "e-value cutoff")
		mega     = flag.Bool("megablast", false, "megablast mode: 28-mer seeds + greedy extension")
		filterLC = flag.Bool("F", false, "mask low-complexity query regions with DUST")
		outfmt   = flag.String("outfmt", "report", "report|tabular")

		// Live observability endpoints and run reports.
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/traces and /debug/pprof on this address (empty = off)")
		reportOut = flag.String("report", "", "write a cluster-wide run report (JSON) to this file and print its rendering")
		collect   = flag.String("collect", "", "comma-separated name=host:port debug endpoints to scrape into the report (e.g. iod0=127.0.0.1:9101,mgr=127.0.0.1:9100)")

		// Distributed mode: run this process as one rank of a
		// multi-process (multi-machine) job over the TCP transport.
		router = flag.String("router", "", "address the master (rank 0) listens on and the workers dial; enables distributed mode")
		rank   = flag.Int("rank", 0, "this process's rank (0 = master)")
		size   = flag.Int("size", 0, "total ranks including the master (distributed mode)")
	)
	// Which file system the workers read (-io and its addresses,
	// transport and CEFT tuning) and how each worker reads it (chunk,
	// scratch, readahead).
	store := core.NewStore()
	store.RegisterFlags(flag.CommandLine, core.AddrFlags|core.ModeFlags|core.TransportFlags)
	var tune core.WorkerFlags
	tune.RegisterFlags(flag.CommandLine)
	flag.Parse()
	logger = telemetry.NewProcessLogger("mpiblast")
	if *db == "" || *queryF == "" {
		fmt.Fprintln(os.Stderr, "mpiblast: -db and -query are required")
		flag.Usage()
		os.Exit(2)
	}
	collectTargets, err := telemetry.ParseTargets(*collect)
	if err != nil {
		fatal(err)
	}
	distributed := *router != ""
	if distributed && *size < 2 {
		fatal(fmt.Errorf("distributed mode needs -size >= 2"))
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
	// dials, and one counter sink shared by every worker's readahead
	// layer: on /metrics and in the -report when there is a registry.
	var metrics *rpcpool.Metrics
	if reg != nil {
		metrics = rpcpool.NewMetrics(reg)
	}
	tuneOpts := tune.Options(reg)

	// Rank 0 is the master's view of the store; every worker rank gets
	// a client of its own.
	store.Logger = logger
	ranks, err := store.OpenRanks(rpcpool.WithMetrics(metrics), rpcpool.WithTracer(tracer))
	if err != nil {
		fatal(err)
	}
	defer ranks.Close()

	searchOpts := []pblast.Option{
		pblast.WithParams(blast.Params{Program: blast.BlastN, EValue: *evalue, Greedy: *mega, Filter: *filterLC}),
		pblast.WithTelemetry(pblast.NewTelemetry(reg)),
	}
	searchOpts = append(searchOpts, tuneOpts...)
	cfg := pblast.NewConfig(*db, searchOpts...)

	if distributed && *rank > 0 {
		// Worker rank: serve tasks through the same read-path stack an
		// in-process worker gets, and exit. Retry the dial so workers may
		// start before the master listens.
		comm, err := mpi.DialRetry(*router, *rank, *size, 30*time.Second)
		if err != nil {
			fatal(err)
		}
		fs := cfg.WorkerFS(core.PerRank(ranks.FS, fatal))(*rank)
		if err := pblast.RunWorker(ctx, comm, cfg, fs, core.PerRank(tune.ScratchFS, fatal)(*rank)); err != nil {
			fatal(err)
		}
		return
	}

	// Master (distributed) or whole job (in-process): either way the
	// queries go through one stream — over the TCP communicator, or
	// over a pool of worker goroutines in this process.
	queries := loadQueries(*queryF)
	masterFS := core.PerRank(ranks.FS, fatal)(0)
	alias, err := blastdb.ReadAlias(chio.BindContext(masterFS, ctx), *db)
	if err != nil {
		fatal(fmt.Errorf("reading alias: %w", err))
	}
	var (
		submit      func(context.Context, *seq.Sequence, blast.Params, *blastdb.Alias) (*pblast.Outcome, error)
		closeStream func() error
		nWorkers    = *workers
	)
	start := time.Now()
	if distributed {
		comm, err := mpi.Listen(*router, *size)
		if err != nil {
			fatal(err)
		}
		defer comm.Close()
		st, err := pblast.StartStream(ctx, comm, cfg)
		if err != nil {
			fatal(err)
		}
		submit, closeStream, nWorkers = st.Submit, st.Close, *size-1
	} else {
		pool, err := pblast.NewPool(ctx, cfg, *workers, core.PerRank(ranks.FS, fatal), core.PerRank(tune.ScratchFS, fatal), nil)
		if err != nil {
			fatal(err)
		}
		submit, closeStream = pool.Submit, pool.Close
	}

	// Queries are submitted concurrently, so the task space is the
	// (query x fragment) matrix scheduled dynamically onto idle workers
	// — how mpiBLAST-era installations processed EST batches. Two
	// queries in flight per worker keep the task queue from running dry
	// while a finished query's successor is admitted.
	outs := make([]*pblast.Outcome, len(queries))
	errs := make([]error, len(queries))
	inFlight := make(chan struct{}, 2*nWorkers)
	var wg sync.WaitGroup
	for i, q := range queries {
		inFlight <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = submit(ctx, q, cfg.Params, alias)
			<-inFlight
		}()
	}
	wg.Wait()
	cerr := closeStream()
	for _, err := range append(errs, cerr) {
		if err != nil {
			fatal(err)
		}
	}

	// The run as a whole: wall clock once (the per-query walls overlap),
	// worker times summed, one timeline in assignment order with task
	// indices made unique across queries.
	run := &pblast.Outcome{WallTime: time.Since(start)}
	out := bufio.NewWriter(os.Stdout)
	for i, res := range outs {
		writeResult(out, *outfmt, res, queries[i])
		base := len(run.Timeline)
		for _, ev := range res.Timeline {
			ev.Index += base
			run.Timeline = append(run.Timeline, ev)
		}
		run.CopyTime += res.CopyTime
		run.SearchTime += res.SearchTime
		run.Reassigned += res.Reassigned
	}
	sort.SliceStable(run.Timeline, func(a, b int) bool { return run.Timeline[a].Start < run.Timeline[b].Start })
	fmt.Fprintf(out, "# total elapsed %.2fs over %s backend\n",
		run.WallTime.Seconds(), masterFS.BackendName())
	if err := out.Flush(); err != nil {
		fatal(err)
	}

	// -report: pull metrics and span buffers from this process and
	// every -collect endpoint, fold in the scheduling timeline and the
	// CEFT hot-spot audits, and write the run report.
	if *reportOut != "" {
		b := obsreport.NewBuilder(fmt.Sprintf("%s/%s", store.IO, *db))
		b.SetRun(obsreport.RunInfo{
			DB: *db, Query: *queryF, Backend: store.IO,
			Workers: nWorkers, Queries: len(queries),
		})
		b.AddOutcome(run)
		b.AddSnapshot(obsreport.LocalSnapshot("master", reg, tracer))
		for _, t := range collectTargets {
			b.AddSnapshot(obsreport.RemoteSnapshot(ctx, t))
		}
		for _, a := range ranks.CEFTAudits() {
			b.AddCEFTAudit(a)
		}
		rep := b.Build()
		if err := rep.WriteJSONFile(*reportOut); err != nil {
			fatal(err)
		}
		rep.RenderText(os.Stderr)
		logger.Info("run report written", "path", *reportOut)
	}
}

// loadQueries reads the query FASTA file.
func loadQueries(path string) []*seq.Sequence {
	qf, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	queries, err := seq.NewFastaReader(qf, seq.Nucleotide).ReadAll()
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
		err = blast.WriteReport(out, res.Result)
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
