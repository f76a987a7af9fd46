// Command blastn runs a single-process BLAST search of a FASTA query
// against a pario database. Despite the name it exposes all five
// programs via -program (blastn, blastp, blastx, tblastn, tblastx),
// the way NCBI's blastall did.
//
// Usage:
//
//	blastn -db nt -query q.fasta [-program blastn] [-evalue 10]
//	       [-word 11] [-outfmt report|tabular] [-root DIR]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"

	"pario/internal/align"
	"pario/internal/blast"
	"pario/internal/chio"
	"pario/internal/core"
	"pario/internal/seq"
	"pario/internal/telemetry"
)

func main() {
	var (
		db      = flag.String("db", "", "database name (required)")
		query   = flag.String("query", "", "query FASTA file (- for stdin; required)")
		program = flag.String("program", "blastn", "blastn|blastp|blastx|tblastn|tblastx")
		evalue  = flag.Float64("evalue", 10, "e-value report cutoff")
		word    = flag.Int("word", 0, "seed word size (0 = program default; at most 31 with -megablast)")
		outfmt  = flag.String("outfmt", "report", "report|tabular")
		mega    = flag.Bool("megablast", false, "megablast mode: 28-mer seeds + greedy extension (blastn only)")
		filter  = flag.Bool("F", false, "mask low-complexity query regions (DUST/SEG)")
		matrix  = flag.String("matrix", "", "protein scoring matrix file (NCBI format); default BLOSUM62")
		gapOpen = flag.Int("gapopen", 11, "gap open cost for -matrix")
		gapExt  = flag.Int("gapextend", 1, "gap extend cost for -matrix")
		maxTgt  = flag.Int("max-target-seqs", 0, "cap reported subjects (0 = all)")
		threads = flag.Int("threads", runtime.NumCPU(), "search shards for the subject pipeline (1 = sequential)")
		root    = flag.String("root", ".", "directory holding the database files")

		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/traces and /debug/pprof on this address (empty = off)")
	)
	flag.Parse()
	if *db == "" || *query == "" {
		fmt.Fprintln(os.Stderr, "blastn: -db and -query are required")
		flag.Usage()
		os.Exit(2)
	}
	if *debugAddr != "" {
		logger := telemetry.NewProcessLogger("blastn")
		reg := telemetry.NewRegistry()
		telemetry.RegisterBuildInfo(reg, "blastn")
		dbg, err := telemetry.StartDebug(*debugAddr, reg, telemetry.NewTracer(0))
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		logger.Info("debug endpoints up", "url", fmt.Sprintf("http://%s/metrics", dbg.Addr()))
	}
	prog, err := blast.ParseProgram(*program)
	if err != nil {
		fatal(err)
	}
	fs, err := chio.NewLocalFS(*root)
	if err != nil {
		fatal(err)
	}
	in := os.Stdin
	if *query != "-" {
		in, err = os.Open(*query)
		if err != nil {
			fatal(err)
		}
		defer in.Close()
	}
	queries, err := seq.NewFastaReader(in, prog.QueryKind()).ReadAll()
	if err != nil {
		fatal(err)
	}
	if len(queries) == 0 {
		fatal(fmt.Errorf("no query sequences in %s", *query))
	}
	params := blast.Params{
		Program:       prog,
		EValue:        *evalue,
		WordSize:      *word,
		MaxTargetSeqs: *maxTgt,
		Greedy:        *mega,
		Filter:        *filter,
		Threads:       *threads,
	}
	if *matrix != "" {
		scheme, err := align.LoadMatrixFile(*matrix, *gapOpen, *gapExt)
		if err != nil {
			fatal(err)
		}
		params.Scheme = scheme
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	for _, q := range queries {
		res, err := core.SerialSearch(fs, *db, q, params)
		if err != nil {
			fatal(err)
		}
		switch *outfmt {
		case "tabular":
			err = blast.WriteTabular(out, res)
		default:
			err = blast.WriteReport(out, res)
		}
		if err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "blastn:", err)
	os.Exit(1)
}
