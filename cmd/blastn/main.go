// Command blastn runs a single-process blastn search of a nucleotide
// FASTA query against a pario database, optionally in megablast mode
// and with DUST filtering of the query.
//
// Usage:
//
//	blastn -db nt -query q.fasta [-evalue 10] [-word 11] [-megablast]
//	       [-F] [-outfmt report|tabular] [-root DIR]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"

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
		evalue  = flag.Float64("evalue", 10, "e-value report cutoff")
		word    = flag.Int("word", 0, "seed word size (0 = 11, or 28 with -megablast; at most 16, or 31 with -megablast)")
		outfmt  = flag.String("outfmt", "report", "report|tabular")
		mega    = flag.Bool("megablast", false, "megablast mode: 28-mer seeds + greedy extension")
		filter  = flag.Bool("F", false, "mask low-complexity query regions with DUST")
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
	queries, err := seq.NewFastaReader(in, seq.Nucleotide).ReadAll()
	if err != nil {
		fatal(err)
	}
	if len(queries) == 0 {
		fatal(fmt.Errorf("no query sequences in %s", *query))
	}
	params := blast.Params{
		Program:       blast.BlastN,
		EValue:        *evalue,
		WordSize:      *word,
		MaxTargetSeqs: *maxTgt,
		Greedy:        *mega,
		Filter:        *filter,
		Threads:       *threads,
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
