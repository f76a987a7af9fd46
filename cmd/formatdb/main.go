// Command formatdb builds a segmented pario BLAST database from FASTA
// input, like NCBI's formatdb combined with mpiBLAST's database
// segmentation. It can also synthesize an nt-like database when given
// -generate, standing in for a download of the real nt.
//
// The database can be written to a local directory (default) or
// straight into a running parallel file system with -io pvfs or
// -io ceft, so cluster smoke tests and experiments need no separate
// copy step.
//
// Usage:
//
//	formatdb -db nt -fragments 8 -in sequences.fasta [-protein] [-root DIR]
//	formatdb -db nt -fragments 8 -generate 2.7GB [-seed 42] [-root DIR]
//	formatdb -db nt -fragments 4 -generate 8MB -io ceft \
//	    -mgr 127.0.0.1:7000 -primary h1:7001,h2:7001 -mirror h3:7001,h4:7001
package main

import (
	"flag"
	"fmt"
	"os"

	"pario/internal/core"
	"pario/internal/seq"
	"pario/internal/util"
)

func main() {
	var (
		db        = flag.String("db", "", "database name (required)")
		fragments = flag.Int("fragments", 1, "number of database fragments")
		in        = flag.String("in", "", "input FASTA file (- for stdin)")
		protein   = flag.Bool("protein", false, "input is protein (default nucleotide)")
		generate  = flag.String("generate", "", "generate a synthetic nt-like database of this size (e.g. 512MB) instead of reading FASTA")
		seed      = flag.Uint64("seed", 42, "generator seed")
	)
	store := core.NewStore()
	store.RegisterFlags(flag.CommandLine, core.AddrFlags|core.ModeFlags)
	flag.Parse()
	if *db == "" {
		fmt.Fprintln(os.Stderr, "formatdb: -db is required")
		flag.Usage()
		os.Exit(2)
	}
	fs, closeFS, err := store.Open()
	if err != nil {
		fatal(err)
	}
	defer closeFS()

	switch {
	case *generate != "":
		letters, err := util.ParseBytes(*generate)
		if err != nil {
			fatal(err)
		}
		alias, err := core.GenerateDatabase(fs, *db, letters, *fragments, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("generated %s: %d sequences, %s in %d fragments on %s\n",
			*db, alias.Seqs, util.FormatBytes(alias.Letters), len(alias.Fragments), fs.BackendName())
	case *in != "":
		f := os.Stdin
		var err error
		if *in != "-" {
			f, err = os.Open(*in)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
		}
		kind := seq.Nucleotide
		if *protein {
			kind = seq.Protein
		}
		alias, err := core.FormatDatabase(fs, *db, kind, *fragments, f)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("formatted %s: %d sequences, %s in %d fragments on %s\n",
			*db, alias.Seqs, util.FormatBytes(alias.Letters), len(alias.Fragments), fs.BackendName())
	default:
		fmt.Fprintln(os.Stderr, "formatdb: need -in FILE or -generate SIZE")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "formatdb:", err)
	os.Exit(1)
}
