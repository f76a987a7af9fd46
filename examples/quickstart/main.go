// Quickstart: build a small database, extract a query, and run both a
// serial and a parallel BLAST search against it — the minimal tour of
// the library's public API.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"pario/internal/blast"
	"pario/internal/chio"
	"pario/internal/core"
	"pario/internal/pblast"
)

func main() {
	// 1. A storage backend. chio.FileSystem abstracts where the
	//    database lives: local disk, in-memory, PVFS or CEFT-PVFS.
	fs := chio.NewMemFS()

	// 2. Build a database. Here we synthesize an nt-like nucleotide
	//    database of 8 MB split into 4 fragments (with real data you
	//    would use core.FormatDatabase on a FASTA stream).
	alias, err := core.GenerateDatabase(fs, "demo", 8<<20, 4, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database %q: %d sequences, %d letters, %d fragments\n",
		alias.Title, alias.Seqs, alias.Letters, len(alias.Fragments))

	// 3. Extract a 568-letter query from the database itself (the
	//    paper's methodology), so we know it has a perfect hit.
	query, err := core.ExtractQuery(fs, "demo", 568, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %s (%d letters)\n\n", query.ID, query.Len())

	// 4. Serial search.
	serial, err := core.SerialSearch(fs, "demo", query, blast.Params{Program: blast.BlastN})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serial search: %d hits, best e-value %.2g\n",
		len(serial.Hits), serial.Hits[0].BestEValue())

	// 5. Parallel search: a master plus 4 workers (in-process ranks
	//    of the mpi substrate), database-segmentation scheduling.
	out, err := core.ParallelSearch(context.Background(), query, core.SearchConfig{
		Search:   pblast.NewConfig("demo", pblast.WithParams(blast.Params{Program: blast.BlastN})),
		Workers:  4,
		MasterFS: fs,
		WorkerFS: func(int) chio.FileSystem { return fs },
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel search: %d hits in %.0f ms wall time\n\n",
		len(out.Result.Hits), out.WallTime.Seconds()*1000)

	// 6. A classic BLAST report of the parallel result.
	if err := blast.WriteReport(os.Stdout, out.Result); err != nil {
		log.Fatal(err)
	}
}
