// Command dbinfo inspects a pario database: alias totals, per-fragment
// statistics, and optional data-integrity verification (CRC-32 of
// every fragment's sequence data) — useful after copying databases
// onto PVFS or CEFT-PVFS.
//
// Usage:
//
//	dbinfo -db nt [-root DIR] [-verify]
//	dbinfo -db nt -mgr host:7000 -servers a:7001,b:7001 [-verify]
//	dbinfo -db nt -io ceft -mgr host:7000 -primary a:7001 -mirror b:7001 [-verify]
package main

import (
	"flag"
	"fmt"
	"os"

	"pario/internal/blastdb"
	"pario/internal/core"
	"pario/internal/util"
)

func main() {
	var (
		db     = flag.String("db", "", "database name (required)")
		verify = flag.Bool("verify", false, "verify every fragment's data checksum")
	)
	store := core.NewStore()
	store.RegisterFlags(flag.CommandLine, core.AddrFlags|core.ModeFlags)
	flag.Parse()
	if *db == "" {
		fmt.Fprintln(os.Stderr, "dbinfo: -db is required")
		flag.Usage()
		os.Exit(2)
	}
	// Before dbinfo had -io, giving -mgr was how to ask for PVFS.
	if store.IO == "local" && store.Mgr != "" {
		store.IO = "pvfs"
	}
	fs, closeFS, err := store.Open()
	if err != nil {
		fatal(err)
	}
	defer closeFS()

	alias, err := blastdb.ReadAlias(fs, *db)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("database:  %s (%s)\n", alias.Title, alias.Kind)
	fmt.Printf("sequences: %d\n", alias.Seqs)
	fmt.Printf("letters:   %d (%s)\n", alias.Letters, util.FormatBytes(alias.Letters))
	fmt.Printf("fragments: %d\n\n", len(alias.Fragments))
	fmt.Printf("%-24s %12s %14s %12s %s\n", "fragment", "sequences", "letters", "file size", "checksum")
	bad := 0
	for _, fi := range alias.Fragments {
		stat, err := fs.Stat(fi.Path)
		if err != nil {
			fatal(err)
		}
		status := "-"
		if *verify {
			fr, err := blastdb.OpenFragment(fs, fi.Path)
			if err != nil {
				fatal(err)
			}
			if err := fr.VerifyChecksum(); err != nil {
				status = "CORRUPT"
				bad++
			} else {
				status = "ok"
			}
			fr.Close()
		}
		fmt.Printf("%-24s %12d %14d %12s %s\n",
			fi.Path, fi.Seqs, fi.Letters, util.FormatBytes(stat.Size), status)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "dbinfo: %d fragment(s) corrupt\n", bad)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dbinfo:", err)
	os.Exit(1)
}
