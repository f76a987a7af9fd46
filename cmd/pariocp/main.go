// Command pariocp copies files between local disk, PVFS and
// CEFT-PVFS, and lists or removes files on the parallel stores — the
// u2p/pvfs-cp style utility used to load databases onto the parallel
// file systems.
//
// Path syntax: a bare path is local; "pvfs:NAME" and "ceft:NAME"
// address the parallel stores configured by flags.
//
// Usage:
//
//	pariocp -mgr host:7000 -servers a:7001,b:7001 local.dat pvfs:db/nt.000.pfr
//	pariocp -mgr host:7000 -primary a:7001 -mirror b:7001 nt.pal ceft:nt.pal
//	pariocp -mgr ... -servers ... -ls pvfs:
//	pariocp -mgr ... -servers ... -rm pvfs:old.dat
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pario/internal/chio"
	"pario/internal/core"
	"pario/internal/util"
)

// copyBuf is the copy buffer: 1 MB, sixteen 64 KB stripes.
const copyBuf = 1 << 20

func main() {
	var (
		ls = flag.Bool("ls", false, "list files at the given prefix")
		rm = flag.Bool("rm", false, "remove the given file")
	)
	store := core.NewStore()
	store.RegisterFlags(flag.CommandLine, core.AddrFlags)
	flag.Parse()
	args := flag.Args()

	// The path's prefix, not a flag, names the store each side lives
	// on; a bare path is a file under the current directory.
	resolve := func(path string) (chio.FileSystem, string, func() error) {
		side := *store
		for _, mode := range []string{"pvfs", "ceft"} {
			if name, ok := strings.CutPrefix(path, mode+":"); ok {
				side.IO, path = mode, name
				break
			}
		}
		fs, closeFS, err := side.Open()
		if err != nil {
			fatal(err)
		}
		return fs, path, closeFS
	}

	switch {
	case *ls:
		if len(args) != 1 {
			fatal(fmt.Errorf("-ls needs exactly one prefix argument"))
		}
		fs, prefix, closeFS := resolve(args[0])
		defer closeFS()
		fis, err := fs.List(prefix)
		if err != nil {
			fatal(err)
		}
		for _, fi := range fis {
			fmt.Printf("%12s  %s\n", util.FormatBytes(fi.Size), fi.Name)
		}
	case *rm:
		if len(args) != 1 {
			fatal(fmt.Errorf("-rm needs exactly one argument"))
		}
		fs, name, closeFS := resolve(args[0])
		defer closeFS()
		if err := fs.Remove(name); err != nil {
			fatal(err)
		}
	default:
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "pariocp: need SRC and DST (or -ls/-rm)")
			flag.Usage()
			os.Exit(2)
		}
		srcFS, srcName, closeSrc := resolve(args[0])
		defer closeSrc()
		dstFS, dstName, closeDst := resolve(args[1])
		defer closeDst()
		n, err := chio.Copy(dstFS, dstName, srcFS, srcName, copyBuf)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("copied %s (%s -> %s)\n", util.FormatBytes(n), args[0], args[1])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pariocp:", err)
	os.Exit(1)
}
