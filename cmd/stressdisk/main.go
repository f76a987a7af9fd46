// Command stressdisk is the paper's Figure 8 program: it saturates a
// disk with synchronous 1 MB appends to a file that is truncated
// whenever it passes 2 GB, emulating an I/O-intensive application
// sharing a data-server node.
//
// Usage:
//
//	stressdisk -dir /scratch [-duration 60s]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pario/internal/chio"
	"pario/internal/stress"
	"pario/internal/util"
)

func main() {
	var (
		dir      = flag.String("dir", ".", "directory whose disk to stress")
		duration = flag.Duration("duration", 0, "stop after this long (0 = until interrupted)")
	)
	flag.Parse()
	fs, err := chio.NewLocalFS(*dir)
	if err != nil {
		fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		cancel()
	}()
	if *duration > 0 {
		go func() {
			time.Sleep(*duration)
			cancel()
		}()
	}
	fmt.Printf("stressdisk: stressing %s with %s synchronous appends (truncate at %s)\n",
		*dir, util.FormatBytes(stress.DefaultBlockSize), util.FormatBytes(stress.DefaultMaxFileSize))
	st, err := stress.Run(ctx, fs, stress.Config{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("stressdisk: wrote %s in %d writes over %.1fs (%.1f MB/s), %d truncations\n",
		util.FormatBytes(st.BytesWritten), st.Writes, st.Elapsed.Seconds(),
		st.Throughput()/1e6, st.Truncations)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stressdisk:", err)
	os.Exit(1)
}
