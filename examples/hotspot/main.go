// hotspot demonstrates CEFT-PVFS's hot-spot skipping (§4.5 of the
// paper) on a real localhost deployment: a database is mirrored
// across a 2+2 CEFT cluster, one data server's "disk" is crushed by
// the Figure 8 stressor plus an artificial service delay, and the
// same large read is timed with skipping disabled and enabled.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"time"

	"pario/internal/ceft"
	"pario/internal/chio"
	"pario/internal/core"
	"pario/internal/pvfs"
	"pario/internal/util"
)

func main() {
	// 1. Deploy CEFT-PVFS: 2 primary + 2 mirror data servers.
	dep, err := core.StartCEFT(2, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	fmt.Printf("CEFT-PVFS up: mgr %s, primary %v, mirror %v\n",
		dep.Mgr.Addr(), dep.PrimaryAddrs, dep.MirrorAddrs)

	// 2. Store a 16 MB file (stand-in for a database fragment).
	loader, err := dep.Client(ceft.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	defer loader.Close()
	payload := make([]byte, 16<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := chio.WriteFull(loader, "nt.000.pfr", payload); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored %s, mirrored on both groups\n\n", util.FormatBytes(int64(len(payload))))

	// 3. Stress primary server 0: heavy artificial per-byte delay (a
	//    loaded disk) plus a hammering writer keeping its queue full.
	dep.Servers[0].SetThrottle(500 * time.Microsecond) // 0.5ms per KiB
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		d, err := pvfs.DialData(dep.Servers[0].Addr())
		if err != nil {
			return
		}
		defer d.Close()
		junk := make([]byte, 1<<20)
		run := []pvfs.StripeRun{{Length: int64(len(junk))}}
		for {
			select {
			case <-stop:
				return
			default:
				d.WriteRuns(context.Background(), pvfs.OpListWrite, 0xbeef, run, junk) // Figure 8's synchronous 1MB appends
			}
		}
	}()
	// Give the heartbeats a moment to report the rising load.
	time.Sleep(600 * time.Millisecond)

	// 4. Time the same full read with skipping off and on.
	read := func(opts ceft.Options) time.Duration {
		cl, err := dep.Client(opts)
		if err != nil {
			log.Fatal(err)
		}
		defer cl.Close()
		f, err := cl.Open("nt.000.pfr")
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		buf := make([]byte, len(payload))
		start := time.Now()
		if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
			log.Fatal(err)
		}
		return time.Since(start)
	}

	naive := ceft.DefaultOptions()
	naive.SkipHotSpots = false
	tNaive := read(naive)
	fmt.Printf("read with hot-spot skipping OFF: %8.0f ms (waits on the stressed server)\n",
		tNaive.Seconds()*1000)

	smart := ceft.DefaultOptions()
	smart.LoadCacheTTL = 50 * time.Millisecond
	tSmart := read(smart)
	fmt.Printf("read with hot-spot skipping ON:  %8.0f ms (stressed server skipped, mirror used)\n",
		tSmart.Seconds()*1000)
	fmt.Printf("\nspeedup from skipping: %.1fx\n", tNaive.Seconds()/tSmart.Seconds())
}
