// Command reportcheck asserts the invariants scripts/report_smoke.sh
// expects of a run report: non-empty timeline, critical-path and
// trace sections, a search-kernel section with a bases/sec rate,
// per-server stats for every data server, clean collection from every
// process, and — when -hot-server is given — a
// hot-spot audit that names that server and counts rerouted reads.
// It exists so the smoke test validates the real report schema instead
// of grepping JSON text.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pario/internal/obsreport"
)

func main() {
	var (
		path      = flag.String("report", "", "report JSON to check (required)")
		minIODs   = flag.Int("min-iods", 0, "require per-server stats for at least this many data servers")
		hotServer = flag.String("hot-server", "", "require the hot-spot audit to name this server with >0 reroutes")
	)
	flag.Parse()
	if *path == "" {
		fmt.Fprintln(os.Stderr, "reportcheck: -report is required")
		os.Exit(2)
	}
	rep, err := obsreport.ReadReportFile(*path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reportcheck:", err)
		os.Exit(1)
	}

	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }

	if rep.Version != obsreport.Version {
		fail("version = %d, want %d", rep.Version, obsreport.Version)
	}
	if len(rep.Timeline) == 0 {
		fail("timeline is empty")
	}
	if len(rep.Workers) == 0 {
		fail("no worker stats")
	}
	cp := rep.CriticalPath
	if cp.WallSeconds <= 0 || cp.SearchSeconds <= 0 {
		fail("critical path has no master timings: %+v", cp)
	}
	if cp.ClientIOSeconds <= 0 || cp.RPCSeconds <= 0 || cp.ServerSeconds <= 0 {
		fail("critical path missing span-derived components: %+v", cp)
	}
	if sk := rep.SearchKernel; !sk.Enabled || sk.BasesPerSecond <= 0 {
		fail("search kernel section has no bases/sec rate: %+v", sk)
	}
	for _, p := range rep.Processes {
		if p.Err != "" {
			fail("collection from %s failed: %s", p.Name, p.Err)
		}
	}
	iods := 0
	for _, ss := range rep.Servers {
		if strings.HasPrefix(ss.Server, "iod") && ss.Bytes > 0 {
			iods++
		}
	}
	if iods < *minIODs {
		fail("only %d data servers with served bytes, want >= %d", iods, *minIODs)
	}
	if *minIODs > 0 && rep.Imbalance.ServerBytes.Entities < *minIODs {
		fail("byte-imbalance over %d entities, want >= %d", rep.Imbalance.ServerBytes.Entities, *minIODs)
	}
	if rep.Traces.Spans == 0 || rep.Traces.Traces == 0 {
		fail("no assembled traces")
	}
	if rep.Traces.Processes < 2 {
		fail("traces span %d processes, want cross-process assembly (>= 2)", rep.Traces.Processes)
	}

	if *hotServer != "" {
		hs := rep.HotSpot
		if !hs.Enabled {
			fail("hot-spot audit disabled")
		}
		if hs.TotalReroutes <= 0 {
			fail("no stripe reads rerouted to mirrors")
		}
		if hs.Reroutes[*hotServer] <= 0 {
			fail("no reroutes away from %s: %v", *hotServer, hs.Reroutes)
		}
		if hs.HottestServer != *hotServer {
			fail("hottest server = %q, want %q", hs.HottestServer, *hotServer)
		}
		if len(hs.Events) == 0 {
			fail("no hot-spot transition events")
		}
	}

	if len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "reportcheck:", e)
		}
		os.Exit(1)
	}
	fmt.Printf("reportcheck: ok (%d processes, %d spans, %d reroutes)\n",
		len(rep.Processes), rep.Traces.Spans, rep.HotSpot.TotalReroutes)
}
