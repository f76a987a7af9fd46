// Command pariostat renders cluster-wide run reports written by
// mpiblast -report, and single-query timelines pulled live from a
// running cluster.
//
//	pariostat run.json                 render one report
//	pariostat before.json after.json   diff two runs
//	pariostat -query 4a1f... -targets blastd=:7044,iod0=:9101
//	                                   per-phase gantt of one query
//
// Reports are plain JSON (internal/obsreport); pariostat is the
// human-facing view: critical-path decomposition, worker timelines and
// stragglers, per-server byte/load distribution with imbalance
// coefficients, and the CEFT hot-spot audit. With -query it instead
// fetches one trace's spans from every listed debug endpoint
// (/debug/traces?trace=<id>), assembles the cross-process tree, and
// renders the query's gantt and phase breakdown.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"

	"pario/internal/obsreport"
	"pario/internal/telemetry"
)

func main() {
	events := flag.Bool("events", false, "include the full hot-spot transition log in the rendering")
	query := flag.String("query", "", "render one query's trace (16-hex trace ID, e.g. from X-Pario-Trace)")
	targets := flag.String("targets", "", "comma-separated name=host:port debug endpoints to pull the trace from")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pariostat [-events] report.json [other-report.json]\n")
		fmt.Fprintf(os.Stderr, "       pariostat -query <trace-id> -targets name=host:port,...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *query != "" {
		renderQuery(*query, *targets)
		return
	}

	switch flag.NArg() {
	case 1:
		rep, err := obsreport.ReadReportFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if !*events {
			rep.HotSpot.Events = nil
		}
		rep.RenderText(os.Stdout)
	case 2:
		a, err := obsreport.ReadReportFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := obsreport.ReadReportFile(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		obsreport.RenderDiff(os.Stdout, a, b)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// renderQuery pulls one trace from every target and renders its
// timeline. Unreachable targets are warnings, not failures: a dead
// worker must not hide the spans the rest of the cluster still holds.
func renderQuery(idStr, targetSpec string) {
	id, err := strconv.ParseUint(idStr, 16, 64)
	if err != nil || id == 0 {
		fatal(fmt.Errorf("bad -query trace ID %q (want 16 hex digits)", idStr))
	}
	targets, err := telemetry.ParseTargets(targetSpec)
	if err != nil {
		fatal(err)
	}
	if len(targets) == 0 {
		fatal(fmt.Errorf("-query needs -targets name=host:port,..."))
	}
	spans, errs := obsreport.FetchTraceSpans(context.Background(), targets, id)
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "pariostat: warning:", e)
	}
	tree := obsreport.AssembleQuery(id, spans)
	if tree == nil {
		fatal(fmt.Errorf("no spans for trace %016x at the given targets (evicted from the ring, or wrong -targets?)", id))
	}
	obsreport.RenderQuery(os.Stdout, tree)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pariostat:", err)
	os.Exit(1)
}
