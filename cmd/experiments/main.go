// Command experiments regenerates every table and figure of the
// paper's evaluation:
//
//	experiments fig4    I/O access pattern of the parallel BLAST
//	                    (a real traced run of the Go implementation)
//	experiments fig5    original vs -over-PVFS, equal resources (sim)
//	experiments fig6    PVFS data-server sweep (sim)
//	experiments fig7    PVFS 8 servers vs CEFT 4+4 (sim)
//	experiments fig9    hot-spot degradation, all three schemes (sim)
//	experiments ablation  §4.4/§4.5 read-optimization ablations (sim)
//	experiments projection  §4.3's larger-database prediction (sim)
//	experiments all     everything above
//
// Timing figures run on the calibrated discrete-event model of the
// PrairieFire testbed (see DESIGN.md §5); -scale shrinks the modelled
// database for quicker runs while preserving every ratio.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"pario/internal/blast"
	"pario/internal/chio"
	"pario/internal/core"
	"pario/internal/iotrace"
	"pario/internal/pblast"
	"pario/internal/sim"
	"pario/internal/telemetry"
	"pario/internal/util"
)

func main() {
	var (
		scale   = flag.Float64("scale", 1.0, "database scale factor for the simulated figures")
		fig4DB  = flag.String("fig4-db-size", "48MB", "database size for the real traced Figure 4 run")
		scatter = flag.String("fig4-scatter", "", "write the Figure 4 scatter data to this file")

		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/traces and /debug/pprof on this address (empty = off)")
	)
	flag.Parse()
	cmd := flag.Arg(0)
	if cmd == "" {
		flag.Usage()
		fmt.Fprintln(os.Stderr, "experiments: need a subcommand (fig4|fig5|fig6|fig7|fig9|ablation|projection|sensitivity|all)")
		os.Exit(2)
	}
	if *debugAddr != "" {
		logger := telemetry.NewProcessLogger("experiments")
		reg := telemetry.NewRegistry()
		telemetry.RegisterBuildInfo(reg, "experiments")
		dbg, err := telemetry.StartDebug(*debugAddr, reg, telemetry.NewTracer(0))
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		logger.Info("debug endpoints up", "url", fmt.Sprintf("http://%s/metrics", dbg.Addr()))
	}
	p := sim.DefaultParams().Scaled(*scale)
	switch cmd {
	case "fig4":
		runFig4(*fig4DB, *scatter)
	case "fig5":
		sim.Fig5(p).Render(os.Stdout)
	case "fig6":
		sim.Fig6(p).Render(os.Stdout)
	case "fig7":
		sim.Fig7(p).Render(os.Stdout)
	case "fig9":
		rs, t := sim.Fig9(p)
		t.Render(os.Stdout)
		fmt.Printf("degradations: %s (paper: original ~10x, PVFS ~21x, CEFT ~2x)\n",
			sim.FormatDegradations(rs))
	case "ablation":
		sim.AblationDoubling(p).Render(os.Stdout)
		sim.AblationSkip(p).Render(os.Stdout)
	case "projection":
		sim.ScalingProjection(p).Render(os.Stdout)
	case "sensitivity":
		sim.Sensitivity(p).Render(os.Stdout)
	case "all":
		runFig4(*fig4DB, *scatter)
		fmt.Println()
		sim.Summary(p, os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown subcommand %q\n", cmd)
		os.Exit(2)
	}
}

// fig4Workers is the paper's worker count for Figure 4.
const fig4Workers = 8

// runFig4 reproduces the Figure 4 trace: a real in-process parallel
// BLAST run (database segmentation, fig4Workers workers) with the I/O
// instrumentation enabled, reporting the same statistics the paper's
// caption gives.
func runFig4(dbSize, scatterPath string) {
	letters, err := util.ParseBytes(dbSize)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("== Figure 4 ==\nI/O access pattern of parallel BLAST (%d workers, %s synthetic nt-like database)\n\n",
		fig4Workers, util.FormatBytes(letters))
	fs := chio.NewMemFS()
	if _, err := core.GenerateDatabase(fs, "nt", letters, fig4Workers, 42); err != nil {
		fatal(err)
	}
	query, err := core.ExtractQuery(fs, "nt", 568, 7)
	if err != nil {
		fatal(err)
	}
	trace := iotrace.NewTrace()
	out, err := core.ParallelSearch(context.Background(), query, core.SearchConfig{
		Search:   pblast.NewConfig("nt", pblast.WithParams(blast.Params{Program: blast.BlastN})),
		Workers:  fig4Workers,
		MasterFS: fs,
		WorkerFS: func(rank int) chio.FileSystem { return iotrace.Wrap(fs, trace, fmt.Sprintf("worker%d", rank)) },
	})
	if err != nil {
		fatal(err)
	}
	stats := trace.Summarize()
	fmt.Println(stats.Format())
	fmt.Printf("\npaper (2.7GB nt, 8 workers): among 144 I/O operations, 89%% were reads\n")
	fmt.Printf("ranging from 13B to 220MB (mean 37MB); 16 writes of 50-778B (mean 690B).\n")
	best := "(none)"
	if len(out.Result.Hits) > 0 {
		best = out.Result.Hits[0].SubjectID
	}
	fmt.Printf("\nsearch found %d hits; best subject %s\n", len(out.Result.Hits), best)
	if scatterPath != "" {
		f, err := os.Create(scatterPath)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteScatter(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("scatter data written to %s\n", scatterPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
