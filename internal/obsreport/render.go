package obsreport

import (
	"fmt"
	"io"
	"strings"

	"pario/internal/util"
)

// RenderText writes the human-readable form of the report: what
// pariostat (and mpiblast -report with a .txt sibling) shows.
func (r *Report) RenderText(w io.Writer) {
	title := "run report"
	if r.Label != "" {
		title = "run report: " + r.Label
	}
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	if !r.GeneratedAt.IsZero() {
		fmt.Fprintf(w, "generated %s\n", r.GeneratedAt.Format("2006-01-02 15:04:05 MST"))
	}

	fmt.Fprintf(w, "\nRun\n---\n")
	if r.Run.DB != "" {
		fmt.Fprintf(w, "  db        %s\n", r.Run.DB)
	}
	if r.Run.Query != "" {
		fmt.Fprintf(w, "  query     %s\n", r.Run.Query)
	}
	if r.Run.Backend != "" {
		fmt.Fprintf(w, "  backend   %s\n", r.Run.Backend)
	}
	if r.Run.Workers > 0 {
		fmt.Fprintf(w, "  workers   %d\n", r.Run.Workers)
	}
	if r.Run.Queries > 0 {
		fmt.Fprintf(w, "  queries   %d\n", r.Run.Queries)
	}
	fmt.Fprintf(w, "  wall      %s\n", seconds(r.Run.WallSeconds))
	fmt.Fprintf(w, "  copy      %s (summed across workers)\n", seconds(r.Run.CopySeconds))
	fmt.Fprintf(w, "  search    %s (summed across workers)\n", seconds(r.Run.SearchSeconds))
	if r.Run.Reassigned > 0 {
		fmt.Fprintf(w, "  reassigned tasks  %d\n", r.Run.Reassigned)
	}

	if len(r.Processes) > 0 {
		fmt.Fprintf(w, "\nProcesses\n---------\n")
		for _, p := range r.Processes {
			line := fmt.Sprintf("  %-10s %-28s %5d spans  %5d samples", p.Name, p.Source, p.Spans, p.Samples)
			if p.Err != "" {
				line = fmt.Sprintf("  %-10s %-28s COLLECT FAILED: %s", p.Name, p.Source, p.Err)
			}
			fmt.Fprintln(w, line)
		}
	}

	cp := r.CriticalPath
	fmt.Fprintf(w, "\nCritical path (summed component time; overlapping layers)\n----------------------------------------------------------\n")
	denom := cp.SearchSeconds
	if denom <= 0 {
		denom = cp.WallSeconds
	}
	row := func(name string, v float64) {
		fmt.Fprintf(w, "  %-12s %10s  %s\n", name, seconds(v), bar(v, denom, 30))
	}
	row("search", cp.SearchSeconds)
	row("compute", cp.ComputeSeconds)
	row("client io", cp.ClientIOSeconds)
	row("rpc", cp.RPCSeconds)
	row("server", cp.ServerSeconds)
	row("rpc wait", cp.RPCWaitSeconds)
	row("disk queue", cp.QueueWaitSeconds)
	row("copy", cp.CopySeconds)

	if len(r.Workers) > 0 {
		fmt.Fprintf(w, "\nWorkers\n-------\n")
		var maxBusy float64
		for _, ws := range r.Workers {
			if ws.BusySeconds > maxBusy {
				maxBusy = ws.BusySeconds
			}
		}
		for _, ws := range r.Workers {
			flag := ""
			if ws.Straggler {
				flag = "  << straggler"
			}
			fmt.Fprintf(w, "  worker%-3d %4d tasks  %10s busy  %s%s\n",
				ws.Worker, ws.Tasks, seconds(ws.BusySeconds), bar(ws.BusySeconds, maxBusy, 30), flag)
		}
		fmt.Fprintf(w, "  busy imbalance: cv=%.2f max/mean=%.2f (max %s)\n",
			r.Imbalance.WorkerBusy.CV, r.Imbalance.WorkerBusy.MaxOverMean, r.Imbalance.WorkerBusy.MaxEntity)
	}

	if len(r.Servers) > 0 {
		fmt.Fprintf(w, "\nServers\n-------\n")
		var maxBytes int64
		for _, ss := range r.Servers {
			if ss.Bytes > maxBytes {
				maxBytes = ss.Bytes
			}
		}
		fmt.Fprintf(w, "  %-8s %12s %10s %9s %9s %12s\n", "server", "bytes", "requests", "load", "mgr load", "disk queue")
		for _, ss := range r.Servers {
			mgr := "-"
			if ss.MgrLoad >= 0 {
				mgr = fmt.Sprintf("%.2f", ss.MgrLoad)
			}
			fmt.Fprintf(w, "  %-8s %12d %10d %9.2f %9s %12s  %s\n",
				ss.Server, ss.Bytes, ss.Requests, ss.Load, mgr,
				seconds(ss.QueueWaitSeconds), bar(float64(ss.Bytes), float64(maxBytes), 20))
			if len(ss.Ops) > 0 {
				fmt.Fprintf(w, "  %-8s ", "")
				for i, op := range util.SortedKeys(ss.Ops) {
					if i > 0 {
						fmt.Fprintf(w, "  ")
					}
					fmt.Fprintf(w, "%s=%d", op, ss.Ops[op])
				}
				fmt.Fprintln(w)
			}
		}
		fmt.Fprintf(w, "  byte imbalance: cv=%.2f max/mean=%.2f (max %s)\n",
			r.Imbalance.ServerBytes.CV, r.Imbalance.ServerBytes.MaxOverMean, r.Imbalance.ServerBytes.MaxEntity)
		fmt.Fprintf(w, "  load imbalance: cv=%.2f max/mean=%.2f (max %s)\n",
			r.Imbalance.ServerLoad.CV, r.Imbalance.ServerLoad.MaxOverMean, r.Imbalance.ServerLoad.MaxEntity)
	}

	if r.HotSpot.Enabled {
		hs := r.HotSpot
		fmt.Fprintf(w, "\nCEFT hot-spot audit\n-------------------\n")
		fmt.Fprintf(w, "  rerouted stripe reads  %d\n", hs.TotalReroutes)
		for _, name := range util.SortedKeys(hs.Reroutes) {
			fmt.Fprintf(w, "    away from %-8s %d\n", name, hs.Reroutes[name])
		}
		if hs.HottestServer != "" {
			fmt.Fprintf(w, "  hottest server         %s\n", hs.HottestServer)
		}
		if hs.Failovers > 0 || hs.DegradedWrites > 0 {
			fmt.Fprintf(w, "  failovers %d  degraded writes %d\n", hs.Failovers, hs.DegradedWrites)
		}
		if len(hs.Events) > 0 {
			fmt.Fprintf(w, "  transitions (%d):\n", len(hs.Events))
			for _, ev := range hs.Events {
				state := "HOT "
				if !ev.Hot {
					state = "cool"
				}
				fmt.Fprintf(w, "    %s  %-8s %s  load %.2f vs cutoff %.2f\n",
					ev.Time.Format("15:04:05.000"), ev.Server, state, ev.Load, ev.Cutoff)
			}
		}
	}

	if r.SearchKernel.Enabled {
		sk := r.SearchKernel
		fmt.Fprintf(w, "\nSearch kernel\n-------------\n")
		fmt.Fprintf(w, "  bases scanned          %d\n", sk.ScannedBases)
		fmt.Fprintf(w, "  packed extensions      %d\n", sk.PackedExts)
		if sk.BasesPerSecond > 0 {
			fmt.Fprintf(w, "  bases/sec (shard busy) %.0f\n", sk.BasesPerSecond)
		}
		if sk.BorrowHits+sk.BorrowCopies > 0 {
			fmt.Fprintf(w, "  readahead views        %d borrowed / %d copied (%.1f%% zero-copy)\n",
				sk.BorrowHits, sk.BorrowCopies, 100*sk.ZeroCopyRatio)
		}
	}

	t := r.Traces
	if t.Spans > 0 {
		fmt.Fprintf(w, "\nTraces\n------\n")
		fmt.Fprintf(w, "  %d spans in %d traces from %d processes", t.Spans, t.Traces, t.Processes)
		if t.OrphanSpans > 0 || t.DuplicateSpans > 0 {
			fmt.Fprintf(w, " (%d orphaned, %d duplicate)", t.OrphanSpans, t.DuplicateSpans)
		}
		fmt.Fprintln(w)
		for _, name := range util.SortedKeys(t.ByName) {
			agg := t.ByName[name]
			fmt.Fprintf(w, "  %-20s %6d spans %12s %14d bytes\n", name, agg.Count, seconds(agg.Seconds), agg.Bytes)
		}
		if len(t.Slowest) > 0 {
			fmt.Fprintf(w, "  slowest traces:\n")
			for _, s := range t.Slowest {
				servers := ""
				if len(s.Servers) > 0 {
					servers = "  [" + strings.Join(s.Servers, " ") + "]"
				}
				fmt.Fprintf(w, "    %s  %-10s %-8s %10s %10d bytes  %d spans%s\n",
					s.TraceID, s.Root, s.Process, seconds(s.Seconds), s.Bytes, s.Spans, servers)
			}
		}
	}
}

// RenderDiff writes a side-by-side comparison of two reports — the
// before/after view for a configuration change (e.g. hot-spot skipping
// off vs on under a stressed disk).
func RenderDiff(w io.Writer, a, b *Report) {
	an, bn := a.Label, b.Label
	if an == "" {
		an = "A"
	}
	if bn == "" {
		bn = "B"
	}
	fmt.Fprintf(w, "report diff: %s -> %s\n", an, bn)
	fmt.Fprintf(w, "%-24s %14s %14s %10s\n", "", an, bn, "delta")

	num := func(name string, av, bv float64, fmtVal func(float64) string) {
		fmt.Fprintf(w, "%-24s %14s %14s %10s\n", name, fmtVal(av), fmtVal(bv), delta(av, bv))
	}
	num("wall", a.Run.WallSeconds, b.Run.WallSeconds, seconds)
	num("copy (summed)", a.Run.CopySeconds, b.Run.CopySeconds, seconds)
	num("search (summed)", a.Run.SearchSeconds, b.Run.SearchSeconds, seconds)
	num("client io", a.CriticalPath.ClientIOSeconds, b.CriticalPath.ClientIOSeconds, seconds)
	num("rpc", a.CriticalPath.RPCSeconds, b.CriticalPath.RPCSeconds, seconds)
	num("server", a.CriticalPath.ServerSeconds, b.CriticalPath.ServerSeconds, seconds)
	num("rpc wait", a.CriticalPath.RPCWaitSeconds, b.CriticalPath.RPCWaitSeconds, seconds)
	num("disk queue", a.CriticalPath.QueueWaitSeconds, b.CriticalPath.QueueWaitSeconds, seconds)
	plain := func(v float64) string { return trimFloat(v) }
	num("tasks reassigned", float64(a.Run.Reassigned), float64(b.Run.Reassigned), plain)
	num("byte imbalance cv", a.Imbalance.ServerBytes.CV, b.Imbalance.ServerBytes.CV, plain)
	num("load imbalance cv", a.Imbalance.ServerLoad.CV, b.Imbalance.ServerLoad.CV, plain)
	num("worker busy cv", a.Imbalance.WorkerBusy.CV, b.Imbalance.WorkerBusy.CV, plain)
	num("hot reroutes", float64(a.HotSpot.TotalReroutes), float64(b.HotSpot.TotalReroutes), plain)

	servers := map[string][2]int64{}
	for _, ss := range a.Servers {
		v := servers[ss.Server]
		v[0] = ss.Bytes
		servers[ss.Server] = v
	}
	for _, ss := range b.Servers {
		v := servers[ss.Server]
		v[1] = ss.Bytes
		servers[ss.Server] = v
	}
	if len(servers) > 0 {
		fmt.Fprintf(w, "per-server bytes:\n")
		for _, name := range util.SortedKeys(servers) {
			v := servers[name]
			fmt.Fprintf(w, "  %-22s %14d %14d %10s\n", name, v[0], v[1], delta(float64(v[0]), float64(v[1])))
		}
	}
}

func delta(a, b float64) string {
	if a == b {
		return "="
	}
	if a == 0 {
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", (b-a)/a*100)
}

// seconds renders a duration in seconds with a unit-appropriate scale.
func seconds(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 0.001:
		return fmt.Sprintf("%.0fus", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.1fms", v*1e3)
	default:
		return fmt.Sprintf("%.2fs", v)
	}
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// bar renders v relative to denom as a fixed-width ASCII bar.
func bar(v, denom float64, width int) string {
	if denom <= 0 || v <= 0 {
		return ""
	}
	frac := v / denom
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	if n == 0 {
		n = 1
	}
	return strings.Repeat("#", n)
}
