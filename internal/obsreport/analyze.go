package obsreport

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"pario/internal/ceft"
	"pario/internal/pblast"
	"pario/internal/util"
)

// Builder accumulates a run's observations — process snapshots, the
// master's outcome, CEFT client audits — and reduces them to a Report.
// Typical use:
//
//	b := obsreport.NewBuilder("ceft-8-frags")
//	b.SetRun(obsreport.RunInfo{DB: db, Backend: "ceft", Workers: n})
//	b.AddOutcome(out)
//	b.AddSnapshot(obsreport.LocalSnapshot("master", reg, tracer))
//	b.AddSnapshot(obsreport.RemoteSnapshot(ctx, telemetry.Target{Name: "iod0", Addr: "127.0.0.1:9101"}))
//	rep := b.Build()
type Builder struct {
	label    string
	run      RunInfo
	snaps    []Snapshot
	timeline []TaskEvent
	hot      HotSpotAudit
}

// NewBuilder starts an empty report labeled label.
func NewBuilder(label string) *Builder {
	return &Builder{label: label}
}

// SetRun sets the run's descriptive fields (DB, backend, workers, ...).
// Timing fields are filled by AddOutcome; call either in any order —
// SetRun does not clear timings already absorbed.
func (b *Builder) SetRun(info RunInfo) {
	info.WallSeconds = b.run.WallSeconds
	info.CopySeconds = b.run.CopySeconds
	info.SearchSeconds = b.run.SearchSeconds
	info.Reassigned = b.run.Reassigned
	b.run = info
}

// AddSnapshot absorbs one collected process snapshot.
func (b *Builder) AddSnapshot(s Snapshot) { b.snaps = append(b.snaps, s) }

// AddOutcome absorbs the master's timing summary and task timeline.
func (b *Builder) AddOutcome(o *pblast.Outcome) {
	if o == nil {
		return
	}
	b.run.WallSeconds += o.WallTime.Seconds()
	b.run.CopySeconds += o.CopyTime.Seconds()
	b.run.SearchSeconds += o.SearchTime.Seconds()
	b.run.Reassigned += o.Reassigned
	for _, ev := range o.Timeline {
		b.timeline = append(b.timeline, TaskEvent{
			Index:         ev.Index,
			Worker:        ev.Worker,
			StartSeconds:  ev.Start.Seconds(),
			CopySeconds:   ev.Copy.Seconds(),
			SearchSeconds: ev.Search.Seconds(),
			Reassigned:    ev.Reassigned,
		})
	}
}

// AddCEFTAudit absorbs one CEFT client's hot-spot audit. Call once per
// client (in-process mode runs one client per worker); counts sum and
// events interleave.
func (b *Builder) AddCEFTAudit(a ceft.Audit) {
	b.hot.Enabled = true
	b.hot.Failovers += a.Failovers
	b.hot.DegradedWrites += a.DegradedWrites
	for _, ev := range a.Events {
		b.hot.Events = append(b.hot.Events, HotEvent{
			Time:   ev.Time,
			Server: iodName(ev.ServerID),
			Load:   ev.Load,
			Cutoff: ev.Cutoff,
			Hot:    ev.Hot,
		})
	}
	for id, n := range a.Reroutes {
		if b.hot.Reroutes == nil {
			b.hot.Reroutes = make(map[string]int64)
		}
		b.hot.Reroutes[iodName(id)] += n
		b.hot.TotalReroutes += n
	}
}

func iodName(id int) string { return fmt.Sprintf("iod%d", id) }

// slowestTraces is how many assembled traces the report keeps in full.
const slowestTraces = 10

// Build reduces everything absorbed so far into a Report.
func (b *Builder) Build() *Report {
	rep := &Report{
		Version:     Version,
		Label:       b.label,
		GeneratedAt: time.Now(),
		Run:         b.run,
		Timeline:    b.timeline,
		HotSpot:     b.hot,
	}
	rep.Run.Workers = max(rep.Run.Workers, workerCount(b.timeline))

	var spans []SpanRecord
	for i := range b.snaps {
		s := &b.snaps[i]
		pi := ProcessInfo{Name: s.Process, Source: s.Source, Spans: len(s.Spans), Samples: len(s.Samples)}
		if s.Err != nil {
			pi.Err = s.Err.Error()
		}
		rep.Processes = append(rep.Processes, pi)
		spans = append(spans, s.Spans...)
	}

	trees := AssembleTraces(spans)
	rep.Traces = traceStats(trees, b.snaps)
	rep.Workers = workerStats(b.timeline)
	rep.Servers = serverStats(b.snaps)
	rep.CriticalPath = criticalPath(b.run, trees, b.snaps)
	rep.CollectiveIO = collIOStats(b.snaps)
	rep.SearchKernel = searchKernelStats(b.snaps)
	rep.Imbalance = imbalance(rep.Servers, rep.Workers)
	finishHotSpot(&rep.HotSpot)
	return rep
}

func workerCount(tl []TaskEvent) int {
	seen := map[int]bool{}
	for _, ev := range tl {
		seen[ev.Worker] = true
	}
	return len(seen)
}

func traceStats(trees []*TraceTree, snaps []Snapshot) TraceStats {
	ts := TraceStats{Traces: len(trees), ByName: map[string]SpanAgg{}}
	procs := map[string]bool{}
	for i := range snaps {
		if len(snaps[i].Spans) > 0 {
			procs[snaps[i].Process] = true
		}
	}
	ts.Processes = len(procs)
	for _, t := range trees {
		ts.Spans += t.Spans
		ts.OrphanSpans += t.Orphans
		ts.DuplicateSpans += t.Duplicates
		t.Walk(func(n *SpanNode, _ int) {
			if n.Duplicate {
				return
			}
			agg := ts.ByName[n.Span.Name]
			agg.Count++
			if sec := n.Span.Duration.Seconds(); sec > 0 {
				agg.Seconds += sec
			}
			agg.Bytes += n.Span.Bytes
			ts.ByName[n.Span.Name] = agg
		})
	}
	if len(ts.ByName) == 0 {
		ts.ByName = nil
	}

	sorted := append([]*TraceTree(nil), trees...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Seconds > sorted[j].Seconds })
	for _, t := range sorted {
		if len(ts.Slowest) == slowestTraces {
			break
		}
		if len(t.Roots) == 0 {
			continue
		}
		root := t.Roots[0]
		servers := map[string]bool{}
		t.Walk(func(n *SpanNode, _ int) {
			if !n.Duplicate && n.Span.Server != "" {
				servers[n.Span.Server] = true
			}
		})
		ts.Slowest = append(ts.Slowest, TraceSummary{
			TraceID: fmt.Sprintf("%016x", t.TraceID),
			Root:    root.Span.Name,
			Process: root.Process,
			Seconds: t.Seconds,
			Bytes:   t.Bytes,
			Spans:   t.Spans,
			Servers: util.SortedKeys(servers),
		})
	}
	return ts
}

// stragglerFactor and stragglerSlack define "the fleet waited on this
// worker": busy time beyond factor x median and by more than the slack
// (so microsecond-scale test runs don't flag noise).
const (
	stragglerFactor = 1.5
	stragglerSlack  = 0.05
)

func workerStats(tl []TaskEvent) []WorkerStat {
	byWorker := map[int]*WorkerStat{}
	for _, ev := range tl {
		ws := byWorker[ev.Worker]
		if ws == nil {
			ws = &WorkerStat{Worker: ev.Worker}
			byWorker[ev.Worker] = ws
		}
		ws.Tasks++
		ws.BusySeconds += ev.CopySeconds + ev.SearchSeconds
	}
	out := make([]WorkerStat, 0, len(byWorker))
	for _, ws := range byWorker {
		out = append(out, *ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	if len(out) >= 2 {
		busy := make([]float64, len(out))
		for i, ws := range out {
			busy[i] = ws.BusySeconds
		}
		sort.Float64s(busy)
		median := busy[len(busy)/2]
		for i := range out {
			if out[i].BusySeconds > median*stragglerFactor && out[i].BusySeconds-median > stragglerSlack {
				out[i].Straggler = true
			}
		}
	}
	return out
}

func serverStats(snaps []Snapshot) []ServerStat {
	bytes := MergePerLabel(snaps, "pario_iod_bytes_served_total", "server")
	load := MergePerLabel(snaps, "pario_iod_load", "server")
	requests := MergePerLabel(snaps, "pario_server_requests_total", "server")
	queueWait := MergePerLabel(snaps, "pario_iod_queue_wait_seconds_sum", "server")
	// The manager labels its heartbeat gauge with the bare server ID;
	// fold it onto the same iodN names as the servers' own metrics.
	mgrLoad := map[string]float64{}
	for idStr, v := range MergePerLabel(snaps, "pario_mgr_server_load", "server") {
		if id, err := strconv.Atoi(idStr); err == nil {
			mgrLoad[iodName(id)] = v
		} else {
			mgrLoad[idStr] = v
		}
	}

	names := map[string]bool{}
	for _, m := range []map[string]float64{bytes, load, requests, queueWait, mgrLoad} {
		for k := range m {
			names[k] = true
		}
	}
	// Per-op breakdown of the same request counter, keyed by server.
	ops := map[string]map[string]int64{}
	for i := range snaps {
		for _, s := range snaps[i].Samples {
			if s.Name != "pario_server_requests_total" {
				continue
			}
			srv, op := s.Label("server"), s.Label("op")
			if srv == "" || op == "" {
				continue
			}
			if ops[srv] == nil {
				ops[srv] = make(map[string]int64)
			}
			ops[srv][op] += int64(s.Value)
		}
	}

	out := make([]ServerStat, 0, len(names))
	for _, name := range util.SortedKeys(names) {
		ss := ServerStat{
			Server:           name,
			Bytes:            int64(bytes[name]),
			Load:             load[name],
			MgrLoad:          -1,
			Requests:         int64(requests[name]),
			QueueWaitSeconds: queueWait[name],
			Ops:              ops[name],
		}
		if v, ok := mgrLoad[name]; ok {
			ss.MgrLoad = v
		}
		out = append(out, ss)
	}
	return out
}

// sumAll adds family name, every label set, across all snapshots.
func sumAll(snaps []Snapshot, name string) float64 {
	var total float64
	for i := range snaps {
		total += snaps[i].Sum(name, nil)
	}
	return total
}

// collIOStats reduces the master's pario_collio_* families to the
// report's collective-read section.
func collIOStats(snaps []Snapshot) CollIOStats {
	var st CollIOStats
	st.Rounds = int64(sumAll(snaps, "pario_collio_rounds_total"))
	if st.Rounds == 0 {
		return st
	}
	st.Enabled = true
	st.Ranges = int64(sumAll(snaps, "pario_collio_ranges_total"))
	st.MergedSegments = int64(sumAll(snaps, "pario_collio_merged_segments_total"))
	st.DedupBytes = int64(sumAll(snaps, "pario_collio_dedup_bytes_total"))
	if n := sumAll(snaps, "pario_collio_round_fan_in_count"); n > 0 {
		st.MeanFanIn = sumAll(snaps, "pario_collio_round_fan_in_sum") / n
	}
	if n := sumAll(snaps, "pario_collio_round_seconds_count"); n > 0 {
		st.MeanRoundSeconds = sumAll(snaps, "pario_collio_round_seconds_sum") / n
	}
	return st
}

// searchKernelStats reduces the workers' pario_blast_* families and
// the readahead borrow counters to the report's search-kernel section.
func searchKernelStats(snaps []Snapshot) SearchKernelStats {
	var st SearchKernelStats
	st.ScannedBases = int64(sumAll(snaps, "pario_blast_scanned_bases_total"))
	if st.ScannedBases == 0 {
		return st
	}
	st.Enabled = true
	st.PackedExts = int64(sumAll(snaps, "pario_blast_packed_exts_total"))
	st.ShardBusySeconds = sumAll(snaps, "pario_blast_shard_busy_seconds_total")
	if st.ShardBusySeconds > 0 {
		st.BasesPerSecond = float64(st.ScannedBases) / st.ShardBusySeconds
	}
	st.BorrowHits = int64(sumAll(snaps, "pario_readahead_borrow_hits_total"))
	st.BorrowCopies = int64(sumAll(snaps, "pario_readahead_borrow_copies_total"))
	if views := st.BorrowHits + st.BorrowCopies; views > 0 {
		st.ZeroCopyRatio = float64(st.BorrowHits) / float64(views)
	}
	return st
}

func criticalPath(run RunInfo, trees []*TraceTree, snaps []Snapshot) CriticalPath {
	cp := CriticalPath{
		WallSeconds:   run.WallSeconds,
		CopySeconds:   run.CopySeconds,
		SearchSeconds: run.SearchSeconds,
	}
	for _, p := range QueryPhases(trees...) {
		switch p.Name {
		case "client io":
			cp.ClientIOSeconds = p.Seconds
		case "rpc":
			cp.RPCSeconds = p.Seconds
		case "server":
			cp.ServerSeconds = p.Seconds
		}
	}
	cp.QueueWaitSeconds = sumAll(snaps, "pario_iod_queue_wait_seconds_sum")
	cp.RPCWaitSeconds = math.Max(0, cp.RPCSeconds-cp.ServerSeconds)
	cp.ComputeSeconds = math.Max(0, cp.SearchSeconds-cp.ClientIOSeconds)
	return cp
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// spanCategory maps a span name onto the phase QueryPhases sums it
// into — one classification for whole-run reports and single-query
// timelines. Service-level span names (request, queue, cache, task,
// search) are their own categories; everything else falls through to
// "" and is counted nowhere.
func spanCategory(name string) string {
	switch {
	case name == "read" || name == "write":
		return "client io"
	case hasPrefix(name, "rpc:"):
		return "rpc"
	case hasPrefix(name, "serve:"):
		return "server"
	case name == "request" || name == "queue" || name == "cache" ||
		name == "task" || name == "search":
		return name
	}
	return ""
}

func imbalance(servers []ServerStat, workers []WorkerStat) Imbalance {
	byteVals, loadVals := map[string]float64{}, map[string]float64{}
	for _, ss := range servers {
		// Only data servers participate in the distribution: the mgr
		// serves metadata, not stripes.
		if !hasPrefix(ss.Server, "iod") {
			continue
		}
		byteVals[ss.Server] = float64(ss.Bytes)
		loadVals[ss.Server] = ss.MgrLoad
		if ss.MgrLoad < 0 {
			loadVals[ss.Server] = ss.Load
		}
	}
	busyVals := make(map[string]float64, len(workers))
	for _, ws := range workers {
		busyVals[fmt.Sprintf("worker%d", ws.Worker)] = ws.BusySeconds
	}
	return Imbalance{
		ServerBytes: spread(byteVals),
		ServerLoad:  spread(loadVals),
		WorkerBusy:  spread(busyVals),
	}
}

// spread computes the distribution summary over per-entity values.
func spread(vals map[string]float64) Spread {
	sp := Spread{Entities: len(vals)}
	if len(vals) == 0 {
		return sp
	}
	sp.Max, sp.MaxEntity, sp.Mean = util.Spread(vals)
	var variance float64
	for _, k := range util.SortedKeys(vals) { // fixed order: float sums must reproduce
		d := vals[k] - sp.Mean
		variance += d * d
	}
	variance /= float64(len(vals))
	if sp.Mean > 0 {
		sp.CV = math.Sqrt(variance) / sp.Mean
		sp.MaxOverMean = sp.Max / sp.Mean
	}
	return sp
}

func finishHotSpot(hs *HotSpotAudit) {
	sort.SliceStable(hs.Events, func(i, j int) bool { return hs.Events[i].Time.Before(hs.Events[j].Time) })
	if !hs.Enabled {
		return
	}
	var bestServer string
	var bestN int64
	for _, name := range util.SortedKeys(hs.Reroutes) {
		if n := hs.Reroutes[name]; n > bestN {
			bestServer, bestN = name, n
		}
	}
	if bestServer == "" {
		hotCounts := map[string]int64{}
		for _, ev := range hs.Events {
			if ev.Hot {
				hotCounts[ev.Server]++
			}
		}
		for _, name := range util.SortedKeys(hotCounts) {
			if n := hotCounts[name]; n > bestN {
				bestServer, bestN = name, n
			}
		}
	}
	hs.HottestServer = bestServer
}
