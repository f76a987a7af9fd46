// Package obsreport assembles cluster-wide run reports: it collects
// metrics snapshots and span ring-buffers from every process that took
// part in a run — master, workers, PVFS data servers, the metadata
// manager — over the debug HTTP endpoints (or in-process handles),
// stitches spans sharing a trace ID into cross-process trees, and
// reduces the whole thing to one artifact that explains where the time
// went: critical-path decomposition, per-worker task timelines,
// per-server byte/load distribution with an imbalance coefficient,
// straggler detection, and the CEFT hot-spot audit (which servers were
// considered hot when, and how many stripe reads were rerouted to
// mirrors — the paper's Figures 8-9 mechanism, observable end-to-end).
//
// The report is a plain JSON document (see Report) so it can be
// archived next to benchmark results and diffed across runs; command
// pariostat renders and compares them.
package obsreport

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Version is the report schema version stamped into every document.
const Version = 1

// Report is the one-artifact-per-run output. All durations are
// seconds; all byte counts are payload bytes. Fields computed from
// data a run did not produce (no CEFT backend, no scraped servers) are
// present but empty, so consumers can rely on the shape.
type Report struct {
	Version     int       `json:"version"`
	Label       string    `json:"label,omitempty"`
	GeneratedAt time.Time `json:"generated_at"`

	Run          RunInfo           `json:"run"`
	Processes    []ProcessInfo     `json:"processes"`
	CriticalPath CriticalPath      `json:"critical_path"`
	Timeline     []TaskEvent       `json:"timeline"`
	Workers      []WorkerStat      `json:"workers"`
	Servers      []ServerStat      `json:"servers"`
	Imbalance    Imbalance         `json:"imbalance"`
	HotSpot      HotSpotAudit      `json:"hot_spot"`
	SearchKernel SearchKernelStats `json:"search_kernel"`
	Traces       TraceStats        `json:"traces"`
}

// SearchKernelStats summarizes the compute-side search kernel from
// the workers' pario_blast_* metrics plus the readahead borrow
// counters: how many subject bases streamed through seeding, how many
// ungapped extensions ran on the 2-bit packed kernel, and what share
// of readahead views were handed out zero-copy. Empty (Enabled false)
// when the run recorded no kernel activity.
type SearchKernelStats struct {
	Enabled bool `json:"enabled"`
	// ScannedBases counts subject letters streamed through the seeding
	// kernel across all shards and processes, once per subject-view
	// scan (a blastn subject counts once for both query strands).
	ScannedBases int64 `json:"scanned_bases,omitempty"`
	// PackedExts counts ungapped extensions served by the 2-bit packed
	// kernel; every blastn subject is extended packed, so for blastn it
	// equals the ungapped extension count.
	PackedExts int64 `json:"packed_exts,omitempty"`
	// ShardBusySeconds sums shard compute time; ScannedBases over it is
	// the search-side bases/sec rate.
	ShardBusySeconds float64 `json:"shard_busy_seconds,omitempty"`
	// BasesPerSecond is that rate, precomputed (0 when busy time is 0).
	BasesPerSecond float64 `json:"bases_per_second,omitempty"`
	// BorrowHits/BorrowCopies count readahead views served as borrowed
	// cache-block slices vs materialized copies.
	BorrowHits   int64 `json:"borrow_hits,omitempty"`
	BorrowCopies int64 `json:"borrow_copies,omitempty"`
	// ZeroCopyRatio is BorrowHits over all views (0 when none).
	ZeroCopyRatio float64 `json:"zero_copy_ratio,omitempty"`
}

// RunInfo describes the run itself.
type RunInfo struct {
	DB      string `json:"db,omitempty"`
	Query   string `json:"query,omitempty"`
	Backend string `json:"backend,omitempty"`
	Workers int    `json:"workers,omitempty"`
	Queries int    `json:"queries,omitempty"`

	WallSeconds   float64 `json:"wall_seconds"`
	CopySeconds   float64 `json:"copy_seconds"`
	SearchSeconds float64 `json:"search_seconds"`
	Reassigned    int     `json:"reassigned,omitempty"`
}

// ProcessInfo records one collected process: where its snapshot came
// from and how much it contributed. A scrape failure is recorded in
// Err — the report degrades to the processes that answered instead of
// failing.
type ProcessInfo struct {
	Name    string `json:"name"`
	Source  string `json:"source"`
	Spans   int    `json:"spans"`
	Samples int    `json:"samples"`
	Err     string `json:"err,omitempty"`
}

// CriticalPath decomposes where the run's time went. Wall, copy, and
// search come from the master's clock; the span-derived components are
// sums of durations across all processes (they can exceed wall time
// because workers and servers overlap — the point is their ratio).
type CriticalPath struct {
	WallSeconds   float64 `json:"wall_seconds"`
	CopySeconds   float64 `json:"copy_seconds"`
	SearchSeconds float64 `json:"search_seconds"`
	// ClientIOSeconds sums the application-level read/write root
	// spans: time workers spent inside the I/O layer.
	ClientIOSeconds float64 `json:"client_io_seconds"`
	// RPCSeconds sums the per-server rpc:* spans beneath those reads.
	RPCSeconds float64 `json:"rpc_seconds"`
	// ServerSeconds sums the server-side serve:* spans.
	ServerSeconds float64 `json:"server_seconds"`
	// RPCWaitSeconds is RPC minus server time (clamped at zero):
	// network transfer plus queueing ahead of the server handler.
	RPCWaitSeconds float64 `json:"rpc_wait_seconds"`
	// QueueWaitSeconds sums the data servers' emulated-disk service
	// delays (the stressed-disk signal of Figure 8).
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	// ComputeSeconds is search time not spent in client I/O (clamped
	// at zero): the alignment work itself.
	ComputeSeconds float64 `json:"compute_seconds"`
}

// TaskEvent is one completed task on the master's timeline.
type TaskEvent struct {
	Index         int     `json:"index"`
	Worker        int     `json:"worker"`
	StartSeconds  float64 `json:"start_seconds"`
	CopySeconds   float64 `json:"copy_seconds,omitempty"`
	SearchSeconds float64 `json:"search_seconds"`
	Reassigned    bool    `json:"reassigned,omitempty"`
}

// WorkerStat aggregates one worker's share of the task pool.
type WorkerStat struct {
	Worker      int     `json:"worker"`
	Tasks       int     `json:"tasks"`
	BusySeconds float64 `json:"busy_seconds"`
	// Straggler marks a worker whose busy time is far above the
	// median — the fleet waited on it.
	Straggler bool `json:"straggler,omitempty"`
}

// ServerStat aggregates one storage-side process (data server or
// manager) from the scraped metrics.
type ServerStat struct {
	Server string `json:"server"`
	// Bytes is the payload served (reads + writes) per
	// pario_iod_bytes_served_total.
	Bytes int64 `json:"bytes"`
	// Load is the server's own smoothed queue-depth gauge at collect
	// time (pario_iod_load).
	Load float64 `json:"load"`
	// MgrLoad is the manager's view of the same server from its last
	// live heartbeat (pario_mgr_server_load); -1 when the manager had
	// no live entry.
	MgrLoad float64 `json:"mgr_load"`
	// Requests counts handled RPCs (pario_server_requests_total).
	Requests int64 `json:"requests"`
	// Ops breaks Requests down by wire op ("list_read", "list_write",
	// "piece_remove", ...). A drop in the list_read count for the same
	// bytes is the observable effect of readahead.
	Ops map[string]int64 `json:"ops,omitempty"`
	// QueueWaitSeconds sums the emulated-disk delays this server
	// imposed (pario_iod_queue_wait_seconds).
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
}

// Spread summarizes how evenly a quantity is distributed across
// entities: the load-imbalance arithmetic of the report.
type Spread struct {
	Entities int     `json:"entities"`
	Mean     float64 `json:"mean"`
	Max      float64 `json:"max"`
	// CV is the coefficient of variation (population stddev / mean):
	// 0 means perfectly balanced; >= ~0.5 means one entity dominates.
	CV float64 `json:"cv"`
	// MaxOverMean is the peak-to-mean ratio, the paper's intuition for
	// "one server is N times busier than the average".
	MaxOverMean float64 `json:"max_over_mean"`
	MaxEntity   string  `json:"max_entity,omitempty"`
}

// Imbalance carries the three distributions a run-report reader asks
// about: data served per server, load per server, and busy time per
// worker.
type Imbalance struct {
	ServerBytes Spread `json:"server_bytes"`
	ServerLoad  Spread `json:"server_load"`
	WorkerBusy  Spread `json:"worker_busy"`
}

// HotEvent is one hot-set transition observed by a CEFT client.
type HotEvent struct {
	Time   time.Time `json:"time"`
	Server string    `json:"server"`
	Load   float64   `json:"load"`
	Cutoff float64   `json:"cutoff"`
	Hot    bool      `json:"hot"`
}

// HotSpotAudit is the report's CEFT section: the observable record of
// the paper's hot-spot skipping. Empty (Enabled false) for non-CEFT
// runs.
type HotSpotAudit struct {
	Enabled bool       `json:"enabled"`
	Events  []HotEvent `json:"events,omitempty"`
	// Reroutes counts, per skipped server, the stripe reads redirected
	// to its mirror partner by hot-spot skipping.
	Reroutes      map[string]int64 `json:"reroutes,omitempty"`
	TotalReroutes int64            `json:"total_reroutes"`
	// Failovers and DegradedWrites are fault-driven (not load-driven)
	// mirror activity, for completeness of the degraded-mode picture.
	Failovers      int64 `json:"failovers"`
	DegradedWrites int64 `json:"degraded_writes"`
	// HottestServer names the server the audit points at: most
	// rerouted-away-from, falling back to most hot events.
	HottestServer string `json:"hottest_server,omitempty"`
}

// SpanAgg aggregates all spans sharing a name.
type SpanAgg struct {
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
	Bytes   int64   `json:"bytes"`
}

// TraceSummary is one assembled cross-process trace, for the
// slowest-traces list.
type TraceSummary struct {
	TraceID string   `json:"trace_id"`
	Root    string   `json:"root"`
	Process string   `json:"process"`
	Seconds float64  `json:"seconds"`
	Bytes   int64    `json:"bytes"`
	Spans   int      `json:"spans"`
	Servers []string `json:"servers,omitempty"`
}

// TraceStats summarizes the cross-process trace assembly.
type TraceStats struct {
	Spans     int `json:"spans"`
	Traces    int `json:"traces"`
	Processes int `json:"processes"`
	// OrphanSpans carried a parent ID whose span was not collected
	// (evicted from a ring buffer, or from a process that was not
	// scraped); they are promoted to roots rather than dropped.
	OrphanSpans int `json:"orphan_spans"`
	// DuplicateSpans shared a (trace, span) identity with an earlier
	// span — e.g. after a task reassignment replayed work; their bytes
	// are excluded from aggregates so nothing double-counts.
	DuplicateSpans int                `json:"duplicate_spans"`
	ByName         map[string]SpanAgg `json:"by_name,omitempty"`
	Slowest        []TraceSummary     `json:"slowest,omitempty"`
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteJSONFile writes the report to path.
func (r *Report) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obsreport: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("obsreport: writing %s: %w", path, err)
	}
	return f.Close()
}

// ReadReport parses a report produced by WriteJSON.
func ReadReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("obsreport: decoding report: %w", err)
	}
	if rep.Version == 0 {
		return nil, fmt.Errorf("obsreport: not a run report (missing version)")
	}
	return &rep, nil
}

// ReadReportFile parses the report at path.
func ReadReportFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obsreport: %w", err)
	}
	defer f.Close()
	rep, err := ReadReport(f)
	if err != nil {
		return nil, fmt.Errorf("obsreport: %s: %w", path, err)
	}
	return rep, nil
}
