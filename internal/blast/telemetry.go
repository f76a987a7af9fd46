package blast

import (
	"time"

	"pario/internal/telemetry"
)

// PipeMetrics publishes the parallel subject pipeline's overlap
// telemetry into a metrics registry: cumulative shard busy/idle
// seconds say whether a worker is compute- or decode-bound, decode
// stall seconds say how often the I/O stage blocked on full shard
// queues, and the merge-queue gauges expose reordering depth. The
// kernel counters (scanned bases, packed extensions) cover every
// search, sequential or pipelined. A nil *PipeMetrics records nothing.
type PipeMetrics struct {
	shardBusy     *telemetry.Gauge
	shardIdle     *telemetry.Gauge
	decodeStall   *telemetry.Gauge
	mergeDepth    *telemetry.Gauge
	mergeDepthMax *telemetry.Gauge
	scannedBases  *telemetry.Gauge
	packedExts    *telemetry.Gauge
}

// NewPipeMetrics registers the pipeline metric families on reg.
func NewPipeMetrics(reg *telemetry.Registry) *PipeMetrics {
	if reg == nil {
		return nil
	}
	return &PipeMetrics{
		shardBusy: reg.Gauge("pario_blast_shard_busy_seconds_total",
			"Cumulative seconds search shards spent computing (seeding + extension)."),
		shardIdle: reg.Gauge("pario_blast_shard_idle_seconds_total",
			"Cumulative seconds search shards spent waiting for decoded subjects — the I/O-bound signal."),
		decodeStall: reg.Gauge("pario_blast_decode_stall_seconds_total",
			"Cumulative seconds the decode stage spent blocked on full shard queues — the compute-bound signal."),
		mergeDepth: reg.Gauge("pario_blast_merge_queue_depth",
			"Out-of-order searched subjects currently buffered by the ordered merge."),
		mergeDepthMax: reg.Gauge("pario_blast_merge_queue_depth_max",
			"High-water mark of the ordered merge's reorder buffer."),
		scannedBases: reg.Gauge("pario_blast_scanned_bases_total",
			"Subject letters streamed through the seeding kernel; over shard busy seconds this is the search-side bases/sec rate."),
		packedExts: reg.Gauge("pario_blast_packed_exts_total",
			"Ungapped extensions served by the 2-bit packed kernel."),
	}
}

// observeKernel folds one search's kernel counters in.
func (m *PipeMetrics) observeKernel(bases, packedExts int64) {
	if m == nil {
		return
	}
	m.scannedBases.Add(float64(bases))
	m.packedExts.Add(float64(packedExts))
}

// observeShard folds one drained shard's busy/idle time in.
func (m *PipeMetrics) observeShard(busy, idle time.Duration) {
	if m == nil {
		return
	}
	m.shardBusy.Add(busy.Seconds())
	m.shardIdle.Add(idle.Seconds())
}

// observeDecodeStall records time the decode stage spent blocked
// handing a subject to the shard queue.
func (m *PipeMetrics) observeDecodeStall(d time.Duration) {
	if m == nil {
		return
	}
	m.decodeStall.Add(d.Seconds())
}

// observeMergeDepth tracks the reorder buffer's current size.
func (m *PipeMetrics) observeMergeDepth(n int) {
	if m == nil {
		return
	}
	v := float64(n)
	m.mergeDepth.Set(v)
	if v > m.mergeDepthMax.Value() {
		m.mergeDepthMax.Set(v)
	}
}
