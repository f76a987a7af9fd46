package blast

import "pario/internal/telemetry"

// PipeMetrics publishes the search kernel's work counters into a
// metrics registry: scanned bases and packed extensions, folded in
// once per search. A nil *PipeMetrics records nothing.
type PipeMetrics struct {
	scannedBases *telemetry.Gauge
	packedExts   *telemetry.Gauge
}

// NewPipeMetrics registers the kernel metric families on reg.
func NewPipeMetrics(reg *telemetry.Registry) *PipeMetrics {
	if reg == nil {
		return nil
	}
	return &PipeMetrics{
		scannedBases: reg.Gauge("pario_blast_scanned_bases_total",
			"Subject letters streamed through the seeding kernel; over pblast task seconds this is the search-side bases/sec rate."),
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
