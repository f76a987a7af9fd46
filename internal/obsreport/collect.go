package obsreport

import (
	"context"
	"fmt"
	"time"

	"pario/internal/telemetry"
)

// Sample is one metric sample — telemetry's type, whether it came from
// a local Registry.Snapshot or a scraped /metrics page.
type Sample = telemetry.Sample

// SpanRecord is a span plus the process it was collected from.
type SpanRecord struct {
	telemetry.Span
	Process string
}

// Snapshot is everything collected from one process: its metric
// samples and its recent spans. A failed collection carries Err and
// empty data; the report builder records the failure and moves on.
type Snapshot struct {
	Process string
	Source  string
	Samples []Sample
	Spans   []SpanRecord
	Err     error
}

// Sum adds the values of every sample of family name whose labels are
// a superset of match (nil match sums the whole family).
func (s *Snapshot) Sum(name string, match map[string]string) float64 {
	var total float64
	for _, sm := range s.Samples {
		if sm.Name != name {
			continue
		}
		if !telemetry.LabelsMatch(sm.Labels, match) {
			continue
		}
		total += sm.Value
	}
	return total
}

// PerLabel folds family name into a map keyed by the given label,
// summing samples that share a key (e.g. request counters split by op
// and outcome fold into one count per server).
func (s *Snapshot) PerLabel(name, labelKey string) map[string]float64 {
	var out map[string]float64
	for _, sm := range s.Samples {
		if sm.Name != name {
			continue
		}
		key, ok := sm.Labels[labelKey]
		if !ok {
			continue
		}
		if out == nil {
			out = make(map[string]float64)
		}
		out[key] += sm.Value
	}
	return out
}

// LocalSnapshot captures a process's own registry and tracer without
// going through HTTP: the registry's typed Snapshot, the same Sample
// values RemoteSnapshot decodes from a scrape. reg and tr may each be
// nil.
func LocalSnapshot(process string, reg *telemetry.Registry, tr *telemetry.Tracer) Snapshot {
	snap := Snapshot{Process: process, Source: "in-process"}
	if reg != nil {
		snap.Samples = reg.Snapshot()
	}
	snap.addSpans(tr.Recent())
	return snap
}

// ScrapeTimeout bounds each per-process HTTP collection.
const ScrapeTimeout = 5 * time.Second

// RemoteSnapshot collects a snapshot from a process's debug endpoint.
// Failures are reported in the returned Snapshot's Err, never as a
// panic or a lost process entry.
func RemoteSnapshot(ctx context.Context, t telemetry.Target) Snapshot {
	snap := Snapshot{Process: t.Name, Source: t.URL("")}
	ctx, cancel := context.WithTimeout(ctx, ScrapeTimeout)
	defer cancel()
	samples, err := telemetry.FetchMetrics(ctx, t)
	var spans []telemetry.Span
	if err == nil {
		spans, err = telemetry.FetchSpans(ctx, t, 0)
	}
	if err != nil {
		snap.Err = fmt.Errorf("obsreport: scrape %s: %w", t.Name, err)
		return snap
	}
	snap.Samples = samples
	snap.addSpans(spans)
	return snap
}

func (s *Snapshot) addSpans(spans []telemetry.Span) {
	for _, sp := range spans {
		s.Spans = append(s.Spans, SpanRecord{Span: sp, Process: s.Process})
	}
}

// MergePerLabel folds a per-label family across snapshots, summing
// values that share a key.
func MergePerLabel(snaps []Snapshot, name, labelKey string) map[string]float64 {
	out := make(map[string]float64)
	for i := range snaps {
		for k, v := range snaps[i].PerLabel(name, labelKey) {
			out[k] += v
		}
	}
	return out
}
