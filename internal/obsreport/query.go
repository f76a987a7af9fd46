package obsreport

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"pario/internal/telemetry"
	"pario/internal/util"
)

// FetchTraceSpans asks every target for its spans of one trace
// (GET /debug/traces?trace=<id>) and merges them, each tagged with the
// process it came from. Per-target failures are returned alongside the
// spans that did arrive — a dead worker must not hide the rest of the
// query's timeline.
func FetchTraceSpans(ctx context.Context, targets []telemetry.Target, traceID uint64) ([]SpanRecord, []error) {
	var (
		spans []SpanRecord
		errs  []error
	)
	for _, t := range targets {
		tctx, cancel := context.WithTimeout(ctx, ScrapeTimeout)
		got, err := telemetry.FetchSpans(tctx, t, traceID)
		cancel()
		if err != nil {
			errs = append(errs, fmt.Errorf("obsreport: fetch %s: %w", t.Name, err))
			continue
		}
		for _, sp := range got {
			if sp.TraceID == traceID {
				spans = append(spans, SpanRecord{Span: sp, Process: t.Name})
			}
		}
	}
	return spans, errs
}

// AssembleQuery builds the single-trace tree for one query from its
// collected spans (nil when none of them carry the trace ID).
func AssembleQuery(traceID uint64, spans []SpanRecord) *TraceTree {
	var mine []SpanRecord
	for _, sr := range spans {
		if sr.TraceID == traceID {
			mine = append(mine, sr)
		}
	}
	if len(mine) == 0 {
		return nil
	}
	return assembleOne(traceID, mine)
}

// QueryPhase is one row of a query's per-phase decomposition.
type QueryPhase struct {
	Name    string
	Spans   int
	Seconds float64
	Bytes   int64
}

// queryPhaseOrder fixes the rendering order: service phases in request
// order, then the storage layers the search decomposes into.
var queryPhaseOrder = []string{
	"request", "queue", "cache", "task", "search", "client io", "rpc", "server",
}

// QueryPhases folds traces — one query's tree, or every tree of a run
// for the report's critical path — into per-phase sums by span
// category. Phases overlap (a search span contains its read spans) and
// parallel tasks sum, so rows do not add up to the request time.
func QueryPhases(trees ...*TraceTree) []QueryPhase {
	agg := map[string]*QueryPhase{}
	for _, t := range trees {
		t.Walk(func(n *SpanNode, _ int) {
			if n.Duplicate {
				return
			}
			cat := spanCategory(n.Span.Name)
			if cat == "" {
				return
			}
			p := agg[cat]
			if p == nil {
				p = &QueryPhase{Name: cat}
				agg[cat] = p
			}
			p.Spans++
			if sec := n.Span.Duration.Seconds(); sec > 0 {
				p.Seconds += sec
			}
			p.Bytes += n.Span.Bytes
		})
	}
	var out []QueryPhase
	for _, name := range queryPhaseOrder {
		if p, ok := agg[name]; ok {
			out = append(out, *p)
			delete(agg, name)
		}
	}
	for _, name := range util.SortedKeys(agg) {
		out = append(out, *agg[name])
	}
	return out
}

// ganttWidth is the bar width of the per-span timeline.
const ganttWidth = 40

// RenderQuery writes one query's cross-process story: the span tree
// with a time-aligned gantt, then the per-phase decomposition. Bars are
// positioned off each span's own wall clock, so offsets between
// processes on different hosts inherit their clock skew — fine on one
// machine, indicative across a cluster.
func RenderQuery(w io.Writer, t *TraceTree) {
	if t == nil || t.Spans == 0 {
		fmt.Fprintln(w, "no spans collected for this trace")
		return
	}
	title := fmt.Sprintf("query trace %016x", t.TraceID)
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%d spans", t.Spans)
	if t.Orphans > 0 || t.Duplicates > 0 {
		fmt.Fprintf(w, " (%d orphaned, %d duplicate)", t.Orphans, t.Duplicates)
	}
	fmt.Fprintln(w)

	// The time window: earliest start to latest end across every span.
	var t0, t1 time.Time
	t.Walk(func(n *SpanNode, _ int) {
		if n.Span.Start.IsZero() {
			return
		}
		end := n.Span.Start.Add(n.Span.Duration)
		if t0.IsZero() || n.Span.Start.Before(t0) {
			t0 = n.Span.Start
		}
		if end.After(t1) {
			t1 = end
		}
	})
	window := t1.Sub(t0).Seconds()

	fmt.Fprintln(w)
	t.Walk(func(n *SpanNode, depth int) {
		label := strings.Repeat("  ", depth) + n.Span.Name
		where := n.Process
		if n.Span.Server != "" && n.Span.Server != n.Process {
			where = n.Process + "/" + n.Span.Server
		}
		var flags []string
		if n.Orphan {
			flags = append(flags, "orphan")
		}
		if n.Duplicate {
			flags = append(flags, "duplicate")
		}
		if n.Span.Err != "" {
			flags = append(flags, n.Span.Err)
		}
		for _, k := range util.SortedKeys(n.Span.Attrs) {
			flags = append(flags, k+"="+n.Span.Attrs[k])
		}
		suffix := ""
		if len(flags) > 0 {
			suffix = "  [" + strings.Join(flags, " ") + "]"
		}
		fmt.Fprintf(w, "  %-26s %-16s %9s  |%s|%s\n",
			label, where, seconds(n.Span.Duration.Seconds()),
			ganttBar(n.Span.Start, n.Span.Duration, t0, window), suffix)
	})

	fmt.Fprintf(w, "\nPhases (summed component time; overlapping layers)\n")
	phases := QueryPhases(t)
	var denom float64
	for _, p := range phases {
		if p.Seconds > denom {
			denom = p.Seconds
		}
	}
	for _, p := range phases {
		extra := ""
		if p.Bytes > 0 {
			extra = fmt.Sprintf("  %d bytes", p.Bytes)
		}
		fmt.Fprintf(w, "  %-10s %4d spans %10s  %-30s%s\n",
			p.Name, p.Spans, seconds(p.Seconds), bar(p.Seconds, denom, 30), extra)
	}
}

// ganttBar places a span inside the window as a fixed-width track:
// dots before the start offset, hashes for the duration.
func ganttBar(start time.Time, dur time.Duration, t0 time.Time, window float64) string {
	if start.IsZero() || window <= 0 {
		return strings.Repeat(" ", ganttWidth)
	}
	off := start.Sub(t0).Seconds()
	if off < 0 {
		off = 0
	}
	lead := int(off / window * ganttWidth)
	if lead > ganttWidth-1 {
		lead = ganttWidth - 1
	}
	n := int(dur.Seconds() / window * float64(ganttWidth))
	if n < 1 {
		n = 1
	}
	if lead+n > ganttWidth {
		n = ganttWidth - lead
	}
	track := strings.Repeat(".", lead) + strings.Repeat("#", n)
	return track + strings.Repeat(" ", ganttWidth-len(track))
}
