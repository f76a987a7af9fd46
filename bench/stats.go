package main

import (
	"sort"

	"pario/internal/util"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return util.Quantile(sortedCopy(xs), 0.5) }

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = k * x
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// tailQuantile picks the highest of p99, p95, p90 and p75 that still
// has at least ten samples beyond it, the choosing-metrics guide's
// rule for which tail a sample can support; 0.5 when none does.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90, 0.75} {
		if float64(n)*(1-q) >= 10-1e-9 { // 1-0.9 is a hair under 0.1
			return q
		}
	}
	return 0.5
}

// summary is what the report prints for every timing: the sample
// count, the quartiles and the supported tail.
type summary struct {
	N             int
	P25, P50, P75 float64
	TailQ, Tail   float64
}

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	q := tailQuantile(len(s))
	return summary{
		N:   len(s),
		P25: util.Quantile(s, 0.25), P50: util.Quantile(s, 0.5), P75: util.Quantile(s, 0.75),
		TailQ: q, Tail: util.Quantile(s, q),
	}
}
