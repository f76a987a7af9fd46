package util

import (
	"math"
	"sort"
)

// Summary holds order statistics over a sample of float64 observations.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Stddev float64
	Median float64
	P90    float64
	Sum    float64
}

// Summarize computes summary statistics of xs. It returns the zero
// Summary for an empty sample.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[s.N-1]
	for _, x := range sorted {
		s.Sum += x
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, x := range sorted {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	s.Median = Quantile(sorted, 0.5)
	s.P90 = Quantile(sorted, 0.9)
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample using linear interpolation between closest ranks.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// SortedKeys returns the map's keys in sorted order, for deterministic
// output.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Spread reduces a keyed load distribution to its peak, the key
// holding it (the smallest such key on ties) and its mean: max/mean is
// the "one server is N times busier than the average" ratio the
// run-report imbalance section, the spread() alert function and the
// pariotop client panel all show. All zero for an empty map.
func Spread(byKey map[string]float64) (max float64, maxKey string, mean float64) {
	for i, k := range SortedKeys(byKey) {
		v := byKey[k]
		mean += v
		if i == 0 || v > max {
			max, maxKey = v, k
		}
	}
	if len(byKey) > 0 {
		mean /= float64(len(byKey))
	}
	return max, maxKey, mean
}
