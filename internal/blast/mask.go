package blast

import (
	"sort"

	"pario/internal/seq"
)

// Low-complexity filtering. NCBI BLAST masks low-complexity query
// regions before seeding so that poly-A runs and microsatellites do
// not flood the search with spurious hits. This file implements a
// DUST-style triplet-complexity filter, plus the interval algebra used
// to apply it to the seed lookup table.

// Interval is a half-open masked region [From, To).
type Interval struct {
	From, To int
}

// mergeIntervals sorts and coalesces overlapping or adjacent
// intervals.
func mergeIntervals(in []Interval) []Interval {
	if len(in) <= 1 {
		return in
	}
	sort.Slice(in, func(i, j int) bool { return in[i].From < in[j].From })
	out := in[:1]
	for _, iv := range in[1:] {
		last := &out[len(out)-1]
		if iv.From <= last.To {
			if iv.To > last.To {
				last.To = iv.To
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// TotalMasked sums the lengths of a merged interval set.
func TotalMasked(ivs []Interval) int {
	n := 0
	for _, iv := range ivs {
		n += iv.To - iv.From
	}
	return n
}

// DustParams tune the nucleotide low-complexity filter.
type DustParams struct {
	// Window is the scan window length (DUST default 64).
	Window int
	// Threshold is the triplet-complexity score above which a window
	// is masked (DUST default 2.0).
	Threshold float64
}

// DefaultDust returns the classic DUST parameters.
func DefaultDust() DustParams { return DustParams{Window: 64, Threshold: 2.0} }

// DustMask scans a nucleotide sequence and returns merged intervals
// of low-complexity regions. The score of a window is
// sum_t c_t(c_t-1)/2 / (T-1), where c_t counts each of the 64
// possible triplets among the window's T triplets — high when few
// distinct triplets dominate (poly-X runs, short tandem repeats).
func DustMask(s *seq.Sequence, p DustParams) []Interval {
	if p.Window <= 3 {
		p = DefaultDust()
	}
	codes := s.Codes()
	n := len(codes)
	if n < p.Window {
		// Short sequences: single-window scan if at least 4 bases.
		if n < 8 {
			return nil
		}
		p.Window = n
	}
	var out []Interval
	var counts [64]int
	step := p.Window / 2
	if step < 1 {
		step = 1
	}
	for start := 0; start+p.Window <= n; start += step {
		for i := range counts {
			counts[i] = 0
		}
		t := 0
		for i := start; i+2 < start+p.Window; i++ {
			tri := int(codes[i])<<4 | int(codes[i+1])<<2 | int(codes[i+2])
			counts[tri]++
			t++
		}
		if t < 2 {
			continue
		}
		var score float64
		for _, c := range counts {
			score += float64(c*(c-1)) / 2
		}
		score /= float64(t - 1)
		if score > p.Threshold {
			out = append(out, Interval{From: start, To: start + p.Window})
		}
	}
	return mergeIntervals(out)
}

// maskFlags converts merged intervals into a per-position bitmap.
func maskFlags(n int, ivs []Interval) []bool {
	if len(ivs) == 0 {
		return nil
	}
	flags := make([]bool, n)
	for _, iv := range ivs {
		from, to := iv.From, iv.To
		if from < 0 {
			from = 0
		}
		if to > n {
			to = n
		}
		for i := from; i < to; i++ {
			flags[i] = true
		}
	}
	return flags
}

// wordAllowed reports whether the word starting at pos with length w
// avoids every masked position.
func wordAllowed(flags []bool, pos, w int) bool {
	if flags == nil {
		return true
	}
	for i := pos; i < pos+w; i++ {
		if flags[i] {
			return false
		}
	}
	return true
}
