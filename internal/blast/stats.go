// Package blast implements blastn, the nucleotide Basic Local
// Alignment Search Tool, from scratch: exact-word seeding of both query
// strands from one word table over 2-bit packed subjects, ungapped and
// gapped X-drop extension, megablast's greedy extension, DUST
// filtering, and Karlin-Altschul statistics (lambda, K, H, e-values,
// bit scores). It is the one program the paper measures.
package blast

import (
	"fmt"
	"math"

	"pario/internal/align"
)

// KarlinParams holds the Karlin-Altschul statistical parameters of a
// scoring system: Lambda and K scale raw scores into e-values, H is
// the relative entropy (average information per aligned pair, nats).
type KarlinParams struct {
	Lambda float64
	K      float64
	H      float64
}

// BitScore converts a raw alignment score into a normalized bit score.
func (kp KarlinParams) BitScore(raw int) float64 {
	return (kp.Lambda*float64(raw) - math.Log(kp.K)) / math.Ln2
}

// EValue returns the expected number of HSPs with score >= raw in a
// search space of effective query length m and database length n.
func (kp KarlinParams) EValue(raw int, m, n int64) float64 {
	return kp.K * float64(m) * float64(n) * math.Exp(-kp.Lambda*float64(raw))
}

// RawCutoff returns the minimum raw score whose e-value is <= evalue
// in an (m x n) search space.
func (kp KarlinParams) RawCutoff(evalue float64, m, n int64) int {
	s := math.Log(kp.K*float64(m)*float64(n)/evalue) / kp.Lambda
	c := int(math.Ceil(s))
	if c < 1 {
		c = 1
	}
	return c
}

// UniformNucFreqs is the background distribution used for nucleotide
// statistics (equal base frequencies).
var UniformNucFreqs = []float64{0.25, 0.25, 0.25, 0.25}

// ComputeUngappedParams numerically derives the ungapped
// Karlin-Altschul parameters for a scheme and background letter
// frequencies using the algorithm of Karlin & Altschul (1990) as
// implemented in NCBI's blast_stat.c: Lambda by Newton iteration, H
// from the score moment, and K from the ladder-epoch sum.
func ComputeUngappedParams(s *align.Scheme, freqs []float64) (KarlinParams, error) {
	dist, lo, hi, err := scoreDistribution(s, freqs)
	if err != nil {
		return KarlinParams{}, err
	}
	lambda, err := solveLambda(dist, lo, hi)
	if err != nil {
		return KarlinParams{}, err
	}
	// H = lambda * sum_s s * p(s) * exp(lambda*s)
	var h float64
	for sc := lo; sc <= hi; sc++ {
		h += float64(sc) * dist[sc-lo] * math.Exp(lambda*float64(sc))
	}
	h *= lambda
	k, err := computeK(dist, lo, hi, lambda, h)
	if err != nil {
		return KarlinParams{}, err
	}
	return KarlinParams{Lambda: lambda, K: k, H: h}, nil
}

// scoreDistribution builds p(s) over integer scores for a random
// aligned letter pair under the background frequencies.
func scoreDistribution(s *align.Scheme, freqs []float64) (dist []float64, lo, hi int, err error) {
	lo, hi = 1<<30, -(1 << 30)
	for i, pi := range freqs {
		if pi == 0 {
			continue
		}
		for j, qj := range freqs {
			if qj == 0 {
				continue
			}
			sc := s.Table[i][j]
			if sc < lo {
				lo = sc
			}
			if sc > hi {
				hi = sc
			}
		}
	}
	if lo > hi {
		return nil, 0, 0, fmt.Errorf("blast: empty score distribution")
	}
	if lo >= 0 {
		return nil, 0, 0, fmt.Errorf("blast: scoring scheme has no negative scores; statistics undefined")
	}
	if hi <= 0 {
		return nil, 0, 0, fmt.Errorf("blast: scoring scheme has no positive scores; statistics undefined")
	}
	dist = make([]float64, hi-lo+1)
	for i, pi := range freqs {
		if pi == 0 {
			continue
		}
		for j, qj := range freqs {
			if qj == 0 {
				continue
			}
			dist[s.Table[i][j]-lo] += pi * qj
		}
	}
	return dist, lo, hi, nil
}

// solveLambda finds the unique positive root of
// sum_s p(s) exp(lambda*s) = 1 by bisection + Newton refinement.
func solveLambda(dist []float64, lo, hi int) (float64, error) {
	// Expected score must be negative for a root to exist.
	var mean float64
	for sc := lo; sc <= hi; sc++ {
		mean += float64(sc) * dist[sc-lo]
	}
	if mean >= 0 {
		return 0, fmt.Errorf("blast: expected pair score %.4f >= 0; no Karlin lambda exists", mean)
	}
	f := func(lambda float64) float64 {
		var sum float64
		for sc := lo; sc <= hi; sc++ {
			sum += dist[sc-lo] * math.Exp(lambda*float64(sc))
		}
		return sum - 1
	}
	// Bracket the root: f(0) = 0 with f'(0) = mean < 0, and
	// f(lambda) -> +inf as lambda grows (positive scores exist).
	a, b := 1e-9, 0.5
	for f(b) < 0 {
		b *= 2
		if b > 1e4 {
			return 0, fmt.Errorf("blast: lambda root not bracketed")
		}
	}
	for iter := 0; iter < 200; iter++ {
		m := (a + b) / 2
		if f(m) < 0 {
			a = m
		} else {
			b = m
		}
	}
	return (a + b) / 2, nil
}

// computeK implements the general-case K computation of
// BlastKarlinLHtoK: convolve the score distribution over ladder
// epochs, accumulate sigma, and apply the lattice-case formula.
func computeK(dist []float64, lo, hi int, lambda, h float64) (float64, error) {
	if h <= 0 {
		return 0, fmt.Errorf("blast: non-positive entropy H=%v", h)
	}
	d := scoreGCD(dist, lo, hi)

	// Special case from Karlin-Altschul: score range {-1, +1}.
	if lo == -1 && hi == 1 {
		p1 := dist[1-lo]
		pm1 := dist[-1-lo]
		k := (p1 - pm1) * (p1 - pm1) / pm1
		return k, nil
	}

	const iterLimit = 60
	// conv holds the distribution of the k-step random walk sum.
	conv := make([]float64, 1)
	conv[0] = 1 // delta at 0 for k=0 steps
	convLo := 0
	var sigma float64
	for k := 1; k <= iterLimit; k++ {
		// Convolve with the single-step distribution.
		newLo := convLo + lo
		newLen := len(conv) + (hi - lo)
		next := make([]float64, newLen)
		for i, p := range conv {
			if p == 0 {
				continue
			}
			for sc := lo; sc <= hi; sc++ {
				next[i+sc-lo] += p * dist[sc-lo]
			}
		}
		conv, convLo = next, newLo
		var term float64
		for i, p := range conv {
			if p == 0 {
				continue
			}
			s := convLo + i
			if s < 0 {
				term += p * math.Exp(lambda*float64(s))
			} else {
				term += p
			}
		}
		sigma += term / float64(k)
	}
	num := float64(d) * lambda * math.Exp(-2*sigma)
	den := h * (1 - math.Exp(-lambda*float64(d)))
	if den == 0 {
		return 0, fmt.Errorf("blast: degenerate K denominator")
	}
	return num / den, nil
}

// scoreGCD finds the gcd of all scores with non-zero probability.
func scoreGCD(dist []float64, lo, hi int) int {
	g := 0
	for sc := lo; sc <= hi; sc++ {
		if dist[sc-lo] == 0 || sc == 0 {
			continue
		}
		a := sc
		if a < 0 {
			a = -a
		}
		g = gcd(g, a)
	}
	if g == 0 {
		g = 1
	}
	return g
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// gappedParamsTable holds the simulation-derived gapped
// Karlin-Altschul parameters published by NCBI for blastn's
// match/mismatch schemes with gap open/extend costs. Gapped statistics
// cannot be derived analytically; these are the standard published
// values, and for stringent nucleotide gap costs NCBI uses the ungapped
// ones.
var gappedParamsTable = map[string]KarlinParams{
	"match+1/mismatch-3,5,2": {Lambda: 1.374, K: 0.711, H: 1.31},
	"match+1/mismatch-2,5,2": {Lambda: 1.28, K: 0.46, H: 0.85},
	"match+2/mismatch-3,5,2": {Lambda: 0.675, K: 0.111, H: 0.62},
}

// GappedParams returns the gapped Karlin-Altschul parameters for a
// scheme: the published table value when known, otherwise the
// computed ungapped parameters (a conservative fallback; e-values
// then slightly underestimate significance).
func GappedParams(s *align.Scheme, freqs []float64) (KarlinParams, error) {
	key := fmt.Sprintf("%s,%d,%d", s.Name, s.GapOpen, s.GapExtend)
	if kp, ok := gappedParamsTable[key]; ok {
		return kp, nil
	}
	return ComputeUngappedParams(s, freqs)
}

// LengthAdjustment computes the BLAST effective-length correction: the
// expected HSP length l = ln(K*m*n)/H, iterated so the effective
// lengths stay positive.
func LengthAdjustment(kp KarlinParams, queryLen int, dbLen int64, dbSeqs int64) int {
	if kp.H <= 0 || dbSeqs <= 0 {
		return 0
	}
	m := float64(queryLen)
	n := float64(dbLen)
	ell := 0.0
	for i := 0; i < 5; i++ {
		effM := m - ell
		effN := n - ell*float64(dbSeqs)
		if effM < 1 {
			effM = 1
		}
		if effN < 1 {
			effN = 1
		}
		next := math.Log(kp.K*effM*effN) / kp.H
		if next < 0 {
			next = 0
		}
		ell = next
	}
	if ell >= m {
		ell = m - 1
	}
	if ell < 0 {
		ell = 0
	}
	return int(ell)
}
