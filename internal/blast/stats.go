// Package blast implements blastn, the nucleotide Basic Local
// Alignment Search Tool, from scratch: exact-word seeding of both query
// strands from one word table over 2-bit packed subjects, ungapped and
// gapped X-drop extension, megablast's greedy extension, DUST
// filtering, and Karlin-Altschul statistics: e-values, bit scores and
// the effective-length correction, read from NCBI's published
// parameters for the one scoring system. It is the one program the
// paper measures.
package blast

import "math"

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
