// Package align implements pairwise nucleotide alignment for the
// BLAST engine: match/mismatch scoring schemes, Smith-Waterman local
// alignment with affine gap penalties, the X-drop gapped extension,
// the 2-bit packed ungapped extension, and megablast's greedy gapped
// extension.
package align

import "fmt"

// Scheme is a complete scoring scheme: a substitution table over 2-bit
// base codes plus affine gap costs. Gap costs are positive; a gap of
// length L costs GapOpen + L*GapExtend.
type Scheme struct {
	Table     [][]int // Table[a][b] = substitution score
	GapOpen   int
	GapExtend int
}

// Score returns the substitution score of dense codes a vs b.
func (s *Scheme) Score(a, b byte) int { return s.Table[a][b] }

// GapCost returns the cost (positive) of a gap of length n.
func (s *Scheme) GapCost(n int) int {
	if n <= 0 {
		return 0
	}
	return s.GapOpen + n*s.GapExtend
}

// NucleotideScheme builds a match/mismatch scheme over the 2-bit DNA
// alphabet. match must be positive and mismatch negative. The BLAST
// default of the paper's era is match=1, mismatch=-3, gap open 5,
// gap extend 2.
func NucleotideScheme(match, mismatch, gapOpen, gapExtend int) *Scheme {
	if match <= 0 || mismatch >= 0 {
		panic(fmt.Sprintf("align: invalid nucleotide scores match=%d mismatch=%d", match, mismatch))
	}
	t := make([][]int, 4)
	for i := range t {
		t[i] = make([]int, 4)
		for j := range t[i] {
			if i == j {
				t[i][j] = match
			} else {
				t[i][j] = mismatch
			}
		}
	}
	return &Scheme{
		Table:     t,
		GapOpen:   gapOpen,
		GapExtend: gapExtend,
	}
}

// DefaultNucleotide returns the classic blastn scheme: +1/-3, gap 5/2.
func DefaultNucleotide() *Scheme { return NucleotideScheme(1, -3, 5, 2) }
