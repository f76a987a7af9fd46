package align

import "slices"

// X-drop gapped extension: a banded affine-gap DP whose band adapts so
// that cells scoring more than X below the best-so-far are dropped.
// The ungapped X-drop extension the engine runs is PackedExtend.

// walk returns the index of the first letter a one-sided extension
// reads in p and the step to the next one. A forward extension reads
// the suffix after the anchor from its first letter on, a backward one
// the prefix before the anchor from its last letter back, so letter k
// of the extension is p[first+k*step].
func walk(p []byte, backward bool) (first, step int) {
	if backward {
		return len(p) - 1, -1
	}
	return 0, 1
}

// extendGappedOneSided runs the X-drop banded affine-gap DP away from
// an implicit anchor, aligning the first letters of a against the
// first letters of b in the direction walk gives: forward from a[0]
// and b[0], or backward from their last letters. It returns the best
// score achieved (>= 0; 0 means "extend nothing") and the number of
// letters of a and b consumed by the best-scoring cell.
func extendGappedOneSided(ws *Workspace, a, b []byte, backward bool, s *Scheme, xdrop int) (best, aLen, bLen int) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0, 0, 0
	}
	a0, step := walk(a, backward)
	b0, _ := walk(b, backward)
	open := s.GapOpen + s.GapExtend
	ext := s.GapExtend
	// A live cell (i, j) scores at least -max(xdrop, 0) and at most
	// i*top - (j-i)*ext: at most i aligned pairs, at least j-i letters
	// of b in gaps. So none lies right of column n + (n*top+xdrop)/ext,
	// and the rows and every row's loop stop there.
	if s.GapOpen >= 0 && ext > 0 {
		top := 0
		for _, row := range s.Table {
			top = max(top, slices.Max(row))
		}
		m = min(m, n+(n*top+max(xdrop, 0))/ext)
	}

	// H[j] holds row i-1 while computing row i (overwritten in place,
	// left to right, keeping the previous diagonal in prevDiag).
	// E[j] is the best score ending in a gap in a (consuming b) at
	// column j of the current row. The rows are touched only inside
	// the band: a row reads the previous row only inside its live
	// window [lo, hi), and every other cell it reads it wrote itself
	// earlier in the same row. So nothing is cleared ahead of the
	// band, and whatever a reused workspace left in the rows is never
	// read.
	H, E := ws.dpRows(m + 1)
	H[0], E[0] = 0, negInf
	// Row 0's live window: the leading gap run while it survives the
	// X-drop.
	lo, hi := 0, 1
	for ; hi <= m; hi++ {
		g := -(open + (hi-1)*ext)
		if g < -xdrop {
			break
		}
		H[hi], E[hi] = g, g
	}
	for i := 1; i <= n; i++ {
		// Row i's letter, scored against every letter of b.
		subst := s.Table[a[a0+(i-1)*step]]
		prevDiag := negInf // H[i-1][j-1], maintained across j
		newLo, newHi := -1, -1
		f := negInf // best score ending in a gap in b at current column

		if lo == 0 {
			prevDiag = H[0]
			h0 := -(open + (i-1)*ext)
			if h0 >= best-xdrop {
				H[0] = h0
				newLo, newHi = 0, 1
			} else {
				H[0] = negInf
			}
		} else {
			prevDiag = H[lo-1]
			H[lo-1] = negInf // column left of window is dead for row i+1
			E[lo-1] = negInf
		}

		start := lo
		if start == 0 {
			start = 1
		}
		for j, bj := start, b0+(start-1)*step; j <= m; j, bj = j+1, bj+step {
			// Previous-row cells are only valid inside [lo, hi).
			upH := negInf
			if j < hi {
				upH = H[j]
			}
			// E from the current row's left neighbour (H[j-1] and
			// E[j-1] have already been updated for row i).
			eNew := negInf
			if E[j-1] != negInf {
				eNew = E[j-1] - ext
			}
			if H[j-1] != negInf && H[j-1]-open > eNew {
				eNew = H[j-1] - open
			}
			// F from the previous row, same column.
			fNew := negInf
			if f != negInf {
				fNew = f - ext
			}
			if upH != negInf && upH-open > fNew {
				fNew = upH - open
			}
			// Diagonal from the previous row.
			hNew := negInf
			if prevDiag != negInf {
				hNew = prevDiag + subst[b[bj]]
			}
			if eNew > hNew {
				hNew = eNew
			}
			if fNew > hNew {
				hNew = fNew
			}
			if j < hi {
				prevDiag = H[j]
			} else {
				prevDiag = negInf
			}
			if hNew < best-xdrop {
				hNew = negInf
			}
			if eNew < best-xdrop {
				eNew = negInf
			}
			H[j] = hNew
			E[j] = eNew
			f = fNew
			if hNew != negInf {
				if newLo == -1 {
					newLo = j
				}
				newHi = j + 1
				if hNew > best {
					best, aLen, bLen = hNew, i, j
				}
			}
			// Past the previous row's window only E can feed new
			// cells; once it has decayed below the cutoff nothing
			// further right can come alive.
			if j >= hi && eNew == negInf && hNew == negInf {
				break
			}
		}
		if newLo == -1 {
			break // every cell dropped: extension finished
		}
		lo, hi = newLo, newHi
	}
	return best, aLen, bLen
}

// ExtendGappedWS performs the two-sided gapped X-drop extension
// around the anchored letter pair (a[ai], b[bi]): backward over the
// prefixes before it and forward over the suffixes after it. It
// returns the total best score and the extents [aFrom,aTo) x
// [bFrom,bTo). The DP rows come from ws, so repeated extensions
// allocate nothing once the workspace has warmed up, and an
// extension's cost and its rows follow its band and the length of a,
// not the length of b.
func ExtendGappedWS(ws *Workspace, a, b []byte, ai, bi int, s *Scheme, xdrop int) (score, aFrom, aTo, bFrom, bTo int) {
	anchor := s.Score(a[ai], b[bi])
	rBest, rA, rB := extendGappedOneSided(ws, a[ai+1:], b[bi+1:], false, s, xdrop)
	lBest, lA, lB := extendGappedOneSided(ws, a[:ai], b[:bi], true, s, xdrop)
	score = anchor + rBest + lBest
	return score, ai - lA, ai + 1 + rA, bi - lB, bi + 1 + rB
}
