package align

// X-drop gapped extension: a banded affine-gap DP whose band adapts so
// that cells scoring more than X below the best-so-far are dropped.
// The ungapped X-drop extension the engine runs is PackedExtend.

// extendGappedOneSided runs the X-drop banded affine-gap DP extending
// rightward, aligning prefixes of a against prefixes of b starting
// from an implicit anchor just before a[0]/b[0]. It returns the best
// score achieved (>= 0; 0 means "extend nothing") and the number of
// letters of a and b consumed by the best-scoring cell.
func extendGappedOneSided(ws *Workspace, a, b []byte, s *Scheme, xdrop int) (best, aLen, bLen int) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0, 0, 0
	}
	open := s.GapOpen + s.GapExtend
	ext := s.GapExtend

	// H[j] holds row i-1 while computing row i (overwritten in place,
	// left to right, keeping the previous diagonal in prevDiag).
	// E[j] is the best score ending in a gap in a (consuming b) at
	// column j of the current row.
	H, E := ws.dpRows(m + 1)
	for j := range H {
		H[j] = negInf
		E[j] = negInf
	}
	H[0] = 0
	for j := 1; j <= m; j++ {
		g := -(open + (j-1)*ext)
		if g < -xdrop {
			break
		}
		H[j] = g
		E[j] = g
	}

	// Row 0's live window: columns whose init value survived.
	lo, hi := 0, 1
	for j := 1; j <= m && H[j] != negInf; j++ {
		hi = j + 1
	}
	for i := 1; i <= n; i++ {
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
		for j := start; j <= m; j++ {
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
				hNew = prevDiag + s.Score(a[i-1], b[j-1])
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
// around the anchored letter pair (a[ai], b[bi]): leftward over the
// reversed prefixes and rightward over the suffixes. It returns the
// total best score and the extents [aFrom,aTo) x [bFrom,bTo). The DP
// rows and the two prefix-reversal buffers come from ws, so repeated
// extensions allocate nothing once the workspace has warmed up.
func ExtendGappedWS(ws *Workspace, a, b []byte, ai, bi int, s *Scheme, xdrop int) (score, aFrom, aTo, bFrom, bTo int) {
	anchor := s.Score(a[ai], b[bi])
	rBest, rA, rB := extendGappedOneSided(ws, a[ai+1:], b[bi+1:], s, xdrop)
	lBest, lA, lB := extendGappedOneSided(ws, ws.reversed(a[:ai], 0), ws.reversed(b[:bi], 1), s, xdrop)
	score = anchor + rBest + lBest
	return score, ai - lA, ai + 1 + rA, bi - lB, bi + 1 + rB
}
