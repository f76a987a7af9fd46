package align

// Greedy gapped extension (Zhang, Schwartz, Wagner & Miller 2000) —
// the algorithm behind megablast. Instead of dynamic programming over
// a band, it tracks for each edit distance e the farthest-reaching
// point on every diagonal, which is dramatically faster when the two
// sequences are highly similar (few differences). Scores follow the
// greedy-compatible scheme: a match earns Match; every difference
// (mismatch or single-letter gap) advances the edit distance by one
// and the score by a fixed penalty, so maximizing score is equivalent
// to maximizing antidiagonal progress at minimal edit distance.

// GreedyScheme holds a greedy-compatible scoring scheme. With match
// reward a (even) and difference parameter b, a mismatch scores
// a/2 - b relative to nothing (i.e. mismatch penalty = b - a/2... see
// Mismatch) and a one-letter gap costs b. Zhang et al. show greedy
// extension is score-optimal exactly for this family.
type GreedyScheme struct {
	// Match is the match reward (must be positive and even).
	Match int
	// Diff is the per-difference parameter: score = Match*(i+j)/2 -
	// Diff*e for an extension consuming i and j letters with e
	// differences.
	Diff int
}

// NewGreedyScheme builds the greedy scheme equivalent to the given
// match reward and mismatch penalty (penalty < 0). A mismatch
// consumes one letter of each sequence and one edit, so Diff =
// match - mismatch makes Mismatch() come out exactly; the implied
// one-letter gap cost is then |mismatch| + match/2 (megablast's
// linear gap behaviour). match is doubled internally if odd so
// half-antidiagonal scores stay integral.
func NewGreedyScheme(match, mismatch int) GreedyScheme {
	if match <= 0 || mismatch >= 0 {
		panic("align: greedy scheme needs match > 0 and mismatch < 0")
	}
	if match%2 != 0 {
		match *= 2
		mismatch *= 2
	}
	return GreedyScheme{Match: match, Diff: match - mismatch}
}

// Mismatch returns the effective mismatch score of the scheme.
func (g GreedyScheme) Mismatch() int { return g.Match - g.Diff }

// GapPerLetter returns the effective cost (negative score) of a
// one-letter insertion or deletion.
func (g GreedyScheme) GapPerLetter() int { return g.Diff - g.Match/2 }

// score computes the greedy score for k = i+j consumed letters with e
// differences.
func (g GreedyScheme) score(k, e int) int { return g.Match*k/2 - g.Diff*e }

const greedyUnreached = -(1 << 29)

// greedyExtendRight greedily extends an alignment of a[0:] vs b[0:]
// rightward from the implicit anchor before both, stopping when the
// score drops more than xdrop below the best. It returns the best
// score and the letters of a and b consumed at the best point.
func greedyExtendRight(ws *Workspace, a, b []byte, g GreedyScheme, xdrop int) (best, aLen, bLen int) {
	return greedyExtendOneSided(ws, a, b, false, g, xdrop)
}

// greedyExtendOneSided is the greedy extension away from an implicit
// anchor, reading a and b in the direction walk gives: forward from
// their first letters or backward from their last.
func greedyExtendOneSided(ws *Workspace, a, b []byte, backward bool, g GreedyScheme, xdrop int) (best, aLen, bLen int) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0, 0, 0
	}
	a0, step := walk(a, backward)
	b0, _ := walk(b, backward)
	// r[d] = farthest antidiagonal k reached on diagonal d (d = i-j,
	// stored with offset) using the current edit distance e; prev
	// holds e-1. Edit e reads prev two diagonals beyond the live
	// window on each side, so the fronts are set to greedyUnreached
	// only as that reach [iLo, iHi] widens: the rows are touched
	// inside the band alone, and a reused workspace's left-overs are
	// never read.
	// A live point on diagonal d < 0 scores at least -max(xdrop, 0)
	// and at most n*Match + d*GapPerLetter (positive in every scheme
	// NewGreedyScheme builds), so the fronts stop at the lowest
	// diagonal that allows.
	below := min(m, (n*g.Match+max(xdrop, 0))/g.GapPerLetter())
	size := n + below + 3
	offset := below + 1
	prev, cur := ws.greedyRows(size)
	iLo, iHi := offset, offset-1 // empty: nothing set yet
	reach := func(lo, hi int) {
		for lo = max(lo+offset-2, 0); iLo > lo; {
			iLo--
			prev[iLo], cur[iLo] = greedyUnreached, greedyUnreached
		}
		for hi = min(hi+offset+2, size-1); iHi < hi; {
			iHi++
			prev[iHi], cur[iHi] = greedyUnreached, greedyUnreached
		}
	}
	reach(0, 0)

	// e = 0: slide matches along the main diagonal.
	k := 0
	for k/2 < n && k/2 < m && a[a0+k/2*step] == b[b0+k/2*step] {
		k += 2
	}
	d0 := offset // diagonal 0
	prev[d0] = k
	best = g.score(k, 0)
	aLen, bLen = k/2, k/2
	if k/2 >= n || k/2 >= m {
		return best, aLen, bLen
	}

	lo, hi := 0, 0 // live diagonal window (relative to diagonal 0)
	for e := 1; e <= n+m; e++ {
		// Expand the candidate window by one diagonal on each side.
		newLo, newHi := lo-1, hi+1
		reach(newLo, newHi)
		anyAlive := false
		for d := newLo; d <= newHi; d++ {
			di := d + offset
			// Farthest k on diagonal d with e edits comes from a
			// substitution (same diagonal, k+2), an insertion in a
			// (diagonal d-1, k+1) or a deletion (diagonal d+1, k+1).
			kBest := greedyUnreached
			if v := prev[di]; v != greedyUnreached && v+2 > kBest {
				kBest = v + 2
			}
			if di-1 >= 0 {
				if v := prev[di-1]; v != greedyUnreached && v+1 > kBest {
					kBest = v + 1
				}
			}
			if di+1 < size {
				if v := prev[di+1]; v != greedyUnreached && v+1 > kBest {
					kBest = v + 1
				}
			}
			if kBest == greedyUnreached {
				cur[di] = greedyUnreached
				continue
			}
			// Convert (k, d) to (i, j): i = (k+d)/2, j = (k-d)/2.
			i := (kBest + d) / 2
			j := (kBest - d) / 2
			if i < 0 || j < 0 || i > n || j > m {
				cur[di] = greedyUnreached
				continue
			}
			// Slide matches.
			for i < n && j < m && a[a0+i*step] == b[b0+j*step] {
				i++
				j++
				kBest += 2
			}
			sc := g.score(kBest, e)
			if sc < best-xdrop {
				cur[di] = greedyUnreached
				continue
			}
			cur[di] = kBest
			anyAlive = true
			if sc > best {
				best = sc
				aLen, bLen = i, j
			}
		}
		if !anyAlive {
			break
		}
		// Shrink the window to live diagonals.
		for newLo <= newHi && cur[newLo+offset] == greedyUnreached {
			newLo++
		}
		for newHi >= newLo && cur[newHi+offset] == greedyUnreached {
			newHi--
		}
		lo, hi = newLo, newHi
		prev, cur = cur, prev
		for d := lo - 1; d <= hi+1; d++ {
			if di := d + offset; di >= 0 && di < size {
				cur[di] = greedyUnreached
			}
		}
	}
	return best, aLen, bLen
}

// GreedyExtendWS performs the two-sided greedy extension around the
// anchored pair (a[ai], b[bi]), like ExtendGappedWS but with the
// greedy algorithm. The anchor pair itself must match for the
// scheme's accounting; if it does not, the anchor contributes a
// mismatch. The diagonal fronts come from ws.
func GreedyExtendWS(ws *Workspace, a, b []byte, ai, bi int, g GreedyScheme, xdrop int) (score, aFrom, aTo, bFrom, bTo int) {
	var anchor int
	if a[ai] == b[bi] {
		anchor = g.Match
	} else {
		anchor = g.Mismatch()
	}
	rBest, rA, rB := greedyExtendRight(ws, a[ai+1:], b[bi+1:], g, xdrop)
	lBest, lA, lB := greedyExtendOneSided(ws, a[:ai], b[:bi], true, g, xdrop)
	score = anchor + rBest + lBest
	return score, ai - lA, ai + 1 + rA, bi - lB, bi + 1 + rB
}
