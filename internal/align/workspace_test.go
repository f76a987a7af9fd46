package align

import (
	"math"
	"runtime"
	"testing"

	"pario/internal/util"
)

// refExtendGapped is the two-sided X-drop extension as it was before
// the kernels became band-sized: every DP row is filled with negInf
// across the whole rest of the subject before the first row, and the
// left extension runs forward over back-to-front copies of the prefixes.
// It is kept here only as the reference the band-sized kernel must
// match.
func refExtendGapped(a, b []byte, ai, bi int, s *Scheme, xdrop int) (score, aFrom, aTo, bFrom, bTo int) {
	anchor := s.Score(a[ai], b[bi])
	rBest, rA, rB := refGappedOneSided(a[ai+1:], b[bi+1:], s, xdrop)
	lBest, lA, lB := refGappedOneSided(reverseBytes(a[:ai]), reverseBytes(b[:bi]), s, xdrop)
	score = anchor + rBest + lBest
	return score, ai - lA, ai + 1 + rA, bi - lB, bi + 1 + rB
}

func refGappedOneSided(a, b []byte, s *Scheme, xdrop int) (best, aLen, bLen int) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0, 0, 0
	}
	open := s.GapOpen + s.GapExtend
	ext := s.GapExtend
	H, E := make([]int, m+1), make([]int, m+1)
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
	lo, hi := 0, 1
	for j := 1; j <= m && H[j] != negInf; j++ {
		hi = j + 1
	}
	for i := 1; i <= n; i++ {
		prevDiag := negInf
		newLo, newHi := -1, -1
		f := negInf
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
			H[lo-1] = negInf
			E[lo-1] = negInf
		}
		start := lo
		if start == 0 {
			start = 1
		}
		for j := start; j <= m; j++ {
			upH := negInf
			if j < hi {
				upH = H[j]
			}
			eNew := negInf
			if E[j-1] != negInf {
				eNew = E[j-1] - ext
			}
			if H[j-1] != negInf && H[j-1]-open > eNew {
				eNew = H[j-1] - open
			}
			fNew := negInf
			if f != negInf {
				fNew = f - ext
			}
			if upH != negInf && upH-open > fNew {
				fNew = upH - open
			}
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
			if j >= hi && eNew == negInf && hNew == negInf {
				break
			}
		}
		if newLo == -1 {
			break
		}
		lo, hi = newLo, newHi
	}
	return best, aLen, bLen
}

// refGreedyExtend is the two-sided greedy extension as it was before
// the kernels became band-sized: both diagonal fronts are filled with
// greedyUnreached across n+m+3 diagonals, and the left extension runs
// over back-to-front copies of the prefixes.
func refGreedyExtend(a, b []byte, ai, bi int, g GreedyScheme, xdrop int) (score, aFrom, aTo, bFrom, bTo int) {
	anchor := g.Mismatch()
	if a[ai] == b[bi] {
		anchor = g.Match
	}
	rBest, rA, rB := refGreedyOneSided(a[ai+1:], b[bi+1:], g, xdrop)
	lBest, lA, lB := refGreedyOneSided(reverseBytes(a[:ai]), reverseBytes(b[:bi]), g, xdrop)
	score = anchor + rBest + lBest
	return score, ai - lA, ai + 1 + rA, bi - lB, bi + 1 + rB
}

func refGreedyOneSided(a, b []byte, g GreedyScheme, xdrop int) (best, aLen, bLen int) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0, 0, 0
	}
	size := n + m + 3
	offset := m + 1
	prev, cur := make([]int, size), make([]int, size)
	for i := range prev {
		prev[i] = greedyUnreached
		cur[i] = greedyUnreached
	}
	k := 0
	for k/2 < n && k/2 < m && a[k/2] == b[k/2] {
		k += 2
	}
	prev[offset] = k
	best = g.score(k, 0)
	aLen, bLen = k/2, k/2
	if k/2 >= n || k/2 >= m {
		return best, aLen, bLen
	}
	lo, hi := 0, 0
	for e := 1; e <= n+m; e++ {
		newLo, newHi := lo-1, hi+1
		anyAlive := false
		for d := newLo; d <= newHi; d++ {
			di := d + offset
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
			i := (kBest + d) / 2
			j := (kBest - d) / 2
			if i < 0 || j < 0 || i > n || j > m {
				cur[di] = greedyUnreached
				continue
			}
			for i < n && j < m && a[i] == b[j] {
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

// poison grows every row of ws to at least n cells and fills the first
// n with random ints, the sentinels the kernels compare against among
// them, so a kernel that reads a cell it did not write this call sees
// junk. The rows are tiled from one random block of prime length at a
// random phase, so no two rows, and no two calls, line up alike.
func poison(ws *Workspace, rng *util.RNG, n int) {
	junk := []int{negInf, greedyUnreached, 0, 1, -1, math.MaxInt32, math.MinInt32, 1 << 40}
	block := make([]int, 1021)
	for i := range block {
		v := rng.Uint64()
		if v&3 == 0 {
			block[i] = junk[(v>>2)%uint64(len(junk))]
		} else {
			block[i] = int(v>>1) - math.MaxInt64/2
		}
	}
	for _, row := range []*[]int{&ws.h, &ws.e, &ws.prev, &ws.cur} {
		if cap(*row) < n {
			*row = make([]int, n)
		}
		r := (*row)[:n]
		for i := 0; i < n; {
			i += copy(r[i:], block[rng.Intn(len(block)):])
		}
	}
}

// diverged returns a copy of p with point substitutions and short
// insertions and deletions at about the given rate per letter.
func diverged(rng *util.RNG, p []byte, rate float64) []byte {
	out := make([]byte, 0, len(p)+len(p)/8)
	for i := 0; i < len(p); i++ {
		if rng.Float64() >= rate {
			out = append(out, p[i])
			continue
		}
		switch rng.Intn(4) {
		case 0, 1:
			out = append(out, byte(rng.Intn(4)))
		case 2:
			out = append(out, randomCodes(rng, 1+rng.Intn(4))...)
			out = append(out, p[i])
		case 3:
			i += rng.Intn(4)
		}
	}
	return out
}

// dirtyCase is one extension the dirty-workspace test runs: query a,
// subject b and the anchor pair (ai, bi).
type dirtyCase struct {
	a, b   []byte
	ai, bi int
}

// dirtyCases builds n extensions: a diverged copy of a query segment
// planted in a random subject 10 to 1 000 times the band's few dozen
// columns long, anchored on the planted diagonal, at a random pair, or
// with ai and bi at 0 and at their last index.
func dirtyCases(rng *util.RNG, n int) []dirtyCase {
	const band = 32
	cases := make([]dirtyCase, n)
	for k := range cases {
		a := randomCodes(rng, 40+rng.Intn(600))
		// Subject length log-uniform over [10, 1000] bands.
		m := int(float64(10*band) * math.Pow(100, rng.Float64()))
		b := randomCodes(rng, m)
		from := rng.Intn(len(a) / 2)
		to := from + 1 + rng.Intn(len(a)-from)
		cp := diverged(rng, a[from:to], []float64{0, 0.02, 0.08, 0.2}[rng.Intn(4)])
		at := 0
		if len(cp) < m {
			at = rng.Intn(m - len(cp) + 1)
		}
		copy(b[at:], cp)
		c := dirtyCase{a: a, b: b}
		switch k % 8 {
		case 0:
			c.ai, c.bi = 0, 0
		case 1:
			c.ai, c.bi = len(a)-1, len(b)-1
		case 2:
			c.ai, c.bi = 0, len(b)-1
		case 3:
			c.ai, c.bi = len(a)-1, rng.Intn(len(b))
		case 4:
			c.ai, c.bi = rng.Intn(len(a)), 0
		case 5:
			c.ai, c.bi = rng.Intn(len(a)), rng.Intn(len(b))
		default:
			off := rng.Intn(to - from)
			c.ai, c.bi = from+off, min(at+off, len(b)-1)
		}
		cases[k] = c
	}
	return cases
}

// TestDirtyWorkspaceMatchesFullFill requires the band-sized X-drop and
// greedy extensions to return, from a workspace poisoned with random
// ints or left over from a longer earlier extension, exactly what they
// return from a fresh workspace and what the full-fill reference
// returns: the kernels must never read a cell they did not write.
func TestDirtyWorkspaceMatchesFullFill(t *testing.T) {
	rng := util.NewRNG(58)
	s := DefaultNucleotide()
	g := greedyDefault()
	var reused Workspace // carries whatever the previous, often longer, case left
	var poisoned Workspace
	type ext [5]int
	for k, c := range dirtyCases(rng, 3200) {
		xdrop := []int{15, 30, 60}[k%3]
		want := ext{}
		want[0], want[1], want[2], want[3], want[4] = refExtendGapped(c.a, c.b, c.ai, c.bi, s, xdrop)
		poison(&poisoned, rng, len(c.a)+len(c.b)+3)
		for name, ws := range map[string]*Workspace{"fresh": {}, "reused": &reused, "poisoned": &poisoned} {
			var got ext
			got[0], got[1], got[2], got[3], got[4] = ExtendGappedWS(ws, c.a, c.b, c.ai, c.bi, s, xdrop)
			if got != want {
				t.Fatalf("case %d (|a| %d, |b| %d, anchor %d,%d, xdrop %d): ExtendGappedWS on a %s workspace = %v, full-fill reference = %v",
					k, len(c.a), len(c.b), c.ai, c.bi, xdrop, name, got, want)
			}
		}
		gx := xdrop * g.Match
		want[0], want[1], want[2], want[3], want[4] = refGreedyExtend(c.a, c.b, c.ai, c.bi, g, gx)
		poison(&poisoned, rng, len(c.a)+len(c.b)+3)
		for name, ws := range map[string]*Workspace{"fresh": {}, "reused": &reused, "poisoned": &poisoned} {
			var got ext
			got[0], got[1], got[2], got[3], got[4] = GreedyExtendWS(ws, c.a, c.b, c.ai, c.bi, g, gx)
			if got != want {
				t.Fatalf("case %d (|a| %d, |b| %d, anchor %d,%d, xdrop %d): GreedyExtendWS on a %s workspace = %v, full-fill reference = %v",
					k, len(c.a), len(c.b), c.ai, c.bi, gx, name, got, want)
			}
		}
	}
}

// TestFreshWorkspaceRowsFollowTheQuery: the rows a fresh workspace
// grows for extensions anchored mid-way in a 1 Mbase subject are
// bounded by the query side and the X-drop, not by the rest of the
// subject, so each call allocates well under 1 MiB (16.8 MB each
// when the rows spanned the subject).
func TestFreshWorkspaceRowsFollowTheQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	rng := util.NewRNG(60)
	query := randomCodes(rng, 500)
	subject := randomCodes(rng, 1<<20)
	at := len(subject)/2 - len(query)/2
	copy(subject[at:], query)
	s, g := DefaultNucleotide(), greedyDefault()
	var ws Workspace
	for _, tc := range []struct {
		name   string
		extend func() int
	}{
		{"ExtendGappedWS", func() int {
			score, _, _, _, _ := ExtendGappedWS(&ws, query, subject, 250, at+250, s, 30)
			return score
		}},
		{"GreedyExtendWS", func() int {
			score, _, _, _, _ := GreedyExtendWS(&ws, query, subject, 250, at+250, g, 30*g.Match)
			return score
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		score := tc.extend()
		runtime.ReadMemStats(&after)
		if score <= 0 {
			t.Fatalf("%s over the planted query scored %d", tc.name, score)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s on a fresh workspace allocated %d bytes, want < 1 MiB", tc.name, grew)
		}
	}
}
