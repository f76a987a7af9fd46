package align

import (
	"testing"
	"testing/quick"

	"pario/internal/seq"
	"pario/internal/util"
)

// GapCost returns the cost (positive) of a gap of length n.
func (s *Scheme) GapCost(n int) int {
	if n <= 0 {
		return 0
	}
	return s.GapOpen + n*s.GapExtend
}

// SmithWatermanScore computes only the optimal local score using
// linear memory. It is the reference oracle for property tests.
func SmithWatermanScore(a, b []byte, s *Scheme) int {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0
	}
	H := make([]int32, m+1)
	E := make([]int32, m+1)
	for j := range E {
		E[j] = negInf
	}
	open := int32(s.GapOpen + s.GapExtend)
	ext := int32(s.GapExtend)
	var best int32
	for i := 1; i <= n; i++ {
		var diag, f int32 = 0, negInf
		for j := 1; j <= m; j++ {
			e := E[j] - ext
			if h := H[j] - open; h > e {
				e = h
			}
			E[j] = e
			f -= ext
			if h := H[j-1] - open; h > f {
				f = h
			}
			h := diag + int32(s.Score(a[i-1], b[j-1]))
			if e > h {
				h = e
			}
			if f > h {
				h = f
			}
			if h < 0 {
				h = 0
			}
			diag = H[j]
			H[j] = h
			if h > best {
				best = h
			}
		}
	}
	return int(best)
}

func codes(s string) []byte {
	sq := &seq.Sequence{Kind: seq.Nucleotide, Data: []byte(s)}
	return sq.Codes()
}

func TestNucleotideScheme(t *testing.T) {
	s := NucleotideScheme(1, -3, 5, 2)
	if s.Score(0, 0) != 1 || s.Score(0, 1) != -3 {
		t.Error("nucleotide scores wrong")
	}
	if s.GapCost(0) != 0 || s.GapCost(1) != 7 || s.GapCost(3) != 11 {
		t.Error("gap costs wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid scheme should panic")
		}
	}()
	NucleotideScheme(-1, -3, 5, 2)
}

func TestSmithWatermanExact(t *testing.T) {
	s := NucleotideScheme(1, -3, 5, 2)
	// Identical sequences: score = length.
	al := SmithWaterman(codes("ACGTACGT"), codes("ACGTACGT"), s)
	if al.Score != 8 {
		t.Errorf("identical score = %d, want 8", al.Score)
	}
	if al.AStart != 0 || al.AEnd != 8 || al.BStart != 0 || al.BEnd != 8 {
		t.Errorf("identical extents %+v", al)
	}
	if al.CIGAR() != "8M" {
		t.Errorf("CIGAR = %s", al.CIGAR())
	}
	// Embedded match.
	al = SmithWaterman(codes("TTTTACGTACGTTTTT"), codes("CCACGTACGTCC"), s)
	if al.Score != 8 {
		t.Errorf("embedded score = %d, want 8", al.Score)
	}
	// No match at all (with -3 mismatch a single match of +1 is best).
	al = SmithWaterman(codes("AAAA"), codes("CCCC"), s)
	if al.Score != 0 {
		t.Errorf("disjoint score = %d, want 0", al.Score)
	}
}

func TestSmithWatermanGap(t *testing.T) {
	s := NucleotideScheme(2, -3, 5, 2)
	// A 12-base match interrupted by a 1-base deletion in the subject:
	// score = 11*2 - (5+2) = 15.
	a := codes("ACGTACGTACGT")
	b := codes("ACGTACTACGT") // G at position 6 deleted
	al := SmithWaterman(a, b, s)
	if al.Score != 15 {
		t.Errorf("gapped score = %d, want 15", al.Score)
	}
	if al.Gaps() != 1 {
		t.Errorf("gaps = %d, want 1", al.Gaps())
	}
	m, cols := al.Identity(a, b)
	if m != 11 || cols != 12 {
		t.Errorf("identity = %d/%d, want 11/12", m, cols)
	}
}

func TestSmithWatermanMatchesLinearScore(t *testing.T) {
	s := DefaultNucleotide()
	rng := util.NewRNG(11)
	for trial := 0; trial < 200; trial++ {
		a := randomCodes(rng, 1+rng.Intn(40))
		b := randomCodes(rng, 1+rng.Intn(40))
		full := SmithWaterman(a, b, s)
		lin := SmithWatermanScore(a, b, s)
		if full.Score != lin {
			t.Fatalf("trial %d: traceback score %d != linear score %d", trial, full.Score, lin)
		}
		if full.Score > 0 {
			checkAlignmentScore(t, full, a, b, s)
		}
	}
}

// checkAlignmentScore replays the edit script and verifies the claimed
// score, extents and ops are mutually consistent.
func checkAlignmentScore(t *testing.T, al *Alignment, a, b []byte, s *Scheme) {
	t.Helper()
	score := 0
	ai, bi := al.AStart, al.BStart
	for _, op := range al.Ops {
		switch op.Kind {
		case OpMatch:
			for k := 0; k < op.Len; k++ {
				score += s.Score(a[ai+k], b[bi+k])
			}
			ai += op.Len
			bi += op.Len
		case OpInsert:
			score -= s.GapCost(op.Len)
			bi += op.Len
		case OpDelete:
			score -= s.GapCost(op.Len)
			ai += op.Len
		}
	}
	if ai != al.AEnd || bi != al.BEnd {
		t.Fatalf("ops consume (%d,%d), extents say (%d,%d)", ai, bi, al.AEnd, al.BEnd)
	}
	if score != al.Score {
		t.Fatalf("replayed score %d != claimed %d (cigar %s)", score, al.Score, al.CIGAR())
	}
}

func randomCodes(rng *util.RNG, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(4))
	}
	return out
}

func TestExtendUngapped(t *testing.T) {
	s := NucleotideScheme(1, -3, 5, 2)
	a := codes("TTTTACGTACGTACGTTTTT")
	b := codes("GGGGACGTACGTACGTGGGG")
	// Seed of width 4 in the middle of the shared 12-mer.
	score, aFrom, aTo, bFrom, bTo := ExtendUngapped(a, b, 8, 8, 4, s, 10)
	if score != 12 {
		t.Errorf("ungapped score = %d, want 12", score)
	}
	if aFrom != 4 || aTo != 16 || bFrom != 4 || bTo != 16 {
		t.Errorf("extents = [%d,%d) x [%d,%d), want [4,16) x [4,16)", aFrom, aTo, bFrom, bTo)
	}
}

func TestExtendUngappedXDropStops(t *testing.T) {
	s := NucleotideScheme(1, -3, 5, 2)
	// Perfect 8-mer then garbage: with small xdrop the extension must
	// not cross the garbage even though a distant match follows.
	a := codes("ACGTACGTCCCCCCCCACGT")
	b := codes("ACGTACGTGGGGGGGGACGT")
	score, _, aTo, _, _ := ExtendUngapped(a, b, 0, 0, 4, s, 4)
	if aTo > 10 {
		t.Errorf("extension crossed garbage: aTo = %d", aTo)
	}
	if score != 8 {
		t.Errorf("score = %d, want 8", score)
	}
}

func TestExtendGappedPerfect(t *testing.T) {
	s := NucleotideScheme(1, -3, 5, 2)
	a := codes("ACGTACGTACGT")
	score, aFrom, aTo, bFrom, bTo := ExtendGappedWS(&Workspace{}, a, a, 6, 6, s, 20)
	if score != 12 {
		t.Errorf("perfect gapped score = %d, want 12", score)
	}
	if aFrom != 0 || aTo != 12 || bFrom != 0 || bTo != 12 {
		t.Errorf("extents [%d,%d) x [%d,%d)", aFrom, aTo, bFrom, bTo)
	}
}

func TestExtendGappedWithGap(t *testing.T) {
	s := NucleotideScheme(2, -3, 5, 2)
	a := codes("ACGTACGTACGT")
	b := codes("ACGTACTACGT") // one base deleted
	// Anchor on the aligned pair a[2]=G, b[2]=G.
	score, _, _, _, _ := ExtendGappedWS(&Workspace{}, a, b, 2, 2, s, 30)
	// Optimal local alignment: 11 matched columns minus one 1-gap: 22-7=15.
	if score != 15 {
		t.Errorf("gapped extension score = %d, want 15", score)
	}
}

func TestExtendGappedMatchesSWWithLargeXDrop(t *testing.T) {
	// With an anchor inside a strong match and a huge X-drop, the
	// two-sided extension must reach the full Smith-Waterman score.
	s := DefaultNucleotide()
	rng := util.NewRNG(17)
	for trial := 0; trial < 100; trial++ {
		// Construct related sequences: shared core with point noise.
		core := randomCodes(rng, 20+rng.Intn(20))
		a := append(append(randomCodes(rng, rng.Intn(10)), core...), randomCodes(rng, rng.Intn(10))...)
		b := append([]byte(nil), core...)
		// Mutate one position of b's copy of the core.
		if len(b) > 0 {
			b[rng.Intn(len(b))] = byte(rng.Intn(4))
		}
		sw := SmithWaterman(a, b, s)
		if sw.Score == 0 {
			continue
		}
		// Anchor at the middle of the SW alignment via its extents
		// (approximate: middle of the matched region).
		ai := (sw.AStart + sw.AEnd - 1) / 2
		bi := (sw.BStart + sw.BEnd - 1) / 2
		got, _, _, _, _ := ExtendGappedWS(&Workspace{}, a, b, ai, bi, s, 1<<20)
		if got < sw.Score {
			// The anchor pair may not lie on the optimal path; accept
			// only clear failures where the anchored optimum is missed.
			anch := anchoredOptimum(a, b, ai, bi, s)
			if got != anch {
				t.Fatalf("trial %d: ExtendGapped = %d, anchored optimum = %d (SW %d)",
					trial, got, anch, sw.Score)
			}
		}
	}
}

// anchoredOptimum computes, by unbanded DP, the best alignment score
// forced to align a[ai] with b[bi] (the oracle for ExtendGappedWS with
// unbounded X-drop).
func anchoredOptimum(a, b []byte, ai, bi int, s *Scheme) int {
	anchor := s.Score(a[ai], b[bi])
	right := bestExtensionScore(a[ai+1:], b[bi+1:], s)
	left := bestExtensionScore(reverseBytes(a[:ai]), reverseBytes(b[:bi]), s)
	return anchor + right + left
}

func reverseBytes(p []byte) []byte {
	out := make([]byte, len(p))
	for i, c := range p {
		out[len(p)-1-i] = c
	}
	return out
}

// bestExtensionScore is max over all (i,j) of the global alignment
// score of a[:i] vs b[:j], at least 0; computed by full DP.
func bestExtensionScore(a, b []byte, s *Scheme) int {
	n, m := len(a), len(b)
	open := s.GapOpen + s.GapExtend
	ext := s.GapExtend
	H := make([][]int, n+1)
	E := make([][]int, n+1)
	F := make([][]int, n+1)
	for i := range H {
		H[i] = make([]int, m+1)
		E[i] = make([]int, m+1)
		F[i] = make([]int, m+1)
	}
	best := 0
	for i := 0; i <= n; i++ {
		for j := 0; j <= m; j++ {
			if i == 0 && j == 0 {
				E[0][0], F[0][0] = negInf, negInf
				continue
			}
			e, f := negInf, negInf
			if j > 0 {
				e = E[i][j-1] - ext
				if h := H[i][j-1] - open; h > e {
					e = h
				}
			}
			if i > 0 {
				f = F[i-1][j] - ext
				if h := H[i-1][j] - open; h > f {
					f = h
				}
			}
			h := negInf
			if i > 0 && j > 0 {
				h = H[i-1][j-1] + s.Score(a[i-1], b[j-1])
			}
			if e > h {
				h = e
			}
			if f > h {
				h = f
			}
			H[i][j], E[i][j], F[i][j] = h, e, f
			if h > best {
				best = h
			}
		}
	}
	return best
}

func TestOpsMerging(t *testing.T) {
	ops := appendOp(nil, OpMatch, 3)
	ops = appendOp(ops, OpMatch, 2)
	ops = appendOp(ops, OpDelete, 1)
	ops = appendOp(ops, OpMatch, 0) // no-op
	if len(ops) != 2 || ops[0].Len != 5 {
		t.Errorf("appendOp merging broken: %+v", ops)
	}
	rev := reverseOps([]Op{{OpMatch, 2}, {OpDelete, 1}, {OpMatch, 3}})
	if len(rev) != 3 || rev[0].Kind != OpMatch || rev[0].Len != 3 {
		t.Errorf("reverseOps broken: %+v", rev)
	}
	rev2 := reverseOps([]Op{{OpMatch, 2}, {OpMatch, 3}})
	if len(rev2) != 1 || rev2[0].Len != 5 {
		t.Errorf("reverseOps merge broken: %+v", rev2)
	}
}

func TestXDropNeverExceedsSW(t *testing.T) {
	s := DefaultNucleotide()
	f := func(rawA, rawB []byte, seedSel uint16) bool {
		if len(rawA) == 0 || len(rawB) == 0 {
			return true
		}
		a := make([]byte, len(rawA))
		for i, c := range rawA {
			a[i] = c & 3
		}
		b := make([]byte, len(rawB))
		for i, c := range rawB {
			b[i] = c & 3
		}
		ai := int(seedSel) % len(a)
		bi := int(seedSel>>8) % len(b)
		got, aFrom, aTo, bFrom, bTo := ExtendGappedWS(&Workspace{}, a, b, ai, bi, s, 15)
		if aFrom < 0 || aTo > len(a) || bFrom < 0 || bTo > len(b) {
			return false
		}
		if aFrom > ai || aTo <= ai || bFrom > bi || bTo <= bi {
			return false
		}
		// An anchored alignment can never beat the anchored optimum.
		return got <= anchoredOptimum(a, b, ai, bi, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
