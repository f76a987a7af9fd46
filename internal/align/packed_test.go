package align

import (
	"math/rand"
	"testing"

	"pario/internal/seq"
)

// ExtendUngapped is PackedExtend's reference: the byte-at-a-time
// ungapped X-drop kernel over dense codes under any scheme. It extends
// a seed match at a[ai:ai+w] vs b[bi:bi+w] along the diagonal in both
// directions, stopping a direction when the running score falls more
// than xdrop below the best seen in that direction. It returns the best
// total score and the extents [aFrom,aTo) x [bFrom,bTo) achieving it.
func ExtendUngapped(a, b []byte, ai, bi, w int, s *Scheme, xdrop int) (score, aFrom, aTo, bFrom, bTo int) {
	seed := 0
	for k := 0; k < w; k++ {
		seed += s.Score(a[ai+k], b[bi+k])
	}
	bestRight, rightLen := 0, 0
	run, k := 0, 1
	for i, j := ai+w, bi+w; i < len(a) && j < len(b); i, j = i+1, j+1 {
		run += s.Score(a[i], b[j])
		if run > bestRight {
			bestRight, rightLen = run, k
		}
		if run < bestRight-xdrop {
			break
		}
		k++
	}
	bestLeft, leftLen := 0, 0
	run, k = 0, 1
	for i, j := ai-1, bi-1; i >= 0 && j >= 0; i, j = i-1, j-1 {
		run += s.Score(a[i], b[j])
		if run > bestLeft {
			bestLeft, leftLen = run, k
		}
		if run < bestLeft-xdrop {
			break
		}
		k++
	}
	score = seed + bestLeft + bestRight
	return score, ai - leftLen, ai + w + rightLen, bi - leftLen, bi + w + rightLen
}

// randomLetters builds a nucleotide letter sequence of length n that is
// mostly ACGT with a sprinkling of ambiguity codes, so the packed and
// byte kernels are exercised over exactly the inputs blastdb hands
// them (NucCode folds ambiguity to concrete bases before packing).
func randomLetters(rng *rand.Rand, n int) []byte {
	const concrete = "ACGT"
	const ambiguous = "NRYKMSWBDHVX"
	out := make([]byte, n)
	for i := range out {
		if rng.Intn(20) == 0 {
			out[i] = ambiguous[rng.Intn(len(ambiguous))]
		} else {
			out[i] = concrete[rng.Intn(len(concrete))]
		}
	}
	return out
}

func codesAndPacked(letters []byte) (codes, packed []byte) {
	s := &seq.Sequence{Kind: seq.Nucleotide, Data: letters}
	codes = s.Codes()
	return codes, seq.PackCodes(codes)
}

// checkPackedMatchesByte runs both kernels on one seed under the
// uniform scheme match/mismatch and fails the test on any divergence in
// score or extent.
func checkPackedMatchesByte(t *testing.T, aCodes, aPacked, bCodes, bPacked []byte, ai, bi, w, match, mismatch, xdrop int) {
	t.Helper()
	sch := NucleotideScheme(match, mismatch, 5, 2)
	wScore, wAF, wAT, wBF, wBT := ExtendUngapped(aCodes, bCodes, ai, bi, w, sch, xdrop)
	pScore, pAF, pAT, pBF, pBT := PackedExtend(aPacked, len(aCodes), bPacked, len(bCodes), ai, bi, w, match, mismatch, xdrop)
	if wScore != pScore || wAF != pAF || wAT != pAT || wBF != pBF || wBT != pBT {
		t.Fatalf("PackedExtend diverges at ai=%d bi=%d w=%d match=%d mismatch=%d xdrop=%d (an=%d bn=%d):\n  byte   score=%d a=[%d,%d) b=[%d,%d)\n  packed score=%d a=[%d,%d) b=[%d,%d)",
			ai, bi, w, match, mismatch, xdrop, len(aCodes), len(bCodes),
			wScore, wAF, wAT, wBF, wBT, pScore, pAF, pAT, pBF, pBT)
	}
}

// TestPackedExtendMatchesByteKernel is the equivalence property test:
// on randomized sequences (ambiguity letters included), random uniform
// schemes, and seeds at all four 2-bit phase offsets — including seeds
// hugging sequence ends and lengths straddling 32-base word
// boundaries — PackedExtend must reproduce ExtendUngapped bit for bit.
func TestPackedExtendMatchesByteKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	lengths := []int{5, 31, 32, 33, 63, 64, 65, 127, 128, 129, 200, 700}
	for trial := 0; trial < 400; trial++ {
		an := lengths[rng.Intn(len(lengths))] + rng.Intn(5)
		bn := lengths[rng.Intn(len(lengths))] + rng.Intn(5)
		aLet := randomLetters(rng, an)
		bLet := randomLetters(rng, bn)
		// Plant a correlated fragment so extensions have real match
		// runs to ride, not just coin-flip noise.
		if an > 16 && bn > 16 && rng.Intn(2) == 0 {
			n := 8 + rng.Intn(min(an, bn)-8)
			ao := rng.Intn(an - n + 1)
			bo := rng.Intn(bn - n + 1)
			copy(bLet[bo:bo+n], aLet[ao:ao+n])
		}
		aCodes, aPacked := codesAndPacked(aLet)
		bCodes, bPacked := codesAndPacked(bLet)

		match := 1 + rng.Intn(5)
		mismatch := -(1 + rng.Intn(5))
		xdrop := rng.Intn(41)

		w := 1 + rng.Intn(min(min(an, bn), 28))
		for phase := 0; phase < 4; phase++ {
			ai := rng.Intn(an - w + 1)
			ai = ai - ai%4 + phase
			if ai+w > an {
				ai -= 4
			}
			if ai < 0 {
				continue
			}
			bi := rng.Intn(bn - w + 1)
			checkPackedMatchesByte(t, aCodes, aPacked, bCodes, bPacked, ai, bi, w, match, mismatch, xdrop)
		}
		// Seeds hugging the ends: zero room to extend on one side.
		checkPackedMatchesByte(t, aCodes, aPacked, bCodes, bPacked, 0, 0, w, match, mismatch, xdrop)
		checkPackedMatchesByte(t, aCodes, aPacked, bCodes, bPacked, an-w, bn-w, w, match, mismatch, xdrop)
	}
}

// TestPackedExtendIdenticalSequences pins the easy-to-reason-about
// corner: a sequence against itself extends to the full length with
// every base a match, across word-boundary lengths and phases.
func TestPackedExtendIdenticalSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{12, 31, 32, 33, 64, 96, 129} {
		letters := randomLetters(rng, n)
		codes, packed := codesAndPacked(letters)
		for ai := 0; ai+11 <= n && ai < 8; ai++ {
			score, aF, aT, bF, bT := PackedExtend(packed, n, packed, n, ai, ai, 11, 2, -3, 30)
			if score != 2*n || aF != 0 || aT != n || bF != 0 || bT != n {
				t.Fatalf("n=%d ai=%d: got score=%d a=[%d,%d) b=[%d,%d), want full-length match score %d", n, ai, score, aF, aT, bF, bT, 2*n)
			}
		}
		_ = codes
	}
}

func TestPackedMismatches(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(150)
		aCodes, aPacked := codesAndPacked(randomLetters(rng, n))
		bCodes, bPacked := codesAndPacked(randomLetters(rng, n))
		w := 1 + rng.Intn(n)
		ai := rng.Intn(n - w + 1)
		bi := rng.Intn(n - w + 1)
		want := 0
		for k := 0; k < w; k++ {
			if aCodes[ai+k] != bCodes[bi+k] {
				want++
			}
		}
		if got := packedMismatches(aPacked, bPacked, ai, bi, w); got != want {
			t.Fatalf("packedMismatches(ai=%d, bi=%d, w=%d) = %d, want %d", ai, bi, w, got, want)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
