package align

import (
	"testing"

	"pario/internal/util"
)

func greedyDefault() GreedyScheme { return NewGreedyScheme(1, -3) }

func TestGreedySchemeAlgebra(t *testing.T) {
	g := NewGreedyScheme(1, -3) // doubled internally to 2/-6
	if g.Match != 2 {
		t.Errorf("match = %d", g.Match)
	}
	if g.Mismatch() != -6 {
		t.Errorf("mismatch = %d, want -6", g.Mismatch())
	}
	if g.GapPerLetter() != 7 { // |mismatch| + match/2 = 6 + 1
		t.Errorf("gap = %d, want 7", g.GapPerLetter())
	}
	// Even match stays as given.
	g2 := NewGreedyScheme(2, -4)
	if g2.Match != 2 || g2.Mismatch() != -4 {
		t.Errorf("even scheme: %+v mismatch %d", g2, g2.Mismatch())
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid scheme accepted")
		}
	}()
	NewGreedyScheme(0, -1)
}

func TestGreedyIdenticalSequences(t *testing.T) {
	g := greedyDefault()
	a := codes("ACGTACGTACGTACGT")
	score, aLen, bLen := greedyExtendRight(&Workspace{}, a, a, g, 100)
	if aLen != len(a) || bLen != len(a) {
		t.Errorf("consumed %d/%d of %d", aLen, bLen, len(a))
	}
	if score != g.Match*len(a) {
		t.Errorf("score = %d, want %d", score, g.Match*len(a))
	}
}

func TestGreedySingleMismatch(t *testing.T) {
	g := greedyDefault()
	a := codes("ACGTACGTACGTACGTACGT")
	b := codes("ACGTACGTTCGTACGTACGT") // position 8 differs
	score, aLen, bLen := greedyExtendRight(&Workspace{}, a, b, g, 100)
	if aLen != len(a) || bLen != len(b) {
		t.Errorf("consumed %d/%d", aLen, bLen)
	}
	want := g.Match*(len(a)-1) + g.Mismatch()
	if score != want {
		t.Errorf("score = %d, want %d", score, want)
	}
}

func TestGreedySingleGap(t *testing.T) {
	g := greedyDefault()
	a := codes("ACGTACGTGACGTACGT") // extra G inserted at position 8
	b := codes("ACGTACGTACGTACGT")
	score, aLen, bLen := greedyExtendRight(&Workspace{}, a, b, g, 100)
	if aLen != len(a) || bLen != len(b) {
		t.Errorf("consumed %d/%d of %d/%d", aLen, bLen, len(a), len(b))
	}
	want := g.Match*len(b) - g.GapPerLetter()
	if score != want {
		t.Errorf("score = %d, want %d", score, want)
	}
}

func TestGreedyXDropStops(t *testing.T) {
	g := greedyDefault()
	// 8 matches then pure garbage: with a small x-drop the extension
	// must stop near the boundary.
	a := codes("ACGTACGT" + "CCCCCCCCCCCC")
	b := codes("ACGTACGT" + "GGGGGGGGGGGG")
	score, aLen, _ := greedyExtendRight(&Workspace{}, a, b, g, 8)
	if aLen > 10 {
		t.Errorf("extension crossed garbage: consumed %d", aLen)
	}
	if score != g.Match*8 {
		t.Errorf("score = %d, want %d", score, g.Match*8)
	}
}

func TestGreedyEmptyInput(t *testing.T) {
	g := greedyDefault()
	if s, a, b := greedyExtendRight(&Workspace{}, nil, codes("ACGT"), g, 10); s != 0 || a != 0 || b != 0 {
		t.Errorf("empty a: %d %d %d", s, a, b)
	}
}

func TestGreedyTwoSided(t *testing.T) {
	g := greedyDefault()
	a := codes("TTTTACGTACGTACGTTTTT")
	score, aFrom, aTo, bFrom, bTo := GreedyExtendWS(&Workspace{}, a, a, 10, 10, g, 100)
	if aFrom != 0 || aTo != len(a) || bFrom != 0 || bTo != len(a) {
		t.Errorf("extents [%d,%d) x [%d,%d)", aFrom, aTo, bFrom, bTo)
	}
	if score != g.Match*len(a) {
		t.Errorf("score = %d", score)
	}
}

// TestGreedyMatchesDPOnSimilarSequences: for highly similar pairs the
// greedy score must equal the anchored DP optimum under the
// equivalent linear-gap scheme.
func TestGreedyMatchesDPOnSimilarSequences(t *testing.T) {
	g := greedyDefault()
	// Equivalent affine scheme with gap open = 0 (linear gaps):
	// match 2, mismatch -6, gap per letter 7.
	s := &Scheme{
		Table:     NucleotideScheme(2, -6, 1, 1).Table,
		GapOpen:   0,
		GapExtend: 7,
	}
	rng := util.NewRNG(41)
	for trial := 0; trial < 100; trial++ {
		n := 30 + rng.Intn(40)
		a := make([]byte, n)
		for i := range a {
			a[i] = byte(rng.Intn(4))
		}
		// b = a with up to 2 point mutations (keeps sequences highly
		// similar, the megablast regime).
		b := append([]byte(nil), a...)
		for k := 0; k < rng.Intn(3); k++ {
			b[rng.Intn(len(b))] = byte(rng.Intn(4))
		}
		got, _, _ := greedyExtendRight(&Workspace{}, a, b, g, 1<<20)
		want := bestExtensionScore(a, b, s)
		if got < want {
			t.Fatalf("trial %d: greedy %d < DP %d", trial, got, want)
		}
		// Greedy can never exceed the unconstrained optimum either.
		if got > want {
			t.Fatalf("trial %d: greedy %d > DP %d", trial, got, want)
		}
	}
}

func TestGreedyNeverNegativeProgress(t *testing.T) {
	g := greedyDefault()
	rng := util.NewRNG(43)
	for trial := 0; trial < 200; trial++ {
		a := make([]byte, 1+rng.Intn(60))
		b := make([]byte, 1+rng.Intn(60))
		for i := range a {
			a[i] = byte(rng.Intn(4))
		}
		for i := range b {
			b[i] = byte(rng.Intn(4))
		}
		score, aLen, bLen := greedyExtendRight(&Workspace{}, a, b, g, 20)
		if aLen < 0 || bLen < 0 || aLen > len(a) || bLen > len(b) {
			t.Fatalf("extents out of range: %d %d", aLen, bLen)
		}
		if score < 0 {
			t.Fatalf("negative best score %d (empty extension scores 0)", score)
		}
	}
}
