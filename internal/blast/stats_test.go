package blast

import (
	"math"
	"testing"

	"pario/internal/align"
)

func approxEq(got, want, relTol float64) bool {
	if want == 0 {
		return math.Abs(got) < relTol
	}
	return math.Abs(got-want)/math.Abs(want) <= relTol
}

func TestUngappedParamsBlastn(t *testing.T) {
	// For +1/-3 with uniform base frequencies the published NCBI
	// values are lambda=1.374, K=0.711, H=1.31.
	kp, err := ComputeUngappedParams(align.NucleotideScheme(1, -3, 5, 2), UniformNucFreqs)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(kp.Lambda, 1.374, 0.01) {
		t.Errorf("lambda = %v, want ~1.374", kp.Lambda)
	}
	if !approxEq(kp.K, 0.711, 0.05) {
		t.Errorf("K = %v, want ~0.711", kp.K)
	}
	if !approxEq(kp.H, 1.31, 0.05) {
		t.Errorf("H = %v, want ~1.31", kp.H)
	}
}

func TestLambdaFundamentalIdentity(t *testing.T) {
	// By definition, sum p(s) exp(lambda*s) must equal 1.
	schemes := []*align.Scheme{
		align.NucleotideScheme(1, -3, 5, 2),
		align.NucleotideScheme(1, -2, 5, 2),
		align.NucleotideScheme(2, -3, 5, 2),
	}
	for i, s := range schemes {
		kp, err := ComputeUngappedParams(s, UniformNucFreqs)
		if err != nil {
			t.Fatalf("scheme %d: %v", i, err)
		}
		dist, lo, hi, err := scoreDistribution(s, UniformNucFreqs)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for sc := lo; sc <= hi; sc++ {
			sum += dist[sc-lo] * math.Exp(kp.Lambda*float64(sc))
		}
		if !approxEq(sum, 1.0, 1e-6) {
			t.Errorf("scheme %d: sum p(s)e^(lambda s) = %v, want 1", i, sum)
		}
		if kp.K <= 0 || kp.K >= 1 {
			t.Errorf("scheme %d: implausible K = %v", i, kp.K)
		}
		if kp.H <= 0 {
			t.Errorf("scheme %d: H = %v", i, kp.H)
		}
	}
}

func TestUngappedParamsRejectsDegenerate(t *testing.T) {
	// All-positive scheme: expected score positive, no lambda.
	s := &align.Scheme{
		Table:     [][]int{{1, 1}, {1, 1}},
		GapOpen:   1,
		GapExtend: 1,
	}
	if _, err := ComputeUngappedParams(s, []float64{0.5, 0.5}); err == nil {
		t.Error("expected error for scheme without negative scores")
	}
	s2 := &align.Scheme{
		Table:     [][]int{{-1, -1}, {-1, -1}},
		GapOpen:   1,
		GapExtend: 1,
	}
	if _, err := ComputeUngappedParams(s2, []float64{0.5, 0.5}); err == nil {
		t.Error("expected error for scheme without positive scores")
	}
}

func TestEValueMonotonicity(t *testing.T) {
	kp := KarlinParams{Lambda: 1.37, K: 0.711, H: 1.31}
	prev := math.Inf(1)
	for s := 10; s <= 100; s += 10 {
		e := kp.EValue(s, 568, 1<<20)
		if e >= prev {
			t.Fatalf("e-value not decreasing at score %d: %v >= %v", s, e, prev)
		}
		prev = e
	}
	// Doubling the search space doubles E.
	e1 := kp.EValue(50, 568, 1000)
	e2 := kp.EValue(50, 568, 2000)
	if !approxEq(e2/e1, 2.0, 1e-9) {
		t.Errorf("E not linear in n: ratio %v", e2/e1)
	}
}

func TestBitScore(t *testing.T) {
	kp := KarlinParams{Lambda: 0.267, K: 0.041, H: 0.14}
	// bits = (lambda*S - ln K)/ln 2
	want := (0.267*100 - math.Log(0.041)) / math.Ln2
	if got := kp.BitScore(100); !approxEq(got, want, 1e-12) {
		t.Errorf("BitScore = %v, want %v", got, want)
	}
}

func TestRawCutoffInvertsEValue(t *testing.T) {
	kp := KarlinParams{Lambda: 1.37, K: 0.711, H: 1.31}
	for _, ev := range []float64{10, 1, 1e-3, 1e-10} {
		cut := kp.RawCutoff(ev, 568, 1<<30)
		if e := kp.EValue(cut, 568, 1<<30); e > ev {
			t.Errorf("cutoff %d still has E=%v > %v", cut, e, ev)
		}
		if cut > 1 {
			if e := kp.EValue(cut-1, 568, 1<<30); e <= ev {
				t.Errorf("cutoff %d not minimal: E(cut-1)=%v <= %v", cut, e, ev)
			}
		}
	}
}

func TestGappedParamsTableHit(t *testing.T) {
	kp, err := GappedParams(align.NucleotideScheme(1, -3, 5, 2), UniformNucFreqs)
	if err != nil {
		t.Fatal(err)
	}
	if kp.Lambda != 1.374 {
		t.Errorf("blastn gapped lambda = %v", kp.Lambda)
	}
	kp, err = GappedParams(align.NucleotideScheme(2, -3, 5, 2), UniformNucFreqs)
	if err != nil {
		t.Fatal(err)
	}
	if kp.Lambda != 0.675 || kp.K != 0.111 {
		t.Errorf("+2/-3 5/2 gapped params = %+v", kp)
	}
}

func TestGappedParamsFallback(t *testing.T) {
	// Unusual gap costs: falls back to computed ungapped values.
	kp, err := GappedParams(align.NucleotideScheme(1, -3, 9, 4), UniformNucFreqs)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(kp.Lambda, 1.374, 0.01) {
		t.Errorf("fallback lambda = %v", kp.Lambda)
	}
}

func TestLengthAdjustment(t *testing.T) {
	kp := KarlinParams{Lambda: 1.37, K: 0.711, H: 1.31}
	la := LengthAdjustment(kp, 568, 2_700_000_000, 1_760_000)
	if la <= 0 || la >= 568 {
		t.Errorf("length adjustment = %d out of range", la)
	}
	// Larger databases need larger adjustments.
	la2 := LengthAdjustment(kp, 568, 27_000_000_000, 1_760_000)
	if la2 < la {
		t.Errorf("adjustment shrank with database growth: %d -> %d", la, la2)
	}
	if LengthAdjustment(kp, 100, 1000, 0) != 0 {
		t.Error("zero sequences should give zero adjustment")
	}
}

func TestScoreGCD(t *testing.T) {
	dist := []float64{0.5, 0, 0, 0, 0.5} // scores -2 and +2
	if g := scoreGCD(dist, -2, 2); g != 2 {
		t.Errorf("gcd = %d, want 2", g)
	}
	dist2 := []float64{0.3, 0.3, 0, 0.4} // scores -1, 0, +2
	if g := scoreGCD(dist2, -1, 2); g != 1 {
		t.Errorf("gcd = %d, want 1", g)
	}
}
