package blast

import (
	"math"
	"testing"
)

func approxEq(got, want, relTol float64) bool {
	if want == 0 {
		return math.Abs(got) < relTol
	}
	return math.Abs(got-want)/math.Abs(want) <= relTol
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
