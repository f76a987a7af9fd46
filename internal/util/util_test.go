package util

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{1024, "1.00KB"},
		{64 * 1024, "64.00KB"},
		{GB*2 + GB*7/10, "2.70GB"},
		{5 * TB, "5.00TB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"512", 512},
		{"512B", 512},
		{"64KB", 64 * 1024},
		{"64kb", 64 * 1024},
		{"2MB", 2 * MB},
		{"1.5GB", int64(1.5 * float64(GB))},
		{"2TB", 2 * TB},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil {
			t.Fatalf("ParseBytes(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"12XB", "-5MB", "-1", "NaN", "Inf", "-Inf", "1e30TB", "8388608TB"} {
		if got, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) = %d, want an error", bad, got)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	f := func(n uint32) bool {
		v := int64(n)
		got, err := ParseBytes(FormatBytes(v))
		if err != nil {
			return false
		}
		// Formatting truncates to two decimals, so allow 1% error.
		diff := math.Abs(float64(got - v))
		return diff <= math.Max(1, 0.01*float64(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 || s.Sum != 10 {
		t.Errorf("unexpected summary %+v", s)
	}
	if math.Abs(s.Median-2.5) > 1e-12 {
		t.Errorf("median = %v, want 2.5", s.Median)
	}
	if s0 := Summarize(nil); s0.N != 0 {
		t.Errorf("empty summary N = %d", s0.N)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Errorf("q.5 = %v", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Errorf("q.25 = %v", q)
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		sort.Float64s(xs)
		qa := math.Mod(math.Abs(a), 1)
		qb := math.Mod(math.Abs(b), 1)
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(xs, qa) <= Quantile(xs, qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds matched %d/1000 outputs", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		n := 1 + i%17
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(2)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(3)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}
