package tsdb

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"pario/internal/telemetry"
)

// scrapeInto appends reg's samples to st at time ts — the same path
// the collector takes.
func scrapeInto(t *testing.T, st *Store, reg *telemetry.Registry, ts time.Time) {
	t.Helper()
	st.Append(ts, reg.Snapshot(), nil)
}

// TestQuantileOverTimeRandomized cross-checks the windowed quantile
// against a reference histogram fed only the window's observations:
// the store sees a baseline scrape (pre-window noise), then a second
// scrape after the window's observations, and must reconstruct the
// same bucket counts the reference holds directly.
func TestQuantileOverTimeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		reg := telemetry.NewRegistry()
		h := reg.Histogram("pario_req_seconds", "test latencies")
		st := NewStore(0)

		// Pre-window noise the query must ignore.
		for i := 0; i < rng.Intn(200); i++ {
			h.Observe(math.Exp(rng.Float64()*10 - 8)) // ~[3e-4, 7]
		}
		now := t0.Add(time.Minute)
		scrapeInto(t, st, reg, now.Add(-40*time.Second))

		// The window's observations, mirrored into a fresh reference
		// histogram. Values stay clear of the first bucket (1e-6) and
		// the overflow bucket (~536), where the estimators' edge
		// conventions legitimately differ.
		ref := telemetry.NewRegistry().Histogram("pario_req_seconds", "ref")
		n := 50 + rng.Intn(300)
		for i := 0; i < n; i++ {
			v := math.Exp(rng.Float64()*12 - 8) // ~[3e-4, 55]
			h.Observe(v)
			ref.Observe(v)
		}
		scrapeInto(t, st, reg, now)

		for _, q := range []float64{0.10, 0.50, 0.90, 0.99} {
			got, ok := st.QuantileOverTime("pario_req_seconds", nil, q, now, 30*time.Second)
			if !ok {
				t.Fatalf("trial %d q%.2f: no data", trial, q)
			}
			want := ref.Quantile(q)
			if want == 0 {
				continue
			}
			if rel := math.Abs(got-want) / want; rel > 1e-9 {
				t.Errorf("trial %d q%.2f: got %g want %g (rel err %g)",
					trial, q, got, want, rel)
			}
		}
		// The window's observation count must match exactly.
		if c, ok := st.Increase("pario_req_seconds_count", nil, now, 30*time.Second); !ok || c != float64(n) {
			t.Errorf("trial %d: count = %v, %v; want %d", trial, c, ok, n)
		}
	}
}

func TestQuantileIgnoresPreWindowShape(t *testing.T) {
	// Baseline heavily skewed slow; window observations all fast. A
	// naive full-lifetime quantile would report seconds; the windowed
	// one must report the fast cluster.
	reg := telemetry.NewRegistry()
	h := reg.Histogram("pario_req_seconds", "x")
	st := NewStore(0)
	for i := 0; i < 1000; i++ {
		h.Observe(4.0)
	}
	now := t0.Add(time.Minute)
	scrapeInto(t, st, reg, now.Add(-40*time.Second))
	for i := 0; i < 100; i++ {
		h.Observe(0.001)
	}
	scrapeInto(t, st, reg, now)
	p99, ok := st.QuantileOverTime("pario_req_seconds", nil, 0.99, now, 30*time.Second)
	if !ok || p99 > 0.01 {
		t.Fatalf("windowed p99 = %v, %v; want ~1ms", p99, ok)
	}
}

func TestBurnOverTime(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("pario_req_seconds", "x")
	st := NewStore(0)
	scrapeInto(t, st, reg, t0)
	// 90 fast (0.01s, entirely below the 0.1s SLO bucket-wise) and 10
	// slow (1.0s, entirely above): burn must be exactly 10%.
	for i := 0; i < 90; i++ {
		h.Observe(0.01)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1.0)
	}
	now := t0.Add(10 * time.Second)
	scrapeInto(t, st, reg, now)
	burn, ok := st.BurnOverTime("pario_req_seconds", nil, 0.1, now, time.Minute)
	if !ok {
		t.Fatal("no data")
	}
	if math.Abs(burn-0.10) > 1e-9 {
		t.Fatalf("burn = %v; want 0.10", burn)
	}
	// An SLO far above every observation burns nothing; far below,
	// everything.
	if b, _ := st.BurnOverTime("pario_req_seconds", nil, 100, now, time.Minute); b != 0 {
		t.Fatalf("burn(100s) = %v; want 0", b)
	}
	if b, _ := st.BurnOverTime("pario_req_seconds", nil, 1e-5, now, time.Minute); b != 1 {
		t.Fatalf("burn(10us) = %v; want 1", b)
	}
}

func TestBurnNoObservationsInWindow(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("pario_req_seconds", "x")
	h.Observe(5)
	st := NewStore(0)
	now := t0.Add(time.Minute)
	// Two scrapes with no observations between them: burn must report
	// no data, not a stale violation.
	scrapeInto(t, st, reg, now.Add(-10*time.Second))
	scrapeInto(t, st, reg, now)
	if _, ok := st.BurnOverTime("pario_req_seconds", nil, 1, now, 20*time.Second); ok {
		t.Fatal("burn answered with zero windowed observations")
	}
	if _, ok := st.QuantileOverTime("pario_req_seconds", nil, 0.99, now, 20*time.Second); ok {
		t.Fatal("quantile answered with zero windowed observations")
	}
}
