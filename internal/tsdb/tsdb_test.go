package tsdb

import (
	"testing"
	"time"

	"pario/internal/telemetry"
)

var t0 = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// feed appends one sample per value, spaced a second apart ending at
// t0+(n-1)s, and returns the timestamp of the last sample.
func feed(st *Store, name string, labels map[string]string, vals ...float64) time.Time {
	var last time.Time
	for i, v := range vals {
		last = t0.Add(time.Duration(i) * time.Second)
		st.Append(last, []telemetry.Sample{{Name: name, Labels: labels, Value: v}}, nil)
	}
	return last
}

func TestRateWithCounterReset(t *testing.T) {
	st := NewStore(0)
	// 0->10->20, restart (20->5), 5->15: increase = 10+10+5+10 = 35
	// over a 4-second span.
	now := feed(st, "c", nil, 0, 10, 20, 5, 15)
	inc, ok := st.Increase("c", nil, now, time.Minute)
	if !ok || inc != 35 {
		t.Fatalf("increase = %v, %v; want 35", inc, ok)
	}
	rate, ok := st.Rate("c", nil, now, time.Minute)
	if !ok || rate != 35.0/4 {
		t.Fatalf("rate = %v, %v; want 8.75", rate, ok)
	}
}

func TestRateMultipleResets(t *testing.T) {
	st := NewStore(0)
	// Two restarts in one window: 100->3 and 50->2.
	now := feed(st, "c", nil, 100, 3, 50, 2, 40)
	inc, ok := st.Increase("c", nil, now, time.Minute)
	// 3 + 47 + 2 + 38 = 90.
	if !ok || inc != 90 {
		t.Fatalf("increase = %v, %v; want 90", inc, ok)
	}
}

func TestWindowKeepsOpeningEdge(t *testing.T) {
	st := NewStore(0)
	// Counter ticks once between the only two samples; a window that
	// opens between them must still see the increase, from the
	// retained pre-window point.
	st.Append(t0, []telemetry.Sample{{Name: "c", Value: 5}}, nil)
	st.Append(t0.Add(10*time.Second), []telemetry.Sample{{Name: "c", Value: 8}}, nil)
	now := t0.Add(11 * time.Second)
	inc, ok := st.Increase("c", nil, now, 5*time.Second)
	if !ok || inc != 3 {
		t.Fatalf("increase = %v, %v; want 3", inc, ok)
	}
	// A window holding one real sample still answers delta, using the
	// kept pre-window point as the opening edge: the 5->8 step landed
	// on the in-window sample, so it belongs to the window.
	d, ok := st.Delta("c", nil, now, 2*time.Second)
	if !ok || d != 3 {
		t.Fatalf("delta = %v, %v; want 3", d, ok)
	}
}

func TestWindowExcludesOldPoints(t *testing.T) {
	st := NewStore(0)
	now := feed(st, "c", nil, 0, 100, 100, 100, 100, 101)
	// Window covering only the last three samples: one kept edge
	// (100) plus 100, 101 -> increase 1, not 101.
	inc, ok := st.Increase("c", nil, now, 2*time.Second)
	if !ok || inc != 1 {
		t.Fatalf("increase = %v, %v; want 1", inc, ok)
	}
}

func TestRingEviction(t *testing.T) {
	st := NewStore(4)
	now := feed(st, "g", nil, 1, 2, 3, 4, 5, 6)
	series := st.Select("g", nil)
	if len(series) != 1 || len(series[0].Points) != 4 {
		t.Fatalf("points = %d; want 4", len(series[0].Points))
	}
	if series[0].Points[0].V != 3 || series[0].Points[3].V != 6 {
		t.Fatalf("ring kept %v", series[0].Points)
	}
	if v, ok := st.Latest("g", nil); !ok || v != 6 {
		t.Fatalf("latest = %v, %v", v, ok)
	}
	_ = now
}

func TestGrowth(t *testing.T) {
	st := NewStore(0)
	feed(st, "g", nil, 3, 5, 5, 6, 7, 9)
	s := st.Select("g", nil)[0]
	if g := s.Growth(); g != 3 {
		t.Fatalf("growth = %d; want 3", g)
	}
	st2 := NewStore(0)
	feed(st2, "g", nil, 5, 4, 3)
	if g := st2.Select("g", nil)[0].Growth(); g != 0 {
		t.Fatalf("falling growth = %d; want 0", g)
	}
}

func TestRateByLabel(t *testing.T) {
	st := NewStore(0)
	// Two ops on iod0, one on iod1: RateBy must fold ops per server.
	for i := 0; i < 5; i++ {
		ts := t0.Add(time.Duration(i) * time.Second)
		v := float64(i * 10)
		st.Append(ts, []telemetry.Sample{
			{Name: "rpc", Labels: map[string]string{"server": "iod0", "op": "read"}, Value: v},
			{Name: "rpc", Labels: map[string]string{"server": "iod0", "op": "open"}, Value: v},
			{Name: "rpc", Labels: map[string]string{"server": "iod1", "op": "read"}, Value: v / 2},
		}, nil)
	}
	now := t0.Add(4 * time.Second)
	rates := st.RateBy("rpc", "server", nil, now, time.Minute)
	if len(rates) != 2 {
		t.Fatalf("rates = %v", rates)
	}
	if rates["iod0"] != 20 || rates["iod1"] != 5 {
		t.Fatalf("rates = %v; want iod0:20 iod1:5", rates)
	}
}

func TestSelectMatchAndExtraLabels(t *testing.T) {
	st := NewStore(0)
	st.Append(t0, []telemetry.Sample{
		{Name: "m", Labels: map[string]string{"op": "read"}, Value: 1},
	}, map[string]string{InstanceLabel: "iod0"})
	st.Append(t0, []telemetry.Sample{
		{Name: "m", Labels: map[string]string{"op": "read"}, Value: 2},
	}, map[string]string{InstanceLabel: "iod1"})
	if n := st.SeriesCount(); n != 2 {
		t.Fatalf("series = %d; want 2", n)
	}
	got := st.Select("m", map[string]string{InstanceLabel: "iod1"})
	if len(got) != 1 || got[0].Points[0].V != 2 {
		t.Fatalf("select = %+v", got)
	}
	if got[0].Label("op") != "read" {
		t.Fatalf("labels = %v", got[0].Labels)
	}
}

func TestAvgMaxOverTime(t *testing.T) {
	st := NewStore(0)
	now := feed(st, "g", nil, 1, 2, 3, 10)
	s := st.Select("g", nil)[0]
	if avg, ok := s.AvgOverTime(now, time.Minute); !ok || avg != 4 {
		t.Fatalf("avg = %v, %v; want 4", avg, ok)
	}
	if max, ok := s.MaxOverTime(now, time.Minute); !ok || max != 10 {
		t.Fatalf("max = %v, %v; want 10", max, ok)
	}
}

func TestInsufficientData(t *testing.T) {
	st := NewStore(0)
	st.Append(t0, []telemetry.Sample{{Name: "c", Value: 7}}, nil)
	if _, ok := st.Rate("c", nil, t0, time.Minute); ok {
		t.Fatal("rate from one point")
	}
	if _, ok := st.Rate("absent", nil, t0, time.Minute); ok {
		t.Fatal("rate from no series")
	}
	if v, ok := st.Latest("c", nil); !ok || v != 7 {
		t.Fatalf("latest = %v, %v", v, ok)
	}
}
