package tsdb

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
	"time"

	"pario/internal/telemetry"
)

// latest is a rule Eval reading the newest value of gauge name.
func latest(name string) func(*Store, time.Time, time.Duration) (float64, string, bool) {
	return func(st *Store, _ time.Time, _ time.Duration) (float64, string, bool) {
		v, ok := st.Latest(name, nil)
		return v, "", ok
	}
}

// gaugeAt appends one gauge sample at t0+offset seconds.
func gaugeAt(st *Store, name string, off int, v float64) {
	st.Append(t0.Add(time.Duration(off)*time.Second),
		[]telemetry.Sample{{Name: name, Value: v}}, nil)
}

func TestEngineStateMachine(t *testing.T) {
	st := NewStore(0)
	rules := []Rule{{Name: "hot", Eval: latest("pario_g"), Op: ">", Threshold: 5, For: 2}}
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	e := NewEngine(st, rules, logger)

	step := func(off int, v float64) []Alert {
		gaugeAt(st, "pario_g", off, v)
		e.Eval(t0.Add(time.Duration(off) * time.Second))
		return e.Alerts()
	}

	// Below threshold: no alert state at all.
	if alerts := step(0, 1); len(alerts) != 0 {
		t.Fatalf("idle alerts = %+v", alerts)
	}
	// One hot sample: pending (for 2 needs two consecutive trues).
	if alerts := step(1, 10); len(alerts) != 1 || alerts[0].State != StatePending {
		t.Fatalf("after 1 true: %+v", alerts)
	}
	// Second consecutive: firing, with an episode ID and a log line.
	alerts := step(2, 11)
	if len(alerts) != 1 || alerts[0].State != StateFiring {
		t.Fatalf("after 2 true: %+v", alerts)
	}
	if alerts[0].ID == "" || alerts[0].FiredAt.IsZero() {
		t.Fatalf("firing alert missing episode identity: %+v", alerts[0])
	}
	if !strings.Contains(logBuf.String(), "alert firing") {
		t.Fatalf("no firing log line: %q", logBuf.String())
	}
	// Condition clears: resolved, still visible, resolution logged.
	alerts = step(3, 1)
	if len(alerts) != 1 || alerts[0].State != StateResolved || alerts[0].ResolvedAt.IsZero() {
		t.Fatalf("after clear: %+v", alerts)
	}
	if !strings.Contains(logBuf.String(), "alert resolved") {
		t.Fatalf("no resolved log line: %q", logBuf.String())
	}
	if len(e.Firing()) != 0 {
		t.Fatalf("firing list not empty after resolve")
	}
	// Re-fire: needs the full streak again.
	if alerts := step(4, 10); alerts[0].State != StatePending {
		t.Fatalf("re-entry state: %+v", alerts)
	}
	if alerts := step(5, 10); alerts[0].State != StateFiring {
		t.Fatalf("re-fire state: %+v", alerts)
	}
}

func TestEnginePendingCancels(t *testing.T) {
	st := NewStore(0)
	rules := []Rule{{Name: "hot", Eval: latest("pario_g"), Op: ">", Threshold: 5, For: 3}}
	e := NewEngine(st, rules, nil)
	gaugeAt(st, "pario_g", 0, 10)
	e.Eval(t0)
	if a := e.Alerts(); len(a) != 1 || a[0].State != StatePending {
		t.Fatalf("pending: %+v", a)
	}
	// A false evaluation wipes a pending alert without a resolved
	// tombstone — it never fired.
	gaugeAt(st, "pario_g", 1, 1)
	e.Eval(t0.Add(time.Second))
	if a := e.Alerts(); len(a) != 0 {
		t.Fatalf("pending not cancelled: %+v", a)
	}
}
