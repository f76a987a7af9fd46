package tsdb

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
	"time"

	"pario/internal/telemetry"
)

func TestParseRuleForms(t *testing.T) {
	for _, line := range []string{
		`q: growth(pario_blastd_queue_depth) >= 4 for 2`,
		`burn: burn(pario_blastd_request_seconds, 2.0) > 0.10 window 30s for 2`,
		`skew: spread(rate(pario_rpc_calls_total) by server) > 1.75 min 5 window 10s for 2`,
		`skew2: spread(rate(pario_rpc_calls_total{outcome="ok"}) by server) > 1.5`,
		`cache: hitratio(pario_a_total, pario_b_total) < 0.1 min 1 for 3`,
		`p: p99(pario_req_seconds{instance="blastd"}) > 0.5`,
		`quant: quantile(0.75, pario_req_seconds) <= 1`,
		`lastv: last(pario_gauge) < 3`,
		`inc: increase(pario_ceft_degraded_writes_total) > 0`,
	} {
		if _, err := ParseRule(line); err != nil {
			t.Errorf("ParseRule(%q): %v", line, err)
		}
	}
}

func TestParseRuleErrors(t *testing.T) {
	for _, line := range []string{
		`no colon here > 1`,
		`r: unknownfunc(m) > 1`,
		`r: rate(m) >> 1`,
		`r: rate(m) > notanumber`,
		`r: rate(m) > 1 for zero`,
		`r: spread(rate(m)) > 1`,          // missing by clause
		`r: rate(m) > 1 min 5`,            // min without a gated func
		`r: burn(m) > 0.1`,                // burn needs the slo arg
		`r: rate(m > 1`,                   // unbalanced parens
		`r: rate(m) > 1 window notadur`,   // bad window
		`r: rate(m) by server > 1`,        // by on a non-spread func
		`r: quantile(1.5, m) > 1`,         // q out of range
		`r: rate(m) > 1 unexpected_token`, // trailing junk
	} {
		if _, err := ParseRule(line); err == nil {
			t.Errorf("ParseRule(%q): expected error", line)
		}
	}
}

func TestParseRulesLayering(t *testing.T) {
	rules, err := ParseRules(`
# defaults
a: rate(m) > 1
b: rate(m) > 2

a: rate(m) > 99 for 3
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("rules = %d; want 2 (override, not append)", len(rules))
	}
	if rules[0].Name != "a" || rules[0].Threshold != 99 || rules[0].For != 3 {
		t.Fatalf("override lost: %+v", rules[0])
	}
}

// gaugeAt appends one gauge sample at t0+offset seconds.
func gaugeAt(st *Store, name string, off int, v float64) {
	st.Append(t0.Add(time.Duration(off)*time.Second),
		[]telemetry.Sample{{Name: name, Value: v}}, nil)
}

func TestEngineStateMachine(t *testing.T) {
	st := NewStore(0)
	rules, err := ParseRules(`hot: last(pario_g) > 5 for 2`)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	e := NewEngine(st, rules, WithLogger(logger), WithWindow(time.Minute))

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
	rules, _ := ParseRules(`hot: last(pario_g) > 5 for 3`)
	e := NewEngine(st, rules, WithWindow(time.Minute))
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

func TestSpreadRule(t *testing.T) {
	st := NewStore(0)
	// iod0 runs 3x hotter than iod1: spread = 30/20 = 1.5 over mean 20.
	for i := 0; i <= 10; i++ {
		ts := t0.Add(time.Duration(i) * time.Second)
		st.Append(ts, []telemetry.Sample{
			{Name: "pario_rpc_calls_total", Labels: map[string]string{"server": "iod0", "op": "read"}, Value: float64(30 * i)},
			{Name: "pario_rpc_calls_total", Labels: map[string]string{"server": "iod1", "op": "read"}, Value: float64(10 * i)},
		}, nil)
	}
	now := t0.Add(10 * time.Second)

	rules, err := ParseRules(`skew: spread(rate(pario_rpc_calls_total) by server) > 1.4 min 5`)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st, rules, WithWindow(time.Minute))
	e.Eval(now)
	firing := e.Firing()
	if len(firing) != 1 {
		t.Fatalf("firing = %+v", e.Alerts())
	}
	if firing[0].Subject != "iod0" {
		t.Fatalf("subject = %q; want iod0 (the hot server)", firing[0].Subject)
	}
	if firing[0].Value != 1.5 {
		t.Fatalf("spread = %v; want 1.5", firing[0].Value)
	}

	// The min clause gates the same data out when mean rate < 100.
	gated, _ := ParseRules(`skew: spread(rate(pario_rpc_calls_total) by server) > 1.4 min 100`)
	e2 := NewEngine(st, gated, WithWindow(time.Minute))
	e2.Eval(now)
	if len(e2.Alerts()) != 0 {
		t.Fatalf("min gate ignored: %+v", e2.Alerts())
	}
}

func TestHitratioRule(t *testing.T) {
	st := NewStore(0)
	// 1 hit to 9 misses per second: ratio 0.1.
	for i := 0; i <= 10; i++ {
		ts := t0.Add(time.Duration(i) * time.Second)
		st.Append(ts, []telemetry.Sample{
			{Name: "pario_hits_total", Value: float64(i)},
			{Name: "pario_misses_total", Value: float64(9 * i)},
		}, nil)
	}
	now := t0.Add(10 * time.Second)
	rules, err := ParseRules(`cold: hitratio(pario_hits_total, pario_misses_total) < 0.2 min 1`)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st, rules, WithWindow(time.Minute))
	e.Eval(now)
	if f := e.Firing(); len(f) != 1 || f[0].Value != 0.1 {
		t.Fatalf("hitratio alerts = %+v", e.Alerts())
	}
	// No traffic at all: the rule must not evaluate (a cold idle cache
	// is not a collapsed cache).
	idle := NewStore(0)
	e2 := NewEngine(idle, rules, WithWindow(time.Minute))
	e2.Eval(now)
	if len(e2.Alerts()) != 0 {
		t.Fatalf("idle hitratio alerted: %+v", e2.Alerts())
	}
}

func TestDefaultStyleGrowthRule(t *testing.T) {
	st := NewStore(0)
	rules, err := ParseRules(`queue_growing: growth(pario_blastd_queue_depth) >= 4 for 2`)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st, rules, WithWindow(time.Minute))
	for i := 0; i <= 6; i++ {
		gaugeAt(st, "pario_blastd_queue_depth", i, float64(i))
		e.Eval(t0.Add(time.Duration(i) * time.Second))
	}
	if f := e.Firing(); len(f) != 1 {
		t.Fatalf("growth alerts = %+v", e.Alerts())
	}
	// Queue drains: growth run breaks, alert resolves.
	gaugeAt(st, "pario_blastd_queue_depth", 7, 0)
	e.Eval(t0.Add(7 * time.Second))
	if a := e.Alerts(); len(a) != 1 || a[0].State != StateResolved {
		t.Fatalf("after drain: %+v", a)
	}
}
