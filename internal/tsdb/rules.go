package tsdb

import (
	"log/slog"
	"sort"
	"sync"
	"time"

	"pario/internal/telemetry"
)

// The alert engine. A rule is a Go value: a function reading the
// store's window queries, compared against a threshold. blastd's
// defaults (internal/blastd/monitor.go) show the forms in use: the
// growth of a gauge, the burn of a latency histogram, the spread of
// per-server rates, a hit ratio and a counter increase.

// Rule is one alert rule.
type Rule struct {
	Name string
	// Eval reads the rule's value from the store over the window
	// ending at now. subject names the offending entity, if any (the
	// hottest server of a spread, for example). ok false means the
	// store cannot answer: too few points, or activity below the
	// rule's own gate. A non-evaluable rule does not breach, so a
	// firing alert resolves on it.
	Eval func(st *Store, now time.Time, window time.Duration) (value float64, subject string, ok bool)
	// Op (> >= < <=) and Threshold form the comparison.
	Op        string
	Threshold float64
	// For is the number of consecutive breaching evaluations before
	// the alert fires; zero counts as one.
	For int
	// Window is the query window handed to Eval (DefaultRuleWindow
	// when zero).
	Window time.Duration
}

// AlertState is an alert's lifecycle position.
type AlertState string

const (
	// StatePending: the condition held, but for fewer consecutive
	// evaluations than the rule's For count.
	StatePending AlertState = "pending"
	// StateFiring: the condition has held long enough.
	StateFiring AlertState = "firing"
	// StateResolved: a previously firing alert whose condition
	// cleared, or whose rule could not be evaluated. It stays
	// visible until the rule breaches again, which starts a new
	// pending streak.
	StateResolved AlertState = "resolved"
)

// Alert is the externally visible state of one rule, as served on
// /debug/alerts and rendered by pariotop.
type Alert struct {
	Rule      string     `json:"rule"`
	State     AlertState `json:"state"`
	Value     float64    `json:"value"`
	Threshold float64    `json:"threshold"`
	Op        string     `json:"op"`
	// Subject names the offending entity, when the rule's Eval names
	// one — the hottest server of a spread alert, for example.
	Subject string `json:"subject,omitempty"`
	// Since is when the alert entered its current state.
	Since time.Time `json:"since"`
	// FiredAt / ResolvedAt bracket the most recent firing episode.
	FiredAt    time.Time `json:"fired_at,omitempty"`
	ResolvedAt time.Time `json:"resolved_at,omitempty"`
	// ID correlates this firing episode's log lines (trace-style hex).
	ID string `json:"id,omitempty"`
}

// alertStatus is the engine's internal per-rule state.
type alertStatus struct {
	alert      Alert
	trueStreak int
}

// Engine evaluates a rule set against a store, tracks per-rule alert
// state, and logs firing/resolved transitions through slog with a
// stable episode ID, so alert lines grep-join across a run the way
// trace IDs do.
type Engine struct {
	store  *Store
	logger *slog.Logger

	mu     sync.Mutex
	rules  []Rule
	status map[string]*alertStatus
}

// DefaultRuleWindow is the query window of a rule without its own.
const DefaultRuleWindow = 30 * time.Second

// NewEngine builds an engine evaluating rules against store. logger
// receives the alert transition lines (nil: slog.Default at
// transition time).
func NewEngine(store *Store, rules []Rule, logger *slog.Logger) *Engine {
	return &Engine{
		store:  store,
		logger: logger,
		status: make(map[string]*alertStatus),
		rules:  append([]Rule(nil), rules...),
	}
}

// Eval runs one evaluation pass at time now, applying state
// transitions and logging them.
func (e *Engine) Eval(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range e.rules {
		window := r.Window
		if window == 0 {
			window = DefaultRuleWindow
		}
		value, subject, ok := r.Eval(e.store, now, window)
		cond := ok && compare(value, r.Op, r.Threshold)
		st := e.status[r.Name]

		switch {
		case cond && st == nil:
			// inactive -> pending (or straight to firing for for=1).
			st = &alertStatus{alert: Alert{
				Rule: r.Name, Op: r.Op, Threshold: r.Threshold,
				State: StatePending, Since: now,
			}}
			e.status[r.Name] = st
			st.trueStreak = 1
			st.alert.Value, st.alert.Subject = value, subject
			if st.trueStreak >= r.For {
				e.fire(st, now)
			}
		case cond:
			st.trueStreak++
			st.alert.Value, st.alert.Subject = value, subject
			if st.alert.State != StateFiring && st.trueStreak >= r.For {
				e.fire(st, now)
			} else if st.alert.State == StateResolved {
				// Re-entering from resolved display state: back to
				// pending until the streak is long enough again.
				st.alert.State = StatePending
				st.alert.Since = now
				st.trueStreak = 1
				if st.trueStreak >= r.For {
					e.fire(st, now)
				}
			}
		case !cond && st != nil:
			st.trueStreak = 0
			switch st.alert.State {
			case StateFiring:
				st.alert.State = StateResolved
				st.alert.Since = now
				st.alert.ResolvedAt = now
				st.alert.Value = value
				e.log(st.alert, "alert resolved")
			case StatePending:
				delete(e.status, r.Name)
			}
		}
	}
}

func (e *Engine) fire(st *alertStatus, now time.Time) {
	st.alert.State = StateFiring
	st.alert.Since = now
	st.alert.FiredAt = now
	st.alert.ResolvedAt = time.Time{}
	st.alert.ID = telemetry.IDString(telemetry.NewID())
	e.log(st.alert, "alert firing")
}

func (e *Engine) log(a Alert, msg string) {
	logger := e.logger
	if logger == nil {
		logger = slog.Default()
	}
	attrs := []any{
		"alert", a.Rule, "id", a.ID, "state", string(a.State),
		"value", a.Value, "op", a.Op, "threshold", a.Threshold,
	}
	if a.Subject != "" {
		attrs = append(attrs, "subject", a.Subject)
	}
	if a.State == StateFiring {
		logger.Warn(msg, attrs...)
	} else {
		logger.Info(msg, attrs...)
	}
}

func compare(v float64, op string, threshold float64) bool {
	switch op {
	case ">":
		return v > threshold
	case ">=":
		return v >= threshold
	case "<":
		return v < threshold
	case "<=":
		return v <= threshold
	}
	return false
}

// Alerts returns every rule's current alert state (pending, firing
// and resolved; rules that never triggered are absent), sorted firing
// first, then pending, then resolved, alphabetical within a state.
func (e *Engine) Alerts() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, 0, len(e.status))
	for _, st := range e.status {
		out = append(out, st.alert)
	}
	order := map[AlertState]int{StateFiring: 0, StatePending: 1, StateResolved: 2}
	sort.Slice(out, func(i, j int) bool {
		if order[out[i].State] != order[out[j].State] {
			return order[out[i].State] < order[out[j].State]
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// Firing returns only the currently firing alerts.
func (e *Engine) Firing() []Alert {
	var out []Alert
	for _, a := range e.Alerts() {
		if a.State == StateFiring {
			out = append(out, a)
		}
	}
	return out
}
