package tsdb

import (
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pario/internal/telemetry"
	"pario/internal/util"
)

// The alert/SLO rules engine. Rules are declarative one-liners over
// the store's window queries:
//
//	NAME: FUNC(ARGS) [by LABEL] OP THRESHOLD [min M] [window D] [for N]
//
// Functions:
//
//	rate(metric[{sel}])            per-second counter rate, reset-aware
//	delta(metric[{sel}])           last-minus-first over the window
//	increase(metric[{sel}])        reset-aware counter increase
//	avg(metric[{sel}])             mean of gauge samples in the window
//	max(metric[{sel}])             max of gauge samples in the window
//	last(metric[{sel}])            newest gauge value
//	growth(metric[{sel}])          consecutive strictly-rising samples
//	p50/p90/p99(metric[{sel}])     quantile-over-time from _bucket series
//	quantile(q, metric[{sel}])     arbitrary quantile-over-time
//	burn(metric[{sel}], slo)       fraction of windowed observations > slo
//	spread(rate(metric[{sel}]) by L)  max/mean of per-L rates ("min M"
//	                               gates on mean rate, so idle clusters
//	                               never alert on noise)
//	hitratio(a[{sel}], b[{sel}])   rate(a) / (rate(a)+rate(b))
//
// OP is > >= < <=. "for N" requires the condition to hold on N
// consecutive evaluations before the alert fires (default 1).
// "window D" overrides the engine's default query window.
//
// Examples (the blastd defaults live in internal/blastd/monitor.go):
//
//	queue_growing: growth(pario_blastd_queue_depth) >= 4 for 2
//	server_skew: spread(rate(pario_rpc_calls_total{outcome="ok"}) by server) > 1.75 min 5 for 2
//	slo_burn: burn(pario_blastd_request_seconds, 2.0) > 0.1 for 3
//	cache_collapse: hitratio(pario_blastd_cache_hits_total, pario_blastd_cache_misses_total) < 0.1 min 1 for 3
//	degraded_writes: increase(pario_ceft_degraded_writes_total) > 0

// Rule is one parsed alert rule.
type Rule struct {
	Name string
	// Expr evaluates the rule's left-hand side against the store.
	expr ruleExpr
	// Op and Threshold form the comparison.
	Op        string
	Threshold float64
	// For is the number of consecutive true evaluations before firing.
	For int
	// Window overrides the engine default when non-zero.
	Window time.Duration
	// Source is the rule's original text, echoed on /debug/alerts.
	Source string
}

// evalResult is one evaluation of a rule's expression.
type evalResult struct {
	value   float64
	subject string // offending label value for by-label exprs
	ok      bool   // false: not enough data to evaluate
}

type ruleExpr interface {
	eval(st *Store, now time.Time, window time.Duration) evalResult
}

// ParseRules parses a rule set: one rule per line, '#' comments and
// blank lines skipped. Later rules with a duplicate name override
// earlier ones, so callers can layer user rules over defaults.
func ParseRules(text string) ([]Rule, error) {
	var out []Rule
	byName := make(map[string]int)
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := ParseRule(line)
		if err != nil {
			return nil, fmt.Errorf("tsdb: rules line %d: %w", i+1, err)
		}
		if at, dup := byName[r.Name]; dup {
			out[at] = r
			continue
		}
		byName[r.Name] = len(out)
		out = append(out, r)
	}
	return out, nil
}

// ParseRule parses a single rule line.
func ParseRule(line string) (Rule, error) {
	r := Rule{For: 1, Source: strings.TrimSpace(line)}
	colon := strings.IndexByte(line, ':')
	if colon < 0 {
		return Rule{}, fmt.Errorf("missing 'name:' prefix in %q", line)
	}
	r.Name = strings.TrimSpace(line[:colon])
	if r.Name == "" || strings.ContainsAny(r.Name, " \t") {
		return Rule{}, fmt.Errorf("bad rule name %q", r.Name)
	}
	rest := strings.TrimSpace(line[colon+1:])

	expr, rest, err := parseExpr(rest)
	if err != nil {
		return Rule{}, fmt.Errorf("rule %s: %w", r.Name, err)
	}
	r.expr = expr

	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return Rule{}, fmt.Errorf("rule %s: missing comparison in %q", r.Name, rest)
	}
	switch fields[0] {
	case ">", ">=", "<", "<=":
		r.Op = fields[0]
	default:
		return Rule{}, fmt.Errorf("rule %s: bad operator %q", r.Name, fields[0])
	}
	r.Threshold, err = strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return Rule{}, fmt.Errorf("rule %s: bad threshold %q", r.Name, fields[1])
	}
	fields = fields[2:]
	for len(fields) > 0 {
		switch fields[0] {
		case "for":
			if len(fields) < 2 {
				return Rule{}, fmt.Errorf("rule %s: 'for' needs a count", r.Name)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 1 {
				return Rule{}, fmt.Errorf("rule %s: bad 'for' count %q", r.Name, fields[1])
			}
			r.For = n
			fields = fields[2:]
		case "window":
			if len(fields) < 2 {
				return Rule{}, fmt.Errorf("rule %s: 'window' needs a duration", r.Name)
			}
			d, err := time.ParseDuration(fields[1])
			if err != nil || d <= 0 {
				return Rule{}, fmt.Errorf("rule %s: bad window %q", r.Name, fields[1])
			}
			r.Window = d
			fields = fields[2:]
		case "min":
			if len(fields) < 2 {
				return Rule{}, fmt.Errorf("rule %s: 'min' needs a value", r.Name)
			}
			m, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return Rule{}, fmt.Errorf("rule %s: bad 'min' value %q", r.Name, fields[1])
			}
			if g, ok := r.expr.(minGater); ok {
				g.setMin(m)
			} else {
				return Rule{}, fmt.Errorf("rule %s: 'min' does not apply to this function", r.Name)
			}
			fields = fields[2:]
		default:
			return Rule{}, fmt.Errorf("rule %s: unexpected %q", r.Name, fields[0])
		}
	}
	return r, nil
}

// minGater is implemented by expressions that gate on a minimum level
// of activity ("min M" clause).
type minGater interface{ setMin(m float64) }

// parseExpr parses `func(args) [by label]` and returns the rest of
// the line (the comparison onward).
func parseExpr(s string) (ruleExpr, string, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 {
		return nil, "", fmt.Errorf("expected a function call in %q", s)
	}
	fn := strings.TrimSpace(s[:open])
	args, rest, err := splitCall(s[open:])
	if err != nil {
		return nil, "", err
	}

	// Optional "by LABEL" suffix.
	byLabel := ""
	trimmed := strings.TrimSpace(rest)
	if strings.HasPrefix(trimmed, "by ") {
		f := strings.Fields(trimmed)
		byLabel = f[1]
		trimmed = strings.Join(f[2:], " ")
	}
	rest = trimmed

	switch fn {
	case "rate", "delta", "increase", "avg", "max", "last", "growth":
		if len(args) != 1 {
			return nil, "", fmt.Errorf("%s() takes one metric", fn)
		}
		name, sel, err := parseSelector(args[0])
		if err != nil {
			return nil, "", err
		}
		if byLabel != "" {
			return nil, "", fmt.Errorf("%s() does not support 'by' (only spread does)", fn)
		}
		return &simpleExpr{fn: fn, metric: name, sel: sel}, rest, nil
	case "p50", "p90", "p99", "quantile":
		q := map[string]float64{"p50": 0.50, "p90": 0.90, "p99": 0.99}[fn]
		arg := args[0]
		if fn == "quantile" {
			if len(args) != 2 {
				return nil, "", fmt.Errorf("quantile() takes (q, metric)")
			}
			var err error
			q, err = strconv.ParseFloat(strings.TrimSpace(args[0]), 64)
			if err != nil || q < 0 || q > 1 {
				return nil, "", fmt.Errorf("bad quantile %q", args[0])
			}
			arg = args[1]
		} else if len(args) != 1 {
			return nil, "", fmt.Errorf("%s() takes one metric", fn)
		}
		name, sel, err := parseSelector(arg)
		if err != nil {
			return nil, "", err
		}
		return &quantileExpr{metric: name, sel: sel, q: q}, rest, nil
	case "burn":
		if len(args) != 2 {
			return nil, "", fmt.Errorf("burn() takes (metric, slo_seconds)")
		}
		name, sel, err := parseSelector(args[0])
		if err != nil {
			return nil, "", err
		}
		slo, err := strconv.ParseFloat(strings.TrimSpace(args[1]), 64)
		if err != nil || slo <= 0 {
			return nil, "", fmt.Errorf("bad SLO threshold %q", args[1])
		}
		return &burnExpr{metric: name, sel: sel, slo: slo}, rest, nil
	case "spread":
		// spread(rate(metric) by label): the inner call carries the
		// by-clause, or it trails the outer call.
		inner := strings.TrimSpace(strings.Join(args, ","))
		lbl := byLabel
		if i := strings.LastIndex(inner, " by "); i >= 0 {
			lbl = strings.TrimSpace(inner[i+4:])
			inner = strings.TrimSpace(inner[:i])
		}
		if lbl == "" {
			return nil, "", fmt.Errorf("spread() needs a 'by LABEL' clause")
		}
		if !strings.HasPrefix(inner, "rate(") || !strings.HasSuffix(inner, ")") {
			return nil, "", fmt.Errorf("spread() takes rate(metric) by label, got %q", inner)
		}
		name, sel, err := parseSelector(inner[len("rate(") : len(inner)-1])
		if err != nil {
			return nil, "", err
		}
		return &spreadExpr{metric: name, sel: sel, label: lbl}, rest, nil
	case "hitratio":
		if len(args) != 2 {
			return nil, "", fmt.Errorf("hitratio() takes (hits_metric, misses_metric)")
		}
		hits, hsel, err := parseSelector(args[0])
		if err != nil {
			return nil, "", err
		}
		misses, msel, err := parseSelector(args[1])
		if err != nil {
			return nil, "", err
		}
		return &hitratioExpr{hits: hits, hsel: hsel, misses: misses, msel: msel}, rest, nil
	default:
		return nil, "", fmt.Errorf("unknown function %q", fn)
	}
}

// splitCall consumes a parenthesized argument list (s starts at '('),
// splitting on top-level commas with brace/paren/quote awareness, and
// returns the args plus the unconsumed tail.
func splitCall(s string) (args []string, rest string, err error) {
	depth := 0
	inQuote := false
	start := 1
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inQuote {
			if c == '\\' {
				i++
			} else if c == '"' {
				inQuote = false
			}
			continue
		}
		switch c {
		case '"':
			inQuote = true
		case '(', '{':
			depth++
		case '}', ')':
			depth--
			if depth == 0 {
				args = append(args, strings.TrimSpace(s[start:i]))
				return args, s[i+1:], nil
			}
		case ',':
			if depth == 1 {
				args = append(args, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	return nil, "", fmt.Errorf("unbalanced parentheses in %q", s)
}

// parseSelector parses `metric{k="v",...}` into a name and match map.
func parseSelector(s string) (string, map[string]string, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '{')
	if open < 0 {
		if s == "" {
			return "", nil, fmt.Errorf("empty metric name")
		}
		return s, nil, nil
	}
	name := strings.TrimSpace(s[:open])
	if name == "" {
		return "", nil, fmt.Errorf("empty metric name in %q", s)
	}
	if !strings.HasSuffix(s, "}") {
		return "", nil, fmt.Errorf("unterminated selector in %q", s)
	}
	body := s[open+1 : len(s)-1]
	sel := make(map[string]string)
	for _, part := range strings.Split(body, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return "", nil, fmt.Errorf("bad selector term %q", part)
		}
		k := strings.TrimSpace(part[:eq])
		v := strings.TrimSpace(part[eq+1:])
		v = strings.TrimPrefix(v, `"`)
		v = strings.TrimSuffix(v, `"`)
		sel[k] = v
	}
	return name, sel, nil
}

// --- expression implementations -----------------------------------

type simpleExpr struct {
	fn     string
	metric string
	sel    map[string]string
}

func (e *simpleExpr) eval(st *Store, now time.Time, window time.Duration) evalResult {
	var v float64
	var ok bool
	switch e.fn {
	case "rate":
		v, ok = st.Rate(e.metric, e.sel, now, window)
	case "delta":
		v, ok = st.Delta(e.metric, e.sel, now, window)
	case "increase":
		v, ok = st.Increase(e.metric, e.sel, now, window)
	case "avg":
		var sum float64
		var n int
		for _, s := range st.Select(e.metric, e.sel) {
			if a, okA := s.AvgOverTime(now, window); okA {
				sum += a
				n++
			}
		}
		if n > 0 {
			v, ok = sum/float64(n), true
		}
	case "max":
		v = math.Inf(-1)
		for _, s := range st.Select(e.metric, e.sel) {
			if m, okM := s.MaxOverTime(now, window); okM && m > v {
				v, ok = m, true
			}
		}
		if !ok {
			v = 0
		}
	case "last":
		v, ok = st.Latest(e.metric, e.sel)
	case "growth":
		// Growth of the maximum-growth matching series: any one
		// steadily-climbing gauge is a trend worth alerting on.
		for _, s := range st.Select(e.metric, e.sel) {
			if g := float64(s.Growth()); !ok || g > v {
				v, ok = g, true
			}
		}
	}
	return evalResult{value: v, ok: ok}
}

type quantileExpr struct {
	metric string
	sel    map[string]string
	q      float64
}

func (e *quantileExpr) eval(st *Store, now time.Time, window time.Duration) evalResult {
	v, ok := st.QuantileOverTime(e.metric, e.sel, e.q, now, window)
	return evalResult{value: v, ok: ok}
}

type burnExpr struct {
	metric string
	sel    map[string]string
	slo    float64
}

func (e *burnExpr) eval(st *Store, now time.Time, window time.Duration) evalResult {
	v, ok := st.BurnOverTime(e.metric, e.sel, e.slo, now, window)
	return evalResult{value: v, ok: ok}
}

type spreadExpr struct {
	metric string
	sel    map[string]string
	label  string
	min    float64 // minimum mean per-label rate for the rule to apply
}

func (e *spreadExpr) setMin(m float64) { e.min = m }

func (e *spreadExpr) eval(st *Store, now time.Time, window time.Duration) evalResult {
	rates := st.RateBy(e.metric, e.label, e.sel, now, window)
	if len(rates) < 2 {
		return evalResult{}
	}
	max, subject, mean := util.Spread(rates)
	if mean <= 0 || mean < e.min {
		return evalResult{}
	}
	return evalResult{value: max / mean, subject: subject, ok: true}
}

type hitratioExpr struct {
	hits, misses string
	hsel, msel   map[string]string
	min          float64 // minimum combined rate for the ratio to mean anything
}

func (e *hitratioExpr) setMin(m float64) { e.min = m }

func (e *hitratioExpr) eval(st *Store, now time.Time, window time.Duration) evalResult {
	h, okH := st.Rate(e.hits, e.hsel, now, window)
	m, okM := st.Rate(e.misses, e.msel, now, window)
	if !okH && !okM {
		return evalResult{}
	}
	total := h + m
	if total <= 0 || total < e.min {
		return evalResult{}
	}
	return evalResult{value: h / total, ok: true}
}

// --- alert state machine ------------------------------------------

// AlertState is an alert's lifecycle position.
type AlertState string

const (
	// StatePending: the condition held, but for fewer consecutive
	// evaluations than the rule's "for" count.
	StatePending AlertState = "pending"
	// StateFiring: the condition has held long enough.
	StateFiring AlertState = "firing"
	// StateResolved: a previously firing alert whose condition
	// cleared. Kept visible until it fires again or ages out.
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
	// Subject names the offending entity for by-label rules — the
	// hottest server of a spread alert, for example.
	Subject string `json:"subject,omitempty"`
	// Since is when the alert entered its current state.
	Since time.Time `json:"since"`
	// FiredAt / ResolvedAt bracket the most recent firing episode.
	FiredAt    time.Time `json:"fired_at,omitempty"`
	ResolvedAt time.Time `json:"resolved_at,omitempty"`
	// ID correlates this firing episode's log lines (trace-style hex).
	ID string `json:"id,omitempty"`
	// Source is the rule text that produced this alert.
	Source string `json:"source"`
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
	window time.Duration
	logger *slog.Logger

	mu     sync.Mutex
	rules  []Rule
	status map[string]*alertStatus
}

// DefaultRuleWindow is the query window rules use unless they carry
// their own "window" clause and the engine is built without one.
const DefaultRuleWindow = 30 * time.Second

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithWindow sets the default query window for rules without one.
func WithWindow(d time.Duration) EngineOption {
	return func(e *Engine) {
		if d > 0 {
			e.window = d
		}
	}
}

// WithLogger routes alert transition lines to logger (default:
// slog.Default at transition time).
func WithLogger(l *slog.Logger) EngineOption {
	return func(e *Engine) { e.logger = l }
}

// NewEngine builds an engine evaluating rules against store.
func NewEngine(store *Store, rules []Rule, opts ...EngineOption) *Engine {
	e := &Engine{
		store:  store,
		window: DefaultRuleWindow,
		status: make(map[string]*alertStatus),
		rules:  append([]Rule(nil), rules...),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Eval runs one evaluation pass at time now, applying state
// transitions and logging them.
func (e *Engine) Eval(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range e.rules {
		window := r.Window
		if window == 0 {
			window = e.window
		}
		res := r.expr.eval(e.store, now, window)
		cond := res.ok && compare(res.value, r.Op, r.Threshold)
		st := e.status[r.Name]

		switch {
		case cond && st == nil:
			// inactive -> pending (or straight to firing for for=1).
			st = &alertStatus{alert: Alert{
				Rule: r.Name, Op: r.Op, Threshold: r.Threshold,
				State: StatePending, Since: now, Source: r.Source,
			}}
			e.status[r.Name] = st
			st.trueStreak = 1
			st.alert.Value, st.alert.Subject = res.value, res.subject
			if st.trueStreak >= r.For {
				e.fire(st, now)
			}
		case cond:
			st.trueStreak++
			st.alert.Value, st.alert.Subject = res.value, res.subject
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
				st.alert.Value = res.value
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
