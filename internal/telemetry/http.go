package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// DebugServer is the opt-in observability endpoint every daemon and the
// mpiblast client can expose (-debug-addr): Prometheus text /metrics,
// recent spans at /debug/traces, and the standard net/http/pprof
// profiling handlers.
type DebugServer struct {
	ln     net.Listener
	srv    *http.Server
	served chan struct{} // closed when the serve goroutine exits
}

// StartDebug serves the debug endpoints on addr (host:port; port 0
// picks a free one). reg and tr may each be nil, disabling the
// corresponding endpoint's content.
func StartDebug(addr string, reg *Registry, tr *Tracer) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: debug listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", MetricsHandler(reg))
	mux.HandleFunc("/debug/traces", TracesHandler(tr))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	d := &DebugServer{ln: ln, srv: &http.Server{Handler: mux}, served: make(chan struct{})}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln)
	}()
	return d, nil
}

// Addr returns the bound listen address.
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the server immediately, dropping in-flight requests, and
// waits for the serve goroutine to exit.
func (d *DebugServer) Close() error {
	err := d.srv.Close()
	<-d.served
	return err
}

// Shutdown stops accepting new connections and waits for in-flight
// requests (bounded by ctx), then waits for the serve goroutine to
// exit — so a daemon's drain path leaves no goroutine behind.
func (d *DebugServer) Shutdown(ctx context.Context) error {
	err := d.srv.Shutdown(ctx)
	<-d.served
	return err
}

// MetricsHandler serves a registry as Prometheus text (an empty page
// for a nil registry). Shared by StartDebug and blastd's own mux; it is
// the one place a registry is rendered to text, because an HTTP
// response is the one place its samples leave the process.
func MetricsHandler(reg *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg != nil {
			reg.WritePrometheus(w)
		}
	}
}

// TracesHandler serves a tracer's spans as JSON: the whole ring by
// default, one trace's retained spans (pinned set included) with
// ?trace=<16-hex id>, and only the most recent N spans with ?limit=N.
// Shared by StartDebug and blastd's own mux so every process answers
// the same /debug/traces dialect.
func TracesHandler(tr *Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var spans []Span
		if tq := r.URL.Query().Get("trace"); tq != "" {
			id, err := strconv.ParseUint(tq, 16, 64)
			if err != nil || id == 0 {
				http.Error(w, "bad trace id (want 16 hex digits)", http.StatusBadRequest)
				return
			}
			spans = tr.TraceSpans(id)
		} else {
			spans = tr.Recent()
		}
		if lq := r.URL.Query().Get("limit"); lq != "" {
			n, err := strconv.Atoi(lq)
			if err != nil || n < 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			if n < len(spans) {
				spans = spans[len(spans)-n:]
			}
		}
		doc := tracesDoc{Spans: make([]spanJSON, len(spans))}
		for i, s := range spans {
			doc.Spans[i] = toSpanJSON(s)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(doc)
	}
}

// tracesDoc is the /debug/traces response body.
type tracesDoc struct {
	Spans []spanJSON `json:"spans"`
}

// spanJSON is the wire shape of one span on /debug/traces, for the
// handler that writes it and the client (FetchSpans) that reads it
// back. IDs are rendered as fixed-width hex so they grep and join
// cleanly.
type spanJSON struct {
	TraceID    string            `json:"trace_id"`
	SpanID     string            `json:"span_id"`
	Parent     string            `json:"parent_id,omitempty"`
	Name       string            `json:"name"`
	Server     string            `json:"server,omitempty"`
	Start      time.Time         `json:"start"`
	DurationUS int64             `json:"duration_us"`
	Bytes      int64             `json:"bytes,omitempty"`
	Err        string            `json:"err,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

func toSpanJSON(s Span) spanJSON {
	j := spanJSON{
		TraceID:    fmt.Sprintf("%016x", s.TraceID),
		SpanID:     fmt.Sprintf("%016x", s.SpanID),
		Name:       s.Name,
		Server:     s.Server,
		Start:      s.Start,
		DurationUS: s.Duration.Microseconds(),
		Bytes:      s.Bytes,
		Err:        s.Err,
		Attrs:      s.Attrs,
	}
	if s.Parent != 0 {
		j.Parent = fmt.Sprintf("%016x", s.Parent)
	}
	return j
}

// span decodes the wire shape back into a Span.
func (j spanJSON) span() (Span, error) {
	s := Span{
		Name:     j.Name,
		Server:   j.Server,
		Start:    j.Start,
		Duration: time.Duration(j.DurationUS) * time.Microsecond,
		Bytes:    j.Bytes,
		Err:      j.Err,
		Attrs:    j.Attrs,
	}
	var err error
	if s.TraceID, err = parseHexID("trace_id", j.TraceID); err != nil {
		return Span{}, err
	}
	if s.SpanID, err = parseHexID("span_id", j.SpanID); err != nil {
		return Span{}, err
	}
	if j.Parent != "" {
		if s.Parent, err = parseHexID("parent_id", j.Parent); err != nil {
			return Span{}, err
		}
	}
	return s, nil
}

func parseHexID(field, hex string) (uint64, error) {
	id, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: bad span ID %q: %w", field, hex, err)
	}
	return id, nil
}

// Target is one process's debug endpoint as a client addresses it: a
// display name (the tsdb instance label, the report's process name)
// and the host:port or full http:// base URL DebugServer listens on.
type Target struct {
	Name string
	Addr string
}

// ParseTargets parses the flag form "name=host:port,name=host:port"
// shared by mpiblast -collect and the -targets of pariostat and
// pariotop. A bare "host:port" entry is named by its address; an empty
// spec is an empty list.
func ParseTargets(spec string) ([]Target, error) {
	var out []Target
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		if !ok {
			name, addr = part, part
		}
		if name == "" || addr == "" {
			return nil, fmt.Errorf("telemetry: bad target %q (want name=host:port)", part)
		}
		out = append(out, Target{Name: name, Addr: addr})
	}
	return out, nil
}

// URL returns the target's endpoint for path ("/metrics", ...).
func (t Target) URL(path string) string {
	base := t.Addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return strings.TrimRight(base, "/") + path
}

// maxDebugBody caps how much of a debug-endpoint response a client
// reads: a damaged or hostile endpoint must not exhaust the caller.
const maxDebugBody = 32 << 20

// get issues one GET against a target's debug endpoint. The caller
// bounds it through ctx.
func get(ctx context.Context, t Target, path string) ([]byte, error) {
	url := t.URL(path)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxDebugBody))
}

// FetchMetrics scrapes a target's /metrics page into samples — the
// remote counterpart of Registry.Snapshot.
func FetchMetrics(ctx context.Context, t Target) ([]Sample, error) {
	body, err := get(ctx, t, "/metrics")
	if err != nil {
		return nil, err
	}
	return ParseText(bytes.NewReader(body))
}

// FetchJSON decodes the JSON document a target serves at path
// (/debug/alerts, /debug/queries) into v.
func FetchJSON(ctx context.Context, t Target, path string, v any) error {
	body, err := get(ctx, t, path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("decoding %s: %w", t.URL(path), err)
	}
	return nil
}

// FetchSpans reads a target's /debug/traces: the retained spans of one
// trace, or with traceID 0 the whole ring — the remote counterpart of
// Tracer.TraceSpans and Tracer.Recent.
func FetchSpans(ctx context.Context, t Target, traceID uint64) ([]Span, error) {
	path := "/debug/traces"
	if traceID != 0 {
		path += "?trace=" + IDString(traceID)
	}
	var doc tracesDoc
	if err := FetchJSON(ctx, t, path, &doc); err != nil {
		return nil, err
	}
	out := make([]Span, len(doc.Spans))
	for i, j := range doc.Spans {
		s, err := j.span()
		if err != nil {
			return nil, fmt.Errorf("span %d %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}
