package pvfs

import (
	"context"
	"strings"
	"testing"
	"time"

	"pario/internal/chio"
	"pario/internal/rpcpool"
	"pario/internal/telemetry"
)

// startTracedCluster is startCluster with one registry and tracer
// shared by the client transports and every daemon, the way a
// single-process demo run wires them.
func startTracedCluster(t *testing.T, nServers int, stripe int64) (*testCluster, *telemetry.Registry, *telemetry.Tracer) {
	t.Helper()
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)
	mgr, err := StartMetaServer(MetaConfig{
		Addr: "127.0.0.1:0", NumServers: nServers, StripeSize: stripe,
		Telemetry: reg, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{mgr: mgr}
	var addrs []string
	for i := 0; i < nServers; i++ {
		store := chio.NewMemFS()
		ds, err := StartDataServer(DataServerConfig{
			ID: i, Addr: "127.0.0.1:0", Store: store,
			Telemetry: reg, Tracer: tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.iods = append(tc.iods, ds)
		tc.stores = append(tc.stores, store)
		addrs = append(addrs, ds.Addr())
	}
	cl, err := Dial(mgr.Addr(), addrs,
		rpcpool.WithTracer(tracer),
		rpcpool.WithMetrics(rpcpool.NewMetrics(reg)))
	if err != nil {
		t.Fatal(err)
	}
	tc.client = cl
	t.Cleanup(func() {
		cl.Close()
		for _, ds := range tc.iods {
			ds.Close()
		}
		mgr.Close()
	})
	return tc, reg, tracer
}

// TestReadSpansDecomposePerServer is the tracing acceptance check: one
// application-level striped read must produce a root span plus child
// RPC spans and server-side spans sharing its trace ID, with the
// children's byte counts summing to the request size.
func TestReadSpansDecomposePerServer(t *testing.T) {
	const (
		nServers = 4
		stripe   = 1024
		size     = 8192 // 2 stripes per server
	)
	tc, _, tracer := startTracedCluster(t, nServers, stripe)
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := chio.WriteFull(tc.client, "db/frag", payload); err != nil {
		t.Fatal(err)
	}
	f, err := tc.client.Open("db/frag")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}

	spans := tracer.Recent()
	var root *telemetry.Span
	for i := range spans {
		if spans[i].Name == "read" && spans[i].Parent == 0 {
			root = &spans[i]
		}
	}
	if root == nil {
		t.Fatalf("no root read span among %d spans", len(spans))
	}
	if root.Bytes != size {
		t.Errorf("root read span bytes = %d, want %d", root.Bytes, size)
	}

	var rpcBytes, serveBytes int64
	rpcServers := map[string]bool{}
	serveServers := map[string]bool{}
	rpcSpanIDs := map[uint64]bool{}
	for _, s := range spans {
		if s.TraceID != root.TraceID {
			continue
		}
		switch {
		case strings.HasPrefix(s.Name, "rpc:list_read"):
			if s.Parent != root.SpanID {
				t.Errorf("rpc span %s parented on %x, want root %x", s.Name, s.Parent, root.SpanID)
			}
			rpcBytes += s.Bytes
			rpcServers[s.Server] = true
			rpcSpanIDs[s.SpanID] = true
		case strings.HasPrefix(s.Name, "serve:list_read"):
			serveBytes += s.Bytes
			serveServers[s.Server] = true
			if !rpcSpanIDs[s.Parent] {
				// Server spans may be recorded before the client's RPC span
				// (the server observes first); re-check after the loop.
				defer func(p uint64, name string) {
					if !rpcSpanIDs[p] {
						t.Errorf("server span %s parent %x matches no rpc span", name, p)
					}
				}(s.Parent, s.Name)
			}
		}
	}
	if len(rpcServers) < 2 {
		t.Errorf("read RPC spans touched %d servers, want >= 2", len(rpcServers))
	}
	if rpcBytes != size {
		t.Errorf("rpc span bytes sum = %d, want %d", rpcBytes, size)
	}
	if len(serveServers) < 2 {
		t.Errorf("server-side spans from %d servers, want >= 2", len(serveServers))
	}
	if serveBytes != size {
		t.Errorf("server span bytes sum = %d, want %d", serveBytes, size)
	}
}

// TestClusterMetricsExposed checks that a traced cluster publishes the
// transport and server metric families over the Prometheus exposition.
func TestClusterMetricsExposed(t *testing.T) {
	tc, reg, _ := startTracedCluster(t, 2, 1024)
	if err := chio.WriteFull(tc.client, "f", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := chio.ReadFull(tc.client, "f"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, family := range []string{
		"pario_rpc_calls_total",
		"pario_rpc_latency_seconds",
		"pario_server_requests_total",
		"pario_server_op_seconds",
		"pario_iod_bytes_served_total",
		"pario_iod_inflight",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("exposition missing family %s", family)
		}
	}
}

// TestUntracedRequestCountedWithoutSpan drives a fully instrumented
// data server with a client that stamps no trace identity: the server
// counts its requests but records no span for them.
func TestUntracedRequestCountedWithoutSpan(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)
	ds, err := StartDataServer(DataServerConfig{
		ID: 0, Addr: "127.0.0.1:0", Store: chio.NewMemFS(),
		Telemetry: reg, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	d, err := DialData(ds.Addr(), rpcpool.WithTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	ctx := context.Background()
	if _, err := d.Ping(ctx); err != nil {
		t.Fatalf("untraced ping: %v", err)
	}
	run := []StripeRun{{ServerOff: 0, BufOff: 0, Length: 5}}
	if err := d.WriteRuns(ctx, 9, run, []byte("hello")); err != nil {
		t.Fatalf("untraced write: %v", err)
	}
	got := make([]byte, 5)
	if err := d.ReadRuns(ctx, 9, run, got); err != nil || string(got) != "hello" {
		t.Fatalf("untraced read = %q, %v", got, err)
	}
	for _, s := range tracer.Recent() {
		t.Errorf("untraced request produced span %q", s.Name)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `pario_server_requests_total{server="iod0",op="ping",outcome="ok"} 1`) {
		t.Errorf("untraced ping not counted:\n%s", sb.String())
	}
}
