package obsreport

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"pario/internal/ceft"
	"pario/internal/pblast"
)

// synthSnapshot builds a hand-rolled storage-side snapshot.
func synthSnapshot(process string, samples []Sample, spans []SpanRecord) Snapshot {
	return Snapshot{Process: process, Source: "test", Samples: samples, Spans: spans}
}

func sample(name string, value float64, kv ...string) Sample {
	s := Sample{Name: name, Value: value}
	if len(kv) > 0 {
		s.Labels = map[string]string{}
		for i := 0; i+1 < len(kv); i += 2 {
			s.Labels[kv[i]] = kv[i+1]
		}
	}
	return s
}

func buildTestReport() *Report {
	b := NewBuilder("test-run")
	b.SetRun(RunInfo{DB: "nt", Backend: "ceft", Queries: 1})
	b.AddOutcome(&pblast.Outcome{
		WallTime:   2 * time.Second,
		CopyTime:   200 * time.Millisecond,
		SearchTime: 3 * time.Second,
		Reassigned: 1,
		Timeline: []pblast.TaskEvent{
			{Index: 0, Worker: 1, Start: 0, Copy: 100 * time.Millisecond, Search: 500 * time.Millisecond},
			{Index: 1, Worker: 2, Start: 10 * time.Millisecond, Search: 400 * time.Millisecond},
			{Index: 2, Worker: 3, Start: 20 * time.Millisecond, Search: 2 * time.Second, Reassigned: true},
			{Index: 3, Worker: 1, Start: 620 * time.Millisecond, Search: 100 * time.Millisecond},
		},
	})
	// Master-side spans: one read fanned out to two servers.
	b.AddSnapshot(synthSnapshot("master", nil, []SpanRecord{
		span(11, 1, 0, "read", "master", t0, 10*time.Millisecond, 128),
		span(11, 2, 1, "rpc:piece_readv", "master", t0, 6*time.Millisecond, 64),
		span(11, 3, 1, "rpc:piece_readv", "master", t0, 8*time.Millisecond, 64),
	}))
	// Storage-side snapshots: iod0 did 3x the bytes of iod1.
	b.AddSnapshot(synthSnapshot("iod0", []Sample{
		sample("pario_iod_bytes_served_total", 3000, "server", "iod0"),
		sample("pario_iod_load", 4.5, "server", "iod0"),
		sample("pario_server_requests_total", 30, "server", "iod0", "op", "piece_readv", "outcome", "ok"),
		sample("pario_iod_queue_wait_seconds_sum", 1.5, "server", "iod0"),
	}, []SpanRecord{
		span(11, 4, 2, "serve:piece_readv", "iod0", t0, 3*time.Millisecond, 64),
	}))
	b.AddSnapshot(synthSnapshot("iod1", []Sample{
		sample("pario_iod_bytes_served_total", 1000, "server", "iod1"),
		sample("pario_iod_load", 0.5, "server", "iod1"),
		sample("pario_server_requests_total", 10, "server", "iod1", "op", "piece_readv", "outcome", "ok"),
	}, []SpanRecord{
		span(11, 5, 3, "serve:piece_readv", "iod1", t0, 4*time.Millisecond, 64),
	}))
	// The manager saw iod0's heartbeat (bare-ID label) but iod1's
	// expired.
	b.AddSnapshot(synthSnapshot("mgr", []Sample{
		sample("pario_mgr_server_load", 4.25, "server", "0"),
	}, nil))
	b.AddCEFTAudit(ceft.Audit{
		Events: []ceft.HotEvent{
			{Time: t0, ServerID: 0, Load: 4.5, Cutoff: 2.0, Hot: true},
			{Time: t0.Add(time.Second), ServerID: 0, Load: 0.5, Cutoff: 2.0, Hot: false},
		},
		Reroutes:  map[int]int64{0: 17},
		GroupSize: 2,
	})
	return b.Build()
}

func TestBuildReport(t *testing.T) {
	rep := buildTestReport()

	if rep.Version != Version || rep.Label != "test-run" {
		t.Fatalf("header: %+v", rep)
	}
	if rep.Run.WallSeconds != 2 || rep.Run.Reassigned != 1 || rep.Run.Workers != 3 {
		t.Errorf("run: %+v", rep.Run)
	}

	// Workers: 1 did 2 tasks (0.7s busy), 2 did 1 (0.4s), 3 did 1 (2s
	// -> straggler: 2s > 1.5 x median 0.7s).
	if len(rep.Workers) != 3 {
		t.Fatalf("workers: %+v", rep.Workers)
	}
	byWorker := map[int]WorkerStat{}
	for _, ws := range rep.Workers {
		byWorker[ws.Worker] = ws
	}
	if w1 := byWorker[1]; w1.Tasks != 2 || math.Abs(w1.BusySeconds-0.7) > 1e-9 || w1.Straggler {
		t.Errorf("worker1: %+v", w1)
	}
	if w3 := byWorker[3]; !w3.Straggler {
		t.Errorf("worker3 not flagged as straggler: %+v", w3)
	}

	// Servers: iod0, iod1, and the mgr-only label folded onto iod0.
	byServer := map[string]ServerStat{}
	for _, ss := range rep.Servers {
		byServer[ss.Server] = ss
	}
	if s0 := byServer["iod0"]; s0.Bytes != 3000 || s0.MgrLoad != 4.25 || s0.Requests != 30 || s0.QueueWaitSeconds != 1.5 {
		t.Errorf("iod0: %+v", s0)
	}
	if s1 := byServer["iod1"]; s1.Bytes != 1000 || s1.MgrLoad != -1 || s1.Load != 0.5 {
		t.Errorf("iod1: %+v", s1)
	}

	// Imbalance over bytes {3000, 1000}: mean 2000, stddev 1000,
	// CV 0.5, max/mean 1.5.
	ib := rep.Imbalance.ServerBytes
	if ib.Entities != 2 || math.Abs(ib.CV-0.5) > 1e-9 || math.Abs(ib.MaxOverMean-1.5) > 1e-9 || ib.MaxEntity != "iod0" {
		t.Errorf("byte imbalance: %+v", ib)
	}
	// Load uses the mgr view when live (iod0: 4.25) and falls back to
	// the server's own gauge (iod1: 0.5).
	lb := rep.Imbalance.ServerLoad
	if lb.Max != 4.25 || lb.MaxEntity != "iod0" {
		t.Errorf("load imbalance: %+v", lb)
	}

	// Critical path: client io 10ms, rpc 14ms, server 7ms, wait 7ms.
	cp := rep.CriticalPath
	if math.Abs(cp.ClientIOSeconds-0.010) > 1e-9 || math.Abs(cp.RPCSeconds-0.014) > 1e-9 {
		t.Errorf("critical path io/rpc: %+v", cp)
	}
	if math.Abs(cp.RPCWaitSeconds-0.007) > 1e-9 || math.Abs(cp.QueueWaitSeconds-1.5) > 1e-9 {
		t.Errorf("critical path waits: %+v", cp)
	}

	// Hot-spot audit.
	hs := rep.HotSpot
	if !hs.Enabled || hs.TotalReroutes != 17 || hs.Reroutes["iod0"] != 17 || hs.HottestServer != "iod0" {
		t.Errorf("hot-spot: %+v", hs)
	}
	if len(hs.Events) != 2 || !hs.Events[0].Hot || hs.Events[1].Hot {
		t.Errorf("hot events: %+v", hs.Events)
	}

	// Trace assembly: one trace spanning three processes.
	if rep.Traces.Traces != 1 || rep.Traces.Processes != 3 || rep.Traces.Spans != 5 {
		t.Errorf("traces: %+v", rep.Traces)
	}
}

func TestReportJSONRoundtrip(t *testing.T) {
	rep := buildTestReport()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Label != rep.Label || back.HotSpot.TotalReroutes != rep.HotSpot.TotalReroutes {
		t.Errorf("roundtrip: %+v", back)
	}
	if len(back.Servers) != len(rep.Servers) || len(back.Timeline) != len(rep.Timeline) {
		t.Errorf("roundtrip lost sections: %+v", back)
	}
	if _, err := ReadReport(strings.NewReader(`{"not":"a report"}`)); err == nil {
		t.Error("accepted a non-report document")
	}
}

func TestRenderText(t *testing.T) {
	rep := buildTestReport()
	var buf bytes.Buffer
	rep.RenderText(&buf)
	out := buf.String()
	for _, want := range []string{
		"run report: test-run",
		"Critical path",
		"worker3", "<< straggler",
		"iod0", "byte imbalance",
		"CEFT hot-spot audit",
		"rerouted stripe reads  17",
		"hottest server         iod0",
		"serve:piece_readv",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestRenderDiff(t *testing.T) {
	a := buildTestReport()
	b := buildTestReport()
	b.Label = "after"
	b.Run.WallSeconds = 1 // halved
	var buf bytes.Buffer
	RenderDiff(&buf, a, b)
	out := buf.String()
	if !strings.Contains(out, "-50.0%") {
		t.Errorf("diff missing wall delta:\n%s", out)
	}
	if !strings.Contains(out, "iod0") {
		t.Errorf("diff missing per-server rows:\n%s", out)
	}
}

// TestSpreadDegenerate: empty and all-zero distributions must not
// divide by zero.
func TestSpreadDegenerate(t *testing.T) {
	if sp := spread(nil); sp.Entities != 0 || sp.CV != 0 {
		t.Errorf("empty spread: %+v", sp)
	}
	sp := spread(map[string]float64{"a": 0, "b": 0})
	if math.IsNaN(sp.CV) || math.IsNaN(sp.MaxOverMean) {
		t.Errorf("NaN in zero spread: %+v", sp)
	}
}
