package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"pario/internal/chio"
	"pario/internal/util"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	s := sortedCopy(xs)
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6}} {
		if got := util.Quantile(s, c.q); !near(got, c.want) {
			t.Errorf("util.Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("median reordered its argument")
	}
	sum := summarize([]float64{4, 1, 3, 2})
	if sum.N != 4 || !near(sum.P25, 1.75) || !near(sum.P50, 2.5) || !near(sum.P75, 3.25) {
		t.Errorf("quartiles = %+v", sum)
	}
	// The tail is the highest percentile with ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{12, 0.5}, {39, 0.5}, {40, 0.75}, {100, 0.9}, {200, 0.95}, {1000, 0.99}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name string
		kids []interval
		want int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{120, 150}}, 70},
		{"overlapping children count once", []interval{{120, 150}, {140, 160}}, 60},
		{"adjacent children", []interval{{100, 150}, {150, 200}}, 0},
		{"children sticking out are clipped", []interval{{50, 110}, {190, 250}}, 80},
		{"a child outside covers nothing", []interval{{300, 400}}, 100},
		{"unordered children", []interval{{180, 190}, {110, 120}}, 80},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

// Two ranks each make calls at an outer layer; the inner layer covers
// part of them, on rank 1 also from a call running ahead of its caller
// (as prefetch does).
func TestLayerSelfAndBusy(t *testing.T) {
	sp := func(name string, rank int, lo, hi int64) *span {
		return &span{Name: name, Rank: rank, Start: lo, End: hi}
	}
	outer := []*span{sp("fs.read", 1, 0, 100), sp("fs.read", 1, 200, 300), sp("fs.read", 2, 0, 100)}
	inner := []*span{
		sp("client.read", 1, 10, 30), sp("client.read", 1, 20, 50), // overlap: 40 covered
		sp("client.read", 1, 150, 220), // started before its reader: covers 20 of the second read
		sp("client.read", 2, 500, 600), // another time: covers nothing
	}
	if got := layerSelf(outer, inner, false); !near(got, (300-40-20)/1e9) {
		t.Errorf("layerSelf = %v s, want 240 ns", got)
	}
	if got := busy(inner, false); !near(got, (40+70+100)/1e9) {
		t.Errorf("busy = %v s, want 210 ns", got)
	}
	if got := sumDur(inner); !near(got, (20+30+70+100)/1e9) {
		t.Errorf("sumDur = %v s, want 220 ns", got)
	}
}

func TestAssembleBuildsTree(t *testing.T) {
	rec := newRecorder()
	rec.on.Store(true)
	at := func(ns int64) time.Time { return rec.epoch.Add(time.Duration(ns)) }
	run := rec.buf(allRanks, "")
	w1 := rec.buf(1, "")
	store := rec.buf(0, "srv:1")
	run.addOp(layerRun, "run", 0, "", at(0), at(1000), 0)
	w1.addOp(layerTask, "pblast.task", -1, "", at(10), at(900), 0)
	w1.add(layerFS, "fs.read", at(100), at(400), 64)
	w1.add(layerClient, "client.read", at(150), at(350), 64)
	w1.addOp(layerRPC, "rpc", -1, "srv:1", at(160), at(340), 0)
	store.add(layerStore, "store.read", at(200), at(300), 64)
	w1.add(layerClient, "client.read", at(500), at(600), 64) // prefetch: no reader waits on it
	w1.add(layerFS, "fs.read", at(950), at(990), 8)          // after its task's reported end

	spans := rec.assemble()
	parentOf := map[string]string{}
	self := map[string]int64{}
	byID := map[int]*span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		key := s.Name
		if _, dup := parentOf[key]; dup {
			key += "#2"
		}
		parentOf[key] = ""
		if p := byID[s.Parent]; p != nil {
			parentOf[key] = p.Name
		}
		self[key] = s.Self
		if s.Op != 0 {
			t.Errorf("%s: op %d, want 0 inherited from the run", key, s.Op)
		}
	}
	want := map[string]string{
		"run": "", "pblast.task": "run", "fs.read": "pblast.task", "client.read": "fs.read",
		"rpc": "client.read", "store.read": "rpc", "client.read#2": "pblast.task", "fs.read#2": "run",
	}
	if !reflect.DeepEqual(parentOf, want) {
		t.Errorf("parents = %v\nwant      %v", parentOf, want)
	}
	for name, w := range map[string]int64{"run": 1000 - 890 - 40, "pblast.task": 890 - 300 - 100, "fs.read": 100, "client.read": 20, "rpc": 80, "store.read": 100} {
		if self[name] != w {
			t.Errorf("%s: self %d, want %d", name, self[name], w)
		}
	}
}

// Files with every combination of the optional interfaces: the shim
// must offer exactly what the file inside it offers.
type (
	vecCap  struct{}
	hintCap struct{}
	viewCap struct{}

	plainFile struct{ chio.File }
	vecFile   struct {
		chio.File
		vecCap
	}
	hintFile struct {
		chio.File
		hintCap
	}
	viewFile struct {
		chio.File
		viewCap
	}
	hintViewFile struct {
		chio.File
		hintCap
		viewCap
	}
	allFile struct {
		chio.File
		vecCap
		hintCap
		viewCap
	}
)

func (vecCap) ReadvAt(segs []chio.Seg, dst []byte) ([]int64, error) {
	return make([]int64, len(segs)), nil
}
func (hintCap) HintRanges([]chio.Seg) {}
func (viewCap) ReadView(off, n int64) (chio.View, error) {
	return chio.OwnedView(make([]byte, n)), nil
}

func capabilities(f any) [3]bool {
	_, vec := f.(chio.VectorReaderAt)
	_, hint := f.(chio.RangeHinter)
	_, view := f.(chio.ViewReaderAt)
	return [3]bool{vec, hint, view}
}

func TestShimForwardsOnlyWhatTheFileHas(t *testing.T) {
	rec := newRecorder()
	rec.on.Store(true)
	shim := newShim(chio.NewMemFS(), rec.buf(1, ""), layerFS, "fs")
	for _, f := range []chio.File{plainFile{}, vecFile{}, hintFile{}, viewFile{}, allFile{}, hintViewFile{}} {
		wrapped := wrapFile(&shimFile{File: f, fs: shim})
		if got, want := capabilities(wrapped), capabilities(f); got != want {
			t.Errorf("%T: wrapped file offers [vec hint view] = %v, the file itself %v", f, got, want)
		}
	}
	// A view read through the shim is timed and keeps its length.
	wrapped := wrapFile(&shimFile{File: viewFile{}, fs: shim})
	if v, err := wrapped.(chio.ViewReaderAt).ReadView(0, 16); err != nil || len(v.Data) != 16 {
		t.Fatalf("ReadView through the shim: %d bytes, %v", len(v.Data), err)
	}
	if spans := rec.assemble(); len(spans) != 1 || spans[0].Name != "fs.read" || spans[0].Bytes != 16 {
		t.Errorf("spans after one view read: %+v", spans)
	}

	// MemFS cannot be bound to a context; the parallel-FS clients can.
	if _, ok := wrapFS(chio.NewMemFS(), rec.buf(1, ""), layerFS, "fs").(chio.ContextBinder); ok {
		t.Error("shim over MemFS claims to bind contexts")
	}
	faulty := chio.NewFaultFS(chio.NewMemFS()) // forwards ContextBinder
	bound, ok := wrapFS(faulty, rec.buf(1, ""), layerFS, "fs").(chio.ContextBinder)
	if !ok {
		t.Fatal("shim over a context-binding backend lost WithContext")
	}
	if _, ok := bound.WithContext(context.Background()).(chio.ContextBinder); !ok {
		t.Error("a bound shim can no longer be bound")
	}
}

// smallConfig shrinks the inputs so that every workload runs in about
// a second: 1 Mi letters, 2 repetitions, one set-up.
func smallConfig(t *testing.T) config {
	cfg := defaultConfig()
	cfg.letters, cfg.ingestLetters = 1<<20, 256<<10
	cfg.setups, cfg.maxOps = 1, 2
	cfg.outDir = t.TempDir()
	return cfg
}

// TestSmoke keeps the benchmark compiling and correct: all four
// workloads, untraced, small.
func TestSmoke(t *testing.T) {
	cfg := smallConfig(t)
	for _, def := range workloads {
		res, err := runUntraced(def, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Attempted < cfg.maxOps || res.Failed != 0 {
			t.Errorf("%s: %d failed of %d checked", def.Name, res.Failed, res.Attempted)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive number", def.Name, d.Name, v)
			}
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: metrics %v, want exactly the end-to-end list", def.Name, sortedKeys(res.Metrics))
		}
	}
}

// TestTracedRun runs every workload traced: all per-layer metrics
// present, outputs still right, the span file written.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs also measure the rungs")
	}
	cfg := smallConfig(t)
	for _, def := range workloads {
		res, err := runTraced(def, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("%s: %d failed of %d checked", def.Name, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", def.Name, len(res.Metrics), len(perLayer))
		}
		for _, name := range []string{"rpcpool.rpcs", "iod.store_ops", "trace.spans"} {
			if res.Metrics[name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", def.Name, name, res.Metrics[name])
			}
		}
		blob, err := os.ReadFile(res.TracePath)
		if err != nil {
			t.Fatal(err)
		}
		var file struct{ Spans []span }
		if err := json.Unmarshal(blob, &file); err != nil || len(file.Spans) == 0 {
			t.Errorf("%s: trace file: %d spans, %v", def.Name, len(file.Spans), err)
		}
	}
}

// TestTracingKeepsTheZeroCopyPath: the shims must not change what the
// program does. A traced search borrows as many views from readahead
// as an untraced one, seeds and extends as often, and finds the same
// hits.
func TestTracingKeepsTheZeroCopyPath(t *testing.T) {
	cfg := smallConfig(t)
	run := func(tr *recorder) *searchWorkload {
		w := &searchWorkload{}
		t.Cleanup(w.close)
		if err := w.setup(cfg, tr); err != nil {
			t.Fatal(err)
		}
		if err := w.measure(budget(cfg, 0)); err != nil {
			t.Fatal(err)
		}
		if _, failed, err := w.verify(); err != nil || failed != 0 {
			t.Fatalf("traced=%v: %d wrong results, %v", tr != nil, failed, err)
		}
		return w
	}
	plain, traced := run(nil), run(newRecorder())
	if plain.cacheUse.BorrowHits == 0 {
		t.Fatal("the untraced search borrowed no views: the test would prove nothing")
	}
	if p, q := plain.cacheUse.BorrowHits, traced.cacheUse.BorrowHits; p != q {
		t.Errorf("readahead.borrow_hits: %d untraced, %d traced", p, q)
	}
	if p, q := plain.cacheUse.BorrowCopies, traced.cacheUse.BorrowCopies; p != q {
		t.Errorf("readahead.borrow_copies: %d untraced, %d traced", p, q)
	}
	for i := range plain.outcomes {
		if plain.digests[i] != traced.digests[i] {
			t.Errorf("repetition %d: hit digests differ", i)
		}
		p, q := plain.outcomes[i].Result.Stats, traced.outcomes[i].Result.Stats
		if p.SeedHits != q.SeedHits || p.UngappedExts != q.UngappedExts || p.GappedExts != q.GappedExts || p.DBLetters != q.DBLetters {
			t.Errorf("repetition %d: kernel counts differ: %+v untraced, %+v traced", i, p, q)
		}
	}
}

// TestContractFile: BENCHMARK.json lists what the program reports.
func TestContractFile(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v\nprogram has  %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's list (%d vs %d entries)", len(file.PerLayer), len(perLayer))
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d = %q, program has %q", i, w.Name, workloads[i].Name)
		}
	}
	if float64(file.RunSeconds) != defaultConfig().seconds {
		t.Errorf("run_seconds = %d, the program's default is %v", file.RunSeconds, defaultConfig().seconds)
	}
}
