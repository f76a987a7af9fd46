package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// config is what one run is given. The driver sets seed, seconds and
// trace; the sizes are the benchmark's own and only tests shrink them.
type config struct {
	seed          uint64
	seconds       float64 // time spent measuring
	letters       int64   // the shared database
	ingestLetters int64   // the FASTA text ingest_ceft formats
	setups        int     // times set-up runs; setup_s is their median
	maxOps        int     // tests: stop after this many operations
	outDir        string  // where trace files go
}

func defaultConfig() config {
	return config{
		seed: 1, seconds: 12,
		letters: 32 << 20, ingestLetters: 8 << 20,
		setups: 3, outDir: "bench/out",
	}
}

// metricDef is one row of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is measured with tracing off. Every workload reports every
// one of them; README.md says what the operation is on each workload.
// A bound belongs to a metric, not to a workload, so the noisiest
// workload sets it: service_mixed, whose whole latency distribution
// shifts by 5-10% from one process to the next on the 2-CPU host.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// workloadDef is one row of BENCHMARK.json's workloads.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	make func() instance
}

var workloads = []workloadDef{
	{"search_ceft", "blastn over CEFT 2+2, 2 workers, cold readahead: the paper's configuration; kernel and pblast do most of the work, the read path little",
		func() instance { return &searchWorkload{} }},
	{"scan_pvfs", "verify and stream all fragments over PVFS with 4 servers and no search: readahead, pvfs, rpcpool, iod and decode do all the work, blast none",
		func() instance { return &scanWorkload{} }},
	{"service_mixed", "blastd over CEFT, 2 closed-loop clients, half never-seen and half cached queries: admission, result cache, shared workers, warm readahead",
		func() instance { return &serviceWorkload{} }},
	{"ingest_ceft", "formatdb into CEFT 2+2: the same storage layers used for small mirrored writes instead of reads",
		func() instance { return &ingestWorkload{} }},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// instance is one workload set up once: its inputs, its deployment and
// the operation timed on them.
type instance interface {
	// setup builds everything the first timed operation needs and
	// ends with one untimed warm-up operation. A non-nil recorder makes
	// it a traced instance: timing shims at every layer boundary.
	setup(cfg config, tr *recorder) error
	// measure repeats the operation while more says so.
	measure(more func(done int) bool) error
	// verify checks every operation's output against the oracle and
	// reports how many were checked and how many were wrong.
	verify() (attempted, failed int, err error)
	// samples are the measured operations.
	samples() *sampleSet
	// layers adds the workload's own per-layer numbers.
	layers(spans spanSet, m map[string]float64) error
	close()
}

// view is a named reading of the samples that the report prints
// beside the contract's metrics, under the name the issue gave it.
type view struct {
	name  string
	unit  string
	value float64
	sum   summary // of the timings behind it, in ms
}

// sampleSet is what measuring an instance yields.
type sampleSet struct {
	durs  []float64 // wall time of each primary operation, s
	ops   int       // operations completed, of every kind
	wall  float64   // the time they took, s
	views []view
}

func (s *sampleSet) endToEnd() map[string]float64 {
	return map[string]float64{
		"op_p50_ms": 1000 * median(s.durs),
		"ops_per_s": float64(s.ops) / s.wall,
	}
}

// budget decides when measuring stops: after maxOps operations when
// set, otherwise when the time is up (but never before three).
func budget(cfg config, seconds float64) func(done int) bool {
	start := time.Now()
	return func(done int) bool {
		if cfg.maxOps > 0 {
			return done < cfg.maxOps
		}
		return done < 3 || time.Since(start).Seconds() < seconds
	}
}

// result is one run of one workload.
type result struct {
	Workload  string
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Views     []view
	Setups    []float64
	TracePath string
}

// runUntraced measures the end-to-end metrics.
func runUntraced(def workloadDef, cfg config) (*result, error) {
	var w instance
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			w.close()
		}
		w = def.make()
		runtime.GC() // each set-up starts from the same heap
		t := time.Now()
		if err := w.setup(cfg, nil); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer w.close()
	if err := w.measure(budget(cfg, cfg.seconds)); err != nil {
		return nil, fmt.Errorf("%s: %w", def.Name, err)
	}
	attempted, failed, err := w.verify()
	if err != nil {
		return nil, fmt.Errorf("%s: verify: %w", def.Name, err)
	}
	s := w.samples()
	m := s.endToEnd()
	m["setup_s"] = median(setups)
	return &result{
		Workload: def.Name, Attempted: attempted, Failed: failed,
		Metrics: m, Views: s.views, Setups: setups,
	}, nil
}

// runTraced measures the per-layer metrics: half the time on an
// untraced instance, half on a traced one, so that the overhead of
// tracing is itself a number.
func runTraced(def workloadDef, cfg config) (*result, error) {
	plain := def.make()
	if err := plain.setup(cfg, nil); err != nil {
		plain.close()
		return nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
	}
	err := plain.measure(budget(cfg, cfg.seconds/2))
	plainSamples := plain.samples()
	attempted, failed, verr := plain.verify()
	plain.close()
	if err == nil {
		err = verr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: untraced half: %w", def.Name, err)
	}

	tr := newRecorder()
	w := def.make()
	defer w.close()
	if err := w.setup(cfg, tr); err != nil {
		return nil, fmt.Errorf("%s: traced set-up: %w", def.Name, err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	heapPeak := newHeapSampler()
	if err := w.measure(budget(cfg, cfg.seconds/2)); err != nil {
		return nil, fmt.Errorf("%s: traced half: %w", def.Name, err)
	}
	peak := heapPeak.stop()
	runtime.ReadMemStats(&after)
	a, f, err := w.verify()
	if err != nil {
		return nil, fmt.Errorf("%s: verify: %w", def.Name, err)
	}
	attempted, failed = attempted+a, failed+f

	spans := tr.assemble()
	m := zeroLayers()
	s := w.samples()
	ops := float64(len(s.durs))
	if err := w.layers(spanSet{spans}, m); err != nil {
		return nil, fmt.Errorf("%s: per-layer: %w", def.Name, err)
	}
	for _, v := range plainSamples.views {
		if _, ok := m[viewLayer[v.name]]; ok {
			m[viewLayer[v.name]] = v.value
		}
	}
	m["runtime.gc_cycles"] = float64(after.NumGC-before.NumGC) / ops
	m["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / ops
	m["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / ops
	m["runtime.heap_peak_mb"] = float64(peak) / 1e6
	m["trace.spans"] = float64(len(spans)) / ops
	m["trace.overhead_pct"] = 100 * (median(s.durs)/median(plainSamples.durs) - 1)

	path, err := writeTrace(cfg.outDir, def.Name, cfg.seed, spans)
	if err != nil {
		return nil, fmt.Errorf("%s: write trace: %w", def.Name, err)
	}
	return &result{
		Workload: def.Name, Attempted: attempted, Failed: failed,
		Metrics: m, Views: plainSamples.views, TracePath: path,
	}, nil
}

// heapSampler polls the live heap while the traced half runs; the
// runtime keeps no high-water mark of its own.
type heapSampler struct {
	done chan struct{}
	peak chan uint64
}

func newHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		var ms runtime.MemStats
		var peak uint64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
			select {
			case <-h.done:
				h.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.done)
	return <-h.peak
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
