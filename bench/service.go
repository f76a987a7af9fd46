package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pario/internal/blastd"
	"pario/internal/chio"
	"pario/internal/iotrace"
	"pario/internal/pblast"
	"pario/internal/readahead"
	"pario/internal/rpcpool"
	"pario/internal/seq"
	"pario/internal/telemetry"
	"pario/internal/util"
)

const (
	serviceClients = 2
	serviceWorkers = 2
	hotPool        = 4 // cached queries the clients repeat
	freshChecked   = 4 // never-seen answers compared in full with the reference
	clientRankBase = 100
)

// serviceWorkload is one blastd as cmd/blastd wires it (registry,
// tracer, transport metrics, monitor) over CEFT 2+2 with 2 persistent
// workers and 2 search slots, behind an HTTP test server. Two closed-
// loop clients each follow a seeded schedule, half never-seen queries
// and half repeats of a small hot pool warmed in set-up, so two fresh
// searches share the workers most of the time.
type serviceWorkload struct {
	tr    *recorder
	db    *database
	cl    *cluster
	reg   *telemetry.Registry
	srv   *blastd.Server
	http  *httptest.Server
	cache *iotrace.CacheStats

	clients map[int]*client // by rank, dialed once

	hot       []*seq.Sequence
	hotDigest []string
	fresh     [][]*seq.Sequence // per client
	schedule  [][]bool          // per client; true: a never-seen query

	start    time.Time
	wall     float64
	requests []request
	cacheUse iotrace.CacheSnapshot
	counters map[string]float64 // blastd counters over the measured window
}

// request is one timed request and what came back.
type request struct {
	fresh     bool
	query     *seq.Sequence
	hotIndex  int
	latency   float64 // s, client side
	elapsedMS float64 // the server's own figure
	digest    string
	err       string
}

func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

func (w *serviceWorkload) setup(cfg config, tr *recorder) error {
	w.tr, w.cache = tr, &iotrace.CacheStats{}
	w.clients = map[int]*client{}
	var err error
	if w.db, err = buildDatabase(cfg.seed, cfg.letters); err != nil {
		return err
	}
	if w.cl, err = startCEFT(tr); err != nil {
		return err
	}
	if err := w.cl.load(w.db); err != nil {
		return err
	}

	w.reg = telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)
	rpcMetrics := rpcpool.NewMetrics(w.reg)
	transport := []rpcpool.Option{rpcpool.WithMetrics(rpcMetrics), rpcpool.WithTracer(tracer)}
	for rank := 0; rank <= serviceWorkers; rank++ { // 0 is the master
		if w.clients[rank], err = w.cl.dial(rank, transport...); err != nil {
			return err
		}
	}
	rankFS := func(rank int) chio.FileSystem { return w.clients[rank].fs }
	search := []pblast.Option{pblast.WithThreads(1), pblast.WithTelemetry(pblast.NewTelemetry(w.reg))}
	workerFS := rankFS
	if tr == nil {
		search = append(search, pblast.WithReadahead(readahead.WithStats(w.cache)))
	} else {
		// The pool's own stack composed by hand: a shim on either side
		// of each worker's persistent cache.
		workerFS = func(rank int) chio.FileSystem {
			ra := readahead.Wrap(rankFS(rank), readahead.WithStats(w.cache))
			return wrapFS(ra, tr.buf(rank, ""), layerFS, "fs")
		}
	}
	w.srv, err = blastd.New(context.Background(), blastd.Config{
		FS:            rankFS(0),
		WorkerFS:      workerFS,
		Search:        pblast.NewConfig("", search...),
		Workers:       serviceWorkers,
		MaxConcurrent: serviceClients,
		QueueDepth:    64,
		MaxPerClient:  8,
		CacheSize:     256,
		Registry:      w.reg,
		Tracer:        tracer,
		RPCOps: func() int64 {
			var total int64
			rpcMetrics.Calls.Each(func(_ []string, c *telemetry.Counter) { total += c.Value() })
			return total
		},
		FlightSize:      4096, // every measured request stays in /debug/queries
		Logger:          discardLogger(),
		MonitorInterval: blastd.DefaultMonitorInterval,
		MonitorLogger:   discardLogger(),
	})
	if err != nil {
		return err
	}
	w.http = httptest.NewServer(w.srv.Handler())

	perClient := int(3*cfg.seconds) + 8
	if cfg.maxOps > 0 {
		perClient = cfg.maxOps
	}
	all, err := w.db.queries(cfg.seed, 0, hotPool+serviceClients*perClient)
	if err != nil {
		return err
	}
	w.hot = all[:hotPool]
	for c := 0; c < serviceClients; c++ {
		w.fresh = append(w.fresh, all[hotPool+c*perClient:hotPool+(c+1)*perClient])
		// Blocks of ten, five of each kind in seeded order.
		rng := util.NewRNG(subSeed(cfg.seed, streamSchedule+uint64(c)))
		var sched []bool
		for len(sched) < 2*perClient {
			for _, p := range rng.Perm(10) {
				sched = append(sched, p < 5)
			}
		}
		w.schedule = append(w.schedule, sched)
	}
	// Warm-up: the hot pool enters the result cache, and the workers'
	// readahead caches fill.
	for i, q := range w.hot {
		r := w.post(0, q)
		if r.err != "" {
			return fmt.Errorf("warming hot query %d: %s", i, r.err)
		}
		w.hotDigest = append(w.hotDigest, r.digest)
	}
	return nil
}

// post sends one query and times it at the client.
func (w *serviceWorkload) post(client int, q *seq.Sequence) request {
	r := request{query: q}
	body, _ := json.Marshal(blastd.SearchRequest{ // marshalling strings cannot fail
		DB: dbName, Query: fastaText(q), Client: fmt.Sprintf("bench-%d", client),
	})
	start := time.Now()
	resp, err := http.Post(w.http.URL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err.Error()
		return r
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latency = time.Since(start).Seconds()
	if err != nil {
		r.err = err.Error()
		return r
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(blob))
		return r
	}
	var sr blastd.SearchResponse
	if err := json.Unmarshal(blob, &sr); err != nil {
		r.err = "response: " + err.Error()
		return r
	}
	if sr.Result == nil {
		r.err = "response carries no result"
		return r
	}
	r.elapsedMS = sr.ElapsedMS
	r.digest = digest(sr.Result)
	// What must hold of any answer, whatever the reference says: a
	// repeat comes from the cache, a never-seen query does not, and a
	// query cut out of the database finds the sequence it came from.
	source := q.ID[strings.LastIndex(q.ID, "|from|")+len("|from|"):]
	switch {
	case len(sr.Result.Hits) == 0 || sr.Result.Hits[0].SubjectID != source:
		r.err = "best hit is not the query's source " + source
	case sr.NumHits != len(sr.Result.Hits):
		r.err = "num_hits disagrees with the result"
	}
	return r
}

func (w *serviceWorkload) measure(more func(int) bool) error {
	before := w.cache.Snapshot()
	countersBefore := w.blastdCounters()
	if w.tr != nil {
		w.tr.on.Store(true)
		defer w.tr.on.Store(false)
	}
	var done atomic.Int64
	perClient := make([][]request, serviceClients)
	w.start = time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var run *spanBuf
			if w.tr != nil {
				run = w.tr.buf(clientRankBase+c, "")
			}
			nextFresh := 0
			for _, isFresh := range w.schedule[c] {
				if !more(int(done.Load())) || nextFresh == len(w.fresh[c]) {
					return
				}
				var r request
				begin := time.Now()
				if isFresh {
					r = w.post(c, w.fresh[c][nextFresh])
					nextFresh++
				} else {
					h := (len(perClient[c]) + c) % hotPool
					r = w.post(c, w.hot[h])
					r.hotIndex = h
				}
				r.fresh = isFresh
				n := int(done.Add(1))
				if run != nil {
					run.addOp(layerRun, "request", n, "", begin, time.Now(), 0)
				}
				perClient[c] = append(perClient[c], r)
			}
		}()
	}
	wg.Wait()
	w.wall = time.Since(w.start).Seconds()
	for _, rs := range perClient {
		w.requests = append(w.requests, rs...)
	}
	w.cacheUse = snapshotDelta(w.cache.Snapshot(), before)
	w.counters = w.blastdCounters()
	for k, v := range countersBefore {
		w.counters[k] -= v
	}
	return nil
}

// blastdCounters reads the service's own counters off its registry.
func (w *serviceWorkload) blastdCounters() map[string]float64 {
	m := map[string]float64{
		"blastd.cache_hits":          float64(w.reg.Counter("pario_blastd_cache_hits_total", "").Value()),
		"blastd.cache_misses":        float64(w.reg.Counter("pario_blastd_cache_misses_total", "").Value()),
		"blastd.singleflight_shared": float64(w.reg.Counter("pario_blastd_singleflight_shared_total", "").Value()),
	}
	w.reg.CounterVec("pario_blastd_admission_rejected_total", "", "reason").Each(
		func(_ []string, c *telemetry.Counter) { m["blastd.rejected"] += float64(c.Value()) })
	return m
}

func (w *serviceWorkload) verify() (attempted, failed int, err error) {
	hotRef := make([]string, hotPool)
	for i, q := range w.hot {
		if hotRef[i], err = w.db.reference(q); err != nil {
			return 0, 0, err
		}
		if w.hotDigest[i] != hotRef[i] {
			return 0, 0, fmt.Errorf("hot query %d was answered wrongly during warm-up", i)
		}
	}
	var fresh []int
	for i, r := range w.requests {
		if r.fresh && r.err == "" {
			fresh = append(fresh, i)
		}
	}
	checked := map[int]string{} // request index -> reference
	for k := 0; k < freshChecked && k < len(fresh); k++ {
		i := fresh[k*len(fresh)/min(freshChecked, len(fresh))]
		if checked[i], err = w.db.reference(w.requests[i].query); err != nil {
			return 0, 0, err
		}
	}
	for i, r := range w.requests {
		attempted++
		want, full := checked[i]
		if !r.fresh {
			want, full = hotRef[r.hotIndex], true
		}
		if r.err != "" || (full && r.digest != want) {
			failed++
			fmt.Printf("# service_mixed request %d (fresh=%v): %s\n", i, r.fresh, r.err)
		}
	}
	return attempted, failed, nil
}

func (w *serviceWorkload) latencies(fresh bool) []float64 {
	var out []float64
	for _, r := range w.requests {
		if r.fresh == fresh {
			out = append(out, r.latency)
		}
	}
	return out
}

func (w *serviceWorkload) samples() *sampleSet {
	fresh := w.latencies(true)
	s := summarize(scale(fresh, 1000))
	return &sampleSet{
		durs: fresh, ops: len(w.requests), wall: w.wall,
		views: []view{
			{"fresh_p50_ms", "ms", s.P50, s},
			{"fresh_tail_ms", "ms", s.Tail, s},
			{"requests_per_s", "1/s", float64(len(w.requests)) / w.wall, summary{N: len(w.requests)}},
		},
	}
}

func (w *serviceWorkload) layers(ss spanSet, m map[string]float64) error {
	ops := float64(len(w.latencies(true)))
	f := w.cl.facts()
	f.ops = ops
	f.cache = w.cacheUse
	storageLayers(f, ss, m)
	for k, v := range w.counters {
		m[k] = v / ops
	}
	m["blastd.queue_depth_peak"] = w.reg.Gauge("pario_blastd_queue_depth_peak", "").Value()
	m["blastd.cache_hit_p50_ms"] = 1000 * median(w.latencies(false))
	m["blastd.rpcs_per_fresh_search"] = m["rpcpool.rpcs"]
	var overhead []float64
	for _, r := range w.requests {
		overhead = append(overhead, 1000*r.latency-r.elapsedMS)
	}
	m["blastd.http_overhead_ms"] = median(overhead)

	resp, err := http.Get(w.http.URL + "/debug/queries")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var flight struct {
		Queries []blastd.QuerySummary `json:"queries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&flight); err != nil {
		return fmt.Errorf("/debug/queries: %w", err)
	}
	var waits []float64
	for _, q := range flight.Queries {
		if !q.Start.Before(w.start) {
			waits = append(waits, q.QueueMS)
		}
	}
	waits = sortedCopy(waits)
	m["blastd.queue_wait_p50_ms"] = util.Quantile(waits, 0.5)
	m["blastd.queue_wait_p90_ms"] = util.Quantile(waits, 0.9)
	return nil
}

func (w *serviceWorkload) close() {
	if w.http != nil {
		w.http.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	for _, cl := range w.clients {
		cl.close()
	}
	if w.cl != nil {
		w.cl.close()
	}
}
