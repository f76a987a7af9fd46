package main

import (
	"context"
	"fmt"
	"time"

	"pario/internal/chio"
	"pario/internal/core"
	"pario/internal/iotrace"
	"pario/internal/pblast"
	"pario/internal/readahead"
	"pario/internal/seq"
)

const (
	searchWorkers = 2
	searchPool    = 5 // queries a repetition rotates through
)

// searchWorkload is the paper's configuration: one blastn query,
// database segmentation, 2 workers reading CEFT 2+2 through
// readahead. Every repetition is one mpiblast run: it dials fresh
// clients and starts with a cold cache.
type searchWorkload struct {
	tr    *recorder
	db    *database
	cl    *cluster
	pool  []*seq.Sequence
	cache *iotrace.CacheStats
	run   *spanBuf   // traced: the repetitions
	upper []*spanBuf // traced: above readahead, by worker rank

	durs     []float64
	digests  []string          // per repetition
	outcomes []*pblast.Outcome // per repetition
	cacheUse iotrace.CacheSnapshot
}

func (w *searchWorkload) setup(cfg config, tr *recorder) error {
	w.tr, w.cache = tr, &iotrace.CacheStats{}
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
	if w.pool, err = w.db.queries(cfg.seed, 0, searchPool); err != nil {
		return err
	}
	if tr != nil {
		w.run = tr.buf(allRanks, "")
		w.upper = make([]*spanBuf, searchWorkers+1)
		for rank := 1; rank <= searchWorkers; rank++ {
			w.upper[rank] = tr.buf(rank, "")
		}
	}
	_, _, err = w.search(-1, w.pool[0]) // warm-up
	return err
}

// search is one repetition; rep < 0 is the warm-up.
func (w *searchWorkload) search(rep int, q *seq.Sequence) (time.Duration, *pblast.Outcome, error) {
	start := time.Now()
	clients := make([]*client, searchWorkers+1) // by rank; 0 is the master
	defer func() {
		for _, cl := range clients {
			if cl != nil {
				cl.close()
			}
		}
	}()
	for rank := range clients {
		cl, err := w.cl.dial(rank)
		if err != nil {
			return 0, nil, err
		}
		clients[rank] = cl
	}
	sc := core.SearchConfig{
		Workers:  searchWorkers,
		MasterFS: clients[0].fs,
	}
	if w.tr == nil {
		sc.Search = pblast.NewConfig(dbName, pblast.WithParams(searchParams(1)),
			pblast.WithReadahead(readahead.WithStats(w.cache)))
		sc.WorkerFS = func(rank int) chio.FileSystem { return clients[rank].fs }
	} else {
		// The same stack composed by hand, so that a shim sits on
		// either side of readahead.
		sc.Search = pblast.NewConfig(dbName, pblast.WithParams(searchParams(1)))
		sc.WorkerFS = func(rank int) chio.FileSystem {
			ra := readahead.Wrap(clients[rank].fs, readahead.WithStats(w.cache))
			return wrapFS(ra, w.upper[rank], layerFS, "fs")
		}
	}
	searchStart := time.Now()
	out, err := core.ParallelSearch(context.Background(), q, sc)
	if err != nil {
		return 0, nil, err
	}
	// The timeline counts from the start of the scheduling loop, which
	// the master enters once it has read the alias: its last I/O.
	loop := searchStart
	if w.tr != nil {
		if t, ok := clients[0].buf.lastEnd(); ok {
			loop = t
		}
	}
	for _, cl := range clients {
		if err := cl.close(); err != nil {
			return 0, nil, err
		}
	}
	clients = nil
	end := time.Now()
	if w.tr != nil && rep >= 0 {
		w.run.addOp(layerRun, "run", rep, "", start, end, 0)
		for _, ev := range out.Timeline {
			t := loop.Add(ev.Start)
			w.upper[ev.Worker].addOp(layerTask, "pblast.task", rep, "", t, t.Add(ev.Copy+ev.Search), 0)
		}
	}
	return end.Sub(start), out, nil
}

func (w *searchWorkload) measure(more func(int) bool) error {
	before := w.cache.Snapshot()
	if w.tr != nil {
		w.tr.on.Store(true)
		defer w.tr.on.Store(false)
	}
	for rep := 0; more(rep); rep++ {
		d, out, err := w.search(rep, w.pool[rep%len(w.pool)])
		if err != nil {
			return fmt.Errorf("repetition %d: %w", rep, err)
		}
		w.durs = append(w.durs, d.Seconds())
		w.digests = append(w.digests, digest(out.Result))
		w.outcomes = append(w.outcomes, out)
	}
	w.cacheUse = snapshotDelta(w.cache.Snapshot(), before)
	return nil
}

func (w *searchWorkload) verify() (attempted, failed int, err error) {
	refs := make([]string, len(w.pool))
	for i, got := range w.digests {
		p := i % len(w.pool)
		if refs[p] == "" {
			if refs[p], err = w.db.reference(w.pool[p]); err != nil {
				return 0, 0, err
			}
		}
		attempted++
		if got != refs[p] {
			failed++
		}
	}
	return attempted, failed, nil
}

func (w *searchWorkload) samples() *sampleSet {
	ms := scale(w.durs, 1000)
	s := summarize(ms)
	return &sampleSet{
		durs: w.durs, ops: len(w.durs), wall: sum(w.durs),
		views: []view{
			{"search_wall_p50_s", "s", s.P50 / 1000, s},
			{"search_wall_p75_s", "s", s.P75 / 1000, s},
		},
	}
}

func (w *searchWorkload) layers(ss spanSet, m map[string]float64) error {
	f := w.cl.facts()
	f.ops = float64(len(w.durs))
	f.cache = w.cacheUse
	f.payloadMB = float64(w.db.bytes) / 1e6
	storageLayers(f, ss, m)
	pblastLayers(w.outcomes, ss, m)

	// Exact kernel counts, from the first repetition's query: those
	// the merged result carries come from it, the two it drops from
	// the single-thread baseline on the same query.
	q := w.pool[0]
	st := w.outcomes[0].Result.Stats
	m["blast.seed_hits"] = float64(st.SeedHits)
	m["blast.ungapped_exts"] = float64(st.UngappedExts)
	m["blast.gapped_exts"] = float64(st.GappedExts)
	rate, res, err := rungBlastSearch(w.db, q)
	if err != nil {
		return err
	}
	if got := digest(res); got != w.digests[0] {
		return fmt.Errorf("single-thread baseline found %s, parallel search %s", got, w.digests[0])
	}
	m["blast.search_mbases_per_s"] = rate
	m["blast.scanned_bases"] = float64(res.Stats.ScannedBases)
	m["blast.packed_exts"] = float64(res.Stats.PackedExts)
	if m["align.packed_extend_mbases_per_s"], err = rungPackedExtend(); err != nil {
		return err
	}
	if m["pblast.mem_wall_s"], err = rungMemWall(w.db, q); err != nil {
		return err
	}
	return nil
}

func (w *searchWorkload) close() {
	if w.cl != nil {
		w.cl.close()
	}
}

func snapshotDelta(after, before iotrace.CacheSnapshot) iotrace.CacheSnapshot {
	return iotrace.CacheSnapshot{
		Hits:            after.Hits - before.Hits,
		Misses:          after.Misses - before.Misses,
		PrefetchIssued:  after.PrefetchIssued - before.PrefetchIssued,
		PrefetchWasted:  after.PrefetchWasted - before.PrefetchWasted,
		PrefetchAborted: after.PrefetchAborted - before.PrefetchAborted,
		BorrowHits:      after.BorrowHits - before.BorrowHits,
		BorrowCopies:    after.BorrowCopies - before.BorrowCopies,
	}
}
