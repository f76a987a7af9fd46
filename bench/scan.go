package main

import (
	"fmt"
	"sync"
	"time"

	"pario/internal/blastdb"
	"pario/internal/chio"
	"pario/internal/iotrace"
	"pario/internal/readahead"
)

const scanReaders = 2

// scanWorkload is a search with a free kernel: two readers split the
// fragments of the database on PVFS and, each pass, first verify
// their checksums on the bare client (the `dbinfo -verify` path: 1 MiB
// sequential reads), then stream every sequence out through a new
// readahead cache, as a search would, and count what arrives.
type scanWorkload struct {
	tr      *recorder
	db      *database
	cl      *cluster
	readers []*scanReader
	cache   *iotrace.CacheStats

	passes, verifies, streams []float64 // s, per pass
	bad                       int       // passes with a wrong checksum or count
	cacheUse                  iotrace.CacheSnapshot
}

type scanReader struct {
	client *client
	share  *blastdb.Alias // this reader's fragments
	upper  *spanBuf
}

func (w *scanWorkload) setup(cfg config, tr *recorder) error {
	w.tr, w.cache = tr, &iotrace.CacheStats{}
	var err error
	if w.db, err = buildDatabase(cfg.seed, cfg.letters); err != nil {
		return err
	}
	if w.cl, err = startPVFS(tr); err != nil {
		return err
	}
	if err := w.cl.load(w.db); err != nil {
		return err
	}
	for r := 0; r < scanReaders; r++ {
		rd := &scanReader{share: &blastdb.Alias{Title: w.db.alias.Title, Kind: w.db.alias.Kind}}
		for i, fi := range w.db.alias.Fragments {
			if i%scanReaders == r {
				rd.share.Fragments = append(rd.share.Fragments, fi)
			}
		}
		if rd.client, err = w.cl.dial(r + 1); err != nil {
			return err
		}
		if tr != nil {
			rd.upper = tr.buf(r+1, "")
		}
		w.readers = append(w.readers, rd)
	}
	_, _, err = w.pass() // warm-up
	return err
}

// both runs f on every reader at once and returns how long the
// slowest took.
func (w *scanWorkload) both(f func(*scanReader) error) (time.Duration, error) {
	start := time.Now()
	errs := make([]error, len(w.readers))
	var wg sync.WaitGroup
	for i, rd := range w.readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(rd)
		}()
	}
	wg.Wait()
	d := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return d, err
		}
	}
	return d, nil
}

func (w *scanWorkload) pass() (verify, stream time.Duration, err error) {
	verify, err = w.both(func(rd *scanReader) error {
		frags, err := blastdb.OpenAll(rd.client.fs, rd.share)
		if err != nil {
			return err
		}
		for _, fr := range frags {
			if cerr := fr.VerifyChecksum(); cerr != nil && err == nil {
				err = cerr
			}
			fr.Close()
		}
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	stream, err = w.both(func(rd *scanReader) error {
		var fs chio.FileSystem = readahead.Wrap(rd.client.fs, readahead.WithStats(w.cache))
		if w.tr != nil {
			fs = wrapFS(fs, rd.upper, layerFS, "fs")
		}
		return streamFragments(fs, rd.share.Fragments, nil)
	})
	return verify, stream, err
}

func (w *scanWorkload) measure(more func(int) bool) error {
	before := w.cache.Snapshot()
	var run *spanBuf
	if w.tr != nil {
		run = w.tr.buf(allRanks, "")
		w.tr.on.Store(true)
		defer w.tr.on.Store(false)
	}
	for i := 0; more(i); i++ {
		start := time.Now()
		v, s, err := w.pass()
		if err != nil {
			// A wrong checksum or count is a wrong output, not a
			// reason to stop: it is counted and reported.
			w.bad++
			fmt.Printf("# scan_pvfs pass %d: %v\n", i, err)
		}
		if run != nil {
			run.addOp(layerRun, "run", i, "", start, time.Now(), 0)
		}
		w.passes = append(w.passes, (v + s).Seconds())
		w.verifies = append(w.verifies, v.Seconds())
		w.streams = append(w.streams, s.Seconds())
	}
	w.cacheUse = snapshotDelta(w.cache.Snapshot(), before)
	return nil
}

func (w *scanWorkload) verify() (attempted, failed int, err error) {
	return len(w.passes), w.bad, nil
}

func (w *scanWorkload) samples() *sampleSet {
	v, s := summarize(scale(w.verifies, 1000)), summarize(scale(w.streams, 1000))
	return &sampleSet{
		durs: w.passes, ops: len(w.passes), wall: sum(w.passes),
		views: []view{
			{"verify_mb_per_s", "MB/s", float64(w.db.bytes) / 1e6 / (v.P50 / 1000), v},
			{"stream_mbases_per_s", "Mbases/s", float64(w.db.alias.Letters) / 1e6 / (s.P50 / 1000), s},
		},
	}
}

func (w *scanWorkload) layers(ss spanSet, m map[string]float64) error {
	f := w.cl.facts()
	f.ops = float64(len(w.passes))
	f.cache = w.cacheUse
	f.payloadMB = 2 * float64(w.db.bytes) / 1e6 // read once by each phase
	storageLayers(f, ss, m)

	var err error
	if m["blastdb.stream_mem_mbases_per_s"], err = rungStream(w.db.mem, w.db.alias); err != nil {
		return err
	}
	pv, err := w.cl.dialPlain()
	if err != nil {
		return err
	}
	defer pv.close()
	if err := rungCollio(pv.fs, w.db.alias, m); err != nil {
		return err
	}
	cf, err := startCEFT(nil)
	if err != nil {
		return err
	}
	defer cf.close()
	if err := cf.load(w.db); err != nil {
		return err
	}
	cl, err := cf.dialPlain()
	if err != nil {
		return err
	}
	defer cl.close()
	m["ceft.stream_mbases_per_s"], err = rungStream(cl.fs, w.db.alias)
	return err
}

func (w *scanWorkload) close() {
	for _, rd := range w.readers {
		rd.client.close()
	}
	if w.cl != nil {
		w.cl.close()
	}
}
