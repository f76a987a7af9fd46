package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"pario/internal/align"
	"pario/internal/blast"
	"pario/internal/blastdb"
	"pario/internal/ceft"
	"pario/internal/chio"
	"pario/internal/collio"
	"pario/internal/core"
	"pario/internal/iotrace"
	"pario/internal/pblast"
	"pario/internal/readahead"
	"pario/internal/seq"
	"pario/internal/util"
)

// perLayer is measured on a traced instance (README.md says what each
// one is and which end-to-end metric it should move). Counts, bytes
// and times are per operation, so runs of different length compare;
// the *_per_s rates named after a workload's phases come from the
// untraced half of the traced run.
var perLayer = []metricDef{
	{Name: "align.packed_extend_mbases_per_s", Unit: "Mbases/s", Better: "higher"},

	{Name: "blast.search_mbases_per_s", Unit: "Mbases/s", Better: "higher"},
	{Name: "blast.scanned_bases", Unit: "count", Better: "lower"},
	{Name: "blast.seed_hits", Unit: "count", Better: "lower"},
	{Name: "blast.ungapped_exts", Unit: "count", Better: "lower"},
	{Name: "blast.packed_exts", Unit: "count", Better: "higher"},
	{Name: "blast.gapped_exts", Unit: "count", Better: "lower"},
	{Name: "blast.self_s", Unit: "s", Better: "lower"},

	{Name: "blastdb.stream_mem_mbases_per_s", Unit: "Mbases/s", Better: "higher"},
	{Name: "blastdb.format_mem_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "seq.fasta_parse_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "readahead.hits", Unit: "count", Better: "higher"},
	{Name: "readahead.misses", Unit: "count", Better: "lower"},
	{Name: "readahead.prefetch_issued", Unit: "count", Better: "lower"},
	{Name: "readahead.prefetch_wasted", Unit: "count", Better: "lower"},
	{Name: "readahead.borrow_hits", Unit: "count", Better: "higher"},
	{Name: "readahead.borrow_copies", Unit: "count", Better: "lower"},
	{Name: "readahead.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "readahead.zero_copy_ratio", Unit: "ratio", Better: "higher"},
	{Name: "readahead.wait_s", Unit: "s", Better: "lower"},
	{Name: "readahead.self_s", Unit: "s", Better: "lower"},
	{Name: "readahead.stream_mbases_per_s", Unit: "Mbases/s", Better: "higher"},

	{Name: "collio.rounds", Unit: "count", Better: "lower"},
	{Name: "collio.ranges", Unit: "count", Better: "lower"},
	{Name: "collio.merged_segments", Unit: "count", Better: "lower"},
	{Name: "collio.dedup_bytes", Unit: "bytes", Better: "higher"},
	{Name: "collio.stream_mbases_per_s", Unit: "Mbases/s", Better: "higher"},

	{Name: "pvfs.client_reads", Unit: "count", Better: "lower"},
	{Name: "pvfs.client_read_bytes", Unit: "bytes", Better: "lower"},
	{Name: "pvfs.client_read_busy_s", Unit: "s", Better: "lower"},
	{Name: "pvfs.client_self_s", Unit: "s", Better: "lower"},
	{Name: "pvfs.verify_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "ceft.client_reads", Unit: "count", Better: "lower"},
	{Name: "ceft.client_read_bytes", Unit: "bytes", Better: "lower"},
	{Name: "ceft.client_read_busy_s", Unit: "s", Better: "lower"},
	{Name: "ceft.client_writes", Unit: "count", Better: "lower"},
	{Name: "ceft.client_write_bytes", Unit: "bytes", Better: "lower"},
	{Name: "ceft.client_write_busy_s", Unit: "s", Better: "lower"},
	{Name: "ceft.client_self_s", Unit: "s", Better: "lower"},
	{Name: "ceft.mirror_share", Unit: "ratio", Better: "higher"},
	{Name: "ceft.reroutes", Unit: "count", Better: "lower"},
	{Name: "ceft.failovers", Unit: "count", Better: "lower"},
	{Name: "ceft.degraded_writes", Unit: "count", Better: "lower"},
	{Name: "ceft.stream_mbases_per_s", Unit: "Mbases/s", Better: "higher"},
	{Name: "ceft.ingest_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "rpcpool.rpcs", Unit: "count", Better: "lower"},
	{Name: "rpcpool.rpcs_per_mb", Unit: "1/MB", Better: "lower"},
	{Name: "rpcpool.rpc_busy_s", Unit: "s", Better: "lower"},
	{Name: "rpcpool.rpc_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "rpcpool.rpc_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "rpcpool.retries", Unit: "count", Better: "lower"},
	{Name: "rpcpool.errors", Unit: "count", Better: "lower"},
	{Name: "rpcpool.batch_runs", Unit: "count", Better: "lower"},
	{Name: "rpcpool.batch_rpcs", Unit: "count", Better: "lower"},
	{Name: "rpcpool.server_spread", Unit: "ratio", Better: "lower"},

	{Name: "iod.store_ops", Unit: "count", Better: "lower"},
	{Name: "iod.store_bytes", Unit: "bytes", Better: "lower"},
	{Name: "iod.store_busy_s", Unit: "s", Better: "lower"},
	{Name: "iod.serve_self_s", Unit: "s", Better: "lower"},
	{Name: "iod.write_amplification", Unit: "ratio", Better: "lower"},

	{Name: "pblast.tasks", Unit: "count", Better: "lower"},
	{Name: "pblast.task_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "pblast.task_max_ms", Unit: "ms", Better: "lower"},
	{Name: "pblast.worker_busy_s", Unit: "s", Better: "lower"},
	{Name: "pblast.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "pblast.sched_overhead_s", Unit: "s", Better: "lower"},
	{Name: "pblast.reassigned", Unit: "count", Better: "lower"},
	{Name: "pblast.mem_wall_s", Unit: "s", Better: "lower"},
	{Name: "pblast.search_wall_p75_s", Unit: "s", Better: "lower"},

	{Name: "blastd.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "blastd.queue_wait_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "blastd.queue_depth_peak", Unit: "count", Better: "lower"},
	{Name: "blastd.cache_hits", Unit: "count", Better: "higher"},
	{Name: "blastd.cache_misses", Unit: "count", Better: "lower"},
	{Name: "blastd.singleflight_shared", Unit: "count", Better: "higher"},
	{Name: "blastd.cache_hit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "blastd.rejected", Unit: "count", Better: "lower"},
	{Name: "blastd.rpcs_per_fresh_search", Unit: "count", Better: "lower"},
	{Name: "blastd.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "blastd.fresh_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "blastd.requests_per_s", Unit: "1/s", Better: "higher"},

	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},

	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// viewLayer names the per-layer metric that carries a report view the
// contract's end-to-end list has no slot for.
var viewLayer = map[string]string{
	"search_wall_p75_s":   "pblast.search_wall_p75_s",
	"verify_mb_per_s":     "pvfs.verify_mb_per_s",
	"stream_mbases_per_s": "readahead.stream_mbases_per_s",
	"fresh_tail_ms":       "blastd.fresh_tail_ms",
	"requests_per_s":      "blastd.requests_per_s",
	"ingest_mb_per_s":     "ceft.ingest_mb_per_s",
}

// zeroLayers has every per-layer metric at 0: a traced run reports
// them all, and a layer the workload does not use did no work.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// storageFacts is what the storage layers' numbers need beside the
// spans.
type storageFacts struct {
	ops       float64 // traced operations: every total is divided by it
	backend   string  // "pvfs" or "ceft": the client under the lower shim
	cache     iotrace.CacheSnapshot
	observers []*rpcObserver
	mirrors   map[string]bool // addresses of the CEFT mirror group
	payloadMB float64         // MB an operation moves, for rpcs_per_mb
	fileBytes float64         // bytes of the files an operation writes, 0 if none
	audits    []ceft.Audit
}

// storageLayers fills in readahead, the client, rpcpool and iod.
func storageLayers(f storageFacts, ss spanSet, m map[string]float64) {
	per := func(v float64) float64 { return v / f.ops }
	count := func(spans []*span) float64 { return per(float64(len(spans))) }

	m["readahead.hits"] = per(float64(f.cache.Hits))
	m["readahead.misses"] = per(float64(f.cache.Misses))
	m["readahead.prefetch_issued"] = per(float64(f.cache.PrefetchIssued))
	m["readahead.prefetch_wasted"] = per(float64(f.cache.PrefetchWasted))
	m["readahead.borrow_hits"] = per(float64(f.cache.BorrowHits))
	m["readahead.borrow_copies"] = per(float64(f.cache.BorrowCopies))
	m["readahead.hit_ratio"] = f.cache.HitRate()
	m["readahead.zero_copy_ratio"] = f.cache.ZeroCopyRate()

	fsReads := ss.named("fs.read")
	clientReads := ss.named("client.read")
	clientWrites := ss.named("client.write")
	clientAll := ss.named("client.read", "client.write", "client.open")
	dataRPCs := ss.named("rpc")
	rpcs := ss.named("rpc", "rpc.mgr")
	storeAll := ss.named("store.read", "store.write", "store.open")

	m["readahead.wait_s"] = per(sumDur(fsReads))
	m["readahead.self_s"] = per(layerSelf(fsReads, clientAll, false))

	c := f.backend + ".client_"
	m[c+"reads"] = count(clientReads)
	m[c+"read_bytes"] = per(float64(sumBytes(clientReads)))
	m[c+"read_busy_s"] = per(busy(clientReads, false))
	m[c+"self_s"] = per(layerSelf(clientAll, rpcs, false))
	if f.backend == "ceft" {
		m[c+"writes"] = count(clientWrites)
		m[c+"write_bytes"] = per(float64(sumBytes(clientWrites)))
		m[c+"write_busy_s"] = per(busy(clientWrites, false))
		var mirror, total int64
		for _, s := range ss.named("store.read") {
			total += s.Bytes
			if f.mirrors[s.Server] {
				mirror += s.Bytes
			}
		}
		if total > 0 {
			m["ceft.mirror_share"] = float64(mirror) / float64(total)
		}
		for _, a := range f.audits {
			for _, n := range a.Reroutes {
				m["ceft.reroutes"] += per(float64(n))
			}
			m["ceft.failovers"] += per(float64(a.Failovers))
			m["ceft.degraded_writes"] += per(float64(a.DegradedWrites))
		}
	}

	m["rpcpool.rpcs"] = count(rpcs)
	if f.payloadMB > 0 {
		m["rpcpool.rpcs_per_mb"] = count(rpcs) / f.payloadMB
	}
	m["rpcpool.rpc_busy_s"] = per(busy(rpcs, false))
	lat := make([]float64, len(rpcs))
	for i, s := range rpcs {
		lat[i] = float64(s.dur()) / 1e6
	}
	lat = sortedCopy(lat)
	m["rpcpool.rpc_p50_ms"] = util.Quantile(lat, 0.5)
	m["rpcpool.rpc_p99_ms"] = util.Quantile(lat, 0.99)
	perServer := map[string]float64{}
	for _, s := range dataRPCs {
		perServer[s.Server]++
	}
	var most float64
	for _, n := range perServer {
		most = max(most, n)
	}
	if len(dataRPCs) > 0 {
		m["rpcpool.server_spread"] = most / (float64(len(dataRPCs)) / float64(len(perServer)))
	}
	for _, o := range f.observers {
		o.mu.Lock()
		m["rpcpool.retries"] += per(float64(o.retries))
		m["rpcpool.errors"] += per(float64(o.errors))
		m["rpcpool.batch_runs"] += per(float64(o.batchRuns))
		m["rpcpool.batch_rpcs"] += per(float64(o.batchRPCs))
		o.mu.Unlock()
	}

	m["iod.store_ops"] = count(storeAll)
	m["iod.store_bytes"] = per(float64(sumBytes(ss.named("store.read", "store.write"))))
	m["iod.store_busy_s"] = per(busy(storeAll, true))
	m["iod.serve_self_s"] = per(layerSelf(dataRPCs, storeAll, true))
	if f.fileBytes > 0 {
		m["iod.write_amplification"] = per(float64(sumBytes(ss.named("store.write")))) / f.fileBytes
	}
}

// pblastLayers fills in the scheduler's numbers from the outcomes of
// the traced searches, and blast.self_s from them and the upper shim.
func pblastLayers(outcomes []*pblast.Outcome, ss spanSet, m map[string]float64) {
	ops := float64(len(outcomes))
	var taskMS []float64
	var tasks, reassigned int
	var busySum, imbalance, overhead, search float64
	for _, o := range outcomes {
		worker := map[int]float64{}
		for _, ev := range o.Timeline {
			d := (ev.Copy + ev.Search).Seconds()
			worker[ev.Worker] += d
			taskMS = append(taskMS, 1000*d)
			search += ev.Search.Seconds()
		}
		tasks += len(o.Timeline)
		reassigned += o.Reassigned
		var total, most float64
		for _, b := range worker {
			total += b
			most = max(most, b)
		}
		busySum += total
		if total > 0 {
			imbalance += most / (total / float64(len(worker)))
		}
		overhead += o.WallTime.Seconds() - most
	}
	taskMS = sortedCopy(taskMS)
	m["pblast.tasks"] = float64(tasks) / ops
	m["pblast.task_p50_ms"] = util.Quantile(taskMS, 0.5)
	m["pblast.task_max_ms"] = util.Quantile(taskMS, 1)
	m["pblast.worker_busy_s"] = busySum / ops
	m["pblast.imbalance"] = imbalance / ops
	m["pblast.sched_overhead_s"] = overhead / ops
	m["pblast.reassigned"] = float64(reassigned) / ops
	m["blast.self_s"] = (search - sumDur(ss.named("fs.read"))) / ops
}

// The rungs: one layer at a time on the shared database, each the
// median of rungReps runs.
const rungReps = 3

func medianOf(n int, f func() (float64, error)) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		x, err := f()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

func mbasesPerSec(letters int64, d time.Duration) float64 {
	return float64(letters) / 1e6 / d.Seconds()
}

// rungPackedExtend is the 2-bit ungapped kernel on a sequence against
// itself: one extension that runs the whole length.
func rungPackedExtend() (float64, error) {
	const n = 1 << 20
	codes := make([]byte, n)
	for i := range codes {
		codes[i] = byte(subSeed(7, uint64(i)) & 3)
	}
	packed := seq.PackCodes(codes)
	return medianOf(rungReps, func() (float64, error) {
		t := time.Now()
		const reps = 64
		for i := 0; i < reps; i++ {
			if _, _, to, _, _ := align.PackedExtend(packed, n, packed, n, 0, 0, 11, 1, -3, 20); to != n {
				return 0, fmt.Errorf("packed extension stopped at %d of %d", to, n)
			}
		}
		return mbasesPerSec(reps*n, time.Since(t)), nil
	})
}

// loadSubjects decodes the whole database into memory, packed as the
// zero-copy scan delivers it.
func loadSubjects(db *database) ([]*seq.Sequence, error) {
	var subjects []*seq.Sequence
	err := streamFragments(readahead.Wrap(db.mem), db.alias.Fragments, func(s *seq.Sequence) {
		subjects = append(subjects, s)
	})
	return subjects, err
}

// rungBlastSearch is blast.Search on one thread over subjects already
// in memory: the single-thread baseline. It also yields the exact
// kernel counts of the query, which the merged result of a parallel
// search does not carry.
func rungBlastSearch(db *database, q *seq.Sequence) (float64, *blast.Result, error) {
	subjects, err := loadSubjects(db)
	if err != nil {
		return 0, nil, err
	}
	var res *blast.Result
	rate, err := medianOf(rungReps, func() (float64, error) {
		t := time.Now()
		r, err := blast.Search(q, &blast.SliceSource{Seqs: subjects},
			blast.DBInfo{Letters: db.alias.Letters, Sequences: db.alias.Seqs}, searchParams(1))
		if err != nil {
			return 0, err
		}
		res = r
		return mbasesPerSec(db.alias.Letters, time.Since(t)), nil
	})
	return rate, res, err
}

// streamFragments decodes every sequence of the fragments through fs.
func streamFragments(fs chio.FileSystem, frags []blastdb.FragmentInfo, each func(*seq.Sequence)) error {
	for _, fi := range frags {
		fr, err := blastdb.OpenFragment(fs, fi.Path)
		if err != nil {
			return err
		}
		src := fr.Source(0)
		var letters, seqs int64
		for {
			s, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				fr.Close()
				return fmt.Errorf("stream %s: %w", fi.Path, err)
			}
			letters += int64(s.Len())
			seqs++
			if each != nil {
				each(s)
			}
		}
		fr.Close()
		if letters != fi.Letters || seqs != fi.Seqs {
			return fmt.Errorf("stream %s: %d letters in %d sequences, alias says %d in %d",
				fi.Path, letters, seqs, fi.Letters, fi.Seqs)
		}
	}
	return nil
}

// rungStream is one reader streaming the whole database through a new
// readahead cache over fs.
func rungStream(fs chio.FileSystem, alias *blastdb.Alias) (float64, error) {
	return medianOf(rungReps, func() (float64, error) {
		t := time.Now()
		if err := streamFragments(readahead.Wrap(fs), alias.Fragments, nil); err != nil {
			return 0, err
		}
		return mbasesPerSec(alias.Letters, time.Since(t)), nil
	})
}

// rungCollio is the query-segmentation pattern: two readers stream
// the same fragments, each through its own readahead cache, over one
// shared collective layer.
func rungCollio(fs chio.FileSystem, alias *blastdb.Alias, m map[string]float64) error {
	var stats collio.Stats
	rate, err := medianOf(rungReps, func() (float64, error) {
		shared := collio.Wrap(fs, collio.WithMaxFanIn(2))
		t := time.Now()
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for r := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[r] = streamFragments(readahead.Wrap(shared), alias.Fragments, nil)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		stats = shared.Stats()
		return mbasesPerSec(2*alias.Letters, time.Since(t)), nil
	})
	if err != nil {
		return err
	}
	m["collio.stream_mbases_per_s"] = rate
	m["collio.rounds"] = float64(stats.Rounds)
	m["collio.ranges"] = float64(stats.Ranges)
	m["collio.merged_segments"] = float64(stats.MergedSegments)
	m["collio.dedup_bytes"] = float64(stats.DedupBytes)
	return nil
}

// rungMemWall is the parallel search with the parallel file system
// taken away: same workers, same readahead, database in memory.
func rungMemWall(db *database, q *seq.Sequence) (float64, error) {
	return medianOf(rungReps, func() (float64, error) {
		t := time.Now()
		_, err := core.ParallelSearch(context.Background(), q, core.SearchConfig{
			Search:   pblast.NewConfig(dbName, pblast.WithParams(searchParams(1)), pblast.WithReadahead()),
			Workers:  2,
			MasterFS: db.mem,
			WorkerFS: func(int) chio.FileSystem { return db.mem },
		})
		return time.Since(t).Seconds(), err
	})
}

// rungFormatMem is FormatDatabase with nothing below it but memory.
func rungFormatMem(text []byte) (float64, error) {
	return medianOf(rungReps, func() (float64, error) {
		t := time.Now()
		_, err := core.FormatDatabase(batchFS{chio.NewMemFS()}, "rung", seq.Nucleotide, fragments, bytes.NewReader(text))
		return float64(len(text)) / 1e6 / time.Since(t).Seconds(), err
	})
}

// rungFastaParse is the FASTA reader alone.
func rungFastaParse(text []byte) (float64, error) {
	return medianOf(rungReps, func() (float64, error) {
		t := time.Now()
		r := seq.NewFastaReader(bytes.NewReader(text), seq.Nucleotide)
		for {
			if _, err := r.Read(); err == io.EOF {
				break
			} else if err != nil {
				return 0, err
			}
		}
		return float64(len(text)) / 1e6 / time.Since(t).Seconds(), nil
	})
}
