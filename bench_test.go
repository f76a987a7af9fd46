// Benchmark harness regenerating every table and figure of the
// paper's evaluation section. Simulated-time figures (5, 6, 7, 9 and
// the §4.4/§4.5 ablations) run the calibrated discrete-event model
// and report modelled execution seconds as custom metrics; Figure 4
// and the micro-benchmarks exercise the real implementation. Run:
//
//	go test -bench=. -benchmem
//
// The sim benches default to a 1/20-scale database so the whole suite
// finishes quickly; ratios (speedups, degradation factors, crossover
// points) are scale-invariant in the model. Set -benchtime=1x to run
// each configuration exactly once.
package pario

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"pario/internal/align"
	"pario/internal/blast"
	"pario/internal/blastdb"
	"pario/internal/ceft"
	"pario/internal/chio"
	"pario/internal/collio"
	"pario/internal/core"
	"pario/internal/iotrace"
	"pario/internal/mpi"
	"pario/internal/pblast"
	"pario/internal/readahead"
	"pario/internal/rpcpool"
	"pario/internal/seq"
	"pario/internal/sim"
	"pario/internal/telemetry"
	"pario/internal/util"
)

const simScale = 0.05

func simParams() sim.Params { return sim.DefaultParams().Scaled(simScale) }

// BenchmarkFig4TracePattern reproduces the Figure 4 trace on a real
// 8-worker run and reports the access-pattern statistics.
func BenchmarkFig4TracePattern(b *testing.B) {
	fs := chio.NewMemFS()
	if _, err := core.GenerateDatabase(fs, "nt", 24<<20, 8, 42); err != nil {
		b.Fatal(err)
	}
	query, err := core.ExtractQuery(fs, "nt", 568, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var stats iotrace.Stats
	for i := 0; i < b.N; i++ {
		trace := iotrace.NewTrace()
		_, err := core.ParallelSearch(context.Background(), query, core.SearchConfig{
			Search:   pblast.NewConfig("nt", pblast.WithParams(blast.Params{Program: blast.BlastN})),
			Workers:  8,
			MasterFS: fs,
			WorkerFS: func(int) chio.FileSystem { return fs },
			Trace:    trace,
		})
		if err != nil {
			b.Fatal(err)
		}
		stats = trace.Summarize()
	}
	b.ReportMetric(100*stats.ReadFraction, "read-%")
	b.ReportMetric(float64(stats.TotalOps), "io-ops")
	b.ReportMetric(stats.ReadBytes.Mean, "mean-read-bytes")
	b.ReportMetric(stats.WriteBytes.Mean, "mean-write-bytes")
}

// BenchmarkFig5EqualNodes regenerates Figure 5: original vs
// -over-PVFS with nodes doubling as workers and data servers.
func BenchmarkFig5EqualNodes(b *testing.B) {
	p := simParams()
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("original/nodes=%d", n), func(b *testing.B) {
			var r sim.Result
			for i := 0; i < b.N; i++ {
				r = sim.Run(p, sim.RunConfig{Scheme: sim.Original, Workers: n, StressNode: -1})
			}
			reportRun(b, r)
		})
		b.Run(fmt.Sprintf("overPVFS/nodes=%d", n), func(b *testing.B) {
			var r sim.Result
			for i := 0; i < b.N; i++ {
				r = sim.Run(p, sim.RunConfig{Scheme: sim.PVFS, Workers: n, Servers: n, StressNode: -1})
			}
			reportRun(b, r)
		})
	}
}

// BenchmarkFig6ServerSweep regenerates Figure 6: -over-PVFS across
// data-server counts for each worker group size.
func BenchmarkFig6ServerSweep(b *testing.B) {
	p := simParams()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("original/workers=%d", w), func(b *testing.B) {
			var r sim.Result
			for i := 0; i < b.N; i++ {
				r = sim.Run(p, sim.RunConfig{Scheme: sim.Original, Workers: w, StressNode: -1})
			}
			reportRun(b, r)
		})
		for _, s := range []int{1, 2, 4, 6, 8, 12, 16} {
			b.Run(fmt.Sprintf("overPVFS/workers=%d/servers=%d", w, s), func(b *testing.B) {
				var r sim.Result
				for i := 0; i < b.N; i++ {
					r = sim.Run(p, sim.RunConfig{Scheme: sim.PVFS, Workers: w, Servers: s, StressNode: -1})
				}
				reportRun(b, r)
			})
		}
	}
}

// BenchmarkFig7CEFTvsPVFS regenerates Figure 7: PVFS with 8 servers
// vs CEFT-PVFS with 4 mirroring 4.
func BenchmarkFig7CEFTvsPVFS(b *testing.B) {
	p := simParams()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("overPVFS8/workers=%d", w), func(b *testing.B) {
			var r sim.Result
			for i := 0; i < b.N; i++ {
				r = sim.Run(p, sim.RunConfig{Scheme: sim.PVFS, Workers: w, Servers: 8, StressNode: -1})
			}
			reportRun(b, r)
		})
		b.Run(fmt.Sprintf("overCEFT4+4/workers=%d", w), func(b *testing.B) {
			var r sim.Result
			for i := 0; i < b.N; i++ {
				r = sim.Run(p, sim.RunConfig{Scheme: sim.CEFT, Workers: w, Servers: 8,
					StressNode: -1, DoubledReads: true, SkipHotSpots: true})
			}
			reportRun(b, r)
		})
	}
}

// BenchmarkFig9HotSpot regenerates Figure 9: per-scheme execution
// time without and with one stressed data-server disk, reporting the
// degradation factor (paper: original ~10x, PVFS ~21x, CEFT ~2x).
func BenchmarkFig9HotSpot(b *testing.B) {
	p := simParams()
	for _, scheme := range []sim.Scheme{sim.Original, sim.PVFS, sim.CEFT} {
		b.Run(scheme.String(), func(b *testing.B) {
			var clean, stressed sim.Result
			for i := 0; i < b.N; i++ {
				cfg := sim.RunConfig{Scheme: scheme, Workers: 8, Servers: 8,
					StressNode: -1, DoubledReads: true, SkipHotSpots: true}
				clean = sim.Run(p, cfg)
				cfg.StressNode = 0
				stressed = sim.Run(p, cfg)
			}
			b.ReportMetric(clean.ExecTime/simScale, "clean-exec-s")
			b.ReportMetric(stressed.ExecTime/simScale, "stressed-exec-s")
			b.ReportMetric(stressed.ExecTime/clean.ExecTime, "degradation-x")
		})
	}
}

// BenchmarkAblationDoubling isolates §4.4: CEFT read time with and
// without doubled read parallelism, one worker so the effect is pure.
func BenchmarkAblationDoubling(b *testing.B) {
	p := simParams()
	for _, doubled := range []bool{true, false} {
		b.Run(fmt.Sprintf("doubled=%v", doubled), func(b *testing.B) {
			var r sim.Result
			for i := 0; i < b.N; i++ {
				r = sim.Run(p, sim.RunConfig{Scheme: sim.CEFT, Workers: 1, Servers: 8,
					StressNode: -1, DoubledReads: doubled})
			}
			reportRun(b, r)
		})
	}
}

// BenchmarkAblationSkip isolates §4.5: CEFT under a stressed disk
// with skipping on and off.
func BenchmarkAblationSkip(b *testing.B) {
	p := simParams()
	for _, skip := range []bool{true, false} {
		b.Run(fmt.Sprintf("skip=%v", skip), func(b *testing.B) {
			var r sim.Result
			for i := 0; i < b.N; i++ {
				r = sim.Run(p, sim.RunConfig{Scheme: sim.CEFT, Workers: 8, Servers: 8,
					StressNode: 0, DoubledReads: true, SkipHotSpots: skip})
			}
			reportRun(b, r)
		})
	}
}

func reportRun(b *testing.B, r sim.Result) {
	b.ReportMetric(r.ExecTime/simScale, "exec-s")
	b.ReportMetric(r.IOTime/simScale, "io-s")
	b.ReportMetric(100*r.IOFraction, "io-%")
}

// --- Real-implementation micro-benchmarks -------------------------

// BenchmarkBlastnScan measures the BLAST engine's database scan rate.
func BenchmarkBlastnScan(b *testing.B) {
	rng := util.NewRNG(3)
	subject := make([]byte, 1<<20)
	for i := range subject {
		subject[i] = seq.NucLetter[rng.Intn(4)]
	}
	db := []*seq.Sequence{{ID: "s", Kind: seq.Nucleotide, Data: subject}}
	qdata := make([]byte, 568)
	for i := range qdata {
		qdata[i] = seq.NucLetter[rng.Intn(4)]
	}
	query := &seq.Sequence{ID: "q", Kind: seq.Nucleotide, Data: qdata}
	b.SetBytes(int64(len(subject)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blast.Search(query, &blast.SliceSource{Seqs: db}, blast.DBInfo{}, blast.Params{Program: blast.BlastN}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchParallel measures the multicore subject pipeline:
// the same database scan as BenchmarkBlastnScan, but split across 64
// subjects and run at increasing shard counts. On a multicore host
// the bytes/sec figure should scale with the thread count until the
// decode stage saturates; on a single-core host all counts tie.
func BenchmarkSearchParallel(b *testing.B) {
	rng := util.NewRNG(3)
	const nSubjects, subjLen = 64, 256 << 10
	db := make([]*seq.Sequence, nSubjects)
	for s := range db {
		data := make([]byte, subjLen)
		for i := range data {
			data[i] = seq.NucLetter[rng.Intn(4)]
		}
		db[s] = &seq.Sequence{ID: fmt.Sprintf("s%02d", s), Kind: seq.Nucleotide, Data: data}
	}
	qdata := make([]byte, 568)
	for i := range qdata {
		qdata[i] = seq.NucLetter[rng.Intn(4)]
	}
	query := &seq.Sequence{ID: "q", Kind: seq.Nucleotide, Data: qdata}
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			b.SetBytes(nSubjects * subjLen)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := blast.Search(query, &blast.SliceSource{Seqs: db}, blast.DBInfo{},
					blast.Params{Program: blast.BlastN, Threads: threads}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSmithWaterman measures the full-DP aligner in cell updates.
func BenchmarkSmithWaterman(b *testing.B) {
	rng := util.NewRNG(4)
	s := align.DefaultNucleotide()
	x := make([]byte, 512)
	y := make([]byte, 512)
	for i := range x {
		x[i] = byte(rng.Intn(4))
		y[i] = byte(rng.Intn(4))
	}
	b.SetBytes(512 * 512) // cells per op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		align.SmithWaterman(x, y, s)
	}
}

// BenchmarkPVFSRead measures striped read bandwidth through a real
// 4-server PVFS deployment on localhost.
func BenchmarkPVFSRead(b *testing.B) {
	dep, err := core.StartPVFS(4, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	cl, err := dep.Client()
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	payload := make([]byte, 8<<20)
	if err := chio.WriteFull(cl, "bench", payload); err != nil {
		b.Fatal(err)
	}
	f, err := cl.Open("bench")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, len(payload))
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
			b.Fatal(err)
		}
	}
}

// BenchmarkCEFTRead measures the doubled-parallelism read path of a
// real 2+2 CEFT deployment.
func BenchmarkCEFTRead(b *testing.B) {
	dep, err := core.StartCEFT(2, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	cl, err := dep.Client(ceft.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	payload := make([]byte, 8<<20)
	if err := chio.WriteFull(cl, "bench", payload); err != nil {
		b.Fatal(err)
	}
	f, err := cl.Open("bench")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, len(payload))
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
			b.Fatal(err)
		}
	}
}

// BenchmarkCEFTWrite measures RAID-10 duplicated write bandwidth.
func BenchmarkCEFTWrite(b *testing.B) {
	dep, err := core.StartCEFT(2, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	cl, err := dep.Client(ceft.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	payload := make([]byte, 4<<20)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := chio.WriteFull(cl, "bench", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFragmentStream measures sequential fragment-scan
// throughput on both decode paths: path=copy is the classic chunked
// scan (bulk reads + per-payload copy + 2-bit unpack), path=zerocopy
// streams through a warmed readahead cache whose blocks the decoder
// borrows directly (subjects stay packed). The zero-copy run reports
// borrowed/op and copied/op from the borrow-path counters — the same
// numbers `-rpc-stats` prints — so the record shows the hit path
// serves payloads without additional copies (copied/op counts only
// block-boundary straddlers, a property of the layout, not the scan).
func BenchmarkFragmentStream(b *testing.B) {
	for _, zerocopy := range []bool{false, true} {
		name := "copy"
		if zerocopy {
			name = "zerocopy"
		}
		b.Run("path="+name, func(b *testing.B) {
			mem := chio.NewMemFS()
			if _, err := core.GenerateDatabase(mem, "nt", 4<<20, 1, 5); err != nil {
				b.Fatal(err)
			}
			stats := &iotrace.CacheStats{}
			var fs chio.FileSystem = mem
			if zerocopy {
				fs = readahead.Wrap(mem, readahead.WithBlockSize(1<<20),
					readahead.WithWindow(2), readahead.WithStats(stats))
			}
			scan := func() {
				fr, err := blastdb.OpenFragment(fs, blastdb.FragmentPath("nt", 0))
				if err != nil {
					b.Fatal(err)
				}
				src := fr.Source(0)
				for {
					if _, err := src.Next(); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
				fr.Close()
			}
			// Warm the block cache so the measured ops run the hit path.
			scan()
			before := stats.Snapshot()
			b.SetBytes(4 << 20)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scan()
			}
			b.StopTimer()
			if zerocopy {
				s := stats.Snapshot()
				if s.BorrowHits == before.BorrowHits {
					b.Fatal("zero-copy scan borrowed no views")
				}
				b.ReportMetric(float64(s.BorrowHits-before.BorrowHits)/float64(b.N), "borrowed/op")
				b.ReportMetric(float64(s.BorrowCopies-before.BorrowCopies)/float64(b.N), "copied/op")
			}
		})
	}
}

// BenchmarkParallelSearchWorkers measures end-to-end parallel search
// wall time as worker count grows (real implementation, shared
// in-memory store).
func BenchmarkParallelSearchWorkers(b *testing.B) {
	fs := chio.NewMemFS()
	if _, err := core.GenerateDatabase(fs, "nt", 16<<20, 8, 42); err != nil {
		b.Fatal(err)
	}
	query, err := core.ExtractQuery(fs, "nt", 568, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ParallelSearch(context.Background(), query, core.SearchConfig{
					Search:   pblast.NewConfig("nt", pblast.WithParams(blast.Params{Program: blast.BlastN})),
					Workers:  w,
					MasterFS: fs,
					WorkerFS: func(int) chio.FileSystem { return fs },
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMPIRoundTrip measures the message substrate's round-trip
// latency over the in-process transport (the master/worker control
// path of the parallel BLAST).
func BenchmarkMPIRoundTrip(b *testing.B) {
	world, err := mpi.NewWorld(2)
	if err != nil {
		b.Fatal(err)
	}
	defer world.Close()
	c0, c1 := world.Comm(0), world.Comm(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := c1.Recv(context.Background(), 0, mpi.AnyTag)
			if err != nil {
				return
			}
			if m.Tag == 0 {
				return
			}
			if err := c1.Send(0, 2, m.Data); err != nil {
				return
			}
		}
	}()
	payload := []byte("ping")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c0.Send(1, 1, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := c0.Recv(context.Background(), 1, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c0.Send(1, 0, nil)
	<-done
}

// BenchmarkMegablastVsBlastn compares the greedy megablast path to the
// classic X-drop DP path on a near-identical planted match — the
// workload megablast was designed for.
func BenchmarkMegablastVsBlastn(b *testing.B) {
	rng := util.NewRNG(8)
	qdata := make([]byte, 2000)
	for i := range qdata {
		qdata[i] = seq.NucLetter[rng.Intn(4)]
	}
	query := &seq.Sequence{ID: "q", Kind: seq.Nucleotide, Data: qdata}
	subject := make([]byte, 1<<20)
	for i := range subject {
		subject[i] = seq.NucLetter[rng.Intn(4)]
	}
	copy(subject[500_000:], qdata) // identical planted copy
	db := []*seq.Sequence{{ID: "s", Kind: seq.Nucleotide, Data: subject}}
	for _, mega := range []bool{false, true} {
		name := "blastn"
		if mega {
			name = "megablast"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(subject)))
			for i := 0; i < b.N; i++ {
				res, err := blast.Search(query, &blast.SliceSource{Seqs: db}, blast.DBInfo{},
					blast.Params{Program: blast.BlastN, Greedy: mega})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Hits) == 0 {
					b.Fatal("planted match missed")
				}
			}
		})
	}
}

// BenchmarkReadAtCoalesced measures a strided ReadAt (many stripe runs
// per server, carried by one list RPC each), reporting data-server
// rpcs/op alongside allocs/op.
func BenchmarkReadAtCoalesced(b *testing.B) {
	dep, err := core.StartPVFS(4, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	m := rpcpool.NewMetrics(telemetry.NewRegistry())
	cl, err := dep.Client(rpcpool.WithMetrics(m))
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	payload := make([]byte, 4<<20) // 64 stripes: 16 runs per server
	if err := chio.WriteFull(cl, "bench", payload); err != nil {
		b.Fatal(err)
	}
	f, err := cl.Open("bench")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, len(payload))
	dataRPCs := func() int64 {
		var n int64
		for _, s := range m.Snapshot() {
			if s.Server != dep.Mgr.Addr() {
				n += s.Calls
			}
		}
		return n
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	before := dataRPCs()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(dataRPCs()-before)/float64(b.N), "rpcs/op")
}

// BenchmarkSequentialScanReadahead measures a sequential scan in
// 16 KB application reads with and without the readahead/block-cache
// layer, reporting data-server rpcs/op (one op = one full 4 MB scan).
func BenchmarkSequentialScanReadahead(b *testing.B) {
	for _, ra := range []bool{false, true} {
		name := "off"
		if ra {
			name = "on"
		}
		b.Run("readahead="+name, func(b *testing.B) {
			dep, err := core.StartPVFS(4, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer dep.Close()
			m := rpcpool.NewMetrics(telemetry.NewRegistry())
			cl, err := dep.Client(rpcpool.WithMetrics(m))
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			payload := make([]byte, 4<<20)
			if err := chio.WriteFull(cl, "bench", payload); err != nil {
				b.Fatal(err)
			}
			dataRPCs := func() int64 {
				var n int64
				for _, s := range m.Snapshot() {
					if s.Server != dep.Mgr.Addr() {
						n += s.Calls
					}
				}
				return n
			}
			buf := make([]byte, 16<<10)
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			before := dataRPCs()
			for i := 0; i < b.N; i++ {
				// A fresh wrap per op keeps every scan cold: rpcs/op
				// measures the layer's fetch plan, not cache carryover.
				var fs chio.FileSystem = cl
				if ra {
					fs = readahead.Wrap(cl, readahead.WithBlockSize(1<<20), readahead.WithWindow(2))
				}
				f, err := fs.Open("bench")
				if err != nil {
					b.Fatal(err)
				}
				var off int64
				for off < int64(len(payload)) {
					n, err := f.ReadAt(buf, off)
					if err != nil && err != io.EOF {
						b.Fatal(err)
					}
					off += int64(n)
				}
				f.Close()
			}
			b.StopTimer()
			b.ReportMetric(float64(dataRPCs()-before)/float64(b.N), "rpcs/op")
		})
	}
}

// BenchmarkCollectiveScan measures the multi-worker interleaved scan
// that the collective layer exists for: 8 workers in lockstep each
// read their 8 KB slice of every 64 KB stripe of a 4 MB file (one op
// = one full scan by all workers). collio=off is the independent
// baseline where every worker's read is its own server RPC; collio=on
// routes all workers through one shared aggregator so each lockstep
// round costs a single merged list RPC.
func BenchmarkCollectiveScan(b *testing.B) {
	const (
		workers  = 8
		slice    = 8 << 10
		block    = workers * slice
		fileSize = 4 << 20
		rounds   = fileSize / block
	)
	for _, coll := range []bool{false, true} {
		name := "off"
		if coll {
			name = "on"
		}
		b.Run("collio="+name, func(b *testing.B) {
			dep, err := core.StartPVFS(4, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer dep.Close()
			m := rpcpool.NewMetrics(telemetry.NewRegistry())
			cl, err := dep.Client(rpcpool.WithMetrics(m))
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			payload := make([]byte, fileSize)
			if err := chio.WriteFull(cl, "bench", payload); err != nil {
				b.Fatal(err)
			}
			var fs chio.FileSystem = cl
			if coll {
				fs = collio.Wrap(cl,
					collio.WithWindow(200*time.Millisecond),
					collio.WithMaxFanIn(workers))
			}
			files := make([]chio.File, workers)
			for w := range files {
				f, err := fs.Open("bench")
				if err != nil {
					b.Fatal(err)
				}
				defer f.Close()
				files[w] = f
			}
			bufs := make([][]byte, workers)
			for w := range bufs {
				bufs[w] = make([]byte, slice)
			}
			dataRPCs := func() int64 {
				var n int64
				for _, s := range m.Snapshot() {
					if s.Server != dep.Mgr.Addr() {
						n += s.Calls
					}
				}
				return n
			}
			b.SetBytes(fileSize)
			b.ReportAllocs()
			b.ResetTimer()
			before := dataRPCs()
			for i := 0; i < b.N; i++ {
				for round := 0; round < rounds; round++ {
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							off := int64(round*block + w*slice)
							if _, err := files[w].ReadAt(bufs[w], off); err != nil && err != io.EOF {
								b.Error(err)
							}
						}(w)
					}
					wg.Wait()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(dataRPCs()-before)/float64(b.N), "rpcs/op")
		})
	}
}
