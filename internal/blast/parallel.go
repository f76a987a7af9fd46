package blast

import (
	"io"
	"sync"
	"time"

	"pario/internal/seq"
)

// The parallel subject pipeline: a decode stage pulls subjects off
// the SubjectSource (the only goroutine touching the stream, so
// chio/readahead I/O overlaps compute), N shard searchers run the
// seeded search, and an ordered merge reassembles results in stream
// order. Every subject is searched independently against the
// immutable engine, each shard keeps private SearchStats and diagonal
// pools, and the merge emits subjects strictly by sequence number —
// so the outcome is bit-identical to the sequential loop at any
// thread count.

// pipelineDepth is the per-shard bound on in-flight subjects in each
// of the two queues; it limits memory while keeping shards fed across
// I/O latency spikes.
const pipelineDepth = 8

// subjectJob is one decoded subject tagged with its stream position.
type subjectJob struct {
	seq  int64
	subj *seq.Sequence
}

// subjectDone is one searched subject awaiting the ordered merge.
type subjectDone struct {
	seq  int64
	subj *seq.Sequence
	hsps []rawHSP
}

// runPipeline searches the subject stream with the given number of
// shards and returns the raw hits in stream order plus the database
// totals, exactly as the sequential loop would have produced them.
func (eng *engine) runPipeline(subjects SubjectSource, threads int, m *PipeMetrics) (raw []rawHit, dbLetters, dbSeqs int64, err error) {
	jobs := make(chan subjectJob, threads*pipelineDepth)
	results := make(chan subjectDone, threads*pipelineDepth)

	// Decode stage: the sole reader of the subject stream. On error it
	// stops feeding and the error surfaces after the queues drain.
	var decodeErr error
	go func() {
		defer close(jobs)
		var seqno int64
		for {
			subj, err := subjects.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				decodeErr = err
				return
			}
			if m != nil {
				t := time.Now()
				jobs <- subjectJob{seq: seqno, subj: subj}
				m.observeDecodeStall(time.Since(t))
			} else {
				jobs <- subjectJob{seq: seqno, subj: subj}
			}
			seqno++
		}
	}()

	// Search shards: each owns one searcher over the shared immutable
	// engine; per-shard stats are folded together once it drains.
	var (
		wg       sync.WaitGroup
		statsMu  sync.Mutex
		sumStats SearchStats
	)
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sr := newSearcher(eng)
			var busy, idle time.Duration
			var lastBases, lastExts int64
			for {
				t0 := time.Now()
				job, ok := <-jobs
				if !ok {
					break
				}
				t1 := time.Now()
				hsps := sr.searchSubject(job.subj)
				t2 := time.Now()
				idle += t1.Sub(t0)
				busy += t2.Sub(t1)
				m.observeKernel(sr.stats.ScannedBases-lastBases, sr.stats.PackedExts-lastExts)
				lastBases, lastExts = sr.stats.ScannedBases, sr.stats.PackedExts
				results <- subjectDone{seq: job.seq, subj: job.subj, hsps: hsps}
			}
			statsMu.Lock()
			sumStats.AddCounts(sr.stats)
			statsMu.Unlock()
			m.observeShard(busy, idle)
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Ordered merge: buffer out-of-order arrivals, emit strictly by
	// sequence number so hit order and culling match the sequential
	// engine's.
	pending := make(map[int64]subjectDone)
	var next int64
	for done := range results {
		pending[done.seq] = done
		m.observeMergeDepth(len(pending))
		for {
			d, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			dbLetters += int64(d.subj.Len())
			dbSeqs++
			if len(d.hsps) > 0 {
				raw = append(raw, rawHit{subject: d.subj, hsps: d.hsps})
			}
		}
	}
	if decodeErr != nil {
		return nil, 0, 0, decodeErr
	}
	eng.stats.AddCounts(sumStats)
	return raw, dbLetters, dbSeqs, nil
}
