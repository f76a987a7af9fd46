package blast

import (
	"fmt"
	"io"
	"math"
	"sort"

	"pario/internal/align"
	"pario/internal/seq"
)

// HSP is a high-scoring segment pair: one local alignment between the
// query and a subject. Coordinates are 0-based half-open offsets into
// the sequences' forward strands.
type HSP struct {
	Score    int
	BitScore float64
	EValue   float64

	QueryFrom, QueryTo     int
	SubjectFrom, SubjectTo int

	// QueryFrame is the query strand that aligned: +1 forward, -1 the
	// reverse complement. SubjectFrame is always +1: subjects are
	// scanned forward only.
	QueryFrame   seq.Frame
	SubjectFrame seq.Frame

	// Alignment is the traceback over the aligned strands' base codes;
	// coordinates inside it are in strand space (the reverse
	// complement's for QueryFrame -1), not forward-strand space.
	Alignment *align.Alignment

	Identities int
	AlignLen   int
	Gaps       int
}

// Hit groups the HSPs found in one subject sequence, best first.
type Hit struct {
	SubjectID   string
	SubjectDesc string
	SubjectLen  int
	HSPs        []HSP
}

// BestEValue returns the e-value of the hit's best HSP.
func (h *Hit) BestEValue() float64 {
	if len(h.HSPs) == 0 {
		return math.Inf(1)
	}
	return h.HSPs[0].EValue
}

// SearchStats summarizes the work a search performed.
type SearchStats struct {
	DBSequences   int64
	DBLetters     int64
	SeedHits      int64
	UngappedExts  int64
	GappedExts    int64
	ReportedHSPs  int64
	EffSearchLen  int64
	Lambda, K, H  float64
	LengthAdjust  int
	RawScoreCut   int
	GapTriggerRaw int
	// MaskedLetters counts query letters hidden from seeding by the
	// low-complexity filter, summed over both strands.
	MaskedLetters int64
	// ScannedBases counts subject letters streamed through the seeding
	// kernel (the one word table holds both strands, so a subject
	// counts once), the numerator of the search-side bases/sec rate.
	ScannedBases int64
	// PackedExts counts ungapped extensions served by the 2-bit packed
	// kernel. It serves every one, so it equals UngappedExts; the
	// counter stays because the benchmark reports it.
	PackedExts int64
}

// Result is the outcome of searching one query against a database.
type Result struct {
	Program  Program
	QueryID  string
	QueryLen int
	Hits     []Hit
	Stats    SearchStats
}

// SubjectSource streams database sequences; Next returns io.EOF after
// the last one.
type SubjectSource interface {
	Next() (*seq.Sequence, error)
}

// SliceSource adapts an in-memory sequence slice to SubjectSource.
type SliceSource struct {
	Seqs []*seq.Sequence
	i    int
}

// Next returns the next sequence or io.EOF.
func (s *SliceSource) Next() (*seq.Sequence, error) {
	if s.i >= len(s.Seqs) {
		return nil, io.EOF
	}
	sq := s.Seqs[s.i]
	s.i++
	return sq, nil
}

// ChainSource streams each of Sources to its end in turn: a database's
// fragments as one subject stream.
type ChainSource struct {
	Sources []SubjectSource
	i       int
}

// Next returns the next sequence of the current source, moving on to
// the following source at each io.EOF, and io.EOF after the last.
func (c *ChainSource) Next() (*seq.Sequence, error) {
	for c.i < len(c.Sources) {
		s, err := c.Sources[c.i].Next()
		if err == io.EOF {
			c.i++
			continue
		}
		return s, err
	}
	return nil, io.EOF
}

// Merge combines the results of searching query under p against the
// disjoint parts of one database — a database segmentation's
// fragments, in alias order, each searched with the whole database's
// DBInfo — into the Result a single Search over all the parts in turn
// returns. Each subject lives in exactly one part, so hits are
// concatenated and ranked, never matched or deduplicated.
func Merge(query *seq.Sequence, parts []*Result, p Params) *Result {
	res := &Result{QueryID: query.ID, QueryLen: query.Len()}
	for i, r := range parts {
		if i == 0 {
			// The query-wide fields (Karlin parameters, cutoffs, masking)
			// are the same in every part.
			res.Program, res.Stats = r.Program, r.Stats
		} else {
			res.Stats.AddCounts(r.Stats)
			res.Stats.DBSequences += r.Stats.DBSequences
			res.Stats.DBLetters += r.Stats.DBLetters
			res.Stats.ReportedHSPs += r.Stats.ReportedHSPs
		}
		res.Hits = append(res.Hits, r.Hits...)
	}
	res.Hits = rankHits(res.Hits, p.MaxTargetSeqs)
	return res
}

// rankHits puts hits in report order — best E-value first, then by
// subject ID, ties keeping stream order — and keeps the first
// maxTargets (all when maxTargets is 0).
func rankHits(hits []Hit, maxTargets int) []Hit {
	sort.SliceStable(hits, func(i, j int) bool {
		ei, ej := hits[i].BestEValue(), hits[j].BestEValue()
		if ei != ej {
			return ei < ej
		}
		return hits[i].SubjectID < hits[j].SubjectID
	})
	if maxTargets > 0 && len(hits) > maxTargets {
		hits = hits[:maxTargets]
	}
	return hits
}

// DBInfo carries the database-wide totals needed for statistics. If
// the caller leaves it zero, Search falls back to per-stream counting
// (two-pass semantics are avoided by computing e-values at the end).
type DBInfo struct {
	Letters   int64
	Sequences int64
}

// Search runs a BLAST search of query against the subjects under p.
// DBInfo supplies database-wide totals for e-value statistics; when
// zero they are accumulated from the stream itself. With p.Threads >
// 1 the subject stream is searched by a parallel pipeline whose
// results are bit-identical to the sequential engine's.
func Search(query *seq.Sequence, subjects SubjectSource, info DBInfo, p Params) (*Result, error) {
	return SearchWithMetrics(query, subjects, info, p, nil)
}

// SearchWithMetrics is Search with a pipeline telemetry sink: when m
// is non-nil, the search's kernel counters are folded into it once it
// has scanned every subject, and with p.Threads > 1 shard busy/idle
// time, decode stalls and merge-queue depth are published so a live
// scrape shows whether the search is compute- or I/O-bound.
func SearchWithMetrics(query *seq.Sequence, subjects SubjectSource, info DBInfo, p Params, m *PipeMetrics) (*Result, error) {
	p = p.Defaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	eng, err := newEngine(query, p)
	if err != nil {
		return nil, err
	}
	res := &Result{Program: p.Program, QueryID: query.ID, QueryLen: query.Len()}

	var raw []rawHit
	var dbLetters, dbSeqs int64
	if threads := p.threadCount(); threads > 1 {
		raw, dbLetters, dbSeqs, err = eng.runPipeline(subjects, threads, m)
		if err != nil {
			return nil, err
		}
	} else {
		sr := newSearcher(eng)
		for {
			subj, err := subjects.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			dbLetters += int64(subj.Len())
			dbSeqs++
			hsps := sr.searchSubject(subj)
			if len(hsps) > 0 {
				raw = append(raw, rawHit{subject: subj, hsps: hsps})
			}
		}
		eng.stats.AddCounts(sr.stats)
	}
	m.observeKernel(eng.stats.ScannedBases, eng.stats.PackedExts)
	if info.Letters == 0 {
		info.Letters = dbLetters
	}
	if info.Sequences == 0 {
		info.Sequences = dbSeqs
	}
	res.Stats = eng.stats
	res.Stats.DBLetters = dbLetters
	res.Stats.DBSequences = dbSeqs
	eng.finalize(res, raw, info)
	return res, nil
}

// AddCounts folds another stats block's per-subject work counters in.
// Only the counters the search loop accumulates move; the query-wide
// fields (Karlin parameters, masking, cutoffs) stay put.
func (s *SearchStats) AddCounts(o SearchStats) {
	s.SeedHits += o.SeedHits
	s.UngappedExts += o.UngappedExts
	s.GappedExts += o.GappedExts
	s.ScannedBases += o.ScannedBases
	s.PackedExts += o.PackedExts
}

type rawHit struct {
	subject *seq.Sequence
	hsps    []rawHSP
}

// rawHSP is an HSP before statistics: strand-space coordinates.
type rawHSP struct {
	score                  int
	qFrom, qTo, sFrom, sTo int // strand space
	qFrame                 seq.Frame
}

// engine holds per-query immutable search state.
type engine struct {
	p     Params
	stats SearchStats

	// views are the query's strands: forward, then the reverse
	// complement.
	views []queryView
	// table indexes every view's words, each tagged with its view; nil
	// when the query is shorter than a word. Every subject is scanned
	// through it once, 2-bit packed.
	table *nucLookup
}

// greedyScheme is megablast's scoring, equivalent to nucScheme's
// match/mismatch; greedyScale divides its scores into nucScheme's
// units.
var (
	greedyScheme = align.NewGreedyScheme(nucMatch, nucMismatch)
	greedyScale  = greedyScheme.Match / nucMatch
)

// queryView is one strand of the query.
type queryView struct {
	frame  seq.Frame
	codes  []byte
	packed []byte // codes, 2-bit packed
}

func newEngine(query *seq.Sequence, p Params) (*engine, error) {
	eng := &engine{p: p}
	eng.stats.Lambda, eng.stats.K, eng.stats.H = nucKarlin.Lambda, nucKarlin.K, nucKarlin.H
	eng.stats.GapTriggerRaw = gapTriggerRaw
	if query.Len() > nucPosMask {
		return nil, fmt.Errorf("blast: blastn query of %d letters exceeds %d", query.Len(), nucPosMask)
	}

	var codes [][]byte
	var masks [][]bool
	addView := func(s *seq.Sequence, frame seq.Frame) {
		c := s.Codes()
		var masked []bool
		if p.Filter {
			ivs := DustMask(s, DefaultDust())
			masked = maskFlags(len(c), ivs)
			eng.stats.MaskedLetters += int64(TotalMasked(ivs))
		}
		eng.views = append(eng.views, queryView{frame: frame, codes: c, packed: seq.PackCodes(c)})
		codes, masks = append(codes, c), append(masks, masked)
	}
	addView(query, 1)
	addView(query.ReverseComplement(), -1)
	if query.Len() >= p.WordSize {
		eng.table = buildNucLookup(codes, p.WordSize, masks)
	}
	return eng, nil
}

// diagCell tracks per-diagonal progress: the end of the last
// extension, which suppresses redundant seeds. The epoch stamp replaces
// reallocating and zeroing the diagonal array for every subject: a cell
// whose epoch differs from the searcher's current epoch reads as zero.
type diagCell struct {
	epoch      uint32
	lastExtEnd int32 // subject offset up to which the diagonal is covered
}

// seedPos is one batched seed match awaiting extension.
type seedPos struct {
	q, s int32
}

// seedBatch is the seed arena capacity: large enough that a typical
// pair flushes once, small enough to stay cache-resident (4 KB).
const seedBatch = 512

// pairState is one query strand's side of a subject scan: its own
// region of the searcher's diagonal cells, its own seed arena and its
// own HSPs. One scan feeds every view's state, and each view sees
// exactly the seeds, in the order, that a scan of its own would give.
type pairState struct {
	qv     *queryView
	offset int       // diagonal index = spos - qpos + offset (region base + len(q))
	seeds  []seedPos // batched seeds, extended in flushSeeds; never above seedBatch
	hsps   []rawHSP  // reused across subjects
}

// searcher holds the per-shard mutable state of a search: private
// work counters, the pooled diagonal array, one pair state per query
// view, the extension workspace, and the scratch HSP buffers. The
// engine it points at is immutable after construction, so any number
// of searchers may run concurrently over it; each pipeline shard owns
// one, and their stats are folded together at finalize. All scratch is
// reused subject to subject, so steady-state searching allocates only
// the per-subject result copy.
type searcher struct {
	eng   *engine
	stats SearchStats // per-subject work counters only

	cells []diagCell // one region per query view
	epoch uint32

	// Current subject, shared by every pair state.
	s, sp []byte // dense codes (nil until needed) / 2-bit packed form
	sLen  int    // subject length in letters

	pairs    []pairState // one per query view, in view order
	subjHSPs []rawHSP    // survivors accumulated across the query views
	codesBuf []byte      // pooled subject codes (AppendCodes / lazy unpack)
	packBuf  []byte      // pooled 2-bit payload of a letter-entry subject
	cullKept []rawHSP
	cullIdx  []int32
	sorter   rawHSPSorter
	ws       align.Workspace
}

func newSearcher(eng *engine) *searcher {
	sr := &searcher{
		eng:   eng,
		pairs: make([]pairState, len(eng.views)),
	}
	for i := range sr.pairs {
		sr.pairs[i] = pairState{qv: &eng.views[i], seeds: make([]seedPos, 0, seedBatch)}
	}
	return sr
}

// searchSubject scans the subject once through the engine's word
// table and returns strand-space HSPs. After the scan the query views
// flush and cull in view order, so the HSPs come out as one scan per
// query view would leave them. The returned slice is freshly allocated
// (searcher scratch is reused on the next subject); it is the single
// steady-state allocation of a search.
func (sr *searcher) searchSubject(subj *seq.Sequence) []rawHSP {
	if subj.Len() < sr.eng.p.WordSize {
		return nil
	}
	sr.beginScan(subj)
	if t := sr.eng.table; t != nil {
		t.scan(sr.sp, sr.sLen, sr)
		sr.stats.ScannedBases += int64(sr.sLen)
	}
	sr.subjHSPs = sr.subjHSPs[:0]
	for i := range sr.pairs {
		ps := &sr.pairs[i]
		sr.flushSeeds(ps)
		if len(ps.hsps) > 0 {
			sr.subjHSPs = append(sr.subjHSPs, sr.cullPair(ps.hsps)...)
		}
	}
	if len(sr.subjHSPs) == 0 {
		return nil
	}
	out := make([]rawHSP, len(sr.subjHSPs))
	copy(out, sr.subjHSPs)
	return out
}

// beginScan resets the searcher for one subject: point the subject
// context at it — a subject that arrived 2-bit packed lends its
// payload, one that arrived as letters is coded and packed once into
// the pooled codesBuf and packBuf — lay the query views' diagonal
// regions out side by side (growing the pool if this subject needs more
// diagonals than any before), bump the diagonal epoch (lazily zeroing
// every region) and reset the HSP scratch.
func (sr *searcher) beginScan(subj *seq.Sequence) {
	sr.s, sr.sLen = nil, subj.Len()
	if sr.sp, _ = subj.Packed2Bit(); sr.sp == nil {
		sr.codesBuf = subj.AppendCodes(sr.codesBuf[:0])
		sr.packBuf = seq.AppendPackedCodes(sr.packBuf[:0], sr.codesBuf)
		sr.s, sr.sp = sr.codesBuf, sr.packBuf
	}
	n := 0
	for i := range sr.pairs {
		ps := &sr.pairs[i]
		ps.offset = n + len(ps.qv.codes)
		n = ps.offset + sr.sLen
		ps.hsps = ps.hsps[:0]
	}
	if n > len(sr.cells) {
		sr.cells = make([]diagCell, n) // fresh cells carry epoch 0: stale
	}
	sr.epoch++
	if sr.epoch == 0 { // wrapped: hard-reset so stale stamps cannot match
		for i := range sr.cells {
			sr.cells[i] = diagCell{}
		}
		sr.epoch = 1
	}
}

// subjectBytes returns the current subject's dense codes,
// materializing them from the packed payload on first demand — the
// gapped and greedy extensions need codes; packed seeding and ungapped
// extension do not. The materialized codes stay in sr.s, so every query
// view's extensions over the subject reuse them.
func (sr *searcher) subjectBytes() []byte {
	if sr.s == nil {
		sr.codesBuf = seq.AppendUnpackedCodes(sr.codesBuf[:0], sr.sp, sr.sLen)
		sr.s = sr.codesBuf
	}
	return sr.s
}

// handleSeed receives one seed match from the lookup scan and batches
// it into its query view's arena; a full arena flushes only its own
// view. Extension runs in flushSeeds, so the scan's tight word loop
// and the extension kernels each run over dense same-kind work instead
// of interleaving; each view's order is preserved, so the diagonal
// bookkeeping (and thus the output) is bit-identical to immediate
// dispatch.
func (sr *searcher) handleSeed(view, qpos, spos int) {
	ps := &sr.pairs[view]
	if len(ps.seeds) == seedBatch {
		sr.flushSeeds(ps)
	}
	ps.seeds = append(ps.seeds, seedPos{q: int32(qpos), s: int32(spos)})
}

// flushSeeds drains a view's seed arena through processSeed in
// arrival order.
func (sr *searcher) flushSeeds(ps *pairState) {
	for _, sd := range ps.seeds {
		sr.processSeed(ps, int(sd.q), int(sd.s))
	}
	ps.seeds = ps.seeds[:0]
}

// processSeed investigates one seed match: diagonal gating, then
// ungapped extension on the packed kernel and gapped extension, or
// megablast's greedy extension.
func (sr *searcher) processSeed(ps *pairState, qpos, spos int) {
	sr.stats.SeedHits++
	eng := sr.eng
	c := &sr.cells[spos-qpos+ps.offset]
	if c.epoch != sr.epoch {
		*c = diagCell{epoch: sr.epoch}
	}
	if int32(spos) < c.lastExtEnd {
		return // already inside an extension on this diagonal
	}
	var gscore, qFrom, qTo, sFrom, sTo int
	if eng.p.Greedy {
		// Megablast: greedy gapped extension straight from the
		// seed midpoint (seeds are long exact matches, so the
		// midpoint pair is guaranteed aligned).
		sr.stats.GappedExts++
		q, s := ps.qv.codes, sr.subjectBytes()
		mid := eng.p.WordSize / 2
		raw, a0, a1, b0, b1 := align.GreedyExtendWS(&sr.ws, q, s, qpos+mid, spos+mid,
			greedyScheme, xDropGapped*greedyScale)
		gscore, qFrom, qTo, sFrom, sTo = raw/greedyScale, a0, a1, b0, b1
		c.lastExtEnd = int32(sTo)
		if gscore < gapTriggerRaw {
			return
		}
	} else {
		sr.stats.UngappedExts++
		sr.stats.PackedExts++
		score, _, aTo, _, bTo := align.PackedExtend(ps.qv.packed, len(ps.qv.codes), sr.sp, sr.sLen,
			qpos, spos, eng.p.WordSize, nucMatch, nucMismatch, xDropUngapped)
		c.lastExtEnd = int32(bTo)
		if score < gapTriggerRaw {
			return
		}
		sr.stats.GappedExts++
		// Anchor the gapped extension at the middle of the ungapped
		// HSP's diagonal run. The gapped DP needs codes, so a packed-entry
		// subject materializes them here, once, on first trigger.
		q, s := ps.qv.codes, sr.subjectBytes()
		mid := (aTo - qpos) / 2
		ai := qpos + mid
		bi := spos + mid
		if ai >= len(q) || bi >= len(s) {
			ai, bi = qpos, spos
		}
		gscore, qFrom, qTo, sFrom, sTo = align.ExtendGappedWS(&sr.ws, q, s, ai, bi, nucScheme, xDropGapped)
		if gscore < gapTriggerRaw {
			return
		}
	}
	c.lastExtEnd = int32(sTo)
	ps.hsps = append(ps.hsps, rawHSP{
		score: gscore,
		qFrom: qFrom, qTo: qTo, sFrom: sFrom, sTo: sTo,
		qFrame: ps.qv.frame,
	})
}

// rawHSPSorter sorts a rawHSP slice score-descending through a pooled
// sort.Interface (sort.Slice allocates its closure; sort.Sort on a
// pointer-to-field does not).
type rawHSPSorter struct {
	hsps []rawHSP
}

func (s *rawHSPSorter) Len() int           { return len(s.hsps) }
func (s *rawHSPSorter) Less(i, j int) bool { return s.hsps[i].score > s.hsps[j].score }
func (s *rawHSPSorter) Swap(i, j int)      { s.hsps[i], s.hsps[j] = s.hsps[j], s.hsps[i] }

// cullPair is cullHSPs over the searcher's pooled buffers: same
// algorithm, no per-pair allocation. The returned slice aliases
// searcher scratch and is consumed (appended to subjHSPs) before the
// next view's cull reuses it.
func (sr *searcher) cullPair(hsps []rawHSP) []rawHSP {
	if len(hsps) <= 1 {
		return hsps
	}
	sr.sorter.hsps = hsps
	sort.Sort(&sr.sorter)
	if cap(sr.cullKept) < len(hsps) {
		sr.cullKept = make([]rawHSP, 0, cap(hsps))
		sr.cullIdx = make([]int32, 0, cap(hsps))
	}
	kept, idx := cullInto(hsps, sr.cullKept[:0], sr.cullIdx[:0])
	sr.cullKept, sr.cullIdx = kept, idx
	return kept
}

// cullHSPs removes HSPs contained inside a higher-scoring HSP in both
// coordinates (redundant extensions of the same alignment). Survivors
// keep score-descending order. The containment scan consults only
// kept HSPs whose qFrom does not exceed the candidate's — maintained
// sorted by qFrom, so the inner loop stops where containment becomes
// impossible instead of re-checking every survivor (the O(n^2) wall
// repetitive subjects used to hit).
func cullHSPs(hsps []rawHSP) []rawHSP {
	if len(hsps) <= 1 {
		return hsps
	}
	sort.Slice(hsps, func(i, j int) bool { return hsps[i].score > hsps[j].score })
	kept, _ := cullInto(hsps, make([]rawHSP, 0, len(hsps)), make([]int32, 0, len(hsps)))
	return kept
}

// cullInto runs the containment scan over score-sorted hsps, appending
// survivors to kept and maintaining byQFrom (kept indices ordered by
// qFrom) in the caller's buffers; both are returned with their final
// contents so pooled callers can retain the grown backing arrays.
func cullInto(hsps, kept []rawHSP, byQFrom []int32) ([]rawHSP, []int32) {
	for i := range hsps {
		h := &hsps[i]
		// Only kept HSPs with k.qFrom <= h.qFrom can contain h.
		ub := sort.Search(len(byQFrom), func(j int) bool {
			return kept[byQFrom[j]].qFrom > h.qFrom
		})
		contained := false
		for _, ki := range byQFrom[:ub] {
			k := &kept[ki]
			if h.qFrame == k.qFrame &&
				h.qFrom >= k.qFrom && h.qTo <= k.qTo &&
				h.sFrom >= k.sFrom && h.sTo <= k.sTo {
				contained = true
				break
			}
		}
		if contained {
			continue
		}
		ki := int32(len(kept))
		kept = append(kept, *h)
		byQFrom = append(byQFrom, 0)
		copy(byQFrom[ub+1:], byQFrom[ub:])
		byQFrom[ub] = ki
	}
	return kept, byQFrom
}

// finalize computes statistics, tracebacks and report ordering.
func (eng *engine) finalize(res *Result, raw []rawHit, info DBInfo) {
	p := eng.p
	queryLen, dbLetters := res.QueryLen, info.Letters
	if queryLen < 1 {
		queryLen = 1
	}
	if dbLetters < 1 {
		dbLetters = 1
	}
	la := LengthAdjustment(nucKarlin, queryLen, dbLetters, info.Sequences)
	effQuery := int64(queryLen - la)
	if effQuery < 1 {
		effQuery = 1
	}
	effDB := dbLetters - int64(info.Sequences)*int64(la)
	if effDB < 1 {
		effDB = 1
	}
	res.Stats.LengthAdjust = la
	res.Stats.EffSearchLen = effQuery * effDB
	res.Stats.RawScoreCut = nucKarlin.RawCutoff(p.EValue, effQuery, effDB)

	for _, rh := range raw {
		hit := Hit{
			SubjectID:   rh.subject.ID,
			SubjectDesc: rh.subject.Desc,
			SubjectLen:  rh.subject.Len(),
		}
		for _, r := range rh.hsps {
			ev := nucKarlin.EValue(r.score, effQuery, effDB)
			if ev > p.EValue {
				continue
			}
			h := eng.traceback(r, rh.subject)
			h.BitScore = nucKarlin.BitScore(r.score)
			h.EValue = ev
			hit.HSPs = append(hit.HSPs, h)
		}
		if len(hit.HSPs) == 0 {
			continue
		}
		sort.Slice(hit.HSPs, func(i, j int) bool { return hit.HSPs[i].Score > hit.HSPs[j].Score })
		res.Hits = append(res.Hits, hit)
		res.Stats.ReportedHSPs += int64(len(hit.HSPs))
	}
	res.Hits = rankHits(res.Hits, p.MaxTargetSeqs)
}

// traceback recomputes the exact alignment of a raw HSP region and
// maps the query coordinates back to its forward strand.
func (eng *engine) traceback(r rawHSP, subj *seq.Sequence) HSP {
	qv := &eng.views[0]
	if r.qFrame != qv.frame {
		qv = &eng.views[1]
	}
	qCodes, sCodes := qv.codes, subj.Codes()
	al := align.SmithWaterman(qCodes[r.qFrom:r.qTo], sCodes[r.sFrom:r.sTo], nucScheme)
	// Shift the alignment into strand coordinates.
	al.AStart += r.qFrom
	al.AEnd += r.qFrom
	al.BStart += r.sFrom
	al.BEnd += r.sFrom
	matches, cols := al.Identity(qCodes, sCodes)
	h := HSP{
		Score:        r.score,
		QueryFrom:    al.AStart,
		QueryTo:      al.AEnd,
		SubjectFrom:  al.BStart,
		SubjectTo:    al.BEnd,
		QueryFrame:   r.qFrame,
		SubjectFrame: 1,
		Alignment:    al,
		Identities:   matches,
		AlignLen:     cols,
		Gaps:         al.Gaps(),
	}
	if r.qFrame < 0 {
		// Position i of the reverse complement is n-1-i forward.
		n := len(qCodes)
		h.QueryFrom, h.QueryTo = n-al.AEnd, n-al.AStart
	}
	// The traceback alignment may score differently from the X-drop
	// estimate; prefer the exact score when it is higher.
	if al.Score > h.Score {
		h.Score = al.Score
	}
	return h
}
