package blast

import (
	"pario/internal/align"
)

// Word lookup tables map fixed-length words of the subject stream to
// query positions where a seed hit should be investigated.

// seedSink receives seed matches from a lookup table scan, each tagged
// with the query view whose word matched. The searcher is the
// production implementation; tests substitute recorders.
type seedSink interface {
	handleSeed(view, qpos, spos int)
}

// seedTable is a word index the searcher scans each subject view
// through once. subject holds the view's n letters in the table's own
// form: 2-bit packed for nucLookup, one dense code per byte for
// protLookup.
type seedTable interface {
	scan(subject []byte, n int, sink seedSink)
}

// nucDirectBits bounds the direct-indexed table: words of up to this
// many packed bits (2 per base) index a flat 2^bits bucket array;
// wider words — classic blastn 11-mers, megablast 28-mers — go
// through the open-addressed hash. 16 bits keeps the direct table at
// 256 KB of bucket bounds.
const nucDirectBits = 16

// nucMaxWord is the longest word nucLookup indexes: a W-mer packs into
// 2W bits of a uint64, and all-ones must stay free for nucEmptyKey.
const nucMaxWord = 31

// nucEmptyKey marks an empty hash slot. Packed words occupy at most
// 62 bits (W <= nucMaxWord), so all-ones can never collide with a
// real word.
const nucEmptyKey = ^uint64(0)

// A nucLookup entry packs its query view into the bits from
// nucViewShift up and its query position into the bits below, so one
// table serves both blastn strands (up to 16 views of queries under
// 256 Mbases).
const (
	nucViewShift = 28
	nucPosMask   = 1<<nucViewShift - 1
)

// nucLookup indexes the exact W-mers of one or more nucleotide query
// views by their 2W-bit packed value (W up to nucMaxWord, covering
// megablast's 28-mers) in a flat CSR layout: entries holds every
// indexed (view, query position) grouped by word, and either a
// direct-indexed bounds array (small W) or an open-addressed uint64
// hash (large W) locates a word's group. Both forms are immutable
// after construction and safe for concurrent scans.
type nucLookup struct {
	w    int
	mask uint64

	// entries holds (view, qpos) pairs grouped by word, ordered by
	// view and then by query position within each group, shared by
	// both index forms.
	entries []uint32

	// Direct form (2W <= nucDirectBits): group of word v is
	// entries[starts[v]:starts[v+1]].
	starts []int32

	// Hash form: open addressing with linear probing. Slot i holds
	// keys[i] (nucEmptyKey = empty) and its group
	// entries[offs[i] : offs[i]+cnts[i]].
	keys  []uint64
	offs  []int32
	cnts  []int32
	shift uint // hash shift: 64 - log2(len(keys))
}

// nucHash spreads a packed word over the table's slot space
// (Fibonacci hashing: multiply by 2^64/phi, take the top bits).
func nucHash(word uint64, shift uint) uint64 {
	return (word * 0x9E3779B97F4A7C15) >> shift
}

// buildNucLookup indexes every word of each dense-coded query view
// whose positions are all unmasked (masks, or any entry of it, may be
// nil to disable filtering).
func buildNucLookup(views [][]byte, w int, masks [][]bool) *nucLookup {
	lt := &nucLookup{
		w:    w,
		mask: (1 << (2 * uint(w))) - 1,
	}
	nWords := 0
	lt.eachWord(views, masks, func(uint64, uint32) { nWords++ })
	if nWords == 0 {
		return lt
	}
	if 2*w <= nucDirectBits {
		lt.buildDirect(views, masks, nWords)
	} else {
		lt.buildHash(views, masks, nWords)
	}
	return lt
}

// eachWord calls fn with the packed value and the entry of every
// indexed word, views in order and each view in query order — the
// order entries keep within a group.
func (lt *nucLookup) eachWord(views [][]byte, masks [][]bool, fn func(word uint64, entry uint32)) {
	w := lt.w
	for v, query := range views {
		var masked []bool
		if masks != nil {
			masked = masks[v]
		}
		var word uint64
		for i, c := range query {
			word = (word<<2 | uint64(c)) & lt.mask
			if i >= w-1 && wordAllowed(masked, i-w+1, w) {
				fn(word, uint32(v)<<nucViewShift|uint32(i-w+1))
			}
		}
	}
}

// buildDirect fills the direct-indexed CSR: one counting pass, a
// prefix sum, one filling pass.
func (lt *nucLookup) buildDirect(views [][]byte, masks [][]bool, nWords int) {
	size := int(lt.mask) + 1
	lt.starts = make([]int32, size+1)
	lt.eachWord(views, masks, func(word uint64, _ uint32) { lt.starts[word+1]++ })
	for v := 0; v < size; v++ {
		lt.starts[v+1] += lt.starts[v]
	}
	lt.entries = make([]uint32, nWords)
	next := make([]int32, size)
	copy(next, lt.starts[:size])
	lt.eachWord(views, masks, func(word uint64, e uint32) {
		lt.entries[next[word]] = e
		next[word]++
	})
}

// buildHash fills the open-addressed CSR. Capacity is the next power
// of two at or above 2x the indexed word count, so load factor stays
// under 0.5 and linear probes terminate quickly.
func (lt *nucLookup) buildHash(views [][]byte, masks [][]bool, nWords int) {
	capacity := 16
	for capacity < 2*nWords {
		capacity <<= 1
	}
	lt.shift = 64 - uint(log2(capacity))
	lt.keys = make([]uint64, capacity)
	for i := range lt.keys {
		lt.keys[i] = nucEmptyKey
	}
	lt.offs = make([]int32, capacity)
	lt.cnts = make([]int32, capacity)

	// Pass 1: insert keys, counting occurrences per slot.
	lt.eachWord(views, masks, func(word uint64, _ uint32) { lt.cnts[lt.slotInsert(word)]++ })
	// Prefix-sum the slot counts into group offsets (slot order —
	// grouping is by slot, order within a group is eachWord's).
	var off int32
	for s := range lt.offs {
		lt.offs[s] = off
		off += lt.cnts[s]
	}
	// Pass 2: fill entries in eachWord order.
	lt.entries = make([]uint32, off)
	fill := make([]int32, capacity)
	lt.eachWord(views, masks, func(word uint64, e uint32) {
		s := lt.slotFind(word)
		lt.entries[lt.offs[s]+fill[s]] = e
		fill[s]++
	})
}

// slotInsert finds word's slot, claiming an empty one if absent.
func (lt *nucLookup) slotInsert(word uint64) int {
	m := uint64(len(lt.keys) - 1)
	s := nucHash(word, lt.shift)
	for {
		k := lt.keys[s]
		if k == word {
			return int(s)
		}
		if k == nucEmptyKey {
			lt.keys[s] = word
			return int(s)
		}
		s = (s + 1) & m
	}
}

// slotFind locates an existing word's slot (the word must be present).
func (lt *nucLookup) slotFind(word uint64) int {
	m := uint64(len(lt.keys) - 1)
	s := nucHash(word, lt.shift)
	for lt.keys[s] != word {
		s = (s + 1) & m
	}
	return int(s)
}

// log2 returns floor(log2(n)) for a power of two n.
func log2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// scan streams the words of the n-base 2-bit packed subject and calls
// sink.handleSeed(view, qpos, spos) for each seed match; spos is the
// word's start offset. Each base comes straight out of the packed
// payload (base i lives at bits 2*(i%4) of byte i/4), so the search
// never materializes the subject's one-byte codes for seeding.
func (lt *nucLookup) scan(packed []byte, n int, sink seedSink) {
	if n < lt.w || len(lt.entries) == 0 {
		return
	}
	if lt.starts != nil {
		lt.scanPackedDirect(packed, n, sink)
	} else {
		lt.scanPackedHash(packed, n, sink)
	}
}

func (lt *nucLookup) scanPackedDirect(packed []byte, n int, sink seedSink) {
	w, mask, starts, entries := lt.w, lt.mask, lt.starts, lt.entries
	var word uint64
	for i := 0; i < w-1; i++ {
		word = word<<2 | uint64((packed[i>>2]>>(uint(i&3)*2))&3)
	}
	for i := w - 1; i < n; i++ {
		word = (word<<2 | uint64((packed[i>>2]>>(uint(i&3)*2))&3)) & mask
		st, en := starts[word], starts[word+1]
		if st < en {
			spos := i - w + 1
			for _, e := range entries[st:en] {
				sink.handleSeed(int(e>>nucViewShift), int(e&nucPosMask), spos)
			}
		}
	}
}

func (lt *nucLookup) scanPackedHash(packed []byte, n int, sink seedSink) {
	w, mask, keys, shift := lt.w, lt.mask, lt.keys, lt.shift
	m := uint64(len(keys) - 1)
	var word uint64
	for i := 0; i < w-1; i++ {
		word = word<<2 | uint64((packed[i>>2]>>(uint(i&3)*2))&3)
	}
	for i := w - 1; i < n; i++ {
		word = (word<<2 | uint64((packed[i>>2]>>(uint(i&3)*2))&3)) & mask
		s := nucHash(word, shift)
		for {
			k := keys[s]
			if k == nucEmptyKey {
				break
			}
			if k == word {
				spos := i - w + 1
				for _, e := range lt.entries[lt.offs[s] : lt.offs[s]+lt.cnts[s]] {
					sink.handleSeed(int(e>>nucViewShift), int(e&nucPosMask), spos)
				}
				break
			}
			s = (s + 1) & m
		}
	}
}

// protLookup indexes a protein query's neighborhood words: every
// possible W-mer scoring >= threshold against some query word, under
// the scheme's substitution matrix.
type protLookup struct {
	view     int // the query view this table seeds
	w        int
	alphabet int
	hi       int       // alphabet^(w-1): weight of a word's outgoing high digit
	buckets  [][]int32 // word index -> query positions
}

// buildProtLookup enumerates neighborhood words for each unmasked
// position of query view view. alphabet is the dense protein alphabet
// size.
func buildProtLookup(query []byte, view, w, threshold, alphabet int, s *align.Scheme, masked []bool) *protLookup {
	size := 1
	for i := 0; i < w; i++ {
		size *= alphabet
	}
	lt := &protLookup{view: view, w: w, alphabet: alphabet, hi: size / alphabet, buckets: make([][]int32, size)}
	if len(query) < w {
		return lt
	}
	// For each query word, enumerate candidate words with branch and
	// bound: at depth d, the best achievable remainder is the sum of
	// per-position maxima.
	maxRemain := make([]int, w+1) // maxRemain[d] = max achievable score from positions d..w-1
	word := make([]byte, w)
	for qpos := 0; qpos+w <= len(query); qpos++ {
		if !wordAllowed(masked, qpos, w) {
			continue
		}
		qw := query[qpos : qpos+w]
		maxRemain[w] = 0
		for d := w - 1; d >= 0; d-- {
			best := -(1 << 30)
			for c := 0; c < alphabet; c++ {
				if sc := s.Table[qw[d]][c]; sc > best {
					best = sc
				}
			}
			maxRemain[d] = maxRemain[d+1] + best
		}
		lt.enumerate(qw, word, 0, 0, threshold, maxRemain, int32(qpos), s)
	}
	return lt
}

func (lt *protLookup) enumerate(qw, word []byte, depth, score, threshold int, maxRemain []int, qpos int32, s *align.Scheme) {
	if depth == lt.w {
		if score >= threshold {
			idx := lt.wordIndex(word)
			lt.buckets[idx] = append(lt.buckets[idx], qpos)
		}
		return
	}
	if score+maxRemain[depth] < threshold {
		return // prune: cannot reach threshold
	}
	row := s.Table[qw[depth]]
	for c := 0; c < lt.alphabet; c++ {
		word[depth] = byte(c)
		lt.enumerate(qw, word, depth+1, score+row[c], threshold, maxRemain, qpos, s)
	}
}

func (lt *protLookup) wordIndex(word []byte) int {
	idx := 0
	for _, c := range word {
		idx = idx*lt.alphabet + int(c)
	}
	return idx
}

// scan streams the words of the subject's dense codes (which carry
// their own length) and reports seed hits. The rolling index drops the
// word's outgoing high digit instead of reducing modulo alphabet^w, so
// the per-position work is one multiply-add and one multiply-subtract.
func (lt *protLookup) scan(subject []byte, _ int, sink seedSink) {
	if len(subject) < lt.w {
		return
	}
	w, alphabet, hi := lt.w, lt.alphabet, lt.hi
	idx := 0
	for i := 0; i < len(subject); i++ {
		if i >= w {
			idx -= int(subject[i-w]) * hi
		}
		idx = idx*alphabet + int(subject[i])
		if i >= w-1 {
			if positions := lt.buckets[idx]; positions != nil {
				spos := i - w + 1
				for _, qpos := range positions {
					sink.handleSeed(lt.view, int(qpos), spos)
				}
			}
		}
	}
}
