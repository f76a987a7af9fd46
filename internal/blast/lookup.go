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

// nucDirectBits bounds the direct form: words of up to this many
// packed bits (2 per base) are their own key into a flat 2^bits bucket
// array; wider words — classic blastn 11-mers, megablast 28-mers — take
// the stride form. 16 bits keeps either form's bucket bounds at 256 KB.
const nucDirectBits = 16

// nucStrideKey is the stride form's longest key: an aligned k-mer read
// from two packed subject bytes.
const nucStrideKey = 8

// nucMaxWord is the longest word nucLookup indexes, and so megablast's
// word range, which Validate enforces by this name. A word travels low
// base first in a uint64 and the stride form verifies it with one
// 32-base Window64 load, so either form could take W = 32; 31 is kept
// because it is the range users are given and no caller needs more.
const nucMaxWord = 31

// A nucLookup entry packs its query view into the bits from
// nucViewShift up and its query position into the bits below, so one
// table serves both blastn strands (up to 16 views of queries under
// 256 Mbases).
const (
	nucViewShift = 28
	nucPosMask   = 1<<nucViewShift - 1
)

// nucLookup indexes the exact W-mers of one or more nucleotide query
// views (W up to nucMaxWord, covering megablast's 28-mers) in a flat
// CSR layout: entries holds every indexed word grouped by a k-base key,
// and the group of key v is entries[starts[v]:starts[v+1]]. Words and
// keys are packed low base first, as the subject's 2-bit payload holds
// them.
//
// Direct form (2W <= nucDirectBits): the key is the whole word (k = W),
// and the scan rolls it one base at a time; every member of a
// position's group is a seed.
//
// Stride form (wider words): k = min(nucStrideKey, W-3), and each word
// is entered four times, once per phase d in 0..3, under the key of its
// k-mer at offset d. The scan steps a = 0, 4, 8, … over the subject,
// reads the byte-aligned k-mer at a, tests it against the presence
// vector, and verifies each member of its group as the whole word at
// s = a-d. A match starting at s has exactly one first aligned k-mer,
// at a = 4⌈s/4⌉ with d = a-s <= 3 <= W-k, so it is found once. Groups
// hold d descending, then view, then query position, so one step emits
// s = a-3 … a in ascending order and seeds sharing an s in the per-base
// scan's (view, qpos) order; steps cover disjoint ascending ranges of
// s, so the seed stream is the per-base scan's, seed for seed.
//
// Both forms are immutable after construction and safe for concurrent
// scans.
type nucLookup struct {
	w, k    int
	mask    uint64 // the low 2W bits: one word
	starts  []int32
	entries []nucEntry
	// present has bit v set iff key v has a group; nil in the direct
	// form. Its 8 KB stay in L1, where the 256 KB of group bounds it
	// screens at k = 8 would not.
	present *[nucPresentWords]uint64
}

// nucPresentWords sizes the presence vector: one bit per key of
// nucStrideKey bases.
const nucPresentWords = 1 << (2*nucStrideKey - 6)

// nucEntry is one indexed query word.
type nucEntry struct {
	word  uint64 // the W-mer, low base first
	ref   uint32 // view<<nucViewShift | query position
	phase uint32 // stride form: offset d of the keyed k-mer in the word
}

// buildNucLookup indexes every word of each dense-coded query view
// whose positions are all unmasked (masks, or any entry of it, may be
// nil to disable filtering). A counting sort groups the entries: keys
// are counted at starts[key+1] and prefix-summed, the fill advances
// starts[key] as the group's cursor, which leaves every bound one key
// early, and one shift puts them back.
func buildNucLookup(views [][]byte, w int, masks [][]bool) *nucLookup {
	lt := &nucLookup{w: w, k: w, mask: 1<<(2*uint(w)) - 1}
	phases := 1
	if 2*w > nucDirectBits {
		lt.k, phases = min(nucStrideKey, w-3), 4
	}
	size := 1 << (2 * uint(lt.k))
	starts := make([]int32, size+1)
	lt.eachEntry(views, masks, phases, func(key uint32, _ nucEntry) { starts[key+1]++ })
	for v := 0; v < size; v++ {
		starts[v+1] += starts[v]
	}
	if starts[size] == 0 {
		return lt
	}
	lt.entries = make([]nucEntry, starts[size])
	lt.eachEntry(views, masks, phases, func(key uint32, e nucEntry) {
		lt.entries[starts[key]] = e
		starts[key]++
	})
	copy(starts[1:], starts[:size])
	starts[0] = 0
	lt.starts = starts
	if phases > 1 {
		lt.present = new([nucPresentWords]uint64)
		for v := 0; v < size; v++ {
			if starts[v] < starts[v+1] {
				lt.present[v>>6] |= 1 << (v & 63)
			}
		}
	}
	return lt
}

// eachEntry calls fn with the key and entry of every indexed word at
// every phase: phases descending, then views in order, then each view
// in query order — the order entries keep within a group.
func (lt *nucLookup) eachEntry(views [][]byte, masks [][]bool, phases int, fn func(key uint32, e nucEntry)) {
	w, top, kmask := lt.w, 2*uint(lt.w-1), uint64(1)<<(2*uint(lt.k))-1
	for d := phases - 1; d >= 0; d-- {
		for v, query := range views {
			var masked []bool
			if masks != nil {
				masked = masks[v]
			}
			var word uint64
			for i, c := range query {
				word = word>>2 | uint64(c)<<top
				if i >= w-1 && wordAllowed(masked, i-w+1, w) {
					ref := uint32(v)<<nucViewShift | uint32(i-w+1)
					fn(uint32(word>>(2*uint(d))&kmask), nucEntry{word: word, ref: ref, phase: uint32(d)})
				}
			}
		}
	}
}

// scan finds the words of the n-base 2-bit packed subject (base i at
// bits 2*(i%4) of byte i/4) and calls sink.handleSeed(view, qpos, spos)
// for each seed match in ascending spos, the word's start offset. The
// search never materializes the subject's one-byte codes for seeding.
func (lt *nucLookup) scan(packed []byte, n int, sink seedSink) {
	if n < lt.w || len(lt.entries) == 0 {
		return
	}
	if lt.present == nil {
		lt.scanDirect(packed, n, sink)
	} else {
		lt.scanStride(packed, n, sink)
	}
}

func (lt *nucLookup) scanDirect(packed []byte, n int, sink seedSink) {
	w, starts, entries := lt.w, lt.starts, lt.entries
	top := 2 * uint(w-1)
	var word uint64
	for i := 0; i < w-1; i++ {
		word = word>>2 | uint64((packed[i>>2]>>(uint(i&3)*2))&3)<<top
	}
	for i := w - 1; i < n; i++ {
		word = word>>2 | uint64((packed[i>>2]>>(uint(i&3)*2))&3)<<top
		st, en := starts[word], starts[word+1]
		if st < en {
			spos := i - w + 1
			for _, e := range entries[st:en] {
				sink.handleSeed(int(e.ref>>nucViewShift), int(e.ref&nucPosMask), spos)
			}
		}
	}
}

// scanStride steps one packed byte at a time: the k-mer at a = 4b is
// the low 2k bits of bytes b and b+1, and the last step is the last a
// with a+k <= n, whose byte b+1 lies within the payload because k > 4.
func (lt *nucLookup) scanStride(packed []byte, n int, sink seedSink) {
	w, mask, starts, entries, present := lt.w, lt.mask, lt.starts, lt.entries, lt.present
	kmask := uint16(1)<<(2*uint(lt.k)) - 1
	p := packed[:(n-lt.k)>>2+2]
	for b := 0; b+1 < len(p); b++ {
		key := (uint16(p[b]) | uint16(p[b+1])<<8) & kmask
		if present[key>>6]&(1<<(key&63)) == 0 {
			continue
		}
		a := b << 2
		for _, e := range entries[starts[key]:starts[int(key)+1]] {
			s := a - int(e.phase)
			if s >= 0 && s+w <= n && (align.Window64(packed, s)^e.word)&mask == 0 {
				sink.handleSeed(int(e.ref>>nucViewShift), int(e.ref&nucPosMask), s)
			}
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
