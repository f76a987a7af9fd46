package blast

import (
	"pario/internal/align"
)

// The word lookup table maps fixed-length words of the subject stream
// to query positions where a seed hit should be investigated.

// seedSink receives seed matches from a lookup table scan, each tagged
// with the query strand view whose word matched. The searcher is the
// production implementation; tests substitute recorders.
type seedSink interface {
	handleSeed(view, qpos, spos int)
}

// nucKey is the length of the table's keys: an aligned 8-mer read from
// two packed subject bytes.
const nucKey = 8

// A nucLookup entry packs its query view into the bits from
// nucViewShift up and its query position into the bits below, so one
// table serves both blastn strands (up to 16 views of queries under
// 256 Mbases).
const (
	nucViewShift = 28
	nucPosMask   = 1<<nucViewShift - 1
)

// nucLookup indexes the exact W-mers of one or more nucleotide query
// views (W = 11 for blastn, 28 for megablast; any W from nucKey+3 to
// 32 works) in a flat CSR layout: entries holds every indexed word
// grouped by a nucKey-base key, and the group of key v is
// entries[starts[v]:starts[v+1]]. Words and keys are packed low base
// first, as the subject's 2-bit payload holds them.
//
// Each word is entered four times, once per phase d in 0..3, under the
// key of its 8-mer at offset d. The scan steps a = 0, 4, 8, … over the
// subject, reads the byte-aligned 8-mer at a, tests it against the
// presence vector, and verifies each member of its group as the whole
// word at s = a-d. A match starting at s has exactly one first aligned
// 8-mer, at a = 4⌈s/4⌉ with d = a-s <= 3 <= W-nucKey, so it is found
// once. Groups hold d descending, then view, then query position, so
// one step emits s = a-3 … a in ascending order and seeds sharing an s
// in the per-base scan's (view, qpos) order; steps cover disjoint
// ascending ranges of s, so the seed stream is the per-base scan's,
// seed for seed.
//
// A table is immutable after construction and safe for concurrent
// scans.
type nucLookup struct {
	w       int
	mask    uint64 // the low 2W bits: one word
	starts  []int32
	entries []nucEntry
	// present has bit v set iff key v has a group. Its 8 KB stay in
	// L1, where the 256 KB of group bounds it screens would not.
	present [nucPresentWords]uint64
}

// nucPresentWords sizes the presence vector: one bit per key.
const nucPresentWords = 1 << (2*nucKey - 6)

// nucPhases is the number of offsets at which each word is keyed, one
// per base of a packed byte.
const nucPhases = 4

// nucEntry is one indexed query word.
type nucEntry struct {
	word  uint64 // the W-mer, low base first
	ref   uint32 // view<<nucViewShift | query position
	phase uint32 // offset d of the keyed 8-mer in the word
}

// buildNucLookup indexes every word of each dense-coded query view
// whose positions are all unmasked (masks, or any entry of it, may be
// nil to disable filtering). A counting sort groups the entries: keys
// are counted at starts[key+1] and prefix-summed, the fill advances
// starts[key] as the group's cursor, which leaves every bound one key
// early, and one shift puts them back.
func buildNucLookup(views [][]byte, w int, masks [][]bool) *nucLookup {
	lt := &nucLookup{w: w, mask: 1<<(2*uint(w)) - 1}
	const size = 1 << (2 * nucKey)
	starts := make([]int32, size+1)
	lt.eachEntry(views, masks, func(key uint32, _ nucEntry) { starts[key+1]++ })
	for v := 0; v < size; v++ {
		starts[v+1] += starts[v]
	}
	if starts[size] == 0 {
		return lt
	}
	lt.entries = make([]nucEntry, starts[size])
	lt.eachEntry(views, masks, func(key uint32, e nucEntry) {
		lt.entries[starts[key]] = e
		starts[key]++
	})
	copy(starts[1:], starts[:size])
	starts[0] = 0
	lt.starts = starts
	for v := 0; v < size; v++ {
		if starts[v] < starts[v+1] {
			lt.present[v>>6] |= 1 << (v & 63)
		}
	}
	return lt
}

// eachEntry calls fn with the key and entry of every indexed word at
// every phase: phases descending, then views in order, then each view
// in query order — the order entries keep within a group.
func (lt *nucLookup) eachEntry(views [][]byte, masks [][]bool, fn func(key uint32, e nucEntry)) {
	w, top, kmask := lt.w, 2*uint(lt.w-1), uint64(1)<<(2*nucKey)-1
	for d := nucPhases - 1; d >= 0; d-- {
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
//
// It steps one packed byte at a time: the 8-mer at a = 4b is bytes b
// and b+1, and the last step is the last a with a+nucKey <= n, whose
// byte b+1 lies within the payload.
func (lt *nucLookup) scan(packed []byte, n int, sink seedSink) {
	if n < lt.w || len(lt.entries) == 0 {
		return
	}
	w, mask, starts, entries, present := lt.w, lt.mask, lt.starts, lt.entries, &lt.present
	p := packed[:(n-nucKey)>>2+2]
	for b := 0; b+1 < len(p); b++ {
		key := uint16(p[b]) | uint16(p[b+1])<<8
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
