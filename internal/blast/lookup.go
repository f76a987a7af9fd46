package blast

import (
	"encoding/binary"
	"math/bits"
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
// 28 works) by a nucKey-base key. Words and keys are packed low base
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
// The groups lie back to back in words and refs, in key order, and
// only present keys have one: the group of the r-th present key is
// words[bounds[r]:bounds[r+1]], and r is rank[v>>6] plus the present
// keys below v in its presence word. Each word is stored where it sits
// in the verify window, the 8 payload bytes that start one byte before
// the key's: shifted up by 8-2d bits, which leaves its two low bits
// free for d. A present key loads that window once and verifies each
// member by one xor under its phase's mask.
//
// A table is immutable after construction and safe for concurrent
// scans.
type nucLookup struct {
	w int
	// pmask[d] covers the window bits of a phase-d word.
	pmask [nucPhases]uint64
	// present has bit v set iff key v has a group. Its 8 KB stay in
	// L1 with rank's 2 KB.
	present [nucPresentWords]uint64
	// rank[i] counts the present keys in present[:i].
	rank   [nucPresentWords]uint16
	bounds []int32  // group r is words[bounds[r]:bounds[r+1]]
	words  []uint64 // word<<(8-2d) | d
	refs   []uint32 // view<<nucViewShift | query position, read on a match
}

// nucPresentWords sizes the presence vector: one bit per key.
const nucPresentWords = 1 << (2*nucKey - 6)

// nucPhases is the number of offsets at which each word is keyed, one
// per base of a packed byte.
const nucPhases = 4

// buildNucLookup indexes every word of each dense-coded query view
// whose positions are all unmasked (masks, or any entry of it, may be
// nil to disable filtering). Three passes over the entries: mark the
// present keys and rank them, count each group at bounds[r+1] and
// prefix-sum, then fill with bounds[r] as the group's cursor, which
// leaves every bound one group early, and one shift puts them back.
func buildNucLookup(views [][]byte, w int, masks [][]bool) *nucLookup {
	lt := &nucLookup{w: w}
	for d := range lt.pmask {
		lt.pmask[d] = (1<<(2*uint(w)) - 1) << nucShift(d)
	}
	lt.eachEntry(views, masks, func(key uint16, _ uint64, _ uint32) {
		lt.present[key>>6] |= 1 << (key & 63)
	})
	keys := 0
	for i, bits64 := range lt.present {
		lt.rank[i] = uint16(keys)
		keys += bits.OnesCount64(bits64)
	}
	if keys == 0 {
		return lt
	}
	lt.bounds = make([]int32, keys+1)
	lt.eachEntry(views, masks, func(key uint16, _ uint64, _ uint32) {
		lt.bounds[lt.keyRank(key)+1]++
	})
	for r := 0; r < keys; r++ {
		lt.bounds[r+1] += lt.bounds[r]
	}
	lt.words = make([]uint64, lt.bounds[keys])
	lt.refs = make([]uint32, lt.bounds[keys])
	lt.eachEntry(views, masks, func(key uint16, word uint64, ref uint32) {
		r := lt.keyRank(key)
		lt.words[lt.bounds[r]], lt.refs[lt.bounds[r]] = word, ref
		lt.bounds[r]++
	})
	copy(lt.bounds[1:], lt.bounds[:keys])
	lt.bounds[0] = 0
	return lt
}

// nucShift is where a phase-d word starts in the verify window: its
// first base lies 4-d bases after the window's.
func nucShift(d int) uint { return uint(2 * (nucPhases - d)) }

// keyRank returns how many present keys lie below the present key.
func (lt *nucLookup) keyRank(key uint16) int {
	return int(lt.rank[key>>6]) + bits.OnesCount64(lt.present[key>>6]&(1<<(key&63)-1))
}

// eachEntry calls fn with the key, stored word and ref of every
// indexed word at every phase: phases descending, then views in order,
// then each view in query order — the order entries keep within a
// group.
func (lt *nucLookup) eachEntry(views [][]byte, masks [][]bool, fn func(key uint16, word uint64, ref uint32)) {
	w, top := lt.w, 2*uint(lt.w-1)
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
					fn(uint16(word>>(2*uint(d))), word<<nucShift(d)|uint64(d), ref)
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
// byte b+1 lies within the payload. About 98 % of steps find their
// key absent, so that path is the whole loop: two loads, a presence
// test and p, b and present in registers (b indexes the key's second
// byte, which lets the compiler prove both loads in range). A present
// key hands its step to group.
func (lt *nucLookup) scan(packed []byte, n int, sink seedSink) {
	if n < lt.w || len(lt.words) == 0 {
		return
	}
	present := &lt.present
	p := packed[:(n-nucKey)>>2+2]
	for b := 1; b < len(p); b++ {
		key := uint16(p[b-1]) | uint16(p[b])<<8
		if present[key>>6]&(1<<(key&63)) != 0 {
			lt.group(packed, n, b-1, key, sink)
		}
	}
}

// group verifies the group of the present key whose 8-mer starts at
// byte b against the subject's window there and reports each match in
// group order. It stays out of line so that its live values do not
// crowd scan's miss loop.
//
//go:noinline
func (lt *nucLookup) group(packed []byte, n, b int, key uint16, sink seedSink) {
	x := nucWindow(packed[:(n+3)>>2], b)
	r := lt.keyRank(key)
	lo, hi := lt.bounds[r], lt.bounds[r+1]
	words, a := lt.words[lo:hi], b<<2
	for i, e := range words {
		d := e & 3
		if (x^e)&lt.pmask[d] != 0 {
			continue
		}
		if s := a - int(d); s >= 0 && s+lt.w <= n {
			ref := lt.refs[int(lo)+i]
			sink.handleSeed(int(ref>>nucViewShift), int(ref&nucPosMask), s)
		}
	}
}

// nucWindow returns payload bytes b-1 … b+6 as one little-endian
// word, zero where they fall outside q: the verify window of the step
// at byte b.
func nucWindow(q []byte, b int) uint64 {
	if b >= 1 && b+7 <= len(q) {
		return binary.LittleEndian.Uint64(q[b-1:])
	}
	var x uint64
	for k := min(b+6, len(q)-1); k >= max(b-1, 0); k-- {
		x |= uint64(q[k]) << (8 * uint(k-b+1))
	}
	return x
}
