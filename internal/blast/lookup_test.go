package blast

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pario/internal/seq"
	"pario/internal/util"
)

// refNucLookup is the straightforward map-based word index the CSR
// tables replaced; the flat tables must reproduce its seed stream
// exactly — same (qpos, spos) pairs in the same order.
type refNucLookup struct {
	w       int
	mask    uint64
	buckets map[uint64][]int32
}

func buildRefNucLookup(query []byte, w int, masked []bool) *refNucLookup {
	lt := &refNucLookup{
		w:       w,
		mask:    (1 << (2 * uint(w))) - 1,
		buckets: make(map[uint64][]int32),
	}
	var word uint64
	for i := 0; i < len(query); i++ {
		word = (word<<2 | uint64(query[i])) & lt.mask
		if i >= w-1 && wordAllowed(masked, i-w+1, w) {
			lt.buckets[word] = append(lt.buckets[word], int32(i-w+1))
		}
	}
	return lt
}

func (lt *refNucLookup) scan(subject []byte, sink seedSink) {
	if len(subject) < lt.w || len(lt.buckets) == 0 {
		return
	}
	var word uint64
	for i := 0; i < lt.w-1; i++ {
		word = word<<2 | uint64(subject[i])
	}
	for i := lt.w - 1; i < len(subject); i++ {
		word = (word<<2 | uint64(subject[i])) & lt.mask
		if positions := lt.buckets[word]; positions != nil {
			spos := i - lt.w + 1
			for _, qpos := range positions {
				sink.handleSeed(0, int(qpos), spos)
			}
		}
	}
}

type seedPair struct{ qpos, spos int }

// seedRecorder keeps each query view's seed stream apart.
type seedRecorder struct{ views [][]seedPair }

func (r *seedRecorder) handleSeed(view, qpos, spos int) {
	for len(r.views) <= view {
		r.views = append(r.views, nil)
	}
	r.views[view] = append(r.views[view], seedPair{qpos, spos})
}

// view returns view v's seeds in arrival order.
func (r *seedRecorder) view(v int) []seedPair {
	if v < len(r.views) {
		return r.views[v]
	}
	return nil
}

// denseDNA builds a dense-coded (0..3) random sequence.
func denseDNA(rng *util.RNG, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(rng.Intn(4))
	}
	return data
}

// TestNucLookupMatchesReference drives both CSR forms (direct for
// 2W <= nucDirectBits, stride above it, including the k < 8 stride
// widths W = 9 and 10), scanning the packed subject, against the
// reference map implementation scanning its codes, over queries with
// planted repeats and optional masking, and requires identical seed
// streams. The subjects cover every length mod 4; each carries matches
// starting at s = 0…3 and one ending on its last base, so every stride
// phase, the s >= 0 bound, the s+W <= n bound and Window64's tail path
// all fire.
func TestNucLookupMatchesReference(t *testing.T) {
	rng := util.NewRNG(4242)
	query := denseDNA(rng, 600)
	// Repeats: the same 40-mer at three sites, so buckets hold several
	// query positions and group ordering matters.
	copy(query[100:], query[20:60])
	copy(query[500:], query[20:60])
	// A poly-T run keys the last group (every key bit set).
	for i := 300; i < 340; i++ {
		query[i] = 3
	}
	var subjects [][]byte
	for r := 0; r < 4; r++ {
		subject := denseDNA(rng, 5000+r)
		// Plant query chunks so the scan actually fires, including at
		// both ends of the subject.
		copy(subject, query[10:60])
		copy(subject[700:], query[10:200])
		copy(subject[2000:], query[290:350])
		copy(subject[3000:], query[400:580])
		copy(subject[len(subject)-50:], query[530:580])
		subjects = append(subjects, subject)
	}

	masked := make([]bool, len(query))
	for i := 120; i < 180; i++ {
		masked[i] = true
	}

	for _, w := range []int{4, 8, 9, 10, 11, 12, 16, 28, 31} {
		for _, m := range [][]bool{nil, masked} {
			name := "unmasked"
			if m != nil {
				name = "masked"
			}
			lt := buildNucLookup([][]byte{query}, w, [][]bool{m})
			if direct := 2*w <= nucDirectBits; (lt.present == nil) != direct {
				t.Errorf("w=%d: direct form = %v, want %v", w, lt.present == nil, direct)
			}
			ref := buildRefNucLookup(query, w, m)
			for _, subject := range subjects {
				n := len(subject)
				var got, want seedRecorder
				lt.scan(seq.PackCodes(subject), n, &got)
				ref.scan(subject, &want)
				starts := map[int]bool{}
				for _, sd := range want.view(0) {
					starts[sd.spos] = true
				}
				for _, s := range []int{0, 1, 2, 3, n - w} {
					if !starts[s] {
						t.Fatalf("w=%d %s n=%d: reference has no seed at s=%d; test is vacuous", w, name, n, s)
					}
				}
				if !reflect.DeepEqual(got.views, want.views) {
					t.Errorf("w=%d %s n=%d: CSR seed stream differs from reference (%d vs %d seeds)",
						w, name, n, len(got.view(0)), len(want.view(0)))
				}
			}
		}
	}
}

// TestNucLookupStrideNoFalseHits feeds the stride form a subject built
// from the query's own 8-mers in random flanks, so many aligned subject
// k-mers pass the presence vector while the whole words around them
// mostly do not match: verification must reject every one of those and
// the seed stream must still equal the reference's.
func TestNucLookupStrideNoFalseHits(t *testing.T) {
	rng := util.NewRNG(4243)
	query := denseDNA(rng, 64)
	var subject []byte
	for len(subject) < 20000 {
		subject = append(subject, denseDNA(rng, rng.Intn(8))...)
		q := rng.Intn(len(query) - 8)
		subject = append(subject, query[q:q+8]...)
	}
	packed := seq.PackCodes(subject)
	for _, w := range []int{11, 28} {
		lt := buildNucLookup([][]byte{query}, w, nil)
		if lt.present == nil {
			t.Fatalf("w=%d should build the stride form", w)
		}
		passed := 0
		for a := 0; a+lt.k <= len(subject); a += 4 {
			key := (int(packed[a/4]) | int(packed[a/4+1])<<8) & (1<<(2*lt.k) - 1)
			if lt.present[key/64]&(1<<(key%64)) != 0 {
				passed++
			}
		}
		if passed <= 100 {
			t.Fatalf("w=%d: only %d aligned subject k-mers pass the presence vector; test is vacuous", w, passed)
		}
		ref := buildRefNucLookup(query, w, nil)
		var got, want seedRecorder
		lt.scan(packed, len(subject), &got)
		ref.scan(subject, &want)
		if !reflect.DeepEqual(got.views, want.views) {
			t.Errorf("w=%d: stride form differs from reference: %d vs %d seeds",
				w, len(got.view(0)), len(want.view(0)))
		}
	}
}

// TestNucLookupEmptyQuery covers the degenerate builds.
func TestNucLookupEmptyQuery(t *testing.T) {
	var rec seedRecorder
	for _, w := range []int{11, 28} {
		lt := buildNucLookup(nil, w, nil)
		lt.scan(make([]byte, 25), 100, &rec)
		lt = buildNucLookup([][]byte{make([]byte, w-1)}, w, nil)
		lt.scan(make([]byte, 25), 100, &rec)
		// Fully masked query: zero indexed words.
		q := make([]byte, 2*w)
		masked := make([]bool, len(q))
		for i := range masked {
			masked[i] = true
		}
		lt = buildNucLookup([][]byte{q}, w, [][]bool{masked})
		lt.scan(make([]byte, 25), 100, &rec)
	}
	if len(rec.views) != 0 {
		t.Fatalf("degenerate lookups produced seeds: %v", rec.views)
	}
}

// strandViews renders a blastn query the way newEngine does: its
// forward and reverse-complement codes, DUST-masked when filter is on.
func strandViews(query *seq.Sequence, filter bool) ([][]byte, [][]bool) {
	var views [][]byte
	var masks [][]bool
	for _, s := range []*seq.Sequence{query, query.ReverseComplement()} {
		codes := s.Codes()
		var masked []bool
		if filter {
			masked = maskFlags(len(codes), DustMask(s, DefaultDust()))
		}
		views, masks = append(views, codes), append(masks, masked)
	}
	return views, masks
}

// checkOneTableSeeds scans subject's 2-bit payload through one table
// holding both strands of query, and requires each view's decoded seed
// stream to equal that view's own single-view table scan and the map
// reference's scan of the subject's codes. It returns the seeds per
// view.
func checkOneTableSeeds(t testing.TB, query, subject *seq.Sequence, w int, filter bool) [2]int {
	t.Helper()
	views, masks := strandViews(query, filter)
	both := buildNucLookup(views, w, masks)
	packed, err := seq.Pack2Bit(subject.Data)
	if err != nil {
		t.Fatal(err)
	}
	codes := subject.Codes()
	var got seedRecorder
	both.scan(packed, len(codes), &got)
	var n [2]int
	for v := range views {
		var single, ref seedRecorder
		buildNucLookup(views[v:v+1], w, masks[v:v+1]).scan(packed, len(codes), &single)
		buildRefNucLookup(views[v], w, masks[v]).scan(codes, &ref)
		want := ref.view(0)
		if len(single.views) > 1 || !reflect.DeepEqual(single.view(0), want) {
			t.Errorf("w=%d filter=%v view %d: single-view table gives %d seeds, reference %d",
				w, filter, v, len(single.view(0)), len(want))
		}
		if !reflect.DeepEqual(got.view(v), want) {
			t.Errorf("w=%d filter=%v view %d: one-table scan gives %d seeds, reference %d",
				w, filter, v, len(got.view(v)), len(want))
		}
		n[v] = len(want)
	}
	if len(got.views) > len(views) {
		t.Errorf("w=%d filter=%v: seeds reported for a view the table does not hold", w, filter)
	}
	return n
}

// palindromeQuery is x followed by its reverse complement, so both
// strands are the same letters and every word key lives in both
// views' groups of the one table.
func palindromeQuery(rng *util.RNG, n int) *seq.Sequence {
	x := randomDNA(rng, "x", n)
	return nucSeq(string(x.Data) + string(x.ReverseComplement().Data))
}

// aRichQuery mixes random bases with a long A run and a long T run, so
// against a poly-A subject both strands seed on every subject word.
func aRichQuery(rng *util.RNG) *seq.Sequence {
	q := randomDNA(rng, "arich", 240)
	for i := range q.Data {
		if rng.Intn(3) == 0 {
			q.Data[i] = 'A'
		}
	}
	copy(q.Data[30:], strings.Repeat("A", 45))
	copy(q.Data[150:], strings.Repeat("T", 45))
	return q
}

// TestOneTableSeedsMatchPerView pins the one-table scan to the
// per-view scans it replaced: for the direct form (W=7) and the stride
// form (W=10, W=11, W=28), with and without DUST, each view's seeds
// from the packed subject must arrive exactly as its own table and the
// map reference deliver them.
func TestOneTableSeedsMatchPerView(t *testing.T) {
	rng := util.NewRNG(4244)
	query := randomDNA(rng, "q", 300)
	subject := randomDNA(rng, "s", 4000)
	plant(subject, query.Data[20:200], 500)
	plant(subject, nucSeq(string(query.Data[100:280])).ReverseComplement().Data, 2500)
	pal := palindromeQuery(rng, 150)
	palSubject := randomDNA(rng, "ps", 2000)
	plant(palSubject, pal.Data[40:120], 900)
	polyA := nucSeq(strings.Repeat("A", 3000))
	aRich := aRichQuery(rng)

	for _, w := range []int{7, 10, 11, 28} {
		for _, filter := range []bool{false, true} {
			name := fmt.Sprintf("w=%d/filter=%v", w, filter)
			t.Run(name, func(t *testing.T) {
				if n := checkOneTableSeeds(t, query, subject, w, filter); n[0] == 0 || n[1] == 0 {
					t.Errorf("planted subject seeds %v per view; want both strands to fire", n)
				}
				checkOneTableSeeds(t, query, randomDNA(rng, "short", w-1), w, filter)
				checkOneTableSeeds(t, randomDNA(rng, "short", w-1), subject, w, filter)
				if n := checkOneTableSeeds(t, pal, palSubject, w, filter); n[0] == 0 || n[0] != n[1] {
					t.Errorf("palindrome seeds %v per view; want equal and non-zero", n)
				}
				if n := checkOneTableSeeds(t, aRich, polyA, w, filter); !filter && (n[0] <= seedBatch || n[1] <= seedBatch) {
					t.Errorf("poly-A seeds %v per view; want more than one arena each", n)
				}
			})
		}
	}
}

// FuzzOneTableSeeds compares the one-table scan against the per-view
// reference scans on arbitrary query and subject bases (each byte's low
// two bits pick the letter). sel picks the word size (bits 0-2: the
// direct form's W = 7 and every stride width from the k < 8 cases up
// to nucMaxWord) and turns DUST on (bit 3).
func FuzzOneTableSeeds(f *testing.F) {
	rng := util.NewRNG(4245)
	pal := palindromeQuery(rng, 40)
	f.Add(pal.Data, pal.Data[10:70], uint8(0))
	f.Add(aRichQuery(rng).Data, []byte(strings.Repeat("A", 200)), uint8(3))
	f.Add(aRichQuery(rng).Data, []byte(strings.Repeat("A", 200)), uint8(6|8))
	f.Add([]byte("ACGTAC"), []byte("ACGTACGTACGT"), uint8(0))
	f.Add([]byte("ACGTACGTACGTACGTACGT"), []byte("ACG"), uint8(6))
	f.Add(pal.Data, pal.Data[13:71], uint8(1))
	f.Add(pal.Data, pal.Data[2:79], uint8(2|8))
	f.Add(pal.Data, pal.Data[:80], uint8(7))
	f.Fuzz(func(t *testing.T, query, subject []byte, sel uint8) {
		const maxLen = 1 << 9 // all-A inputs seed len(query) x len(subject) times
		if len(query) > maxLen || len(subject) > maxLen {
			t.Skip()
		}
		letters := func(b []byte) string {
			out := make([]byte, len(b))
			for i, c := range b {
				out[i] = seq.NucLetter[c&3]
			}
			return string(out)
		}
		w := []int{7, 9, 10, 11, 12, 16, 28, 31}[sel&7]
		checkOneTableSeeds(t, nucSeq(letters(query)), nucSeq(letters(subject)), w, sel&8 != 0)
	})
}
