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

// TestNucLookupMatchesReference drives the CSR table at both word
// sizes the engine runs (blastn's 11, megablast's 28), scanning the
// packed subject, against the reference map implementation scanning its
// codes, over queries with planted repeats and optional masking, and
// requires identical seed streams. The subjects cover every length mod
// 4; each carries matches starting at s = 0…3 and one ending on its
// last base, so every phase, the s >= 0 bound, the s+W <= n bound and
// Window64's tail path all fire.
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

	for _, w := range []int{blastnWord, megablastWord} {
		for _, m := range [][]bool{nil, masked} {
			name := "unmasked"
			if m != nil {
				name = "masked"
			}
			lt := buildNucLookup([][]byte{query}, w, [][]bool{m})
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

// refSeeds returns the map reference's seeds of each strand view of
// query over subject.
func refSeeds(query, subject *seq.Sequence, w int) [][]seedPair {
	views, _ := strandViews(query, false)
	out := make([][]seedPair, len(views))
	for v, codes := range views {
		var rec seedRecorder
		buildRefNucLookup(codes, w, nil).scan(subject.Codes(), &rec)
		out[v] = rec.view(0)
	}
	return out
}

// edgeQuery is a random query whose bases 97-99 are "AAA": a chunk
// planted from base 100 at a subject's start then also matches, in
// the zero padding before the subject, the words that start one to
// three bases earlier, so a scan that let a word start before the
// subject would seed there.
func edgeQuery(rng *util.RNG, n int) *seq.Sequence {
	q := randomDNA(rng, "edge", n)
	copy(q.Data[97:], "AAA")
	return q
}

// TestNucLookupEdgesMatchReference compares the one table with the map
// reference wherever the verify window is out of the ordinary: steps
// whose window is zero-padded at the subject's start or in its last 7
// payload bytes, payloads shorter than 8 bytes (padded at every step),
// megablast words at phase 0, which fill the window's bits 8-63
// exactly, and a two-strand table of more than 65 535 entries. Each
// case also requires the seeds that make it non-vacuous.
func TestNucLookupEdgesMatchReference(t *testing.T) {
	rng := util.NewRNG(4246)
	query := edgeQuery(rng, 600)

	t.Run("short", func(t *testing.T) {
		for _, w := range []int{blastnWord, megablastWord} {
			for n := w; n < 4*nucKey; n++ {
				subject := nucSeq(string(query.Data[100 : 100+n]))
				checkOneTableSeeds(t, query, subject, w, false)
				if fwd := refSeeds(query, subject, w)[0]; len(fwd) != n-w+1 || fwd[0].spos != 0 {
					t.Fatalf("w=%d n=%d: reference seeds %v, want one at every s in 0..%d", w, n, fwd, n-w)
				}
			}
		}
	})

	t.Run("ends", func(t *testing.T) {
		for _, w := range []int{blastnWord, megablastWord} {
			for n := 300; n < 308; n++ {
				subject := randomDNA(rng, "ends", n)
				plant(subject, query.Data[100:140], 0)
				plant(subject, query.Data[300:340], n-40)
				checkOneTableSeeds(t, query, subject, w, false)
				fwd := refSeeds(query, subject, w)[0]
				last := fwd[len(fwd)-1].spos
				if fwd[0].spos != 0 || last != n-w {
					t.Fatalf("w=%d n=%d: reference seeds span %d..%d, want 0..%d", w, n, fwd[0].spos, last, n-w)
				}
				// The last match's step reads a window padded past the
				// payload's end, except at W = 28, whose matches
				// always leave the window inside the payload.
				if b, q := (last+3)/4, (n+3)/4; w == blastnWord && b+7 <= q {
					t.Fatalf("n=%d: last seed's step %d reads a full window; the tail case is vacuous", n, b)
				}
			}
		}
	})

	t.Run("megablast-phase0", func(t *testing.T) {
		subject := randomDNA(rng, "phase0", 2000)
		word := query.Data[100 : 100+megablastWord]
		// Phase 0 at the subject's start, inside it and ending on its
		// last base; one match at phase 3 keeps every phase's shift
		// in play.
		offs := []int{0, 400, 804, 1401, 1972}
		for _, off := range offs {
			plant(subject, word, off)
		}
		// Near misses: the word with its first, or its last, base
		// changed, each at phase 0, must not seed.
		other := map[byte]byte{'A': 'C', 'C': 'G', 'G': 'T', 'T': 'A'}
		plant(subject, word, 1200)
		subject.Data[1200] = other[subject.Data[1200]]
		plant(subject, word, 1600)
		subject.Data[1600+megablastWord-1] = other[subject.Data[1600+megablastWord-1]]
		checkOneTableSeeds(t, query, subject, megablastWord, false)
		got := map[int]bool{}
		for _, sd := range refSeeds(query, subject, megablastWord)[0] {
			got[sd.spos] = true
		}
		for _, off := range offs {
			if !got[off] {
				t.Errorf("reference has no seed at %d", off)
			}
		}
		if got[1200] || got[1600] {
			t.Errorf("reference seeds a near miss; the case is vacuous")
		}
	})

	t.Run("large", func(t *testing.T) {
		big := edgeQuery(rng, 9000)
		views, masks := strandViews(big, false)
		if lt := buildNucLookup(views, blastnWord, masks); len(lt.words) <= 1<<16-1 {
			t.Fatalf("two-strand table holds %d entries, want more than 65 535", len(lt.words))
		}
		subject := randomDNA(rng, "large", 20000)
		plant(subject, big.Data[100:200], 0)
		plant(subject, big.Data[8000:8300], 5001)
		plant(subject, big.ReverseComplement().Data[3000:3300], 12002)
		plant(subject, big.Data[8800:8900], 19900)
		if n := checkOneTableSeeds(t, big, subject, blastnWord, false); n[0] == 0 || n[1] == 0 {
			t.Errorf("seeds %v per view; want both strands to fire", n)
		}
	})
}

// tableBytes counts the memory a table holds: its fixed fields plus
// the capacity of each of its slices.
func tableBytes(lt *nucLookup) int {
	v := reflect.ValueOf(lt).Elem()
	n := int(v.Type().Size())
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			n += f.Cap() * int(f.Type().Elem().Size())
		}
	}
	return n
}

// TestNucLookupTableBytes bounds the table built for a 568-letter
// query's two strands, the paper's blastn query, at 80 KiB: the
// presence vector, its ranks, one bound per present key and 12 bytes
// per entry. A per-key array of group bounds (256 KiB) or fatter
// entries fail it.
func TestNucLookupTableBytes(t *testing.T) {
	views, masks := strandViews(randomDNA(util.NewRNG(4247), "q", 568), false)
	for _, w := range []int{blastnWord, megablastWord} {
		lt := buildNucLookup(views, w, masks)
		if len(lt.words) == 0 {
			t.Fatalf("w=%d: empty table", w)
		}
		if n := tableBytes(lt); n > 80<<10 {
			t.Errorf("w=%d: table holds %d bytes (%d entries, %d groups), bound is 80 KiB",
				w, n, len(lt.words), len(lt.bounds)-1)
		}
	}
}

// TestNucLookupStrideNoFalseHits feeds the table a subject built from
// the query's own 8-mers in random flanks, so many aligned subject
// 8-mers pass the presence vector while the whole words around them
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
	for _, w := range []int{blastnWord, megablastWord} {
		lt := buildNucLookup([][]byte{query}, w, nil)
		passed := 0
		for a := 0; a+nucKey <= len(subject); a += 4 {
			key := int(packed[a/4]) | int(packed[a/4+1])<<8
			if lt.present[key/64]&(1<<(key%64)) != 0 {
				passed++
			}
		}
		if passed <= 100 {
			t.Fatalf("w=%d: only %d aligned subject 8-mers pass the presence vector; test is vacuous", w, passed)
		}
		ref := buildRefNucLookup(query, w, nil)
		var got, want seedRecorder
		lt.scan(packed, len(subject), &got)
		ref.scan(subject, &want)
		if !reflect.DeepEqual(got.views, want.views) {
			t.Errorf("w=%d: table differs from reference: %d vs %d seeds",
				w, len(got.view(0)), len(want.view(0)))
		}
	}
}

// TestNucLookupEmptyQuery covers the degenerate builds.
func TestNucLookupEmptyQuery(t *testing.T) {
	var rec seedRecorder
	for _, w := range []int{blastnWord, megablastWord} {
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
// per-view scans it replaced: at W=11 and W=28, with and without DUST,
// each view's seeds from the packed subject must arrive exactly as its
// own table and the map reference deliver them.
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

	for _, w := range []int{blastnWord, megablastWord} {
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
// two bits pick the letter). sel picks the word size (bit 0: blastn's
// 11 or megablast's 28) and turns DUST on (bit 1).
func FuzzOneTableSeeds(f *testing.F) {
	rng := util.NewRNG(4245)
	pal := palindromeQuery(rng, 40)
	f.Add(pal.Data, pal.Data[10:70], uint8(0))
	f.Add(aRichQuery(rng).Data, []byte(strings.Repeat("A", 200)), uint8(1))
	f.Add(aRichQuery(rng).Data, []byte(strings.Repeat("A", 200)), uint8(1|2))
	f.Add([]byte("ACGTACGTAC"), []byte("ACGTACGTACGTACGT"), uint8(0))
	f.Add([]byte("ACGTACGTACGTACGTACGTACGTACGTACGT"), []byte("ACG"), uint8(1))
	f.Add(pal.Data, pal.Data[13:71], uint8(1))
	f.Add(pal.Data, pal.Data[2:79], uint8(2))
	f.Add(pal.Data, pal.Data[:80], uint8(1|2))
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
		w := []int{blastnWord, megablastWord}[sel&1]
		checkOneTableSeeds(t, nucSeq(letters(query)), nucSeq(letters(subject)), w, sel&2 != 0)
	})
}
