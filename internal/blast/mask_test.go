package blast

import (
	"strings"
	"testing"

	"pario/internal/seq"
	"pario/internal/util"
)

func nucSeq(s string) *seq.Sequence {
	return &seq.Sequence{ID: "t", Kind: seq.Nucleotide, Data: []byte(s)}
}

func TestDustMasksPolyA(t *testing.T) {
	s := nucSeq(strings.Repeat("A", 200))
	ivs := DustMask(s, DefaultDust())
	if TotalMasked(ivs) < 150 {
		t.Errorf("poly-A masked only %d of 200", TotalMasked(ivs))
	}
}

func TestDustMasksTandemRepeat(t *testing.T) {
	s := nucSeq(strings.Repeat("AT", 100))
	ivs := DustMask(s, DefaultDust())
	if TotalMasked(ivs) < 150 {
		t.Errorf("AT microsatellite masked only %d of 200", TotalMasked(ivs))
	}
	s2 := nucSeq(strings.Repeat("CAG", 70))
	ivs2 := DustMask(s2, DefaultDust())
	if TotalMasked(ivs2) < 150 {
		t.Errorf("CAG repeat masked only %d of 210", TotalMasked(ivs2))
	}
}

func TestDustLeavesRandomAlone(t *testing.T) {
	rng := util.NewRNG(31)
	data := make([]byte, 2000)
	for i := range data {
		data[i] = seq.NucLetter[rng.Intn(4)]
	}
	ivs := DustMask(&seq.Sequence{Kind: seq.Nucleotide, Data: data}, DefaultDust())
	if n := TotalMasked(ivs); n > 100 {
		t.Errorf("random DNA masked %d of 2000", n)
	}
}

func TestDustMasksEmbeddedRun(t *testing.T) {
	rng := util.NewRNG(32)
	data := make([]byte, 600)
	for i := range data {
		data[i] = seq.NucLetter[rng.Intn(4)]
	}
	copy(data[200:], strings.Repeat("A", 120))
	ivs := DustMask(&seq.Sequence{Kind: seq.Nucleotide, Data: data}, DefaultDust())
	covered := false
	for _, iv := range ivs {
		if iv.From <= 230 && iv.To >= 290 {
			covered = true
		}
	}
	if !covered {
		t.Errorf("embedded poly-A not covered: %v", ivs)
	}
}

func TestDustShortSequence(t *testing.T) {
	if ivs := DustMask(nucSeq("ACGT"), DefaultDust()); ivs != nil {
		t.Errorf("4-base sequence masked: %v", ivs)
	}
	// Short but maskable.
	ivs := DustMask(nucSeq(strings.Repeat("A", 40)), DefaultDust())
	if TotalMasked(ivs) == 0 {
		t.Error("40-base poly-A not masked")
	}
}

func TestMergeIntervals(t *testing.T) {
	got := mergeIntervals([]Interval{{10, 20}, {5, 12}, {30, 40}, {20, 25}})
	want := []Interval{{5, 25}, {30, 40}}
	if len(got) != len(want) {
		t.Fatalf("merged = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("merged[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if TotalMasked(got) != 30 {
		t.Errorf("total = %d", TotalMasked(got))
	}
}

func TestWordAllowed(t *testing.T) {
	flags := maskFlags(10, []Interval{{4, 6}})
	if !wordAllowed(flags, 0, 4) {
		t.Error("clean word rejected")
	}
	if wordAllowed(flags, 2, 4) {
		t.Error("word overlapping mask accepted")
	}
	if !wordAllowed(flags, 6, 4) {
		t.Error("word after mask rejected")
	}
	if !wordAllowed(nil, 0, 4) {
		t.Error("nil flags should allow everything")
	}
}

func TestFilterSuppressesLowComplexityHits(t *testing.T) {
	// A poly-A query against a database with a poly-A region: with
	// the filter off it "matches", with the filter on it must not.
	rng := util.NewRNG(33)
	host := randomDNA(rng, "subj", 2000)
	copy(host.Data[800:], strings.Repeat("A", 300))
	query := nucSeq(strings.Repeat("A", 200))
	query.ID = "polyA"

	unfiltered, err := Search(query, &SliceSource{Seqs: []*seq.Sequence{host}}, DBInfo{},
		Params{Program: BlastN, Filter: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(unfiltered.Hits) == 0 {
		t.Fatal("unfiltered poly-A search found nothing (test setup broken)")
	}
	filtered, err := Search(query, &SliceSource{Seqs: []*seq.Sequence{host}}, DBInfo{},
		Params{Program: BlastN, Filter: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered.Hits) != 0 {
		t.Errorf("filter on: still %d hits from a pure low-complexity query", len(filtered.Hits))
	}
	if filtered.Stats.MaskedLetters == 0 {
		t.Error("no letters reported masked")
	}
}

func TestFilterKeepsRealHits(t *testing.T) {
	// A normal query with a planted match must still be found with
	// filtering enabled.
	rng := util.NewRNG(34)
	query := randomDNA(rng, "query", 400)
	subject := randomDNA(rng, "subj", 3000)
	copy(subject.Data[1000:], query.Data[100:300])
	res, err := Search(query, &SliceSource{Seqs: []*seq.Sequence{subject}}, DBInfo{},
		Params{Program: BlastN, Filter: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("filter removed a legitimate high-complexity hit")
	}
}

func TestMegablastFindsNearIdenticalMatch(t *testing.T) {
	rng := util.NewRNG(61)
	query := randomDNA(rng, "query", 500)
	subject := randomDNA(rng, "subj", 5000)
	// Plant a near-identical copy (2 mutations).
	cp := append([]byte(nil), query.Data...)
	cp[100] = flipBase(cp[100])
	cp[350] = flipBase(cp[350])
	copy(subject.Data[2000:], cp)
	res, err := Search(query, &SliceSource{Seqs: []*seq.Sequence{subject}}, DBInfo{},
		Params{Program: BlastN, Greedy: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("megablast missed a near-identical match")
	}
	hsp := res.Hits[0].HSPs[0]
	if hsp.QueryFrom > 5 || hsp.QueryTo < 495 {
		t.Errorf("extents [%d,%d) should cover ~[0,500)", hsp.QueryFrom, hsp.QueryTo)
	}
	if hsp.Identities < 490 {
		t.Errorf("identities = %d, want ~498", hsp.Identities)
	}
}

func flipBase(b byte) byte {
	switch b {
	case 'A':
		return 'C'
	case 'C':
		return 'G'
	case 'G':
		return 'T'
	default:
		return 'A'
	}
}

func TestMegablastLessSensitiveThanBlastn(t *testing.T) {
	// A diverged match (every ~20th base mutated) has no 28-mer exact
	// seeds, so megablast misses it while blastn (word 11) finds it.
	rng := util.NewRNG(62)
	query := randomDNA(rng, "query", 400)
	subject := randomDNA(rng, "subj", 4000)
	cp := append([]byte(nil), query.Data...)
	for i := 10; i < len(cp); i += 20 {
		cp[i] = flipBase(cp[i])
	}
	copy(subject.Data[1500:], cp)
	src := func() SubjectSource { return &SliceSource{Seqs: []*seq.Sequence{subject}} }
	normal, err := Search(query, src(), DBInfo{}, Params{Program: BlastN})
	if err != nil {
		t.Fatal(err)
	}
	if len(normal.Hits) == 0 {
		t.Fatal("blastn missed the diverged match (setup broken)")
	}
	mega, err := Search(query, src(), DBInfo{}, Params{Program: BlastN, Greedy: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(mega.Hits) != 0 {
		// Possible only if a 28-mer survived mutation spacing; the
		// fixed spacing of 20 < 28 guarantees none does.
		t.Errorf("megablast unexpectedly found the diverged match")
	}
}

func TestMegablastReverseStrand(t *testing.T) {
	rng := util.NewRNG(63)
	query := randomDNA(rng, "query", 300)
	subject := randomDNA(rng, "subj", 3000)
	rc := query.Subsequence(20, 280).ReverseComplement()
	copy(subject.Data[700:], rc.Data)
	res, err := Search(query, &SliceSource{Seqs: []*seq.Sequence{subject}}, DBInfo{},
		Params{Program: BlastN, Greedy: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("megablast missed reverse-strand match")
	}
	if res.Hits[0].HSPs[0].QueryFrame != -1 {
		t.Errorf("frame = %v, want -1", res.Hits[0].HSPs[0].QueryFrame)
	}
}

func TestMegablastValidation(t *testing.T) {
	n := Params{Program: BlastN, Greedy: true}.Defaults()
	if n.wordSize() != 28 {
		t.Errorf("megablast word = %d, want 28", n.wordSize())
	}
	if err := n.Validate(); err != nil {
		t.Errorf("megablast defaults invalid: %v", err)
	}
}

// TestMegablastWordLimit pins megablast's 28-base words: a query must
// find its full-length self-alignment, including its poly-T run, whose
// words carry every key bit.
func TestMegablastWordLimit(t *testing.T) {
	rng := util.NewRNG(303)
	query := randomDNA(rng, "poly-t", 200)
	copy(query.Data[60:], strings.Repeat("T", 70))
	subject := &seq.Sequence{ID: "self", Kind: seq.Nucleotide, Data: append([]byte(nil), query.Data...)}
	res, err := Search(query, &SliceSource{Seqs: []*seq.Sequence{subject}}, DBInfo{},
		Params{Program: BlastN, Greedy: true})
	if err != nil {
		t.Fatal(err)
	}
	self := false
	for _, h := range res.Hits {
		for _, hsp := range h.HSPs {
			self = self || (hsp.QueryFrame == 1 && hsp.QueryFrom == 0 && hsp.SubjectFrom == 0 &&
				hsp.QueryTo == query.Len() && hsp.SubjectTo == query.Len())
		}
	}
	if !self {
		t.Errorf("megablast missed the full-length self-diagonal: %+v", res.Hits)
	}
}
