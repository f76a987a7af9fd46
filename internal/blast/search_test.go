package blast

import (
	"bytes"
	"strings"
	"testing"

	"pario/internal/seq"
	"pario/internal/util"
)

// randomDNA builds a random nucleotide sequence of length n.
func randomDNA(rng *util.RNG, id string, n int) *seq.Sequence {
	data := make([]byte, n)
	for i := range data {
		data[i] = seq.NucLetter[rng.Intn(4)]
	}
	return &seq.Sequence{ID: id, Kind: seq.Nucleotide, Data: data}
}

// plant embeds fragment into host at offset.
func plant(host *seq.Sequence, fragment []byte, offset int) {
	copy(host.Data[offset:], fragment)
}

func TestBlastNFindsPlantedMatch(t *testing.T) {
	rng := util.NewRNG(101)
	query := randomDNA(rng, "query", 568)
	subjects := make([]*seq.Sequence, 8)
	for i := range subjects {
		subjects[i] = randomDNA(rng, "subj"+string(rune('0'+i)), 5000)
	}
	// Plant the query's middle 200 bases into subject 3.
	plant(subjects[3], query.Data[180:380], 1000)

	res, err := Search(query, &SliceSource{Seqs: subjects}, DBInfo{}, Params{Program: BlastN})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("planted match not found")
	}
	best := res.Hits[0]
	if best.SubjectID != "subj3" {
		t.Fatalf("best hit = %s, want subj3", best.SubjectID)
	}
	hsp := best.HSPs[0]
	if hsp.EValue > 1e-20 {
		t.Errorf("planted 200-mer e-value = %g, should be tiny", hsp.EValue)
	}
	// The HSP must cover (most of) the planted region.
	if hsp.QueryFrom > 185 || hsp.QueryTo < 375 {
		t.Errorf("query extents [%d,%d) miss the planted region [180,380)", hsp.QueryFrom, hsp.QueryTo)
	}
	if hsp.SubjectFrom > 1005 || hsp.SubjectTo < 1195 {
		t.Errorf("subject extents [%d,%d) miss the planted site [1000,1200)", hsp.SubjectFrom, hsp.SubjectTo)
	}
	if hsp.Identities < 195 {
		t.Errorf("identities = %d, want ~200", hsp.Identities)
	}
}

func TestBlastNReverseStrand(t *testing.T) {
	rng := util.NewRNG(102)
	query := randomDNA(rng, "query", 300)
	subject := randomDNA(rng, "subj", 3000)
	// Plant the reverse complement of a query chunk.
	rc := query.Subsequence(50, 250).ReverseComplement()
	plant(subject, rc.Data, 500)

	res, err := Search(query, &SliceSource{Seqs: []*seq.Sequence{subject}}, DBInfo{}, Params{Program: BlastN})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("reverse-strand match not found")
	}
	hsp := res.Hits[0].HSPs[0]
	if hsp.QueryFrame != -1 {
		t.Errorf("query frame = %v, want -1", hsp.QueryFrame)
	}
	// Coordinates are reported on the forward strand.
	if hsp.QueryFrom > 55 || hsp.QueryTo < 245 {
		t.Errorf("query extents [%d,%d) miss planted region [50,250)", hsp.QueryFrom, hsp.QueryTo)
	}
	if hsp.SubjectFrom > 505 || hsp.SubjectTo < 695 {
		t.Errorf("subject extents [%d,%d) miss planted site [500,700)", hsp.SubjectFrom, hsp.SubjectTo)
	}
}

func TestBlastNNoFalsePositivesOnTinyDB(t *testing.T) {
	rng := util.NewRNG(103)
	query := randomDNA(rng, "query", 100)
	subject := randomDNA(rng, "subj", 200)
	res, err := Search(query, &SliceSource{Seqs: []*seq.Sequence{subject}}, DBInfo{},
		Params{Program: BlastN, EValue: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 0 {
		t.Errorf("random 100 vs 200 bases matched at E<=1e-6: %+v", res.Hits)
	}
}

func TestBlastNTolerantToMutations(t *testing.T) {
	rng := util.NewRNG(104)
	query := randomDNA(rng, "query", 400)
	subject := randomDNA(rng, "subj", 4000)
	// Plant a mutated copy: 3% point mutations.
	copyData := append([]byte(nil), query.Data...)
	for i := 0; i < 12; i++ {
		copyData[rng.Intn(len(copyData))] = seq.NucLetter[rng.Intn(4)]
	}
	plant(subject, copyData, 2000)
	res, err := Search(query, &SliceSource{Seqs: []*seq.Sequence{subject}}, DBInfo{}, Params{Program: BlastN})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("mutated copy not found")
	}
	hsp := res.Hits[0].HSPs[0]
	if hsp.AlignLen < 300 {
		t.Errorf("alignment length = %d, want near 400", hsp.AlignLen)
	}
}

func TestMaxTargetSeqs(t *testing.T) {
	rng := util.NewRNG(108)
	query := randomDNA(rng, "query", 200)
	var subjects []*seq.Sequence
	for i := 0; i < 5; i++ {
		s := randomDNA(rng, "s"+string(rune('0'+i)), 1000)
		plant(s, query.Data[50:150], 100)
		subjects = append(subjects, s)
	}
	res, err := Search(query, &SliceSource{Seqs: subjects}, DBInfo{},
		Params{Program: BlastN, MaxTargetSeqs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 2 {
		t.Errorf("MaxTargetSeqs=2 returned %d hits", len(res.Hits))
	}
}

func TestHitOrderingByEValue(t *testing.T) {
	rng := util.NewRNG(109)
	query := randomDNA(rng, "query", 300)
	weak := randomDNA(rng, "weak", 2000)
	strong := randomDNA(rng, "strong", 2000)
	plant(weak, query.Data[100:150], 500)  // 50-base match
	plant(strong, query.Data[50:250], 500) // 200-base match
	res, err := Search(query, &SliceSource{Seqs: []*seq.Sequence{weak, strong}}, DBInfo{}, Params{Program: BlastN})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) < 2 {
		t.Fatalf("expected 2 hits, got %d", len(res.Hits))
	}
	if res.Hits[0].SubjectID != "strong" {
		t.Errorf("hits not ordered by significance: first = %s", res.Hits[0].SubjectID)
	}
	if res.Hits[0].BestEValue() > res.Hits[1].BestEValue() {
		t.Error("e-values out of order")
	}
}

func TestSearchStatsPopulated(t *testing.T) {
	rng := util.NewRNG(110)
	query := randomDNA(rng, "query", 200)
	subject := randomDNA(rng, "s", 2000)
	plant(subject, query.Data[:100], 200)
	res, err := Search(query, &SliceSource{Seqs: []*seq.Sequence{subject}}, DBInfo{}, Params{Program: BlastN})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.DBSequences != 1 || st.DBLetters != 2000 {
		t.Errorf("db totals wrong: %+v", st)
	}
	if st.SeedHits == 0 || st.UngappedExts == 0 || st.GappedExts == 0 {
		t.Errorf("work counters empty: %+v", st)
	}
	if st.Lambda == 0 || st.K == 0 {
		t.Errorf("statistics params empty: %+v", st)
	}
}

func TestProgramParsing(t *testing.T) {
	p, err := ParseProgram("blastn")
	if err != nil || p != BlastN || p.String() != "blastn" {
		t.Fatalf("ParseProgram(blastn) = %v, %v", p, err)
	}
	for _, name := range []string{"blastp", "tblastx", "megablast", ""} {
		if _, err := ParseProgram(name); err == nil || !strings.Contains(err.Error(), "only blastn") {
			t.Errorf("ParseProgram(%q) error = %v, want one naming blastn as the only program", name, err)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	p := Params{Program: BlastN}.Defaults()
	if err := p.Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	bad := p
	bad.WordSize = 1
	if err := bad.Validate(); err == nil {
		t.Error("word size 1 accepted")
	}
	bad = p
	bad.WordSize = 20
	if err := bad.Validate(); err == nil {
		t.Error("blastn word size 20 accepted")
	}
	bad = p
	bad.EValue = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative e-value accepted")
	}
	// A job from a master that still named another program (blastp was
	// Program 1 on the wire) must fail, never run as blastn.
	q := randomDNA(util.NewRNG(112), "q", 100)
	for _, prog := range []Program{1, 4} {
		_, err := Search(q, &SliceSource{Seqs: []*seq.Sequence{q}}, DBInfo{}, Params{Program: prog})
		if err == nil || !strings.Contains(err.Error(), "only blastn") {
			t.Errorf("Search with %v: %v, want an error naming blastn as the only program", prog, err)
		}
	}
}

func TestDefaultsPerProgram(t *testing.T) {
	n := Params{Program: BlastN}.Defaults()
	if n.WordSize != 11 || n.EValue != 10 {
		t.Errorf("blastn defaults wrong: %+v", n)
	}
	m := Params{Program: BlastN, Greedy: true}.Defaults()
	if m.WordSize != 28 || m.EValue != 10 {
		t.Errorf("megablast defaults wrong: %+v", m)
	}
}

func TestReportOutput(t *testing.T) {
	rng := util.NewRNG(111)
	query := randomDNA(rng, "myquery", 200)
	subject := randomDNA(rng, "mysubject", 1000)
	plant(subject, query.Data[50:150], 300)
	res, err := Search(query, &SliceSource{Seqs: []*seq.Sequence{subject}}, DBInfo{}, Params{Program: BlastN})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"blastn search", "Query= myquery", "mysubject", "Lambda"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	var tab bytes.Buffer
	if err := WriteTabular(&tab, res); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(tab.String(), "myquery\tmysubject\t") {
		t.Errorf("tabular output wrong: %q", tab.String())
	}
}

func TestReportNoHits(t *testing.T) {
	rng := util.NewRNG(112)
	query := randomDNA(rng, "q", 50)
	subject := randomDNA(rng, "s", 60)
	res, err := Search(query, &SliceSource{Seqs: []*seq.Sequence{subject}}, DBInfo{},
		Params{Program: BlastN, EValue: 1e-30})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "No hits found") {
		t.Error("empty report missing marker")
	}
}

// seedFunc adapts a plain function to the seedSink the lookup tables
// scan into.
type seedFunc func(qpos, spos int)

func (f seedFunc) handleSeed(view, qpos, spos int) { f(qpos, spos) }

func TestNucLookup(t *testing.T) {
	q := (&seq.Sequence{Kind: seq.Nucleotide, Data: []byte("ACGTACGTACG")}).Codes()
	lt := buildNucLookup([][]byte{q}, 4, nil)
	var hits [][2]int
	s := (&seq.Sequence{Kind: seq.Nucleotide, Data: []byte("TTACGTTT")}).Codes()
	lt.scan(seq.PackCodes(s), len(s), seedFunc(func(qp, sp int) { hits = append(hits, [2]int{qp, sp}) }))
	// Subject words: "TACG" at 1 (query positions 3, 7) and "ACGT"
	// at 2 (query positions 0, 4): four seed hits in scan order.
	want := [][2]int{{3, 1}, {7, 1}, {0, 2}, {4, 2}}
	if len(hits) != len(want) {
		t.Fatalf("hits = %v, want %v", hits, want)
	}
	for i, h := range hits {
		if h != want[i] {
			t.Errorf("hit %d = %v, want %v", i, h, want[i])
		}
	}
}

func TestNucLookupShortInputs(t *testing.T) {
	lt := buildNucLookup([][]byte{{0, 1}}, 4, nil)
	called := false
	lt.scan(seq.PackCodes([]byte{0, 1, 2, 3}), 4, seedFunc(func(qp, sp int) { called = true }))
	if called {
		t.Error("short query should produce no hits")
	}
	lt2 := buildNucLookup([][]byte{{0, 1, 2, 3}}, 4, nil)
	lt2.scan(seq.PackCodes([]byte{0}), 1, seedFunc(func(qp, sp int) { called = true }))
	if called {
		t.Error("short subject should produce no hits")
	}
}

func TestCullHSPs(t *testing.T) {
	hsps := []rawHSP{
		{score: 100, qFrom: 0, qTo: 100, sFrom: 0, sTo: 100},
		{score: 50, qFrom: 10, qTo: 90, sFrom: 10, sTo: 90},     // contained
		{score: 60, qFrom: 200, qTo: 300, sFrom: 200, sTo: 300}, // separate
	}
	kept := cullHSPs(hsps)
	if len(kept) != 2 {
		t.Fatalf("culled to %d, want 2: %+v", len(kept), kept)
	}
	if kept[0].score != 100 || kept[1].score != 60 {
		t.Errorf("wrong HSPs kept: %+v", kept)
	}
}
