package blast

import (
	"bytes"
	"strings"
	"testing"

	"pario/internal/align"
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

func TestBlastPSelfHit(t *testing.T) {
	prot := &seq.Sequence{ID: "p1", Kind: seq.Protein,
		Data: []byte("MKWVTFISLLLLFSSAYSRGVFRRDTHKSEIAHRFKDLGEEHFKGLVLIAFSQYLQQCPFDEHVKLVNELTEFAK")}
	res, err := Search(prot, &SliceSource{Seqs: []*seq.Sequence{prot}}, DBInfo{}, Params{Program: BlastP})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 {
		t.Fatalf("self search found %d hits", len(res.Hits))
	}
	hsp := res.Hits[0].HSPs[0]
	if hsp.Identities != prot.Len() {
		t.Errorf("self hit identities = %d, want %d", hsp.Identities, prot.Len())
	}
	if hsp.QueryFrom != 0 || hsp.QueryTo != prot.Len() {
		t.Errorf("self hit extents [%d,%d)", hsp.QueryFrom, hsp.QueryTo)
	}
}

func TestBlastPRelatedProteins(t *testing.T) {
	// Two serum albumin fragments with scattered substitutions should
	// still align via BLOSUM62.
	a := &seq.Sequence{ID: "a", Kind: seq.Protein,
		Data: []byte("MKWVTFISLLLLFSSAYSRGVFRRDTHKSEIAHRFKDLGEEHFKGLVLIAFSQYLQQCPF")}
	b := &seq.Sequence{ID: "b", Kind: seq.Protein,
		Data: []byte("MKWVTFISLLFLFSSAYSRGVFRREAHKSEIAHRYNDLGEQHFKGLVLVAFSQYLQKCPF")}
	res, err := Search(a, &SliceSource{Seqs: []*seq.Sequence{b}}, DBInfo{}, Params{Program: BlastP})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 {
		t.Fatal("related proteins not found")
	}
	hsp := res.Hits[0].HSPs[0]
	if hsp.Identities < 50 {
		t.Errorf("identities = %d, want >= 50", hsp.Identities)
	}
}

func TestBlastXFindsProteinInDNA(t *testing.T) {
	prot := &seq.Sequence{ID: "prot", Kind: seq.Protein,
		Data: []byte("MKWVTFISLLLLFSSAYSRGVFRRDTHKSEIAHRFKDLGEEHFKGLVLIAFSQYLQQCPF")}
	// Back-translate deterministically (pick one codon per residue).
	dna := backTranslate(prot.Data)
	rng := util.NewRNG(105)
	host := randomDNA(rng, "dnaquery", len(dna)+600)
	plant(host, dna, 300)
	res, err := Search(host, &SliceSource{Seqs: []*seq.Sequence{prot}}, DBInfo{}, Params{Program: BlastX})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("blastx found nothing")
	}
	hsp := res.Hits[0].HSPs[0]
	if hsp.QueryFrame == 0 {
		t.Error("blastx hit should carry a query frame")
	}
	// The planted ORF starts at nucleotide 300.
	if hsp.QueryFrom > 310 || hsp.QueryTo < 300+len(dna)-10 {
		t.Errorf("query extents [%d,%d) miss planted ORF [300,%d)", hsp.QueryFrom, hsp.QueryTo, 300+len(dna))
	}
}

func TestTBlastNFindsORFInDatabase(t *testing.T) {
	prot := &seq.Sequence{ID: "prot", Kind: seq.Protein,
		Data: []byte("MKWVTFISLLLLFSSAYSRGVFRRDTHKSEIAHRFKDLGEEHFKGLVLIAFSQYLQQCPF")}
	dna := backTranslate(prot.Data)
	rng := util.NewRNG(106)
	host := randomDNA(rng, "genome", len(dna)+1000)
	plant(host, dna, 500)
	res, err := Search(prot, &SliceSource{Seqs: []*seq.Sequence{host}}, DBInfo{}, Params{Program: TBlastN})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("tblastn found nothing")
	}
	hsp := res.Hits[0].HSPs[0]
	if hsp.SubjectFrame == 0 {
		t.Error("tblastn hit should carry a subject frame")
	}
	if hsp.SubjectFrom > 510 || hsp.SubjectTo < 500+len(dna)-10 {
		t.Errorf("subject extents [%d,%d) miss planted ORF [500,%d)", hsp.SubjectFrom, hsp.SubjectTo, 500+len(dna))
	}
}

func TestTBlastXFindsSharedORF(t *testing.T) {
	prot := []byte("MKWVTFISLLLLFSSAYSRGVFRRDTHKSEIAHRFKDLGEEHFKGLVLIAFSQYLQQCPF")
	dna := backTranslate(prot)
	rng := util.NewRNG(107)
	q := randomDNA(rng, "q", len(dna)+400)
	s := randomDNA(rng, "s", len(dna)+800)
	plant(q, dna, 200)
	plant(s, dna, 400)
	res, err := Search(q, &SliceSource{Seqs: []*seq.Sequence{s}}, DBInfo{}, Params{Program: TBlastX})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("tblastx found nothing")
	}
}

// backTranslate maps residues to an arbitrary fixed codon.
func backTranslate(prot []byte) []byte {
	codon := map[byte]string{
		'A': "GCT", 'R': "CGT", 'N': "AAT", 'D': "GAT", 'C': "TGT",
		'Q': "CAA", 'E': "GAA", 'G': "GGT", 'H': "CAT", 'I': "ATT",
		'L': "CTG", 'K': "AAA", 'M': "ATG", 'F': "TTT", 'P': "CCT",
		'S': "TCT", 'T': "ACT", 'W': "TGG", 'Y': "TAT", 'V': "GTT",
	}
	var out []byte
	for _, aa := range prot {
		out = append(out, codon[aa]...)
	}
	return out
}

func TestSearchRejectsWrongKinds(t *testing.T) {
	dna := &seq.Sequence{ID: "d", Kind: seq.Nucleotide, Data: []byte("ACGT")}
	prot := &seq.Sequence{ID: "p", Kind: seq.Protein, Data: []byte("MKWV")}
	if _, err := Search(prot, &SliceSource{}, DBInfo{}, Params{Program: BlastN}); err == nil {
		t.Error("blastn accepted a protein query")
	}
	if _, err := Search(dna, &SliceSource{Seqs: []*seq.Sequence{dna}}, DBInfo{}, Params{Program: BlastP}); err == nil {
		t.Error("blastp accepted a nucleotide query")
	}
	if _, err := Search(dna, &SliceSource{Seqs: []*seq.Sequence{prot}}, DBInfo{}, Params{Program: BlastN}); err == nil {
		t.Error("blastn accepted a protein database")
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
	for _, name := range []string{"blastn", "blastp", "blastx", "tblastn", "tblastx"} {
		p, err := ParseProgram(name)
		if err != nil {
			t.Fatalf("ParseProgram(%s): %v", name, err)
		}
		if p.String() != name {
			t.Errorf("round trip %s -> %s", name, p.String())
		}
	}
	if _, err := ParseProgram("megablast"); err == nil {
		t.Error("unknown program accepted")
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
	prot := Params{Program: BlastP}.Defaults()
	prot.WordSize = 7
	if err := prot.Validate(); err == nil {
		t.Error("protein word size 7 accepted")
	}
	// A scheme of the wrong kind for the program: a protein matrix
	// under blastn, a 4x4 nucleotide table under blastp.
	bad = Params{Program: BlastN, Scheme: align.Blosum62(11, 1)}.Defaults()
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "blastn") || !strings.Contains(err.Error(), "BLOSUM62") {
		t.Errorf("blastn with BLOSUM62: %v, want an error naming program and scheme", err)
	}
	prot = Params{Program: BlastP, Scheme: align.DefaultNucleotide()}.Defaults()
	if err := prot.Validate(); err == nil || !strings.Contains(err.Error(), "blastp") || !strings.Contains(err.Error(), "match+1/mismatch-3") {
		t.Errorf("blastp with a nucleotide scheme: %v, want an error naming program and scheme", err)
	}
	protein := &seq.Sequence{ID: "p", Kind: seq.Protein, Data: []byte("MKWVTFISLLFLFSSAYS")}
	if _, err := Search(protein, &SliceSource{Seqs: []*seq.Sequence{protein}}, DBInfo{}, prot); err == nil {
		t.Error("Search ran blastp under a nucleotide scheme")
	}
}

func TestDefaultsPerProgram(t *testing.T) {
	n := Params{Program: BlastN}.Defaults()
	if n.WordSize != 11 || !n.BothStrands || n.Scheme.Kind != seq.Nucleotide {
		t.Errorf("blastn defaults wrong: %+v", n)
	}
	p := Params{Program: BlastP}.Defaults()
	if p.WordSize != 3 || p.Threshold != 11 || p.TwoHitWindow != 40 {
		t.Errorf("blastp defaults wrong: %+v", p)
	}
	x := Params{Program: TBlastX}.Defaults()
	if x.WordSize != 3 || x.Scheme.Kind != seq.Protein {
		t.Errorf("tblastx defaults wrong: %+v", x)
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

func TestProtLookupNeighborhood(t *testing.T) {
	scheme := Params{Program: BlastP}.Defaults().Scheme
	q := (&seq.Sequence{Kind: seq.Protein, Data: []byte("WWW")}).Codes()
	lt := buildProtLookup(q, 0, 3, 11, seq.NumAA, scheme, nil)
	// Exact word WWW scores 33 >= 11: must be present.
	var found bool
	lt.scan(q, len(q), seedFunc(func(qp, sp int) {
		if qp == 0 && sp == 0 {
			found = true
		}
	}))
	if !found {
		t.Error("exact word not in its own neighborhood")
	}
	// A conservative substitution W->F (score 1+11+11 = 23 >= 11)
	// should also seed.
	fww := (&seq.Sequence{Kind: seq.Protein, Data: []byte("FWW")}).Codes()
	found = false
	lt.scan(fww, len(fww), seedFunc(func(qp, sp int) { found = true }))
	if !found {
		t.Error("neighborhood word FWW not found for query WWW")
	}
	// A drastic triple substitution should not seed: PPP vs WWW
	// scores 3*(-4) < 11.
	ppp := (&seq.Sequence{Kind: seq.Protein, Data: []byte("PPP")}).Codes()
	found = false
	lt.scan(ppp, len(ppp), seedFunc(func(qp, sp int) { found = true }))
	if found {
		t.Error("PPP should not be in WWW's neighborhood")
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

func TestTranslatedEffectiveLengths(t *testing.T) {
	// Translated programs measure the search space in residues:
	// effective lengths divide nucleotide lengths by 3, so the
	// effective search space must be well under the naive
	// nucleotide-length product.
	prot := &seq.Sequence{ID: "p", Kind: seq.Protein,
		Data: []byte("MKWVTFISLLLLFSSAYSRGVFRRDTHKSEIAHRFKDLGEEHFKGLVLIAFSQYLQQCPF")}
	rng := util.NewRNG(113)
	genome := randomDNA(rng, "g", 3000)
	res, err := Search(prot, &SliceSource{Seqs: []*seq.Sequence{genome}}, DBInfo{},
		Params{Program: TBlastN})
	if err != nil {
		t.Fatal(err)
	}
	naive := int64(prot.Len()) * 3000
	if res.Stats.EffSearchLen >= naive/2 {
		t.Errorf("tblastn effective space %d not reduced from naive %d", res.Stats.EffSearchLen, naive)
	}
	// blastn on the same subject keeps nucleotide-space lengths.
	q := randomDNA(rng, "q", 60)
	resN, err := Search(q, &SliceSource{Seqs: []*seq.Sequence{genome}}, DBInfo{},
		Params{Program: BlastN})
	if err != nil {
		t.Fatal(err)
	}
	if resN.Stats.EffSearchLen <= res.Stats.EffSearchLen {
		t.Errorf("blastn space %d should exceed tblastn space %d",
			resN.Stats.EffSearchLen, res.Stats.EffSearchLen)
	}
}
