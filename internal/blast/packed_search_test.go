package blast

import (
	"fmt"
	"reflect"
	"testing"

	"pario/internal/seq"
	"pario/internal/util"
)

// packedCopies rebuilds subjects as packed-payload sequences, the form
// a blastdb fragment hands the search.
func packedCopies(t *testing.T, subjects []*seq.Sequence) []*seq.Sequence {
	t.Helper()
	out := make([]*seq.Sequence, len(subjects))
	for i, s := range subjects {
		packed, err := seq.Pack2Bit(s.Data)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = seq.NewPacked2Bit(s.ID, s.Desc, packed, len(s.Data))
	}
	return out
}

// TestPackedSubjectsMatchLetterSubjects is the golden test of the one
// nucleotide subject form: the same search over letter subjects (packed
// once where they enter the searcher) and over their 2-bit packed twins
// (borrowed as they are) must give bit-identical hits and identical
// work counters, for blastn, filtered blastn and megablast, with the
// ignored Params.Threads at one and four.
func TestPackedSubjectsMatchLetterSubjects(t *testing.T) {
	rng := util.NewRNG(701)
	query := randomDNA(rng, "query", 480)
	subjects := make([]*seq.Sequence, 10)
	for i := range subjects {
		subjects[i] = randomDNA(rng, "subj"+string(rune('0'+i)), 3000)
	}
	// Plant forward copies, a mutated copy, and a reverse-complement
	// copy so both strands and the gapped stage all fire.
	plant(subjects[2], query.Data[100:340], 700)
	mutated := append([]byte(nil), query.Data[50:350]...)
	for i := 0; i < 9; i++ {
		mutated[rng.Intn(len(mutated))] = seq.NucLetter[rng.Intn(4)]
	}
	plant(subjects[5], mutated, 1500)
	rc := query.Subsequence(200, 440).ReverseComplement()
	plant(subjects[8], rc.Data, 300)
	packed := packedCopies(t, subjects)

	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"blastn", Params{Program: BlastN}},
		{"blastn-filtered", Params{Program: BlastN, Filter: true}},
		{"megablast", Params{Program: BlastN, Greedy: true}},
	} {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/threads=%d", tc.name, threads), func(t *testing.T) {
				p := tc.p
				p.Threads = threads
				fromLetters, err := Search(query, &SliceSource{Seqs: subjects}, DBInfo{}, p)
				if err != nil {
					t.Fatal(err)
				}
				fromPacked, err := Search(query, &SliceSource{Seqs: packed}, DBInfo{}, p)
				if err != nil {
					t.Fatal(err)
				}
				if len(fromLetters.Hits) == 0 {
					t.Fatal("letter-subject search found nothing; test workload is broken")
				}
				if !reflect.DeepEqual(fromLetters.Hits, fromPacked.Hits) {
					t.Fatal("packed-subject hits differ from letter-subject hits")
				}
				if fromLetters.Stats != fromPacked.Stats {
					t.Errorf("stats differ:\nletters %+v\npacked  %+v", fromLetters.Stats, fromPacked.Stats)
				}
				st := fromPacked.Stats
				if st.ScannedBases != 10*3000 || st.PackedExts != st.UngappedExts || !p.Greedy && st.PackedExts == 0 {
					t.Errorf("scanned %d bases (want %d), %d packed of %d ungapped extensions; the packed kernel must serve every blastn extension",
						st.ScannedBases, 10*3000, st.PackedExts, st.UngappedExts)
				}
			})
		}
	}
}
