package blast

import (
	"math"
	"reflect"
	"testing"

	"pario/internal/seq"
	"pario/internal/util"
)

// newSearcher returns a searcher reset onto eng, for tests that drive
// searchSubject directly.
func newSearcher(eng *engine) *searcher {
	sr := new(searcher)
	sr.reset(eng)
	return sr
}

// TestSearcherReuseMatchesFresh runs one Searcher through a sequence of
// searches that switch the query, the parameters and the subject form,
// and requires each Result, stats included, to equal a fresh
// Searcher's. It also requires the engine to be kept exactly
// when the query's ID and letters and the defaulted Params all match
// the previous search's.
func TestSearcherReuseMatchesFresh(t *testing.T) {
	queryA, letters := pinnedWorkload()
	letters = letters[:12] // every kind of planted copy, twice
	packed := packedCopies(t, letters)
	rng := util.NewRNG(5802)
	queryB := letters[3].Subsequence(100, 700) // hits its own subject and the copies of A it overlaps
	queryB.ID = "qb"
	otherA := &seq.Sequence{ID: queryA.ID, Kind: seq.Nucleotide, Data: append([]byte(nil), queryA.Data...)}
	for k := 0; k < 20; k++ {
		otherA.Data[rng.Intn(len(otherA.Data))] = seq.NucLetter[rng.Intn(4)]
	}
	if string(otherA.Data) == string(queryA.Data) {
		t.Fatal("the substitutions left A's letters unchanged")
	}
	blastn := Params{Program: BlastN}
	steps := []struct {
		name       string
		query      *seq.Sequence
		p          Params
		wrapEpoch  bool
		keepEngine bool // the first search of the step reuses the previous step's engine
	}{
		{name: "A", query: queryA, p: blastn},
		{name: "B", query: queryB, p: blastn},
		{name: "A again", query: queryA, p: blastn},
		{name: "A defaulted", query: queryA, p: Params{Program: BlastN, EValue: 10}, keepEngine: true},
		{name: "A filtered", query: queryA, p: Params{Program: BlastN, Filter: true}},
		{name: "A e-value", query: queryA, p: Params{Program: BlastN, EValue: 1e-30}},
		{name: "A max targets", query: queryA, p: Params{Program: BlastN, EValue: 1e-30, MaxTargetSeqs: 3}},
		{name: "megablast", query: queryA, p: Params{Program: BlastN, Greedy: true}},
		{name: "A's ID, other letters", query: otherA, p: blastn},
		{name: "A, epoch wraps", query: queryA, p: blastn, wrapEpoch: true},
	}
	var s Searcher
	for i, st := range steps {
		before := s.eng
		if st.wrapEpoch {
			s.sr.epoch = math.MaxUint32
		}
		// Each step searches letter subjects and then their packed
		// twins; the second search always keeps the engine.
		for j, subjects := range [][]*seq.Sequence{letters, packed} {
			got, err := s.Search(st.query, &SliceSource{Seqs: subjects}, DBInfo{}, st.p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := new(Searcher).Search(st.query, &SliceSource{Seqs: subjects}, DBInfo{}, st.p)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Hits) == 0 {
				t.Fatalf("%s: no hits; the step searches nothing", st.name)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (search %d): reused Searcher's result differs from a fresh search\nreused stats %+v\nfresh stats  %+v",
					st.name, j, got.Stats, want.Stats)
			}
			if j == 0 {
				if kept := i > 0 && s.eng == before; kept != st.keepEngine {
					t.Errorf("%s: engine kept = %v, want %v", st.name, kept, st.keepEngine)
				}
				before = s.eng
			} else if s.eng != before {
				t.Errorf("%s: the same query and Params built a second engine", st.name)
			}
		}
	}
	if want := uint32(2 * len(letters)); s.sr.epoch != want {
		t.Errorf("epoch after the wrap = %d, want a fresh count of %d subjects", s.sr.epoch, want)
	}
}

// TestSearcherRepeatAllocs is the allocation guard of engine reuse: a
// repeat search of the same query over a small source that yields no
// hit builds no word table and grows no scratch, so it allocates only
// its Result. Building the engine alone allocates far more, so a
// Searcher that rebuilt it per search fails here.
func TestSearcherRepeatAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	rng := util.NewRNG(5803)
	query := randomDNA(rng, "q", 568)
	subjects := []*seq.Sequence{randomDNA(rng, "s0", 3000), randomDNA(rng, "s1", 2000)}
	p := Params{Program: BlastN}
	var s Searcher
	src := &SliceSource{Seqs: subjects}
	search := func() {
		src.i = 0
		res, err := s.Search(query, src, DBInfo{}, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Hits) != 0 {
			t.Fatalf("%d hits on random subjects; the guard needs a hitless source", len(res.Hits))
		}
	}
	search()
	const budget = 1
	if allocs := testing.AllocsPerRun(20, search); allocs > budget {
		t.Errorf("repeat search = %.1f allocs, budget is %d", allocs, budget)
	}
	build := testing.AllocsPerRun(5, func() {
		if _, err := newEngine(query, p.Defaults()); err != nil {
			t.Fatal(err)
		}
	})
	if build <= 4*budget {
		t.Errorf("building the engine takes only %.1f allocs; the guard cannot tell a rebuild from a reuse", build)
	}
}
