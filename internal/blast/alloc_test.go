package blast

import (
	"strings"
	"testing"

	"pario/internal/seq"
	"pario/internal/util"
)

// allocWorkload builds the BenchmarkSearchSubject workload at a size
// small enough for AllocsPerRun: one warmed searcher plus a subject
// carrying a planted match on each strand so seeding, extension and
// culling all run for both query views.
func allocWorkload(t *testing.T, packed bool) (*searcher, *seq.Sequence) {
	t.Helper()
	rng := util.NewRNG(100)
	query := randomDNA(rng, "q", 568)
	subject := randomDNA(rng, "s", 1<<16)
	plant(subject, query.Data[100:400], 5000)
	plant(subject, nucSeq(string(query.Data[150:450])).ReverseComplement().Data, 30000)
	if packed {
		subject = packedCopies(t, []*seq.Sequence{subject})[0]
	}
	eng, err := newEngine(query, Params{Program: BlastN}.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	sr := newSearcher(eng)
	// Warm the pools: views, codes, seed arena, diagonal cells, cull
	// buffers and DP rows all reach steady-state capacity here.
	for i := 0; i < 3; i++ {
		frames := map[seq.Frame]bool{}
		for _, h := range sr.searchSubject(subject) {
			frames[h.qFrame] = true
		}
		if !frames[1] || !frames[-1] {
			t.Fatalf("planted matches found on query frames %v, want both strands; workload is broken", frames)
		}
	}
	return sr, subject
}

// TestSearchSubjectSteadyStateAllocs is the allocation-regression
// guard for the batched search path: once pools are warm, a full
// subject search may allocate at most twice per call (the copy-out of
// surviving HSPs plus slack for one pool growth). The pre-batching
// searcher ran ~31 allocs/op; a regression here means a pooled buffer
// went back to per-call make or a closure started escaping. The
// letters row is the pack-at-entry path: its subject is coded and
// packed into the searcher's pooled buffers, not fresh slices.
func TestSearchSubjectSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	for _, tc := range []struct {
		name   string
		packed bool
	}{
		{"letters", false},
		{"packed", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sr, subject := allocWorkload(t, tc.packed)
			var got []rawHSP
			allocs := testing.AllocsPerRun(20, func() {
				got = sr.searchSubject(subject)
			})
			if len(got) == 0 {
				t.Fatal("planted match not found during measurement")
			}
			if allocs > 2 {
				t.Errorf("searchSubject steady state = %.1f allocs/op, budget is 2", allocs)
			}
		})
	}
}

// TestSeedArenasStayBounded floods both query views with seeds — a
// poly-A subject against a query with long A and T runs gives each
// strand every subject word — and requires every per-view seed arena
// to stay within seedBatch: seeds are extended batch by batch, never
// collected per subject.
func TestSeedArenasStayBounded(t *testing.T) {
	rng := util.NewRNG(102)
	polyA := nucSeq(strings.Repeat("A", 1<<11))
	eng, err := newEngine(aRichQuery(rng), Params{Program: BlastN}.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var perView seedRecorder
	eng.table.scan(seq.PackCodes(polyA.Codes()), polyA.Len(), &perView)
	for v := range eng.views {
		if n := len(perView.view(v)); n <= 4*seedBatch {
			t.Fatalf("view %d gets %d seeds; the flood does not overflow its arena", v, n)
		}
	}
	for _, subject := range []*seq.Sequence{polyA, packedCopies(t, []*seq.Sequence{polyA})[0]} {
		sr := newSearcher(eng)
		if len(sr.searchSubject(subject)) == 0 {
			t.Fatal("no HSPs on the poly-A subject")
		}
		for v := range sr.pairs {
			if c := cap(sr.pairs[v].seeds); c > seedBatch {
				t.Errorf("view %d seed arena grew to cap %d, bound is %d", v, c, seedBatch)
			}
		}
	}
}
