package blast

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"pario/internal/seq"
	"pario/internal/telemetry"
	"pario/internal/util"
)

// buildNucDB synthesizes a nucleotide database with the query's
// fragments planted into several subjects (some twice, to exercise
// culling and tie-breaking in the ordered merge).
func buildNucDB(rng *util.RNG, query *seq.Sequence, n int) []*seq.Sequence {
	subjects := make([]*seq.Sequence, n)
	for i := range subjects {
		subjects[i] = randomDNA(rng, fmt.Sprintf("s%03d", i), 2000+rng.Intn(3000))
	}
	for i := 0; i < n; i += 3 {
		frag := query.Data[100:300]
		plant(subjects[i], frag, 200+((i*137)%1200))
		if i%2 == 0 {
			// A second, identical planting elsewhere in the same
			// subject produces equal-scoring HSPs whose relative order
			// the culler must keep stable.
			plant(subjects[i], frag, 1500)
		}
	}
	for i := 1; i < n; i += 7 {
		rc := query.Subsequence(250, 450).ReverseComplement()
		plant(subjects[i], rc.Data, 600)
	}
	return subjects
}

// TestPipelineDeterminism is the golden-equality check of the parallel
// subject pipeline: at any thread count the full Result — hit order,
// HSP coordinates, scores, e-values, statistics — must be bit-
// identical to the sequential engine's. Run under -race this also
// vets the pipeline's synchronization.
func TestPipelineDeterminism(t *testing.T) {
	rng := util.NewRNG(777)
	nucQuery := randomDNA(rng, "query", 568)
	nucDB := buildNucDB(rng, nucQuery, 60)

	cases := []struct {
		name     string
		query    *seq.Sequence
		subjects []*seq.Sequence
		params   Params
	}{
		{"blastn", nucQuery, nucDB, Params{Program: BlastN}},
		{"megablast", nucQuery, nucDB, Params{Program: BlastN, Greedy: true}},
		{"blastn-filtered", nucQuery, nucDB, Params{Program: BlastN, Filter: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.params
			p.Threads = 1
			want, err := Search(tc.query, &SliceSource{Seqs: tc.subjects}, DBInfo{}, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Hits) == 0 {
				t.Fatal("test DB produced no hits; determinism check is vacuous")
			}
			for _, threads := range []int{2, 3, 4, 8} {
				p.Threads = threads
				got, err := Search(tc.query, &SliceSource{Seqs: tc.subjects}, DBInfo{}, p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("threads=%d: result differs from sequential engine\nseq hits=%d par hits=%d\nseq stats=%+v\npar stats=%+v",
						threads, len(want.Hits), len(got.Hits), want.Stats, got.Stats)
				}
			}
		})
	}
}

// failingSource errors after yielding its first n subjects.
type failingSource struct {
	seqs []*seq.Sequence
	n    int
	i    int
	err  error
}

func (f *failingSource) Next() (*seq.Sequence, error) {
	if f.i >= f.n {
		return nil, f.err
	}
	s := f.seqs[f.i]
	f.i++
	return s, nil
}

func TestPipelineSourceError(t *testing.T) {
	rng := util.NewRNG(778)
	query := randomDNA(rng, "query", 568)
	subjects := buildNucDB(rng, query, 20)
	wantErr := errors.New("disk on fire")
	_, err := Search(query, &failingSource{seqs: subjects, n: 10, err: wantErr},
		DBInfo{}, Params{Program: BlastN, Threads: 4})
	if !errors.Is(err, wantErr) {
		t.Fatalf("pipeline error = %v, want %v", err, wantErr)
	}
}

func TestPipelineEmptySource(t *testing.T) {
	rng := util.NewRNG(780)
	query := randomDNA(rng, "query", 300)
	res, err := Search(query, &SliceSource{}, DBInfo{},
		Params{Program: BlastN, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 0 {
		t.Fatalf("empty database produced %d hits", len(res.Hits))
	}
}

func TestPipelineErrorAfterEOFIsClean(t *testing.T) {
	// A source returning io.EOF immediately after valid subjects must
	// behave exactly like the sequential loop (no lost tail subjects).
	rng := util.NewRNG(781)
	query := randomDNA(rng, "query", 568)
	subjects := buildNucDB(rng, query, 7) // fewer subjects than shards
	p := Params{Program: BlastN, Threads: 8}
	got, err := Search(query, &SliceSource{Seqs: subjects}, DBInfo{}, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Threads = 1
	want, err := Search(query, &SliceSource{Seqs: subjects}, DBInfo{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("more shards than subjects changed the result")
	}
	if got.Stats.DBSequences != int64(len(subjects)) {
		t.Fatalf("pipeline counted %d subjects, want %d", got.Stats.DBSequences, len(subjects))
	}
}

// TestKernelMetricsMatchStats: the registry's kernel counters must
// equal the result's work counters at any thread count, the
// sequential loop included.
func TestKernelMetricsMatchStats(t *testing.T) {
	rng := util.NewRNG(778)
	query := randomDNA(rng, "query", 568)
	db := buildNucDB(rng, query, 20)
	for _, threads := range []int{1, 2} {
		reg := telemetry.NewRegistry()
		m := NewPipeMetrics(reg)
		p := Params{Program: BlastN, Threads: threads}
		res, err := SearchWithMetrics(query, &SliceSource{Seqs: db}, DBInfo{}, p, m)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ScannedBases == 0 || res.Stats.PackedExts == 0 {
			t.Fatalf("threads=%d: search did no kernel work: %+v", threads, res.Stats)
		}
		bases := reg.Gauge("pario_blast_scanned_bases_total", "").Value()
		exts := reg.Gauge("pario_blast_packed_exts_total", "").Value()
		if bases != float64(res.Stats.ScannedBases) || exts != float64(res.Stats.PackedExts) {
			t.Errorf("threads=%d: registry scanned_bases=%v packed_exts=%v, stats %d and %d",
				threads, bases, exts, res.Stats.ScannedBases, res.Stats.PackedExts)
		}
	}
}
