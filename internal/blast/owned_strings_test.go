package blast

import (
	"fmt"
	"testing"
	"unsafe"

	"pario/internal/blastdb"
	"pario/internal/chio"
	"pario/internal/seq"
	"pario/internal/util"
)

// recordingSource hands on its inner source's subjects and keeps each
// by ID.
type recordingSource struct {
	inner SubjectSource
	seen  map[string]*seq.Sequence
}

func (r *recordingSource) Next() (*seq.Sequence, error) {
	s, err := r.inner.Next()
	if err == nil {
		r.seen[s.ID] = s
	}
	return s, err
}

// TestResultsOwnTheirStrings: a fragment's subjects carry substrings
// of its whole defline region, so every hit of a Search over a
// FragmentSource must hold copies of its subject's ID and description,
// never the subject's own storage, or a kept Result keeps the region
// alive.
func TestResultsOwnTheirStrings(t *testing.T) {
	rng := util.NewRNG(702)
	query := randomDNA(rng, "query", 400)
	subjects := make([]*seq.Sequence, 8)
	for i := range subjects {
		subjects[i] = randomDNA(rng, fmt.Sprintf("subj%d", i), 2000)
		subjects[i].Desc = fmt.Sprintf("subject %d of one fragment", i)
	}
	plant(subjects[3], query.Data[50:300], 500)
	plant(subjects[6], query.Data[100:380], 900)
	mem := chio.NewMemFS()
	if _, err := blastdb.Format(mem, "db", seq.Nucleotide, 1, (&SliceSource{Seqs: subjects}).Next); err != nil {
		t.Fatal(err)
	}
	fr, err := blastdb.OpenFragment(mem, blastdb.FragmentPath("db", 0))
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	src := &recordingSource{inner: fr.Source(0), seen: map[string]*seq.Sequence{}}
	res, err := Search(query, src, DBInfo{}, Params{Program: BlastN})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) < 2 {
		t.Fatalf("%d hits, want the 2 planted subjects", len(res.Hits))
	}
	for _, h := range res.Hits {
		s := src.seen[h.SubjectID]
		if s == nil {
			t.Fatalf("hit %q names no streamed subject", h.SubjectID)
		}
		if h.SubjectDesc != s.Desc {
			t.Errorf("hit %q: description %q, subject's %q", h.SubjectID, h.SubjectDesc, s.Desc)
		}
		if unsafe.StringData(h.SubjectID) == unsafe.StringData(s.ID) {
			t.Errorf("hit %q shares its SubjectID with the subject", h.SubjectID)
		}
		if unsafe.StringData(h.SubjectDesc) == unsafe.StringData(s.Desc) {
			t.Errorf("hit %q shares its SubjectDesc with the subject", h.SubjectID)
		}
	}
}
