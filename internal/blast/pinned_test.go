package blast

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"pario/internal/seq"
	"pario/internal/util"
)

// pinnedWorkload builds the fixed query and database TestBlastnResultsPinned
// digests: a 568-base query with a poly-A run DUST masks, and 40 random
// subjects carrying forward copies, point-mutated copies, copies with a
// short deletion or insertion, reverse-complement copies and a poly-A
// run, so both strands, the ungapped, gapped and greedy stages, gapped
// tracebacks and the filter all change the result.
func pinnedWorkload() (*seq.Sequence, []*seq.Sequence) {
	rng := util.NewRNG(3701)
	query := randomDNA(rng, "pinq", 568)
	copy(query.Data[400:], strings.Repeat("A", 40))
	subjects := make([]*seq.Sequence, 40)
	for i := range subjects {
		s := randomDNA(rng, fmt.Sprintf("pin%02d", i), 1000+rng.Intn(3000))
		at := rng.Intn(s.Len() - 700)
		switch i % 6 {
		case 0:
			plant(s, query.Data[50:350], at)
		case 1:
			frag := append([]byte(nil), query.Data[100:400]...)
			for k := 0; k < 12; k++ {
				frag[rng.Intn(len(frag))] = seq.NucLetter[rng.Intn(4)]
			}
			plant(s, frag, at)
		case 2:
			frag := append(append([]byte(nil), query.Data[20:170]...), query.Data[173:330]...)
			plant(s, frag, at)
		case 3:
			frag := append(append(append([]byte(nil), query.Data[200:300]...), "GATTACA"...), query.Data[300:480]...)
			plant(s, frag, at)
		case 4:
			plant(s, query.Subsequence(150, 450).ReverseComplement().Data, at)
		case 5:
			plant(s, []byte(strings.Repeat("A", 60)), at)
		}
		subjects[i] = s
	}
	return query, subjects
}

// digestResult hashes every field of every hit and HSP — the float64
// bits of BitScore and EValue, the traceback's extents and edit script —
// plus the whole SearchStats block.
func digestResult(res *Result) string {
	h := sha256.New()
	put := func(v ...any) {
		for _, x := range v {
			switch x := x.(type) {
			case float64:
				fmt.Fprintf(h, "%x|", math.Float64bits(x))
			default:
				fmt.Fprintf(h, "%v|", x)
			}
		}
	}
	put(res.Program.String(), res.QueryID, res.QueryLen, len(res.Hits))
	for _, hit := range res.Hits {
		put(hit.SubjectID, hit.SubjectDesc, hit.SubjectLen, len(hit.HSPs))
		for _, p := range hit.HSPs {
			put(p.Score, p.BitScore, p.EValue, p.QueryFrom, p.QueryTo, p.SubjectFrom, p.SubjectTo,
				int(p.QueryFrame), int(p.SubjectFrame), p.Identities, p.AlignLen, p.Gaps)
			if al := p.Alignment; al != nil {
				put(al.Score, al.AStart, al.AEnd, al.BStart, al.BEnd, al.CIGAR())
			} else {
				put("nil")
			}
		}
	}
	st := res.Stats
	put(st.DBSequences, st.DBLetters, st.SeedHits, st.UngappedExts, st.GappedExts, st.ReportedHSPs,
		st.EffSearchLen, st.Lambda, st.K, st.H, st.LengthAdjust, st.RawScoreCut, st.GapTriggerRaw,
		st.MaskedLetters, st.ScannedBases, st.PackedExts)
	return hex.EncodeToString(h.Sum(nil))
}

// TestBlastnResultsPinned pins blastn's absolute output: the sha256 of
// every hit, HSP and stats field for blastn, DUST-filtered blastn and
// megablast over one seeded workload, at one and four threads, over
// letter subjects and their 2-bit packed twins. The other golden tests
// compare two paths that would move together; this one fails if any
// change to the engine moves a single score, extent, e-value bit or
// work counter.
func TestBlastnResultsPinned(t *testing.T) {
	query, letters := pinnedWorkload()
	packed := packedCopies(t, letters)
	for _, tc := range []struct {
		name string
		p    Params
		want string
	}{
		{"blastn", Params{Program: BlastN}, "ef5e072a23a46cb9aa7d412d7c0ca820401e81d6015e73a5948b079efe6a31a0"},
		{"blastn-filtered", Params{Program: BlastN, Filter: true}, "e2af05dc2a17a865066babe0f65d52eb4a1fe21783d8178b4e57340b3d77d8bc"},
		{"megablast", Params{Program: BlastN, Greedy: true}, "8c70b518f0b3186f02d4352f24feb12a490414eda544f2455a3318ef99b295c5"},
	} {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/threads=%d", tc.name, threads), func(t *testing.T) {
				p := tc.p
				p.Threads = threads
				for form, subjects := range map[string][]*seq.Sequence{"letters": letters, "packed": packed} {
					res, err := Search(query, &SliceSource{Seqs: subjects}, DBInfo{}, p)
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Hits) < 10 {
						t.Fatalf("%s: %d hits; the pinned workload should hit at least 10 subjects", form, len(res.Hits))
					}
					if got := digestResult(res); got != tc.want {
						t.Errorf("%s subjects: digest %s, pinned %s (%d hits, stats %+v)", form, got, tc.want, len(res.Hits), res.Stats)
					}
				}
			})
		}
	}
}
