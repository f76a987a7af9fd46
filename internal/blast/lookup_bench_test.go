package blast

import (
	"fmt"
	"runtime"
	"testing"

	"pario/internal/seq"
	"pario/internal/util"
)

// countSink swallows seeds, defeating dead-code elimination without
// the cost of recording them.
type countSink struct{ n int }

func (c *countSink) handleSeed(view, qpos, spos int) { c.n++ }

// BenchmarkNucLookupScan compares the flat CSR word index scanning the
// 2-bit packed subject against the map-based implementation it
// replaced scanning the subject's codes, for classic blastn 11-mers
// and megablast 28-mers. The subject carries planted query chunks so
// the hit path is exercised, not just the miss path. SetBytes is the
// letter count in both rows, so MB/s reads as bases/sec.
func BenchmarkNucLookupScan(b *testing.B) {
	rng := util.NewRNG(99)
	query := denseDNA(rng, 568)
	subject := denseDNA(rng, 1<<20)
	for off := 10000; off+400 < len(subject); off += 150000 {
		copy(subject[off:], query[50:450])
	}
	packed := seq.PackCodes(subject)
	for _, w := range []int{11, 28} {
		csr := buildNucLookup([][]byte{query}, w, nil)
		ref := buildRefNucLookup(query, w, nil)
		var sink countSink
		b.Run(fmt.Sprintf("csr/w=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(subject)))
			for i := 0; i < b.N; i++ {
				csr.scan(packed, len(subject), &sink)
			}
		})
		b.Run(fmt.Sprintf("map/w=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(subject)))
			for i := 0; i < b.N; i++ {
				ref.scan(subject, &sink)
			}
		})
	}
}

// BenchmarkSearchSubject measures one full subject search (seeding +
// extension + culling) through the pooled searcher, the unit of work
// a pipeline shard executes per subject. The subject arrives as
// letters, so the search codes and packs it once before scanning.
func BenchmarkSearchSubject(b *testing.B) {
	rng := util.NewRNG(100)
	query := randomDNA(rng, "q", 568)
	subject := randomDNA(rng, "s", 1<<18)
	plant(subject, query.Data[100:400], 5000)
	p := Params{Program: BlastN}.Defaults()
	eng, err := newEngine(query, p)
	if err != nil {
		b.Fatal(err)
	}
	sr := newSearcher(eng)
	b.ReportAllocs()
	b.SetBytes(int64(subject.Len()))
	for i := 0; i < b.N; i++ {
		if hsps := sr.searchSubject(subject); len(hsps) == 0 {
			b.Fatal("planted match not found")
		}
	}
}

// BenchmarkSearchSubjectPacked is BenchmarkSearchSubject's workload
// with the subject delivered as a 2-bit packed payload, the form a
// blastdb fragment hands the pipeline: the payload is borrowed, not
// packed, and seeding and ungapped extension never unpack it. SetBytes
// is the letter count (not the payload size), so MB/s is bases/sec and
// directly comparable with the letter-entry number.
func BenchmarkSearchSubjectPacked(b *testing.B) {
	rng := util.NewRNG(100)
	query := randomDNA(rng, "q", 568)
	subject := randomDNA(rng, "s", 1<<18)
	plant(subject, query.Data[100:400], 5000)
	letters := subject.Len()
	packed, err := seq.Pack2Bit(subject.Data)
	if err != nil {
		b.Fatal(err)
	}
	subject = seq.NewPacked2Bit("s", "", packed, letters)
	p := Params{Program: BlastN}.Defaults()
	eng, err := newEngine(query, p)
	if err != nil {
		b.Fatal(err)
	}
	sr := newSearcher(eng)
	b.ReportAllocs()
	b.SetBytes(int64(letters))
	for i := 0; i < b.N; i++ {
		if hsps := sr.searchSubject(subject); len(hsps) == 0 {
			b.Fatal("planted match not found")
		}
	}
}

// BenchmarkSearchSubjectThreads runs the full parallel pipeline over
// packed subjects with GOMAXPROCS pinned to the shard count, so each
// sub-benchmark measures what the pipeline can extract from exactly
// that many cores. On a single-vCPU host every rung times-slices one
// core and the curve is flat — the sweep proves the harness, and the
// numbers become a real scaling record when run on multicore hardware.
// SetBytes is total database letters: MB/s is end-to-end bases/sec.
func BenchmarkSearchSubjectThreads(b *testing.B) {
	rng := util.NewRNG(101)
	query := randomDNA(rng, "q", 568)
	const nSubj = 32
	subjects := make([]*seq.Sequence, nSubj)
	var letters int64
	for i := range subjects {
		s := randomDNA(rng, fmt.Sprintf("s%d", i), 1<<17)
		if i%5 == 2 {
			plant(s, query.Data[100:400], 5000)
		}
		letters += int64(s.Len())
		packed, err := seq.Pack2Bit(s.Data)
		if err != nil {
			b.Fatal(err)
		}
		subjects[i] = seq.NewPacked2Bit(s.ID, "", packed, s.Len())
	}
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("gomaxprocs=%d", threads), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(threads))
			p := Params{Program: BlastN, Threads: threads}
			b.ReportAllocs()
			b.SetBytes(letters)
			for i := 0; i < b.N; i++ {
				res, err := Search(query, &SliceSource{Seqs: subjects}, DBInfo{}, p)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Hits) == 0 {
					b.Fatal("planted matches not found")
				}
			}
		})
	}
}
