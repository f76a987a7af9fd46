package blast

import (
	"fmt"
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
// the hit path is exercised, not just the miss path. The both row
// scans the table the engine builds, the query and its reverse
// complement in one table, as every search does. SetBytes is the
// letter count in every row, so MB/s reads as bases/sec.
func BenchmarkNucLookupScan(b *testing.B) {
	rng := util.NewRNG(99)
	query := denseDNA(rng, 568)
	subject := denseDNA(rng, 1<<20)
	for off := 10000; off+400 < len(subject); off += 150000 {
		copy(subject[off:], query[50:450])
	}
	packed := seq.PackCodes(subject)
	letters := make([]byte, len(query))
	for i, c := range query {
		letters[i] = seq.NucLetter[c]
	}
	eng, err := newEngine(nucSeq(string(letters)), Params{Program: BlastN}.Defaults())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("both/w=11", func(b *testing.B) {
		var sink countSink
		b.ReportAllocs()
		b.SetBytes(int64(len(subject)))
		for i := 0; i < b.N; i++ {
			eng.table.scan(packed, len(subject), &sink)
		}
	})
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
// Search executes per subject. The subject arrives as
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
// blastdb fragment hands the search: the payload is borrowed, not
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
