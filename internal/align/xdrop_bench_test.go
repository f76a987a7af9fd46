package align

import (
	"testing"

	"pario/internal/util"
)

// BenchmarkExtendGapped runs one two-sided X-drop extension of a
// planted 500-base alignment (a query copy with ten substitutions),
// anchored at its middle, in the middle of subjects of 4 k, 64 k and
// 1 M bases. The band never leaves the planted copy, so the cost
// should not depend on the subject's length; the workspace is warm, so
// an extension allocates nothing.
func BenchmarkExtendGapped(b *testing.B) {
	rng := util.NewRNG(58)
	query := randomCodes(rng, 500)
	s := DefaultNucleotide()
	for _, size := range []struct {
		name string
		n    int
	}{{"4k", 4 << 10}, {"64k", 64 << 10}, {"1M", 1 << 20}} {
		subject := randomCodes(rng, size.n)
		at := size.n/2 - len(query)/2
		copy(subject[at:], query)
		for k := 25; k < len(query); k += 50 {
			subject[at+k] = (query[k] + 1) & 3
		}
		b.Run("subject="+size.name, func(b *testing.B) {
			var ws Workspace
			want, aFrom, aTo, _, _ := ExtendGappedWS(&ws, query, subject, 250, at+250, s, 30)
			if aFrom != 0 || aTo != len(query) {
				b.Fatalf("extension covers query [%d,%d), want the planted [0,%d)", aFrom, aTo, len(query))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got, _, _, _, _ := ExtendGappedWS(&ws, query, subject, 250, at+250, s, 30); got != want {
					b.Fatalf("score %d, want %d", got, want)
				}
			}
		})
	}
}
