package blast

import (
	"fmt"
	"io"

	"pario/internal/seq"
)

// WriteReport renders a classic BLAST text report of the result: the
// hit list, then each hit's HSPs with score, identities and extents.
func WriteReport(w io.Writer, res *Result) error {
	fmt.Fprintf(w, "%s search\n\n", res.Program)
	fmt.Fprintf(w, "Query= %s (%d letters)\n\n", res.QueryID, res.QueryLen)
	fmt.Fprintf(w, "Database: %d sequences; %d total letters\n\n",
		res.Stats.DBSequences, res.Stats.DBLetters)
	if len(res.Hits) == 0 {
		fmt.Fprintf(w, " ***** No hits found ******\n")
		return nil
	}
	fmt.Fprintf(w, "Sequences producing significant alignments:         (Bits)  E-value\n\n")
	for _, h := range res.Hits {
		best := h.HSPs[0]
		fmt.Fprintf(w, "%-50.50s  %6.1f  %8.2g\n", h.SubjectID+" "+h.SubjectDesc, best.BitScore, best.EValue)
	}
	fmt.Fprintln(w)
	for _, h := range res.Hits {
		fmt.Fprintf(w, ">%s %s\n          Length = %d\n\n", h.SubjectID, h.SubjectDesc, h.SubjectLen)
		for _, hsp := range h.HSPs {
			fmt.Fprintf(w, " Score = %.1f bits (%d), Expect = %.2g\n", hsp.BitScore, hsp.Score, hsp.EValue)
			fmt.Fprintf(w, " Identities = %d/%d (%.0f%%), Gaps = %d/%d\n",
				hsp.Identities, hsp.AlignLen, pct(hsp.Identities, hsp.AlignLen),
				hsp.Gaps, hsp.AlignLen)
			if hsp.QueryFrame != 0 || hsp.SubjectFrame != 0 {
				fmt.Fprintf(w, " Frame = %s / %s\n", frameLabel(hsp.QueryFrame), frameLabel(hsp.SubjectFrame))
			}
			fmt.Fprintf(w, " Query: %d..%d  Subject: %d..%d\n\n",
				hsp.QueryFrom+1, hsp.QueryTo, hsp.SubjectFrom+1, hsp.SubjectTo)
		}
	}
	fmt.Fprintf(w, "\nLambda     K      H\n%8.3f %6.3f %6.3f\n", res.Stats.Lambda, res.Stats.K, res.Stats.H)
	fmt.Fprintf(w, "Effective search space: %d\n", res.Stats.EffSearchLen)
	return nil
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func frameLabel(f seq.Frame) string {
	if f == 0 {
		return "."
	}
	return f.String()
}

// WriteTabular renders the result in the style of BLAST's -outfmt 6:
// query, subject, %identity, length, mismatches, gapopens, qstart,
// qend, sstart, send, evalue, bitscore.
func WriteTabular(w io.Writer, res *Result) error {
	for _, h := range res.Hits {
		for _, hsp := range h.HSPs {
			mismatches := hsp.AlignLen - hsp.Identities - hsp.Gaps
			gapOpens := 0
			if hsp.Alignment != nil {
				for _, op := range hsp.Alignment.Ops {
					if op.Kind != 'M' {
						gapOpens++
					}
				}
			}
			if _, err := fmt.Fprintf(w, "%s\t%s\t%.2f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.2g\t%.1f\n",
				res.QueryID, h.SubjectID,
				pct(hsp.Identities, hsp.AlignLen), hsp.AlignLen,
				mismatches, gapOpens,
				hsp.QueryFrom+1, hsp.QueryTo,
				hsp.SubjectFrom+1, hsp.SubjectTo,
				hsp.EValue, hsp.BitScore); err != nil {
				return err
			}
		}
	}
	return nil
}
