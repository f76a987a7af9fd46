package seq

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestFastaReaderEdgeCases pins the reader's output record by record:
// identifiers, descriptions, letters (an empty record has nil Data),
// and the text and line number of every error.
func TestFastaReaderEdgeCases(t *testing.T) {
	type rec struct{ ID, Desc, Data string }
	long := strings.Repeat("ACGTTGCA", 25000) // 200 000 letters
	longDesc := strings.Repeat("description ", 5833)[:69990]
	for _, tc := range []struct {
		name string
		in   string
		want []rec
		err  string // "" means the input ends in io.EOF
	}{
		{"crlf", ">a desc\r\nAC\r\nGT\r\n", []rec{{"a", "desc", "ACGT"}}, ""},
		{"cr cr lf", ">a desc\r\r\nAC\r\r\nGT\r\r\n>b\r\r\nTT\r\r\n", []rec{{"a", "desc", "ACGT"}, {"b", "", "TT"}}, ""},
		{"inner cr kept", ">a\nAC\rGT\n", []rec{{"a", "", "AC\rGT"}}, ""},
		{"spaces and tabs", ">s x\nAC GT\tAC\n \tGG \n\t\n", []rec{{"s", "x", "ACGTACGG"}}, ""},
		{"defline whitespace", ">  id1 \t first  desc \t\n>\tid2\tsecond\nA\n", []rec{{"id1", "first  desc", ""}, {"id2", "second", "A"}}, ""},
		{"comments", "; head\n;\n>a x\nAC\n;inner\nGT\n; tail\n>b\n;only\n", []rec{{"a", "x", "ACGT"}, {"b", "", ""}}, ""},
		{"indented semicolon is data", ">a\n ;x\n", []rec{{"a", "", ";x"}}, ""},
		{"blank lines", "\n\n>a\n\nAC\n\r\n\nGT\n\n", []rec{{"a", "", "ACGT"}}, ""},
		{"no final newline", ">a\nACGT\n>b\nGG", []rec{{"a", "", "ACGT"}, {"b", "", "GG"}}, ""},
		{"defline at eof", ">a\nAC\n>b", []rec{{"a", "", "AC"}, {"b", "", ""}}, ""},
		{"bare >", ">\nACGT\n>\n>b\nGG\n>", []rec{{"", "", "ACGT"}, {"", "", ""}, {"b", "", "GG"}, {"", "", ""}}, ""},
		{"empty record then another", ">a\n>b c\nAC\n", []rec{{"a", "", ""}, {"b", "c", "AC"}}, ""},
		{"empty input", "", nil, ""},
		{"only comments", ";a\n\n;b", nil, ""},
		{"long sequence line", ">l\n" + long + "\r\n>n\nAC\n", []rec{{"l", "", long}, {"n", "", "AC"}}, ""},
		{"long sequence line with spaces", ">l\n" + long[:100000] + " \t" + long[100000:] + " \n", []rec{{"l", "", long}}, ""},
		{"long sequence line at eof", ">l\n" + long, []rec{{"l", "", long}}, ""},
		{"long defline", ">id " + longDesc + "\nACGT\n>b\nT\n", []rec{{"id", longDesc, "ACGT"}, {"b", "", "T"}}, ""},
		{"long defline held", ">a\nAC\n>id " + longDesc + "\r\nGT\n", []rec{{"a", "", "AC"}, {"id", longDesc, "GT"}}, ""},
		{"leading garbage", "not fasta\n>a\nAC\n", nil, `seq: line 1: expected FASTA defline, got "not fasta"`},
		{"garbage after blanks and comments", "\n;c\r\n  \n>a\n", nil, `seq: line 3: expected FASTA defline, got "  "`},
		{"long garbage", strings.Repeat("x", 50) + "\n", nil, `seq: line 1: expected FASTA defline, got "` + strings.Repeat("x", 40) + `"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr := NewFastaReader(strings.NewReader(tc.in), Nucleotide)
			var got []rec
			var err error
			for {
				var s *Sequence
				if s, err = fr.Read(); err != nil {
					break
				}
				if s.Kind != Nucleotide {
					t.Errorf("record %d: kind %v", len(got), s.Kind)
				}
				if (s.Data == nil) != (len(s.Data) == 0) {
					t.Errorf("record %d: empty Data is non-nil", len(got))
				}
				got = append(got, rec{s.ID, s.Desc, string(s.Data)})
			}
			if tc.err == "" && err != io.EOF || tc.err != "" && (err == nil || err.Error() != tc.err) {
				t.Errorf("error %v, want %q (io.EOF if empty)", err, tc.err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("%d records, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					g, w := got[i], tc.want[i]
					t.Errorf("record %d: %q %q (%d letters), want %q %q (%d letters)",
						i, g.ID, trunc(g.Desc), len(g.Data), w.ID, trunc(w.Desc), len(w.Data))
				}
			}
			if _, err := fr.Read(); tc.err == "" && err != io.EOF {
				t.Errorf("Read after the end = %v, want io.EOF", err)
			}
		})
	}
}

func trunc(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}

// TestFastaReaderAllocsPerRecord is the reader's allocation budget: a
// record costs its Sequence, its defline string and its letters,
// however many lines it spans, once the reader's own buffers have
// grown.
func TestFastaReaderAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	const records = 101
	var in strings.Builder
	line := strings.Repeat("ACGTTGCA", 9)[:70]
	for i := 0; i < records; i++ {
		fmt.Fprintf(&in, ">gi|%d sequence number %d\n", i, i)
		for j := 0; j < 20; j++ {
			in.WriteString(line + "\n")
		}
	}
	fr := NewFastaReader(strings.NewReader(in.String()), Nucleotide)
	var s *Sequence
	var err error
	allocs := testing.AllocsPerRun(records-1, func() { s, err = fr.Read() })
	if err != nil || s.Len() != 20*len(line) {
		t.Fatalf("last record: %v, %d letters", err, s.Len())
	}
	if allocs > 3 {
		t.Errorf("Read = %.0f allocs per 20-line record, budget is 3", allocs)
	}
}
