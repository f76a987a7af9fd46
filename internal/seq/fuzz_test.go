package seq_test

import (
	"bytes"
	"testing"

	"pario/internal/blastdb"
	"pario/internal/chio"
	"pario/internal/seq"
)

// FuzzFastaReader feeds arbitrary text to the FASTA reader, seeded with
// the parser's unit-test inputs. Each text must fail with an error,
// never a panic, or format into a database whose sequences read back
// with the parsed deflines and the 2-bit codes of the parsed letters.
func FuzzFastaReader(f *testing.F) {
	for _, text := range []string{
		">a desc\r\nAC\r\nGT\r\n",
		"not fasta\n",
		"; comment\n>a\n;inner\nACGT\n",
		">seq1 first sequence\nACGTACGT\nACGT\n>seq2\nTTTT\n\n>seq3 third\nGG GG\n",
		">a\nACGT",
		">a d\r\nAC GT\t\r\n \tGG \r\n\r\n>b\r\nTT\r",
		">a\nAC\r \r\r\nG\tT\r\n;c \r\nA\r\r",
		">a\r\nACGTACGTACGTACGTACGTACGTACGTACGTACGT\r\nA*G T\r\n",
	} {
		f.Add([]byte(text))
	}
	f.Fuzz(func(t *testing.T, text []byte) {
		read := func() *seq.FastaReader { return seq.NewFastaReader(bytes.NewReader(text), seq.Nucleotide) }
		want, err := read().ReadAll()
		if err != nil {
			return
		}
		mem := chio.NewMemFS()
		if _, err := blastdb.Format(mem, "fz", seq.Nucleotide, 1, read().Read); err != nil {
			return // a letter 2-bit codes cannot hold
		}
		fr, err := blastdb.OpenFragment(mem, blastdb.FragmentPath("fz", 0))
		if err != nil {
			t.Fatal(err)
		}
		defer fr.Close()
		if fr.NumSequences() != len(want) {
			t.Fatalf("formatted %d sequences, parsed %d", fr.NumSequences(), len(want))
		}
		for i, w := range want {
			got, err := fr.Sequence(i)
			if err != nil {
				t.Fatal(err)
			}
			packed, err := seq.Pack2Bit(w.Data)
			if err != nil {
				t.Fatalf("sequence %d was formatted but does not pack: %v", i, err)
			}
			if got.ID != w.ID || got.Desc != w.Desc {
				t.Errorf("sequence %d: defline %q %q, parsed %q %q", i, got.ID, got.Desc, w.ID, w.Desc)
			}
			if !bytes.Equal(got.Letters(), seq.Unpack2Bit(packed, w.Len())) {
				t.Errorf("sequence %d (%q): letters differ from the parsed ones' 2-bit codes", i, w.ID)
			}
		}
	})
}
