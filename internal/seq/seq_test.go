package seq

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestNucCode(t *testing.T) {
	for i, want := range []byte{'A', 'C', 'G', 'T'} {
		code, ok := NucCode(want)
		if !ok || code != byte(i) {
			t.Errorf("NucCode(%c) = %d,%v", want, code, ok)
		}
		lower := want + 'a' - 'A'
		code, ok = NucCode(lower)
		if !ok || code != byte(i) {
			t.Errorf("NucCode(%c) = %d,%v", lower, code, ok)
		}
	}
	if _, ok := NucCode('!'); ok {
		t.Error("NucCode('!') should fail")
	}
	if c, ok := NucCode('U'); !ok || c != 3 {
		t.Error("U should map to T")
	}
}

func TestComplement(t *testing.T) {
	for c := byte(0); c < 4; c++ {
		if Complement(Complement(c)) != c {
			t.Errorf("complement not involutive for %d", c)
		}
	}
	pairs := map[byte]byte{'A': 'T', 'T': 'A', 'C': 'G', 'G': 'C', 'a': 't', 'N': 'N'}
	for in, want := range pairs {
		if got := ComplementLetter(in); got != want {
			t.Errorf("ComplementLetter(%c) = %c, want %c", in, got, want)
		}
	}
}

func TestKindString(t *testing.T) {
	if Nucleotide.String() != "nucleotide" {
		t.Error("Kind.String broken")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown Kind.String broken")
	}
}

func TestPack2BitRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		data := make([]byte, len(raw))
		for i, b := range raw {
			data[i] = NucLetter[b&3]
		}
		packed, err := Pack2Bit(data)
		if err != nil {
			return false
		}
		return bytes.Equal(Unpack2Bit(packed, len(data)), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPack2BitInvalid(t *testing.T) {
	if _, err := Pack2Bit([]byte("ACG!")); err == nil {
		t.Error("expected error on invalid letter")
	}
}

func TestReverseComplement(t *testing.T) {
	s := &Sequence{ID: "x", Kind: Nucleotide, Data: []byte("AACGTT")}
	rc := s.ReverseComplement()
	if string(rc.Data) != "AACGTT" {
		t.Errorf("palindrome rc = %s", rc.Data)
	}
	s2 := &Sequence{ID: "y", Kind: Nucleotide, Data: []byte("ATGC")}
	if string(s2.ReverseComplement().Data) != "GCAT" {
		t.Errorf("rc(ATGC) = %s", s2.ReverseComplement().Data)
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		data := make([]byte, len(raw))
		for i, b := range raw {
			data[i] = NucLetter[b&3]
		}
		s := &Sequence{ID: "p", Kind: Nucleotide, Data: data}
		return bytes.Equal(s.ReverseComplement().ReverseComplement().Data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubsequence(t *testing.T) {
	s := &Sequence{ID: "chr1", Kind: Nucleotide, Data: []byte("ACGTACGT")}
	sub := s.Subsequence(2, 6)
	if string(sub.Data) != "GTAC" {
		t.Errorf("sub = %s", sub.Data)
	}
	if sub.ID != "chr1:3-6" {
		t.Errorf("sub.ID = %s", sub.ID)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range subsequence did not panic")
		}
	}()
	s.Subsequence(5, 100)
}

func TestValidate(t *testing.T) {
	good := &Sequence{ID: "a", Kind: Nucleotide, Data: []byte("ACGTN")}
	if err := good.Validate(); err != nil {
		t.Errorf("valid DNA rejected: %v", err)
	}
	bad := &Sequence{ID: "b", Kind: Nucleotide, Data: []byte("ACQT")}
	if err := bad.Validate(); err == nil {
		t.Error("invalid DNA accepted")
	}
}

func TestCodes(t *testing.T) {
	s := &Sequence{Kind: Nucleotide, Data: []byte("ACGT")}
	want := []byte{0, 1, 2, 3}
	if !bytes.Equal(s.Codes(), want) {
		t.Errorf("Codes = %v", s.Codes())
	}
	packed := NewPacked2Bit("p", "", PackCodes(want), len(want))
	if !bytes.Equal(packed.Codes(), want) {
		t.Errorf("packed Codes = %v", packed.Codes())
	}
}

func TestFastaRoundTrip(t *testing.T) {
	in := ">seq1 first sequence\nACGTACGT\nACGT\n>seq2\nTTTT\n\n>seq3 third\nGG GG\n"
	fr := NewFastaReader(strings.NewReader(in), Nucleotide)
	seqs, err := fr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 {
		t.Fatalf("got %d sequences, want 3", len(seqs))
	}
	if seqs[0].ID != "seq1" || seqs[0].Desc != "first sequence" || string(seqs[0].Data) != "ACGTACGTACGT" {
		t.Errorf("seq1 parsed wrong: %+v", seqs[0])
	}
	if seqs[1].ID != "seq2" || string(seqs[1].Data) != "TTTT" {
		t.Errorf("seq2 parsed wrong: %+v", seqs[1])
	}
	if string(seqs[2].Data) != "GGGG" {
		t.Errorf("whitespace not stripped: %q", seqs[2].Data)
	}

	var buf bytes.Buffer
	if err := WriteFasta(&buf, 8, seqs...); err != nil {
		t.Fatal(err)
	}
	back, err := NewFastaReader(&buf, Nucleotide).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(seqs) {
		t.Fatalf("round trip count %d", len(back))
	}
	for i := range seqs {
		if back[i].ID != seqs[i].ID || !bytes.Equal(back[i].Data, seqs[i].Data) {
			t.Errorf("round trip mismatch at %d: %+v vs %+v", i, back[i], seqs[i])
		}
	}
}

func TestFastaNoTrailingNewline(t *testing.T) {
	fr := NewFastaReader(strings.NewReader(">a\nACGT"), Nucleotide)
	s, err := fr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if string(s.Data) != "ACGT" {
		t.Errorf("data = %q", s.Data)
	}
	if _, err = fr.Read(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestFastaCRLF(t *testing.T) {
	fr := NewFastaReader(strings.NewReader(">a desc\r\nAC\r\nGT\r\n"), Nucleotide)
	s, err := fr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if s.ID != "a" || s.Desc != "desc" || string(s.Data) != "ACGT" {
		t.Errorf("CRLF parse: %+v", s)
	}
}

func TestFastaGarbage(t *testing.T) {
	fr := NewFastaReader(strings.NewReader("not fasta\n"), Nucleotide)
	if _, err := fr.Read(); err == nil {
		t.Error("expected parse error")
	}
}

func TestFastaComments(t *testing.T) {
	fr := NewFastaReader(strings.NewReader("; comment\n>a\n;inner\nACGT\n"), Nucleotide)
	s, err := fr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if string(s.Data) != "ACGT" {
		t.Errorf("comments not skipped: %q", s.Data)
	}
}

func TestFrameString(t *testing.T) {
	if Frame(1).String() != "+1" || Frame(-3).String() != "-3" {
		t.Error("Frame.String broken")
	}
}

func TestDefline(t *testing.T) {
	s := &Sequence{ID: "gi|1", Desc: "test sequence"}
	if s.Defline() != "gi|1 test sequence" {
		t.Errorf("defline = %q", s.Defline())
	}
	s2 := &Sequence{ID: "bare"}
	if s2.Defline() != "bare" {
		t.Errorf("defline = %q", s2.Defline())
	}
}
