// Package seq provides biological sequence primitives: nucleotide and
// protein alphabets, FASTA parsing and writing, 2-bit DNA packing,
// reverse complement, and six-frame translation with the standard
// genetic code. It is the foundation the BLAST engine and the database
// formatter are built on.
package seq

import "fmt"

// Kind identifies the molecular type of a sequence.
type Kind int

const (
	// Nucleotide marks DNA/RNA sequences over {A,C,G,T/U,N,...}.
	Nucleotide Kind = iota
	// Protein marks amino-acid sequences over the 20-letter alphabet
	// plus ambiguity codes.
	Protein
)

// String returns "nucleotide" or "protein".
func (k Kind) String() string {
	switch k {
	case Nucleotide:
		return "nucleotide"
	case Protein:
		return "protein"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// NucCode maps an upper- or lower-case nucleotide letter to its 2-bit
// code (A=0, C=1, G=2, T=3). Ambiguity codes (N, R, Y, ...) and U map
// to a deterministic concrete base so that packed databases stay
// 2-bit; BLAST treats such positions like the mapped base, which is the
// same simplification NCBI's 2-bit ncbi2na packing makes for scanning.
func NucCode(b byte) (code byte, ok bool) {
	c := nucCodes[b]
	return c & 3, c != 0
}

// nucCodes holds each nucleotide letter's code plus nucValid, and zero
// for any other byte: a table lookup, because letters arrive in no
// order a branch predictor could learn.
var nucCodes [256]byte

const nucValid = 4

func init() {
	// Ambiguity letters fold to one of their bases: N and X (any), R
	// (A/G), W (A/T), M (A/C), D, H and V to A; Y (C/T), S (G/C) and B
	// to C; K (G/T) to G; U to T.
	for code, letters := range [4]string{"ANXRWMDHV", "CYSB", "GK", "TU"} {
		for i := 0; i < len(letters); i++ {
			nucCodes[letters[i]] = byte(code) | nucValid
			nucCodes[letters[i]+'a'-'A'] = byte(code) | nucValid
		}
	}
}

// NucLetter is the inverse of NucCode for the four concrete bases.
var NucLetter = [4]byte{'A', 'C', 'G', 'T'}

// Complement returns the Watson-Crick complement of a concrete 2-bit
// base code.
func Complement(code byte) byte { return 3 - code }

// ComplementLetter returns the complement of an IUPAC nucleotide
// letter, preserving case for the concrete bases.
func ComplementLetter(b byte) byte {
	switch b {
	case 'A':
		return 'T'
	case 'T', 'U':
		return 'A'
	case 'C':
		return 'G'
	case 'G':
		return 'C'
	case 'a':
		return 't'
	case 't', 'u':
		return 'a'
	case 'c':
		return 'g'
	case 'g':
		return 'c'
	case 'N':
		return 'N'
	case 'n':
		return 'n'
	}
	return 'N'
}

// AminoAcids lists the 20 standard residues plus the stop symbol '*'
// and the ambiguity 'X', in the order used by the protein alphabet
// indices (AAIndex).
const AminoAcids = "ARNDCQEGHILKMFPSTWYVBZX*"

// aaIndex maps residue letters to dense indices into AminoAcids.
var aaIndex [256]int8

func init() {
	for i := range aaIndex {
		aaIndex[i] = -1
	}
	for i := 0; i < len(AminoAcids); i++ {
		c := AminoAcids[i]
		aaIndex[c] = int8(i)
		if c >= 'A' && c <= 'Z' {
			aaIndex[c+'a'-'A'] = int8(i)
		}
	}
	// Treat U (selenocysteine) as C and O (pyrrolysine) as K, J as L.
	aaIndex['U'], aaIndex['u'] = aaIndex['C'], aaIndex['C']
	aaIndex['O'], aaIndex['o'] = aaIndex['K'], aaIndex['K']
	aaIndex['J'], aaIndex['j'] = aaIndex['L'], aaIndex['L']
}

// AAIndex returns the dense alphabet index of residue letter b, or -1
// if b is not an amino-acid letter.
func AAIndex(b byte) int { return int(aaIndex[b]) }

// NumAA is the size of the dense protein alphabet (24: 20 residues,
// B, Z, X and stop).
const NumAA = len(AminoAcids)

// IsNucLetter reports whether b is a plausible nucleotide letter.
func IsNucLetter(b byte) bool {
	_, ok := NucCode(b)
	return ok
}

// GuessKind inspects sequence data and guesses whether it is nucleotide
// or protein. A sequence consisting of >= 90% ACGTNU letters is deemed
// nucleotide, matching the common heuristic in sequence tools.
func GuessKind(data []byte) Kind {
	if len(data) == 0 {
		return Nucleotide
	}
	acgt := 0
	for _, b := range data {
		switch b {
		case 'A', 'C', 'G', 'T', 'N', 'U', 'a', 'c', 'g', 't', 'n', 'u':
			acgt++
		}
	}
	if float64(acgt) >= 0.9*float64(len(data)) {
		return Nucleotide
	}
	return Protein
}
