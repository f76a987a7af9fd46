// Package seq provides nucleotide sequence primitives: the IUPAC
// nucleotide alphabet, FASTA parsing and writing, 2-bit DNA packing and
// reverse complement. It is the foundation the BLAST engine and the
// database formatter are built on.
package seq

import "fmt"

// Kind identifies the molecular type of a sequence. Nucleotide is the
// only kind; the type stays because databases record their kind and
// readers reject any other.
type Kind int

// Nucleotide marks DNA/RNA sequences over {A,C,G,T/U,N,...}.
const Nucleotide Kind = 0

// String returns "nucleotide", or "Kind(n)" for any other value.
func (k Kind) String() string {
	if k == Nucleotide {
		return "nucleotide"
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

// nucPairs holds, for each two letters read as one little-endian
// uint16, their two codes packed as one 4-bit code (the first letter
// in the low bits) plus pairValid, and zero when either letter has no
// code: AppendPack2Bit packs eight letters with four lookups.
var nucPairs [1 << 16]byte

const pairValid = 16

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
	for pair := range nucPairs {
		c0, c1 := nucCodes[byte(pair)], nucCodes[byte(pair>>8)]
		if c0&c1&nucValid != 0 {
			nucPairs[pair] = c0&3 | (c1&3)<<2 | pairValid
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

// IsNucLetter reports whether b is a plausible nucleotide letter.
func IsNucLetter(b byte) bool {
	_, ok := NucCode(b)
	return ok
}
