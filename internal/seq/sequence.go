package seq

import (
	"fmt"
)

// Sequence is a named nucleotide sequence. Data holds one IUPAC
// nucleotide letter per byte.
//
// A sequence may instead be carried in 2-bit packed form
// (four bases per byte, as stored in the blastdb fragment format): a
// sequence built with NewPacked2Bit has Data == nil until a caller
// needs letters, at which point Letters materializes them. The packed
// bytes are treated as read-only — they may be borrowed directly from
// an I/O cache block and shared with other holders.
type Sequence struct {
	ID   string // accession / identifier (first word of the defline)
	Desc string // rest of the defline
	Kind Kind
	Data []byte

	packed  []byte // 2-bit packed codes; nil unless built by NewPacked2Bit
	letters int    // letter count of the packed form
}

// Frame identifies the strand an alignment lies on: +1 the forward
// strand, -1 the reverse complement.
type Frame int

// String renders the frame as "+1" or "-1".
func (f Frame) String() string {
	if f > 0 {
		return fmt.Sprintf("+%d", int(f))
	}
	return fmt.Sprintf("%d", int(f))
}

// NewPacked2Bit builds a nucleotide sequence directly over a 2-bit
// packed payload (the blastdb on-disk representation) without
// unpacking it. packed must hold at least ceil(letters/4) bytes and is
// retained, not copied; the caller must treat it as immutable.
func NewPacked2Bit(id, desc string, packed []byte, letters int) *Sequence {
	return &Sequence{ID: id, Desc: desc, Kind: Nucleotide, packed: packed, letters: letters}
}

// Packed2Bit returns the sequence's 2-bit packed payload and letter
// count, or (nil, 0) when the sequence does not carry one.
func (s *Sequence) Packed2Bit() ([]byte, int) {
	if s.packed == nil {
		return nil, 0
	}
	return s.packed, s.letters
}

// Letters returns the sequence's letter data, materializing (and
// caching) it from the packed form on first use. Not safe for
// concurrent callers on a packed sequence; the search pipeline hands
// each subject to one goroutine at a time.
func (s *Sequence) Letters() []byte {
	if s.Data == nil && s.packed != nil {
		s.Data = Unpack2Bit(s.packed, s.letters)
	}
	return s.Data
}

// Defline reconstructs the FASTA description line (without '>').
func (s *Sequence) Defline() string {
	if s.Desc == "" {
		return s.ID
	}
	return s.ID + " " + s.Desc
}

// Len returns the sequence length in letters.
func (s *Sequence) Len() int {
	if s.Data == nil && s.packed != nil {
		return s.letters
	}
	return len(s.Data)
}

// Subsequence returns a copy of positions [from, to) with a derived ID.
// It panics if the range is out of bounds.
func (s *Sequence) Subsequence(from, to int) *Sequence {
	data := s.Letters()
	if from < 0 || to > len(data) || from > to {
		panic(fmt.Sprintf("seq: subsequence [%d,%d) of length-%d sequence", from, to, len(data)))
	}
	return &Sequence{
		ID:   fmt.Sprintf("%s:%d-%d", s.ID, from+1, to),
		Desc: s.Desc,
		Kind: s.Kind,
		Data: append([]byte(nil), data[from:to]...),
	}
}

// ReverseComplement returns the reverse complement of the sequence.
func (s *Sequence) ReverseComplement() *Sequence {
	data := s.Letters()
	rc := make([]byte, len(data))
	for i, b := range data {
		rc[len(data)-1-i] = ComplementLetter(b)
	}
	return &Sequence{ID: s.ID, Desc: s.Desc, Kind: Nucleotide, Data: rc}
}

// Validate checks every letter against the nucleotide alphabet and
// returns a descriptive error for the first invalid position.
func (s *Sequence) Validate() error {
	if s.Data == nil && s.packed != nil {
		return nil // packed codes are 2-bit values by construction
	}
	for i, b := range s.Data {
		if !IsNucLetter(b) {
			return fmt.Errorf("seq: %s: invalid nucleotide %q at position %d", s.ID, b, i+1)
		}
	}
	return nil
}

// Pack2Bit packs a nucleotide sequence into 2-bit codes, four bases per
// byte, first base in the two lowest bits. The returned slice has
// ceil(len/4) bytes. Ambiguity codes are mapped per NucCode.
func Pack2Bit(data []byte) ([]byte, error) {
	packed := make([]byte, (len(data)+3)/4)
	for i, b := range data {
		code, ok := NucCode(b)
		if !ok {
			return nil, fmt.Errorf("seq: cannot 2-bit pack letter %q at position %d", b, i+1)
		}
		packed[i/4] |= code << (uint(i%4) * 2)
	}
	return packed, nil
}

// Unpack2Bit expands packed 2-bit codes into n upper-case letters.
func Unpack2Bit(packed []byte, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		code := (packed[i/4] >> (uint(i%4) * 2)) & 3
		out[i] = NucLetter[code]
	}
	return out
}

// Codes converts letters to dense 2-bit base codes (NucCode); invalid
// letters map to 0. The BLAST engine aligns these dense codes. A packed
// sequence decodes straight from its 2-bit payload, skipping the letter
// intermediate.
func (s *Sequence) Codes() []byte {
	return s.AppendCodes(make([]byte, 0, s.Len()))
}

// AppendCodes appends the sequence's dense codes to dst and returns
// the extended slice — the allocation-free form of Codes for callers
// that pool the destination buffer across sequences.
func (s *Sequence) AppendCodes(dst []byte) []byte {
	if s.Data == nil && s.packed != nil {
		return AppendUnpackedCodes(dst, s.packed, s.letters)
	}
	for _, b := range s.Data {
		c, _ := NucCode(b)
		dst = append(dst, c)
	}
	return dst
}

// PackCodes packs dense 2-bit base codes (values 0-3, as produced by
// Codes) four per byte, first code in the two
// lowest bits — the same layout as Pack2Bit, but starting from codes
// instead of letters.
func PackCodes(codes []byte) []byte {
	return AppendPackedCodes(make([]byte, 0, (len(codes)+3)/4), codes)
}

// AppendPackedCodes appends codes packed as PackCodes packs them to dst
// and returns the extended slice — the allocation-free form of
// PackCodes for callers that pool the destination buffer.
func AppendPackedCodes(dst, codes []byte) []byte {
	for i := 0; i < len(codes); i += 4 {
		var b byte
		for k, c := range codes[i:min(i+4, len(codes))] {
			b |= (c & 3) << (uint(k) * 2)
		}
		dst = append(dst, b)
	}
	return dst
}

// AppendUnpackedCodes appends n dense 2-bit codes from packed to dst
// and returns the extended slice.
func AppendUnpackedCodes(dst, packed []byte, n int) []byte {
	if len(dst)+n > cap(dst) {
		grown := make([]byte, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	i := 0
	// Whole input bytes first: four codes per iteration.
	for ; i+4 <= n; i += 4 {
		b := packed[i/4]
		dst = append(dst, b&3, (b>>2)&3, (b>>4)&3, (b>>6)&3)
	}
	for ; i < n; i++ {
		dst = append(dst, (packed[i/4]>>(uint(i%4)*2))&3)
	}
	return dst
}
