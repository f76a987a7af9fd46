package align

import (
	"encoding/binary"
	"math/bits"
)

// Packed ungapped extension: the byte-at-a-time X-drop kernel of
// ExtendUngapped rewritten over 2-bit packed DNA, comparing 32 bases
// per uint64 XOR and locating mismatches with TrailingZeros64 /
// LeadingZeros64 instead of visiting every base. It applies only to
// uniform match/mismatch nucleotide schemes (every diagonal table cell
// equal, every off-diagonal cell equal) — comparisons that need a full
// substitution table (proteins, asymmetric nucleotide tables) stay on
// the byte kernel, as does megablast's greedy gapped extension.
// Ambiguity codes carry no special score in either kernel: NucCode
// resolves them to concrete bases at pack/code time, so the packed and
// byte kernels see bit-identical data.

// uniformMask55 selects the low bit of every 2-bit group; folding a
// XOR word through it turns "either bit differs" into one countable
// bit per base.
const uniformMask55 = 0x5555555555555555

// Window64 loads the 32 bases starting at base position pos of the
// 2-bit packed slice p into a uint64, base pos in the two lowest bits.
// Positions past the slice's end read as zero; the caller bounds how
// many of the 32 bases it consumes. Near the packed tail — the word
// boundary where an 8-byte load would run off the slice — the window
// is assembled byte by byte instead.
func Window64(p []byte, pos int) uint64 {
	byteOff := pos >> 2
	shift := uint(pos&3) * 2
	if byteOff+9 <= len(p) {
		w := binary.LittleEndian.Uint64(p[byteOff:]) >> shift
		if shift != 0 {
			w |= uint64(p[byteOff+8]) << (64 - shift)
		}
		return w
	}
	var w uint64
	for k := len(p) - 1; k >= byteOff; k-- {
		w = w<<8 | uint64(p[k])
	}
	return w >> shift
}

// packedMismatches counts mismatching bases between a[ai:ai+w) and
// b[bi:bi+w) over the packed representations.
func packedMismatches(ap, bp []byte, ai, bi, w int) int {
	mm := 0
	for k := 0; k < w; {
		chunk := w - k
		if chunk > 32 {
			chunk = 32
		}
		x := Window64(ap, ai+k) ^ Window64(bp, bi+k)
		if chunk < 32 {
			x &= uint64(1)<<(2*uint(chunk)) - 1
		}
		mm += bits.OnesCount64((x | x>>1) & uniformMask55)
		k += chunk
	}
	return mm
}

// PackedExtend is ExtendUngapped over 2-bit packed sequences under a
// uniform match/mismatch scheme: it extends the seed a[ai:ai+w) vs
// b[bi:bi+w) along the diagonal in both directions, stopping a
// direction when the running score falls more than xdrop below that
// direction's best. ap and bp hold an and bn bases respectively in
// Pack2Bit layout (four bases per byte, LSB first). The returned
// score and extents are bit-identical to
// ExtendUngapped(aCodes, bCodes, ai, bi, w, uniformScheme, xdrop).
func PackedExtend(ap []byte, an int, bp []byte, bn int, ai, bi, w, match, mismatch, xdrop int) (score, aFrom, aTo, bFrom, bTo int) {
	mm := packedMismatches(ap, bp, ai, bi, w)
	seed := (w-mm)*match + mm*mismatch

	// Rightward: per byte-kernel position k (1-based), run += score,
	// best/len update, then X-drop check. A run of consecutive matches
	// only raises the running score, so best-tracking can jump straight
	// to the run's end and the X-drop cutoff can only fire on a
	// mismatch — which is exactly what the XOR word iteration visits.
	bestRight, rightLen := 0, 0
	{
		limit := an - (ai + w)
		if r := bn - (bi + w); r < limit {
			limit = r
		}
		run, pos := 0, 0
		i0, j0 := ai+w, bi+w
	right:
		for pos < limit {
			chunk := limit - pos
			if chunk > 32 {
				chunk = 32
			}
			x := Window64(ap, i0+pos) ^ Window64(bp, j0+pos)
			if chunk < 32 {
				x &= uint64(1)<<(2*uint(chunk)) - 1
			}
			consumed := 0
			for consumed < chunk {
				m := chunk - consumed
				if x != 0 {
					if t := bits.TrailingZeros64(x) / 2; t < m {
						m = t
					}
				}
				if m > 0 { // leading matches of the remaining chunk
					run += m * match
					pos += m
					consumed += m
					if run > bestRight {
						bestRight, rightLen = run, pos
					}
					x >>= uint(2 * m)
				}
				if consumed == chunk {
					break
				}
				run += mismatch
				pos++
				consumed++
				x >>= 2
				if run < bestRight-xdrop {
					break right
				}
			}
		}
	}

	// Leftward mirror: shift each XOR window so the base nearest the
	// seed sits in the top two bits, then walk mismatches with
	// LeadingZeros64.
	bestLeft, leftLen := 0, 0
	{
		limit := ai
		if bi < limit {
			limit = bi
		}
		run, pos := 0, 0
	left:
		for pos < limit {
			chunk := limit - pos
			if chunk > 32 {
				chunk = 32
			}
			x := Window64(ap, ai-pos-chunk) ^ Window64(bp, bi-pos-chunk)
			x <<= uint(64 - 2*chunk)
			consumed := 0
			for consumed < chunk {
				m := chunk - consumed
				if x != 0 {
					if t := bits.LeadingZeros64(x) / 2; t < m {
						m = t
					}
				}
				if m > 0 {
					run += m * match
					pos += m
					consumed += m
					if run > bestLeft {
						bestLeft, leftLen = run, pos
					}
					x <<= uint(2 * m)
				}
				if consumed == chunk {
					break
				}
				run += mismatch
				pos++
				consumed++
				x <<= 2
				if run < bestLeft-xdrop {
					break left
				}
			}
		}
	}

	score = seed + bestLeft + bestRight
	return score, ai - leftLen, ai + w + rightLen, bi - leftLen, bi + w + rightLen
}

// UniformNucScheme reports whether s is a 4x4 match/mismatch scheme —
// every diagonal entry one value, every off-diagonal entry another —
// and returns the two values. Only such schemes are eligible for
// PackedExtend.
func UniformNucScheme(s *Scheme) (match, mismatch int, ok bool) {
	if len(s.Table) != 4 {
		return 0, 0, false
	}
	match, mismatch = s.Table[0][0], 0
	haveMis := false
	for i := 0; i < 4; i++ {
		if len(s.Table[i]) != 4 {
			return 0, 0, false
		}
		for j := 0; j < 4; j++ {
			v := s.Table[i][j]
			if i == j {
				if v != match {
					return 0, 0, false
				}
				continue
			}
			if !haveMis {
				mismatch, haveMis = v, true
			} else if v != mismatch {
				return 0, 0, false
			}
		}
	}
	return match, mismatch, true
}
