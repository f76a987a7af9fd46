package seq

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"strings"
)

// FastaReader streams sequences from FASTA-formatted input. It makes
// one pass over each sequence line, straight from its read buffer: the
// pass finds the newline, drops whitespace and copies the letters into
// a slab, whole words at a time until a word holds a byte below 0x21.
// A record's only allocations are its Sequence and its defline string.
// Its letters lie in the slab after those of the records read before
// it, and the slab is never written again once it is full, so a kept
// sequence keeps its slab alive: at most slabMax bytes, or about twice
// the record's letters when it is longer.
type FastaReader struct {
	br   *bufio.Reader
	kind Kind
	line int    // lines read so far
	long []byte // a defline longer than br's buffer, assembled
	slab []byte // the letters of records handed out, then of the current one
	rec  int    // where the current record's letters start in slab
	at   int    // where the next byte falls: lineStart, inComment or inData
	crs  int    // trailing '\r's of the current line among the slab's letters
	eof  bool
}

// The places a sequence line's byte can fall in.
const (
	lineStart = iota // first byte of a line: '>' ends the record, ';' starts a comment
	inComment        // skipped up to its newline
	inData           // letters, whitespace and other bytes up to the newline
)

// slabMax bounds the slab growth that serves many records: a new slab
// is sized to the buffered input, doubling up to 64 KiB, which stays
// in cache between its zeroing and its filling. A record longer than
// half a slab grows the slab to twice its size, as append would.
const slabMax = 64 << 10

// NewFastaReader returns a reader that parses FASTA records from r and
// labels each record with kind.
func NewFastaReader(r io.Reader, kind Kind) *FastaReader {
	return &FastaReader{br: bufio.NewReaderSize(r, 64*1024), kind: kind}
}

// Read returns the next sequence, or io.EOF when input is exhausted.
// The sequence's Data is its own, nil for a record with no letters.
func (fr *FastaReader) Read() (*Sequence, error) {
	defline, err := fr.readDefline()
	if err != nil {
		return nil, err
	}
	id, desc := splitDefline(defline)
	data, err := fr.readLetters()
	if err != nil {
		return nil, err
	}
	return &Sequence{ID: id, Desc: desc, Kind: fr.kind, Data: data}, nil
}

// ReadAll consumes the remaining records.
func (fr *FastaReader) ReadAll() ([]*Sequence, error) {
	var out []*Sequence
	for {
		s, err := fr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
}

// readDefline returns the next defline without its '>', valid until
// the next read.
func (fr *FastaReader) readDefline() ([]byte, error) {
	for {
		line, err := fr.readLine()
		if err != nil {
			return nil, err
		}
		if len(line) == 0 || line[0] == ';' {
			continue
		}
		if line[0] != '>' {
			return nil, fmt.Errorf("seq: line %d: expected FASTA defline, got %.40q", fr.line, line)
		}
		return line[1:], nil
	}
}

// readLine returns the next line without its trailing '\r's and '\n's.
// The line is valid until the next call: it lies in the bufio buffer,
// or in fr.long when it is longer than that buffer.
func (fr *FastaReader) readLine() ([]byte, error) {
	if fr.eof {
		return nil, io.EOF
	}
	line, err := fr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		fr.long = append(fr.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = fr.br.ReadSlice('\n')
			fr.long = append(fr.long, line...)
		}
		line = fr.long
	}
	if len(line) == 0 && err != nil {
		return nil, err
	}
	fr.line++
	n := len(line)
	for n > 0 && (line[n-1] == '\n' || line[n-1] == '\r') {
		n--
	}
	line = line[:n]
	if err == io.EOF {
		fr.eof = true
		if len(line) == 0 {
			return nil, io.EOF
		}
		return line, nil
	}
	return line, err
}

// readLetters gathers the letters of the lines up to the next defline,
// which it leaves unread, or the end of input, and returns them: nil
// when there are none. Whitespace is dropped, and so are the '\r's
// that end a line; every other byte is kept as a letter.
func (fr *FastaReader) readLetters() ([]byte, error) {
	fr.rec, fr.at, fr.crs = len(fr.slab), lineStart, 0
	for !fr.eof {
		if fr.br.Buffered() == 0 {
			if _, err := fr.br.Peek(1); err == io.EOF {
				fr.eof = true
				break
			} else if err != nil {
				fr.slab = fr.slab[:fr.rec]
				return nil, err
			}
		}
		chunk, _ := fr.br.Peek(fr.br.Buffered())
		n, more := fr.scan(chunk)
		fr.br.Discard(n) // n <= Buffered, so it cannot fail
		if !more {
			break
		}
	}
	fr.slab = fr.slab[:len(fr.slab)-fr.crs]
	if len(fr.slab) == fr.rec {
		return nil, nil
	}
	return fr.slab[fr.rec:len(fr.slab):len(fr.slab)], nil
}

// scan gathers the letters of chunk into the slab, growing it when
// full, and returns how many of chunk's bytes it consumed and whether
// the record goes on: false when chunk[n] starts a defline.
func (fr *FastaReader) scan(chunk []byte) (n int, more bool) {
	crs := fr.crs
	for n < len(chunk) {
		switch fr.at {
		case lineStart:
			switch chunk[n] {
			case '>':
				fr.crs = crs
				return n, false
			case ';': // an old-style comment
				fr.at = inComment
			default:
				fr.at = inData
			}
			continue
		case inComment:
			i := bytes.IndexByte(chunk[n:], '\n')
			if i < 0 {
				n = len(chunk)
				continue
			}
			n += i + 1
			fr.line++
			fr.at = lineStart
			continue
		}
		if cap(fr.slab)-len(fr.slab) < 16 {
			fr.grow(len(chunk) - n)
		}
		// Each byte of src writes at most one byte of dst.
		dst := fr.slab[len(fr.slab):cap(fr.slab)]
		src := chunk[n:min(len(chunk), n+len(dst))]
		i, j := 0, 0 // next byte of src to read, of dst to write
	lines:
		for i < len(src) {
			if k := copyLetters(dst[j:], src[i:]); k > 0 {
				i, j, crs = i+k, j+k, 0
				continue
			}
			b := src[i]
			i++
			switch b {
			case '\n':
				// The line's letters go into the slab, without the
				// '\r's that end it.
				fr.slab = fr.slab[:len(fr.slab)+j-crs]
				dst, j, crs = fr.slab[len(fr.slab):cap(fr.slab)], 0, 0
				fr.line++
				if i == len(src) || src[i] == '>' || src[i] == ';' {
					fr.at = lineStart
					break lines
				}
			case ' ', '\t':
				crs = 0
			case '\r': // kept unless only '\r's follow it on the line
				dst[j] = b
				j++
				crs++
			default:
				dst[j] = b
				j++
				crs = 0
			}
		}
		fr.slab = fr.slab[:len(fr.slab)+j]
		n += i
	}
	fr.crs = crs
	return n, true
}

// copyLetters copies the leading bytes of src that are neither control
// bytes nor spaces (none is below 0x21) to dst, and returns how many it
// copied. It copies whole words: 32 bytes at a time while every byte
// is a letter, then 8 at a time up to the first that is not. It may
// write up to 31 bytes of dst beyond the letters, and copies none of
// the last seven bytes of src, which its caller takes one at a time.
func copyLetters(dst, src []byte) int {
	const (
		ones  = 0x0101010101010101
		highs = 0x8080808080808080
	)
	// below sets the high bit of each byte of w below 0x21 (and perhaps
	// of bytes after the first such); none when there is none.
	below := func(w uint64) uint64 { return (w - 0x21*ones) &^ w & highs }
	n := 0
	for len(src) >= 32 && len(dst) >= 32 {
		s, d := (*[32]byte)(src), (*[32]byte)(dst)
		w0, w1 := binary.LittleEndian.Uint64(s[0:]), binary.LittleEndian.Uint64(s[8:])
		w2, w3 := binary.LittleEndian.Uint64(s[16:]), binary.LittleEndian.Uint64(s[24:])
		binary.LittleEndian.PutUint64(d[0:], w0)
		binary.LittleEndian.PutUint64(d[8:], w1)
		binary.LittleEndian.PutUint64(d[16:], w2)
		binary.LittleEndian.PutUint64(d[24:], w3)
		if below(w0)|below(w1)|below(w2)|below(w3) != 0 {
			break
		}
		n, src, dst = n+32, src[32:], dst[32:]
	}
	for len(src) >= 8 && len(dst) >= 8 {
		w := binary.LittleEndian.Uint64(src)
		binary.LittleEndian.PutUint64(dst, w)
		if m := below(w); m != 0 {
			return n + bits.TrailingZeros64(m)>>3 // the lowest set bit is exact
		}
		n, src, dst = n+8, src[8:], dst[8:]
	}
	return n
}

// grow moves the current record's letters to a new slab with room for
// at least 16 more bytes, and for want more when that fits in slabMax.
func (fr *FastaReader) grow(want int) {
	cur := fr.slab[fr.rec:]
	size := max(len(cur)+16, min(len(cur)+want, slabMax), 2*len(cur), min(2*cap(fr.slab), slabMax))
	fr.slab, fr.rec = append(make([]byte, 0, size), cur...), 0
}

func splitDefline(defline []byte) (id, desc string) {
	s := strings.TrimSpace(string(defline))
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		return s[:i], strings.TrimSpace(s[i+1:])
	}
	return s, ""
}

// WriteFasta writes sequences to w in FASTA format with the given line
// width (<= 0 means a single line per sequence).
func WriteFasta(w io.Writer, width int, seqs ...*Sequence) error {
	bw := bufio.NewWriter(w)
	for _, s := range seqs {
		if _, err := fmt.Fprintf(bw, ">%s\n", s.Defline()); err != nil {
			return err
		}
		data := s.Letters()
		if width <= 0 {
			width = len(data)
		}
		for off := 0; off < len(data); off += width {
			end := off + width
			if end > len(data) {
				end = len(data)
			}
			if _, err := bw.Write(data[off:end]); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
		if len(data) == 0 {
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
