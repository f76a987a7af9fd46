package seq

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
)

// FastaReader streams sequences from FASTA-formatted input. Lines are
// read in place from its buffer; a record's only allocations are its
// Sequence, its defline string and its letters.
type FastaReader struct {
	br      *bufio.Reader
	kind    Kind
	line    int
	long    []byte // a line longer than br's buffer, assembled
	letters []byte // the current record's letters, gathered
	held    []byte // pushed-back defline, valid while isHeld
	isHeld  bool
	eof     bool
}

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
	fr.letters = fr.letters[:0]
	for {
		line, err := fr.readLine()
		if err == io.EOF {
			fr.eof = true
			break
		}
		if err != nil {
			return nil, err
		}
		if len(line) > 0 && line[0] == '>' {
			fr.held, fr.isHeld = append(fr.held[:0], line...), true
			break
		}
		if len(line) > 0 && line[0] == ';' { // old-style comment
			continue
		}
		if bytes.IndexByte(line, ' ') < 0 && bytes.IndexByte(line, '\t') < 0 {
			fr.letters = append(fr.letters, line...)
			continue
		}
		for _, b := range line {
			if b == ' ' || b == '\t' {
				continue
			}
			fr.letters = append(fr.letters, b)
		}
	}
	var data []byte
	if letters := fr.letters; len(letters) > 0 {
		data = make([]byte, len(letters))
		copy(data, letters)
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
// the next readLine.
func (fr *FastaReader) readDefline() ([]byte, error) {
	if fr.isHeld {
		fr.isHeld = false
		return fr.held[1:], nil
	}
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
