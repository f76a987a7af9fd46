package seq

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
)

// FastaReader streams sequences from FASTA-formatted input.
type FastaReader struct {
	br   *bufio.Reader
	kind Kind
	line int
	next []byte // pushed-back defline
	eof  bool
}

// NewFastaReader returns a reader that parses FASTA records from r and
// labels each record with kind.
func NewFastaReader(r io.Reader, kind Kind) *FastaReader {
	return &FastaReader{br: bufio.NewReaderSize(r, 64*1024), kind: kind}
}

// Read returns the next sequence, or io.EOF when input is exhausted.
func (fr *FastaReader) Read() (*Sequence, error) {
	defline, err := fr.readDefline()
	if err != nil {
		return nil, err
	}
	id, desc := splitDefline(defline)
	var data []byte
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
			fr.next = line
			break
		}
		if len(line) > 0 && line[0] == ';' { // old-style comment
			continue
		}
		for _, b := range line {
			if b == ' ' || b == '\t' {
				continue
			}
			data = append(data, b)
		}
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

func (fr *FastaReader) readDefline() ([]byte, error) {
	if fr.next != nil {
		l := fr.next
		fr.next = nil
		return l[1:], nil
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

func (fr *FastaReader) readLine() ([]byte, error) {
	if fr.eof {
		return nil, io.EOF
	}
	line, err := fr.br.ReadBytes('\n')
	if len(line) == 0 && err != nil {
		return nil, err
	}
	fr.line++
	line = bytes.TrimRight(line, "\r\n")
	if err == io.EOF {
		fr.eof = true
		if len(line) == 0 {
			return nil, io.EOF
		}
		return append([]byte(nil), line...), nil
	}
	return append([]byte(nil), line...), err
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
