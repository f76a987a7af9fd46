// Package blastdb implements the segmented BLAST database format: a
// formatdb-equivalent that splits nucleotide FASTA input into balanced
// binary fragments of 2-bit packed sequences, plus readers that stream
// sequences back out through any chio.FileSystem backend. This is the
// on-disk data the parallel BLAST workers read — locally, over PVFS,
// or over CEFT-PVFS.
package blastdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"pario/internal/chio"
	"pario/internal/seq"
)

// Fragment file layout:
//
//	header (64 bytes) | data region | defline region | index region
//
// The header is rewritten at close time with the final offsets so the
// data region can be streamed sequentially during formatting. Its kind
// byte is always seq.Nucleotide; readers reject any other.
const (
	magic      = "PARIODB1"
	headerSize = 64
	indexEntry = 32
)

type header struct {
	NumSeqs      uint32
	DataOff      uint64 // == headerSize
	DeflineOff   uint64
	IndexOff     uint64
	TotalLetters uint64
	// DataCRC is the IEEE CRC-32 of the data region, for integrity
	// verification after transfers across parallel stores.
	DataCRC uint32
}

func (h *header) marshal() []byte {
	buf := make([]byte, headerSize)
	copy(buf, magic)
	buf[8] = byte(seq.Nucleotide)
	binary.LittleEndian.PutUint32(buf[12:], h.NumSeqs)
	binary.LittleEndian.PutUint64(buf[16:], h.DataOff)
	binary.LittleEndian.PutUint64(buf[24:], h.DeflineOff)
	binary.LittleEndian.PutUint64(buf[32:], h.IndexOff)
	binary.LittleEndian.PutUint64(buf[40:], h.TotalLetters)
	binary.LittleEndian.PutUint32(buf[48:], h.DataCRC)
	return buf
}

func (h *header) unmarshal(buf []byte) error {
	if len(buf) < headerSize || string(buf[:8]) != magic {
		return fmt.Errorf("blastdb: bad magic (not a pario database fragment)")
	}
	if seq.Kind(buf[8]) != seq.Nucleotide {
		return fmt.Errorf("blastdb: fragment holds sequence kind %d, not %s", buf[8], seq.Nucleotide)
	}
	h.NumSeqs = binary.LittleEndian.Uint32(buf[12:])
	h.DataOff = binary.LittleEndian.Uint64(buf[16:])
	h.DeflineOff = binary.LittleEndian.Uint64(buf[24:])
	h.IndexOff = binary.LittleEndian.Uint64(buf[32:])
	h.TotalLetters = binary.LittleEndian.Uint64(buf[40:])
	h.DataCRC = binary.LittleEndian.Uint32(buf[48:])
	// The regions follow the header in order, at offsets a file can
	// have.
	if h.DataOff != headerSize || h.DeflineOff < h.DataOff || h.IndexOff < h.DeflineOff || h.IndexOff > math.MaxInt64 {
		return fmt.Errorf("blastdb: bad region offsets: data at %d, deflines at %d, index at %d",
			h.DataOff, h.DeflineOff, h.IndexOff)
	}
	return nil
}

type indexRec struct {
	DataOff    uint64 // relative to the data region
	Letters    uint64
	DeflineOff uint64 // relative to the defline region
	DeflineLen uint32
}

// payloadLen returns the stored byte length of the record's 2-bit
// packed payload, without overflow for any Letters value.
func (rec *indexRec) payloadLen() uint64 {
	return rec.Letters/4 + min(rec.Letters%4, 1)
}

// writeBuffer is the size of every write a FragmentWriter issues but
// its last two: 1 MiB, a whole number of stripes on any server count
// and the block chio.Copy moves.
const writeBuffer = 1 << 20

// FragmentWriter streams sequences into one fragment file. Every byte
// it writes passes through one buffer, so the file sees writes of
// exactly writeBuffer bytes at offsets 0, 1 MiB, 2 MiB, ..., then the
// shorter tail, then the header patch at offset 0: two writes for a
// fragment under 1 MiB, however many sequences it holds.
//
// A fragment is valid only after Close returns nil. Until then its file
// is empty or starts with a zeroed header, and OpenFragment rejects it
// as bad magic, so a writer abandoned at any point leaves nothing that
// reads as a database fragment.
type FragmentWriter struct {
	f        chio.File
	buf      []byte // pending bytes, handed to f whenever writeBuffer of them collect
	index    []indexRec
	deflines []byte
	packed   []byte // the sequence being appended, 2-bit packed
	dataOff  uint64 // bytes of data appended so far
	letters  uint64
	crc      uint32
	closed   bool
}

// NewFragmentWriter starts a fragment of the given kind on f; the only
// kind it writes is seq.Nucleotide.
func NewFragmentWriter(f chio.File, kind seq.Kind) (*FragmentWriter, error) {
	if kind != seq.Nucleotide {
		return nil, fmt.Errorf("blastdb: cannot write a %s fragment, only %s", kind, seq.Nucleotide)
	}
	// Reserve the header region; final values are written on Close.
	return &FragmentWriter{f: f, buf: make([]byte, headerSize)}, nil
}

// write buffers p, handing the file each writeBuffer bytes as they
// fill.
func (w *FragmentWriter) write(p []byte) error {
	for len(p) > 0 {
		n := min(len(p), writeBuffer-len(w.buf))
		w.buf = append(w.buf, p[:n]...)
		p = p[n:]
		if len(w.buf) == writeBuffer {
			if err := w.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush hands the pending bytes to the file.
func (w *FragmentWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.f.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// Append adds one sequence to the fragment.
func (w *FragmentWriter) Append(s *seq.Sequence) error {
	if w.closed {
		return fmt.Errorf("blastdb: append to closed fragment")
	}
	if s.Kind != seq.Nucleotide {
		return fmt.Errorf("blastdb: %s sequence %q in %s fragment", s.Kind, s.ID, seq.Nucleotide)
	}
	packed, err := seq.AppendPack2Bit(w.packed[:0], s.Letters())
	if err != nil {
		return fmt.Errorf("blastdb: %s: %w", s.ID, err)
	}
	w.packed = packed
	deflineOff := len(w.deflines)
	w.deflines = append(w.deflines, s.ID...)
	if s.Desc != "" {
		w.deflines = append(append(w.deflines, ' '), s.Desc...)
	}
	w.index = append(w.index, indexRec{
		DataOff:    w.dataOff,
		Letters:    uint64(s.Len()),
		DeflineOff: uint64(deflineOff),
		DeflineLen: uint32(len(w.deflines) - deflineOff),
	})
	if err := w.write(packed); err != nil {
		return err
	}
	w.crc = crc32.Update(w.crc, crc32.IEEETable, packed)
	w.dataOff += uint64(len(packed))
	w.letters += uint64(s.Len())
	return nil
}

// Letters returns the total letters appended so far.
func (w *FragmentWriter) Letters() int64 { return int64(w.letters) }

// NumSequences returns the number of sequences appended so far.
func (w *FragmentWriter) NumSequences() int { return len(w.index) }

// Close writes the defline and index regions plus the final header,
// then closes the underlying file.
func (w *FragmentWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.finish(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// finish writes the defline and index regions, flushes the tail and
// then patches the header.
func (w *FragmentWriter) finish() error {
	h := header{
		NumSeqs:      uint32(len(w.index)),
		DataOff:      headerSize,
		DeflineOff:   headerSize + w.dataOff,
		IndexOff:     headerSize + w.dataOff + uint64(len(w.deflines)),
		TotalLetters: w.letters,
		DataCRC:      w.crc,
	}
	if err := w.write(w.deflines); err != nil {
		return err
	}
	var rec [indexEntry]byte
	for _, r := range w.index {
		binary.LittleEndian.PutUint64(rec[0:], r.DataOff)
		binary.LittleEndian.PutUint64(rec[8:], r.Letters)
		binary.LittleEndian.PutUint64(rec[16:], r.DeflineOff)
		binary.LittleEndian.PutUint32(rec[24:], r.DeflineLen)
		if err := w.write(rec[:]); err != nil {
			return err
		}
	}
	if err := w.flush(); err != nil {
		return err
	}
	_, err := w.f.WriteAt(h.marshal(), 0)
	return err
}

// Fragment reads one fragment file.
type Fragment struct {
	f        chio.File
	h        header
	index    []indexRec
	deflines []byte
}

// OpenFragment opens and indexes a fragment. The index and defline
// regions are loaded eagerly (they are small); sequence data is read
// on demand so the large reads flow through the chio backend.
func OpenFragment(fs chio.FileSystem, path string) (*Fragment, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	fr := &Fragment{f: f}
	hbuf := make([]byte, headerSize)
	n, err := io.ReadFull(io.NewSectionReader(f, 0, headerSize), hbuf)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		f.Close()
		return nil, fmt.Errorf("blastdb: reading header of %s: %w", path, err)
	}
	// A file shorter than a header, such as the fragment of a writer that
	// never flushed, fails the magic check.
	if err := fr.h.unmarshal(hbuf[:n]); err != nil {
		f.Close()
		return nil, fmt.Errorf("blastdb: %s: %w", path, err)
	}
	dataLen, defLen := fr.h.DeflineOff-fr.h.DataOff, fr.h.IndexOff-fr.h.DeflineOff
	if fr.deflines, err = readRegion(f, fr.h.DeflineOff, defLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("blastdb: short defline read of %s: %w", path, err)
	}
	idxBytes, err := readRegion(f, fr.h.IndexOff, uint64(fr.h.NumSeqs)*indexEntry)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("blastdb: short index read of %s: %w", path, err)
	}
	fr.index = make([]indexRec, fr.h.NumSeqs)
	for i := range fr.index {
		off := i * indexEntry
		rec := indexRec{
			DataOff:    binary.LittleEndian.Uint64(idxBytes[off:]),
			Letters:    binary.LittleEndian.Uint64(idxBytes[off+8:]),
			DeflineOff: binary.LittleEndian.Uint64(idxBytes[off+16:]),
			DeflineLen: binary.LittleEndian.Uint32(idxBytes[off+24:]),
		}
		// Both spans must lie inside their regions, compared without
		// sums that could wrap.
		if rec.DeflineOff > defLen || uint64(rec.DeflineLen) > defLen-rec.DeflineOff ||
			rec.DataOff > dataLen || rec.payloadLen() > dataLen-rec.DataOff {
			f.Close()
			return nil, fmt.Errorf("blastdb: %s: index record %d lies outside its regions", path, i)
		}
		fr.index[i] = rec
	}
	return fr, nil
}

// readRegion reads the n bytes at off, growing the buffer in steps of
// at most 1 MiB as the bytes arrive instead of trusting the header
// that claims them: a forged length costs what the file really holds.
func readRegion(f io.ReaderAt, off, n uint64) ([]byte, error) {
	var buf []byte
	for uint64(len(buf)) < n {
		k := int(min(n-uint64(len(buf)), 1<<20))
		buf = append(buf, make([]byte, k)...)
		if err := readAtFull(f, buf[len(buf)-k:], int64(off)+int64(len(buf)-k)); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// readAtFull fills p from f at off. A short read is an error, and one
// the ReaderAt reported as nil or io.EOF becomes io.ErrUnexpectedEOF.
func readAtFull(f io.ReaderAt, p []byte, off int64) error {
	if n, err := f.ReadAt(p, off); n < len(p) {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// NumSequences returns the sequence count.
func (fr *Fragment) NumSequences() int { return len(fr.index) }

// Letters returns the total letters stored.
func (fr *Fragment) Letters() int64 { return int64(fr.h.TotalLetters) }

// Sequence reads and decodes sequence i. The sequence is carried 2-bit
// packed, with its letters materialized only if a consumer asks for
// them; on a backend that serves zero-copy views (the readahead layer)
// its payload is borrowed straight from the block cache, elsewhere it
// owns the payload read for it.
func (fr *Fragment) Sequence(i int) (*seq.Sequence, error) {
	if i < 0 || i >= len(fr.index) {
		return nil, fmt.Errorf("blastdb: sequence index %d out of range [0,%d)", i, len(fr.index))
	}
	start, plen := int64(fr.index[i].DataOff), int64(fr.index[i].payloadLen())
	var payload []byte
	var err error
	if vr, ok := fr.f.(chio.ViewReaderAt); ok {
		payload, err = fr.readPayloadView(vr, start, plen)
	} else {
		payload, err = fr.readPayload(start, plen)
	}
	if err != nil {
		return nil, err
	}
	return fr.decode(i, payload), nil
}

// readPayloadView reads plen payload bytes at data-region offset start
// through the zero-copy view path. A view that a concurrent write made
// stale is retried once and then replaced with an owned copy, so the
// returned bytes are always a consistent read of the payload.
func (fr *Fragment) readPayloadView(vr chio.ViewReaderAt, start, plen int64) ([]byte, error) {
	for attempt := 0; attempt < 2; attempt++ {
		v, err := vr.ReadView(int64(fr.h.DataOff)+start, plen)
		if err != nil && err != io.EOF || int64(len(v.Data)) < plen {
			return nil, fmt.Errorf("blastdb: short data read: %w", err)
		}
		if !v.Stale() {
			return v.Data, nil
		}
	}
	return fr.readPayload(start, plen)
}

// readPayload reads plen payload bytes at data-region offset start into
// a buffer of its own.
func (fr *Fragment) readPayload(start, plen int64) ([]byte, error) {
	buf := make([]byte, plen)
	if plen > 0 {
		if err := readAtFull(fr.f, buf, int64(fr.h.DataOff)+start); err != nil {
			return nil, fmt.Errorf("blastdb: short data read: %w", err)
		}
	}
	return buf, nil
}

// defline returns sequence i's parsed identifier and description.
func (fr *Fragment) defline(i int) (id, desc string) {
	rec := fr.index[i]
	defline := string(fr.deflines[rec.DeflineOff : rec.DeflineOff+uint64(rec.DeflineLen)])
	id = defline
	for k := 0; k < len(defline); k++ {
		if defline[k] == ' ' {
			id, desc = defline[:k], defline[k+1:]
			break
		}
	}
	return id, desc
}

// decode builds sequence i directly over its (possibly borrowed) 2-bit
// payload, which it retains without unpacking. The payload must stay
// immutable for the sequence's lifetime; cache blocks satisfy this
// because invalidation drops references rather than rewriting bytes.
func (fr *Fragment) decode(i int, payload []byte) *seq.Sequence {
	id, desc := fr.defline(i)
	return seq.NewPacked2Bit(id, desc, payload, int(fr.index[i].Letters))
}

// Close releases the underlying file.
func (fr *Fragment) Close() error { return fr.f.Close() }

// Source returns a sequence iterator that satisfies
// blast.SubjectSource. It reads the data region in chunks of up to
// bufBytes (default 16 MB), so the I/O issued against the backend
// consists of large sequential reads — the access pattern the paper's
// Figure 4 documents.
func (fr *Fragment) Source(bufBytes int) *FragmentSource {
	if bufBytes <= 0 {
		bufBytes = 16 << 20
	}
	src := &FragmentSource{fr: fr, bufBytes: bufBytes, bufStart: -1}
	// Zero-copy scan path: when the backend hands out views of its
	// cache blocks (the readahead layer does), payloads are borrowed per
	// sequence instead of bulk-copied into a chunk buffer. The readahead
	// layer's own sequential detection and prefetch keep the backend
	// I/O pattern large and sequential; on any other backend the chunked
	// reads below remain the pattern, so plain (non-cached) filesystems
	// never degrade to per-sequence reads.
	if vr, ok := fr.f.(chio.ViewReaderAt); ok {
		src.vr = vr
	}
	return src
}

// FragmentSource streams a fragment's sequences with chunked reads.
type FragmentSource struct {
	fr       *Fragment
	i        int
	bufBytes int
	buf      []byte
	bufStart int64             // data-region offset of buf[0]; -1 = empty
	vr       chio.ViewReaderAt // non-nil: borrow payloads zero-copy
}

// Next returns the next sequence or io.EOF.
func (src *FragmentSource) Next() (*seq.Sequence, error) {
	fr := src.fr
	if src.i >= len(fr.index) {
		return nil, io.EOF
	}
	i := src.i
	rec := fr.index[i]
	plen := int64(rec.payloadLen())
	start := int64(rec.DataOff)
	end := start + plen
	if src.vr != nil {
		payload, err := fr.readPayloadView(src.vr, start, plen)
		if err != nil {
			return nil, err
		}
		src.i++
		return fr.decode(i, payload), nil
	}
	if src.bufStart < 0 || start < src.bufStart || end > src.bufStart+int64(len(src.buf)) {
		// Refill: one large read beginning at this sequence.
		dataLen := int64(fr.h.DeflineOff - fr.h.DataOff)
		want := int64(src.bufBytes)
		if plen > want {
			want = plen
		}
		if start+want > dataLen {
			want = dataLen - start
		}
		src.buf = make([]byte, want)
		if want > 0 {
			if err := readAtFull(fr.f, src.buf, int64(fr.h.DataOff)+start); err != nil {
				return nil, fmt.Errorf("blastdb: short chunk read: %w", err)
			}
		}
		src.bufStart = start
	}
	// The sequence owns a copy of its payload, so a hit does not keep
	// the chunk alive.
	payload := make([]byte, plen)
	copy(payload, src.buf[start-src.bufStart:end-src.bufStart])
	src.i++
	return fr.decode(i, payload), nil
}

// VerifyChecksum re-reads the fragment's data region and compares its
// CRC-32 against the value recorded at format time, detecting
// corruption introduced in storage or transfer.
func (fr *Fragment) VerifyChecksum() error {
	dataLen := int64(fr.h.DeflineOff - fr.h.DataOff)
	var crc uint32
	buf := make([]byte, 1<<20)
	for off := int64(0); off < dataLen; {
		n := int64(len(buf))
		if off+n > dataLen {
			n = dataLen - off
		}
		if err := readAtFull(fr.f, buf[:n], int64(fr.h.DataOff)+off); err != nil {
			return fmt.Errorf("blastdb: checksum read at %d: %w", off, err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:n])
		off += n
	}
	if crc != fr.h.DataCRC {
		return fmt.Errorf("blastdb: data corruption: CRC %08x, header says %08x", crc, fr.h.DataCRC)
	}
	return nil
}
