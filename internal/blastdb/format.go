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
	"strings"

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
	// The defline and index regions are adjacent: one read takes both.
	dataLen, defLen := fr.h.DeflineOff-fr.h.DataOff, fr.h.IndexOff-fr.h.DeflineOff
	tail, err := readRegion(f, fr.h.DeflineOff, defLen+uint64(fr.h.NumSeqs)*indexEntry)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("blastdb: short defline and index read of %s: %w", path, err)
	}
	fr.deflines = tail[:defLen:defLen]
	idxBytes := tail[defLen:]
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

// Sequence reads and decodes sequence i through a source positioned
// at it, so random access takes a scan's one read path.
func (fr *Fragment) Sequence(i int) (*seq.Sequence, error) {
	if i < 0 || i >= len(fr.index) {
		return nil, fmt.Errorf("blastdb: sequence index %d out of range [0,%d)", i, len(fr.index))
	}
	src := FragmentSource{fr: fr, i: i}
	return src.Next()
}

// defline returns sequence i's parsed identifier and description.
func (fr *Fragment) defline(i int) (id, desc string) {
	rec := fr.index[i]
	defline := string(fr.deflines[rec.DeflineOff : rec.DeflineOff+uint64(rec.DeflineLen)])
	id, desc, _ = strings.Cut(defline, " ")
	return id, desc
}

// Close releases the underlying file.
func (fr *Fragment) Close() error { return fr.f.Close() }

// Source returns a sequence iterator that satisfies
// blast.SubjectSource. It cuts each payload out of a large run of the
// data region (the data sieving of Thakur, Gropp and Lusk): the rest
// of a borrowed cache block on the readahead layer, whose prefetch
// keeps the backend's reads large, and elsewhere one read of up to
// bufBytes (default 16 MB), the large sequential reads the paper's
// Figure 4 documents.
func (fr *Fragment) Source(bufBytes int) *FragmentSource {
	if bufBytes <= 0 {
		bufBytes = 16 << 20
	}
	return &FragmentSource{fr: fr, bufBytes: bufBytes}
}

// FragmentSource streams a fragment's sequences. It holds one run of
// data-region bytes, cuts each payload out of it, and refills it (fill)
// when a payload does not fit or the run has gone stale.
type FragmentSource struct {
	fr       *Fragment
	i        int
	bufBytes int       // least size of a read into buf; 0 reads one payload
	run      []byte    // the data-region bytes payloads are cut from
	runStart int64     // data-region offset of run[0]
	view     chio.View // the view run was taken from: its Stale covers the whole run
	buf      []byte    // the reused buffer of a backend without views
	copyOut  bool      // run lies in buf, so payloads are copied out of it
}

// Next returns the next sequence or io.EOF.
func (src *FragmentSource) Next() (*seq.Sequence, error) {
	fr := src.fr
	if src.i >= len(fr.index) {
		return nil, io.EOF
	}
	i, rec := src.i, fr.index[src.i]
	start, plen := int64(rec.DataOff), int64(rec.payloadLen())
	off := start - src.runStart
	if off < 0 || off+plen > int64(len(src.run)) || src.view.Stale() {
		if err := src.fill(start, plen); err != nil {
			return nil, err
		}
		off = 0
	}
	payload := src.run[off : off+plen : off+plen]
	// A payload cut from the reused buffer leaves as an exact-size copy,
	// so a hit keeps nothing else alive; one that fills it takes it.
	if src.copyOut && plen == int64(cap(src.buf)) {
		src.buf, src.run = nil, nil
	} else if src.copyOut {
		payload = append(make([]byte, 0, plen), payload...)
	}
	src.i++
	// The sequence keeps its payload packed, and a borrowed one stays
	// immutable: cache invalidation drops blocks, never rewrites them.
	id, desc := fr.defline(i)
	return seq.NewPacked2Bit(id, desc, payload, int(rec.Letters)), nil
}

// fill makes the run start at data-region offset start and hold at
// least the plen payload bytes there; it alone asks how the file
// reads. A view of the payload that is borrowed is extended to its
// capacity, the rest of the cache block (chio.View), clipped at the
// data region's end; one that straddles blocks comes back owned. A
// stale view is retried once, then replaced by an owned read. A file
// without views gets one ReadAt of max(bufBytes, plen) bytes into the
// reused buffer.
func (src *FragmentSource) fill(start, plen int64) error {
	fr := src.fr
	dataOff, dataLen := int64(fr.h.DataOff), int64(fr.h.DeflineOff-fr.h.DataOff)
	src.run, src.runStart, src.view, src.copyOut = nil, start, chio.View{}, false
	if vr, ok := fr.f.(chio.ViewReaderAt); ok {
		for attempt := 0; attempt < 2; attempt++ {
			v, err := vr.ReadView(dataOff+start, plen)
			if int64(len(v.Data)) < plen && (err == nil || err == io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			if err != nil && err != io.EOF {
				return fmt.Errorf("blastdb: short data read: %w", err)
			}
			if !v.Stale() {
				if v.Borrowed {
					v.Data = v.Data[:min(int64(cap(v.Data)), dataLen-start)]
				}
				src.run, src.view = v.Data, v
				return nil
			}
		}
		run := make([]byte, plen)
		if err := readAtFull(fr.f, run, dataOff+start); err != nil {
			return fmt.Errorf("blastdb: short data read: %w", err)
		}
		src.run = run
		return nil
	}
	want := min(max(int64(src.bufBytes), plen), dataLen-start)
	if int64(cap(src.buf)) < want {
		src.buf = make([]byte, want)
	}
	if err := readAtFull(fr.f, src.buf[:want], dataOff+start); err != nil {
		return fmt.Errorf("blastdb: short data read: %w", err)
	}
	src.run, src.copyOut = src.buf[:want], true
	return nil
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
