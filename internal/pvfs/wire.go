package pvfs

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sort"

	"pario/internal/chio"
)

// The PVFS wire is one binary frame per request and one per response,
// little-endian throughout. A frame is a fixed header, then the fields
// section (length-prefixed strings and lists, its byte length declared
// in the header), then the payload (its byte length also declared in
// the header). Each side opens a connection with an 8-byte version
// word — wireMagic then wireVersion — in front of its first frame, so
// the check costs no round trip.
//
// Request header (requestHeaderLen bytes):
//
//	u8 Op | u64 Handle | i64 Length | f64 Load | i64 ServerID |
//	u64 TraceID | u64 SpanID | u32 fields length | u64 payload length
//
// Request fields: str Name, list Segs (i64 Offset, i64 Length each).
//
// Response header (responseHeaderLen bytes):
//
//	u8 flags (flagOK, flagNotFound, flagRefused) |
//	u32 fields length | u64 payload length
//
// Response fields: str Err; Meta (str Name, u64 Handle, i64 Size,
// i64 StripeSize, i64 NumServers); list SegLens (i64 each); list Metas
// (a Meta each); list Loads (i64 server, f64 load each, servers
// strictly ascending).
//
// A str is a u32 byte count and the bytes; a list is a u32 entry count
// and the entries. The encoding is canonical: a frame that decodes
// re-encodes to the same bytes.
const (
	wireMagic   uint32 = 0x53465650 // "PVFS" in little-endian byte order
	wireVersion uint32 = 2

	requestHeaderLen  = 61
	responseHeaderLen = 13

	// maxFieldBytes bounds a frame's fields section.
	maxFieldBytes = 16 << 20
	// keptBufferBytes bounds each per-connection buffer kept from one
	// exchange to the next (the fields scratch, a request's payload, an
	// iod's reply): a larger one is dropped once used, so what a
	// connection holds between requests does not grow with the largest
	// request it ever served.
	keptBufferBytes = 1 << 20
	// growStep is the first allocation for a length that is only
	// declared: a buffer grows as bytes arrive, not by what a frame
	// claims.
	growStep = 64 << 10
)

// Response flag bits.
const (
	flagOK       = 1 << iota
	flagNotFound // Response.NotFound
	flagRefused  // the server refused the connection's version word
)

// ErrWireVersion reports a peer that does not speak this wire version:
// it opened with another version word, or with none (a gob peer).
var ErrWireVersion = errors.New("pvfs: peer speaks another wire version")

var le = binary.LittleEndian

// hello is the version word each side sends before its first frame.
var hello = le.AppendUint32(le.AppendUint32(nil, wireMagic), wireVersion)

// readHello reads the peer's version word. A mismatch is reported as
// soon as the bytes that did arrive disagree with it.
func readHello(r io.Reader) error {
	var b [8]byte
	n, err := io.ReadFull(r, b[:])
	if n > 0 && string(b[:n]) != string(hello[:n]) {
		return fmt.Errorf("%w: version word % x, want % x", ErrWireVersion, b[:n], hello)
	}
	return err
}

// appendRequest appends req's header and fields; the payload (Data, or
// the gather list that replaces it) follows them on the wire.
func appendRequest(b []byte, req *Request) []byte {
	b = append(b, byte(req.Op))
	b = le.AppendUint64(b, req.Handle)
	b = le.AppendUint64(b, uint64(req.Length))
	b = le.AppendUint64(b, math.Float64bits(req.Load))
	b = le.AppendUint64(b, uint64(req.ServerID))
	b = le.AppendUint64(b, req.TraceID)
	b = le.AppendUint64(b, req.SpanID)
	at := len(b)
	b = le.AppendUint32(b, 0) // fields length, patched below
	b = le.AppendUint64(b, uint64(req.payloadLen()))
	start := len(b)
	b = appendString(b, req.Name)
	b = le.AppendUint32(b, uint32(len(req.Segs)))
	for _, s := range req.Segs {
		b = le.AppendUint64(b, uint64(s.Off))
		b = le.AppendUint64(b, uint64(s.Len))
	}
	le.PutUint32(b[at:], uint32(len(b)-start))
	return b
}

// readRequest reads one request frame into req, reusing the capacity
// of req.Segs, req.Data and *fields. Declared lengths are checked
// before anything is allocated for them, and buffers grow only as
// bytes arrive.
func readRequest(r io.Reader, req *Request, fields *[]byte) error {
	var h [requestHeaderLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return err
	}
	nf, np := le.Uint32(h[49:]), le.Uint64(h[53:])
	if nf > maxFieldBytes {
		return fmt.Errorf("pvfs: request fields claim %d bytes, limit %d", nf, maxFieldBytes)
	}
	if np > maxRequestBytes {
		return fmt.Errorf("pvfs: request payload claims %d bytes, limit %d", np, maxRequestBytes)
	}
	buf, err := readFull(r, *fields, int(nf))
	*fields = buf
	if err != nil {
		return err
	}
	d := fieldReader{b: buf}
	*req = Request{
		Op:       Op(h[0]),
		Handle:   le.Uint64(h[1:]),
		Length:   int64(le.Uint64(h[9:])),
		Load:     math.Float64frombits(le.Uint64(h[17:])),
		ServerID: int(int64(le.Uint64(h[25:]))),
		TraceID:  le.Uint64(h[33:]),
		SpanID:   le.Uint64(h[41:]),
		Name:     d.str(),
		Segs:     req.Segs[:0],
		Data:     req.Data,
	}
	for n := d.u32(); n > 0 && d.err == nil; n-- {
		req.Segs = append(req.Segs, chio.Seg{Off: int64(d.u64()), Len: int64(d.u64())})
	}
	if err := d.done(); err != nil {
		return err
	}
	req.Data, err = readFull(r, req.Data, int(np))
	return err
}

// appendResponse appends resp's header and fields; resp.Data follows
// them on the wire.
func appendResponse(b []byte, resp *Response) []byte {
	var flags byte
	if resp.OK {
		flags |= flagOK
	}
	if resp.NotFound {
		flags |= flagNotFound
	}
	return appendResponseFrame(b, flags, resp)
}

func appendResponseFrame(b []byte, flags byte, resp *Response) []byte {
	b = append(b, flags)
	at := len(b)
	b = le.AppendUint32(b, 0) // fields length, patched below
	b = le.AppendUint64(b, uint64(len(resp.Data)))
	start := len(b)
	b = appendString(b, resp.Err)
	b = appendMeta(b, &resp.Meta)
	b = le.AppendUint32(b, uint32(len(resp.SegLens)))
	for _, n := range resp.SegLens {
		b = le.AppendUint64(b, uint64(n))
	}
	b = le.AppendUint32(b, uint32(len(resp.Metas)))
	for i := range resp.Metas {
		b = appendMeta(b, &resp.Metas[i])
	}
	b = le.AppendUint32(b, uint32(len(resp.Loads)))
	ids := make([]int, 0, len(resp.Loads))
	for id := range resp.Loads {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		b = le.AppendUint64(b, uint64(id))
		b = le.AppendUint64(b, math.Float64bits(resp.Loads[id]))
	}
	le.PutUint32(b[at:], uint32(len(b)-start))
	return b
}

// refusal is the one frame a server sends a peer whose version word it
// does not accept, before it closes the connection.
func refusal(err error) []byte {
	return appendResponseFrame(slices.Clone(hello), flagRefused, &Response{Err: err.Error()})
}

func appendMeta(b []byte, m *Meta) []byte {
	b = appendString(b, m.Name)
	b = le.AppendUint64(b, m.Handle)
	b = le.AppendUint64(b, uint64(m.Size))
	b = le.AppendUint64(b, uint64(m.StripeSize))
	return le.AppendUint64(b, uint64(m.NumServers))
}

func appendString(b []byte, s string) []byte {
	return append(le.AppendUint32(b, uint32(len(s))), s...)
}

// readResponse reads one response frame answering req into resp.
// Every declared length is checked before anything is allocated for
// it: the fields against maxFieldBytes, the payload against what req
// can be answered with (an OK list read's segment sum, else nothing),
// and an OK list read's SegLens against req.Segs and the payload. The
// payload then lands in resp.into's regions when set (see
// DataConn.ReadRuns), zero-filling what the server did not serve, and
// otherwise in resp.Data, whose capacity is reused.
func readResponse(r io.Reader, req *Request, resp *Response, fields *[]byte) error {
	var h [responseHeaderLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return err
	}
	flags := h[0]
	if flags&^(flagOK|flagNotFound|flagRefused) != 0 {
		return fmt.Errorf("pvfs: unknown response flags %#x", flags)
	}
	nf, np := le.Uint32(h[1:]), le.Uint64(h[5:])
	ok := flags&flagOK != 0
	if nf > maxFieldBytes {
		return fmt.Errorf("pvfs: response fields claim %d bytes, limit %d", nf, maxFieldBytes)
	}
	if limit := payloadLimit(req, ok); np > uint64(limit) {
		return fmt.Errorf("pvfs: %s response payload claims %d bytes, limit %d", req.Op, np, limit)
	}
	buf, err := readFull(r, *fields, int(nf))
	*fields = buf
	if err != nil {
		return err
	}
	d := fieldReader{b: buf}
	resp.OK, resp.NotFound = ok, flags&flagNotFound != 0
	resp.Err = d.str()
	resp.Meta = d.meta()
	resp.SegLens = resp.SegLens[:0]
	for n := d.u32(); n > 0 && d.err == nil; n-- {
		resp.SegLens = append(resp.SegLens, int64(d.u64()))
	}
	resp.Metas = nil
	for n := d.u32(); n > 0 && d.err == nil; n-- {
		resp.Metas = append(resp.Metas, d.meta())
	}
	resp.Loads = nil
	for n, last := d.u32(), int64(math.MinInt64); n > 0 && d.err == nil; n-- {
		id, load := int64(d.u64()), math.Float64frombits(d.u64())
		if d.err != nil {
			break
		}
		if len(resp.Loads) > 0 && id <= last {
			return fmt.Errorf("pvfs: response loads out of order at server %d", id)
		}
		if resp.Loads == nil {
			resp.Loads = make(map[int]float64)
		}
		resp.Loads[int(id)], last = load, id
	}
	if err := d.done(); err != nil {
		return err
	}
	if flags&flagRefused != 0 {
		return fmt.Errorf("%w: refused by the server: %s", ErrWireVersion, resp.Err)
	}
	if ok && req.Op == OpListRead {
		if err := checkSegLens(req.Segs, resp.SegLens, int64(np)); err != nil {
			return err
		}
	}
	resp.payloadLen = int64(np)
	if resp.into != nil && ok && req.Op == OpListRead {
		resp.Data = resp.Data[:0]
		return readInto(r, req.Segs, resp.SegLens, resp.into)
	}
	resp.Data, err = readFull(r, resp.Data, int(np))
	return err
}

// payloadLimit is the most payload a response to req may carry: an OK
// list read's segment sum, capped at maxRequestBytes; nothing for any
// other response.
func payloadLimit(req *Request, ok bool) int64 {
	if !ok || req.Op != OpListRead {
		return 0
	}
	var sum int64
	for _, s := range req.Segs {
		sum += min(max(s.Len, 0), maxRequestBytes-sum)
	}
	return sum
}

// checkSegLens validates a list read's per-segment byte counts against
// the request's segments and the payload they must add up to.
func checkSegLens(segs []chio.Seg, lens []int64, payload int64) error {
	if len(lens) != len(segs) {
		return fmt.Errorf("pvfs: list read returned %d segment lengths for %d segments", len(lens), len(segs))
	}
	var sum int64
	for i, n := range lens {
		if n < 0 || n > segs[i].Len {
			return fmt.Errorf("pvfs: list read segment %d: bad length %d (want <= %d)", i, n, segs[i].Len)
		}
		sum += n
	}
	if sum != payload {
		return fmt.Errorf("pvfs: list read segment lengths sum to %d, payload is %d bytes", sum, payload)
	}
	return nil
}

// readInto reads a list read's payload straight into its destination
// regions. into holds the regions in piece order, and consecutive
// regions tile each segment of segs in turn (see segments): segment
// i's lens[i] served bytes fill its regions from the front, and the
// unserved rest — a hole or the piece's end — is zeroed.
func readInto(r io.Reader, segs []chio.Seg, lens []int64, into [][]byte) error {
	k := 0
	for i, s := range segs {
		served := lens[i]
		for left := s.Len; left > 0; k++ {
			if k == len(into) {
				return fmt.Errorf("pvfs: list read: segment %d has no destination", i)
			}
			dst := into[k]
			n := min(served, int64(len(dst)))
			if _, err := io.ReadFull(r, dst[:n]); err != nil {
				return err
			}
			clear(dst[n:])
			served -= n
			left -= int64(len(dst))
		}
	}
	return nil
}

// readFull reads n bytes into buf's storage and returns them. When buf
// is too small it grows as bytes arrive — growStep first, then
// doubling — so a frame that declares more than it carries fails after
// allocating about what it carried.
func readFull(r io.Reader, buf []byte, n int) ([]byte, error) {
	if n <= cap(buf) {
		buf = buf[:n]
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), growStep)))
		}
		m, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// fieldReader decodes a frame's fields section. The first short read
// sets err, and every later read returns zero values.
type fieldReader struct {
	b   []byte
	err error
}

func (d *fieldReader) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.err = fmt.Errorf("pvfs: frame fields end %d bytes early", n-uint64(len(d.b)))
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *fieldReader) u32() uint32 {
	if p := d.take(4); d.err == nil {
		return le.Uint32(p)
	}
	return 0
}

func (d *fieldReader) u64() uint64 {
	if p := d.take(8); d.err == nil {
		return le.Uint64(p)
	}
	return 0
}

func (d *fieldReader) str() string {
	return string(d.take(uint64(d.u32())))
}

func (d *fieldReader) meta() Meta {
	return Meta{
		Name:       d.str(),
		Handle:     d.u64(),
		Size:       int64(d.u64()),
		StripeSize: int64(d.u64()),
		NumServers: int(int64(d.u64())),
	}
}

// done reports a short section, or bytes left over after its last
// field.
func (d *fieldReader) done() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("pvfs: %d bytes after a frame's last field", len(d.b))
	}
	return d.err
}

// frameConn is one end of a framed connection: reads go through a
// small buffer (a payload larger than it bypasses it), and a frame —
// header and fields from out, then the payload slices — leaves in one
// vectored write.
type frameConn struct {
	c      net.Conn
	r      *bufio.Reader
	out    []byte      // the header and fields of the frame being sent
	fields []byte      // the fields section of the frame last read
	iov    [][]byte    // storage for vec
	vec    net.Buffers // the frame being written; WriteTo consumes it
}

func newFrameConn(c net.Conn) frameConn {
	return frameConn{c: c, r: bufio.NewReader(c)}
}

// send writes out followed by the payload slices in one vectored write.
func (f *frameConn) send(payload ...[]byte) error {
	f.iov = append(f.iov[:0], f.out)
	for _, p := range payload {
		if len(p) > 0 {
			f.iov = append(f.iov, p)
		}
	}
	f.vec = f.iov
	_, err := f.vec.WriteTo(f.c)
	clear(f.iov) // keep no reference to the caller's payload
	f.out = trim(f.out)
	return err
}

// trim returns b emptied for reuse, or nil when it is too large to
// keep between exchanges.
func trim(b []byte) []byte {
	if cap(b) > keptBufferBytes {
		return nil
	}
	return b[:0]
}
