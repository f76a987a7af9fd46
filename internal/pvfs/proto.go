// Package pvfs implements a working user-level parallel file system
// in the style of PVFS1: one metadata server (mgr) plus N data
// servers (iods) that each store stripe pieces on their local
// storage. Files are striped RAID-0 round-robin with a configurable
// stripe size (the paper uses 64 KB). Client implements
// chio.FileSystem, so the BLAST database layer runs over PVFS
// unmodified — exactly the substitution the paper performs. It is the
// one client of this wire: CEFT-PVFS (package ceft) is the same Client
// over a replicating Store.
package pvfs

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// DefaultStripeSize is the stripe unit used in the paper.
const DefaultStripeSize = 64 * 1024

// Op codes of the wire protocol.
type Op uint8

// Metadata server ops.
const (
	OpCreate Op = iota + 1
	OpLookup
	OpStat
	OpRemove
	OpList
	OpSetSize
	OpLoadReport // data server -> mgr heartbeat
	OpLoadQuery  // client -> mgr: fetch load map
)

// Data server ops. Piece data moves with segment lists only:
// OpListRead and OpListWrite. A contiguous access is a one-segment
// list. Values are wire constants and never shift; new ops are
// appended. The seven retired ops keep their values reserved, and a
// data server answers them like any unknown op.
const (
	// OpPieceRead is retired (a contiguous read); value 64 is reserved.
	OpPieceRead Op = iota + 64
	// OpPieceWrite is retired (a contiguous write); value 65 is reserved.
	OpPieceWrite
	OpPieceRemove
	OpPing
	// OpPieceWriteDupSync is retired (a write the server forwarded to
	// its mirror partner before acknowledging); value 68 is reserved.
	OpPieceWriteDupSync
	// OpPieceWriteDupAsync is retired (a write whose mirror forward the
	// server queued); value 69 is reserved.
	OpPieceWriteDupAsync
	// OpFlushForwards is retired (a drain of the queued mirror
	// forwards); value 70 is reserved.
	OpFlushForwards
	// OpPieceReadv is retired (a sorted list read); value 71 is reserved.
	OpPieceReadv
	// OpPieceWritev is retired (a sorted list write); value 72 is
	// reserved.
	OpPieceWritev
	// OpListRead reads every segment of Request.Segs in one round trip.
	// The list must be ascending and disjoint: each segment starts at or
	// after the end of the one before it (a zero-length segment counts
	// at its offset); the server answers any other list with an error.
	// The reply's Data is the segments' served bytes concatenated in
	// request order and SegLens the per-segment byte counts (a short
	// segment is a hole or the piece's end; the client zero-fills).
	OpListRead
	// OpListWrite writes every segment of Request.Segs in one round
	// trip; Request.Data is the segments' bytes concatenated in request
	// order. The list must be ascending and disjoint, as for
	// OpListRead.
	OpListWrite
)

// maxRequestBytes bounds the summed segment length a data server
// accepts in one request, and how far past a piece's current end a
// write segment may reach, so a corrupt or hostile length or offset
// cannot make it allocate without limit.
const maxRequestBytes = 1 << 30

// Seg is one server-local byte range of a list request.
type Seg struct {
	Offset int64
	Length int64
}

// Request is the single wire request shape for both server kinds.
type Request struct {
	Op     Op
	Name   string
	Handle uint64
	Offset int64
	Length int64
	Data   []byte
	// Load carries a heartbeat value for OpLoadReport.
	Load     float64
	ServerID int
	// Stripe carries the client's stripe-size hint for OpCreate; zero
	// means the manager's configured default.
	Stripe int64
	// Segs carries the server-local ranges of a list request.
	Segs []Seg
	// TraceID/SpanID propagate the client span that issued this
	// request, so server-side work is attributable to the application
	// call that caused it. Zero means untraced.
	TraceID uint64
	SpanID  uint64

	// gather, when non-nil, is the payload in pieces sent in order
	// without joining them; Data is then unused.
	gather [][]byte
	// reply is storage the serving connection lends a read handler for
	// its reply's payload.
	reply []byte
}

// payloadLen is the byte length of the request's payload.
func (r *Request) payloadLen() int {
	if r.gather == nil {
		return len(r.Data)
	}
	n := 0
	for _, p := range r.gather {
		n += len(p)
	}
	return n
}

// String names the op for metric labels and span names.
func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpLookup:
		return "lookup"
	case OpStat:
		return "stat"
	case OpRemove:
		return "remove"
	case OpList:
		return "list"
	case OpSetSize:
		return "set_size"
	case OpLoadReport:
		return "load_report"
	case OpLoadQuery:
		return "load_query"
	case OpPieceRemove:
		return "piece_remove"
	case OpPing:
		return "ping"
	case OpListRead:
		return "list_read"
	case OpListWrite:
		return "list_write"
	}
	return fmt.Sprintf("op_%d", uint8(o))
}

// Meta describes one file's metadata.
type Meta struct {
	Name       string
	Handle     uint64
	Size       int64
	StripeSize int64
	NumServers int
}

// Response is the single wire response shape.
type Response struct {
	OK       bool
	Err      string
	NotFound bool
	Meta     Meta
	Metas    []Meta
	Data     []byte
	N        int64
	// SegLens answers a list read: the byte count served for each
	// requested segment (Data holds the concatenation).
	SegLens []int64
	// Loads maps data-server index to its last reported load.
	Loads map[int]float64

	// into, when set on a list read's response, holds the destination
	// regions its payload is read straight into (see readResponse).
	into [][]byte
	// payloadLen is the payload byte count the response frame carried,
	// which is not len(Data) when the payload went to into.
	payloadLen int64
}

func (r *Response) err() error {
	if r.OK {
		return nil
	}
	return fmt.Errorf("pvfs: %s", r.Err)
}

// conn is a synchronous RPC connection: one outstanding request at a
// time, framed over TCP.
type conn struct {
	mu sync.Mutex
	frameConn
	greeted bool // version words exchanged
}

func dialConn(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pvfs: dialing %s: %w", addr, err)
	}
	return &conn{frameConn: newFrameConn(c)}, nil
}

// call performs one request/response exchange, decoding the reply into
// resp (see readResponse). The first exchange on a connection carries
// the version word each way. Any error leaves the connection unusable.
func (cn *conn) call(req *Request, resp *Response) error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	cn.out = cn.out[:0]
	if !cn.greeted {
		cn.out = append(cn.out, hello...)
	}
	cn.out = appendRequest(cn.out, req)
	var err error
	if req.gather != nil {
		err = cn.send(req.gather...)
	} else {
		err = cn.send(req.Data)
	}
	if err != nil {
		return fmt.Errorf("pvfs: sending request: %w", err)
	}
	if !cn.greeted {
		err = readHello(cn.r)
	}
	if err == nil {
		err = readResponse(cn.r, req, resp, &cn.fields)
	}
	cn.fields = trim(cn.fields)
	if err != nil {
		return fmt.Errorf("pvfs: reading response: %w", err)
	}
	cn.greeted = true
	return nil
}

func (cn *conn) close() error { return cn.c.Close() }

// Close lets a *conn satisfy io.Closer so the transport pool can
// manage it.
func (cn *conn) Close() error { return cn.close() }

// setDeadline bounds (or, with the zero time, unbounds) the next
// request/response exchange on the underlying socket.
func (cn *conn) setDeadline(t time.Time) error { return cn.c.SetDeadline(t) }

// serve runs the request loop of a server connection, dispatching to
// handle until the peer disconnects. A peer that does not open with
// this wire's version word gets one refusal frame, and the connection
// closes. The request's buffers and the reply buffer are reused from
// one request to the next (handlers do not keep them past their
// return); the payload, fields and reply buffers only up to
// keptBufferBytes.
func serve(c net.Conn, handle func(*Request) *Response) {
	defer c.Close()
	f := newFrameConn(c)
	if err := readHello(f.r); err != nil {
		if errors.Is(err, ErrWireVersion) {
			refuse(&f, err)
		}
		return
	}
	var req Request
	var reply []byte
	for first := true; ; first = false {
		if err := readRequest(f.r, &req, &f.fields); err != nil {
			return
		}
		req.reply = reply[:0]
		resp := handle(&req)
		f.out = f.out[:0]
		if first {
			f.out = append(f.out, hello...)
		}
		f.out = appendResponse(f.out, resp)
		if err := f.send(resp.Data); err != nil {
			return
		}
		if c := cap(resp.Data); c > cap(reply) && c <= keptBufferBytes {
			reply = resp.Data[:0]
		}
		req.Data, f.fields = trim(req.Data), trim(f.fields)
	}
}

// refuse answers a peer that sent another version word with one
// refusal frame, then half-closes and drains what the peer still sends
// for up to a second, so the frame is not lost to a reset.
func refuse(f *frameConn, err error) {
	f.out = refusal(err)
	if f.send() != nil {
		return
	}
	if tc, ok := f.c.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	f.c.SetReadDeadline(time.Now().Add(time.Second))
	io.Copy(io.Discard, f.r)
}

func errResp(format string, args ...interface{}) *Response {
	return &Response{OK: false, Err: fmt.Sprintf(format, args...)}
}

func notFoundResp(name string) *Response {
	return &Response{OK: false, NotFound: true, Err: "no such file: " + name}
}

// connTracker remembers a server's live connections so Close can
// force-disconnect peers instead of waiting for them to hang up.
type connTracker struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func newConnTracker() *connTracker {
	return &connTracker{conns: make(map[net.Conn]struct{})}
}

func (t *connTracker) add(c net.Conn) {
	t.mu.Lock()
	t.conns[c] = struct{}{}
	t.mu.Unlock()
}

func (t *connTracker) remove(c net.Conn) {
	t.mu.Lock()
	delete(t.conns, c)
	t.mu.Unlock()
}

func (t *connTracker) closeAll() {
	t.mu.Lock()
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
}

// acceptLoop accepts connections until the listener closes. tracker,
// when non-nil, records live connections for forced shutdown.
func acceptLoop(ln net.Listener, handle func(*Request) *Response, wg *sync.WaitGroup, tracker *connTracker) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		if wg != nil {
			wg.Add(1)
		}
		if tracker != nil {
			tracker.add(c)
		}
		go func() {
			if wg != nil {
				defer wg.Done()
			}
			if tracker != nil {
				defer tracker.remove(c)
			}
			serve(c, handle)
		}()
	}
}
