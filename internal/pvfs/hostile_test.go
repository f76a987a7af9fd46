package pvfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"pario/internal/chio"
)

// TestHostileLengthsGetErrorReplies sends, over one raw connection,
// requests whose offsets and lengths no client would produce —
// negative, overflowing, claiming more than maxRequestBytes, or
// writing far past the piece's end — and requests in the retired ops.
// Each must come back as an error reply without a large allocation
// (they used to reach make([]byte, n), or grow a MemFS piece up to the
// offset, and take the whole data server down), and the server must go
// on serving the next request on the same connection.
func TestHostileLengthsGetErrorReplies(t *testing.T) {
	ds, _ := startIod(t, 0)
	cn, err := dialConn(ds.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cn.close()
	call := func(req *Request) *Response {
		t.Helper()
		var resp Response
		if err := cn.call(req, &resp); err != nil {
			t.Fatalf("%s: connection lost: %v", req.Op, err)
		}
		return &resp
	}
	// The piece exists, so every read below reaches its handler's
	// allocation rather than the piece-not-found shortcut.
	hello := []byte("hello")
	if resp := call(&Request{Op: OpListWrite, Handle: 1, Segs: []chio.Seg{{Off: 0, Len: 5}}, Data: hello}); !resp.OK {
		t.Fatal(resp.Err)
	}
	for _, req := range []*Request{
		{Op: OpListRead, Handle: 1, Segs: []chio.Seg{{Off: 0, Len: -1}}},
		{Op: OpListRead, Handle: 1, Segs: []chio.Seg{{Off: 0, Len: 1 << 40}}},
		{Op: OpListRead, Handle: 1, Segs: []chio.Seg{{Off: -1, Len: 1}}},
		{Op: OpListRead, Handle: 1, Segs: []chio.Seg{{Len: maxRequestBytes/2 + 1}, {Len: maxRequestBytes/2 + 1}}},
		{Op: OpListRead, Handle: 1, Segs: []chio.Seg{{Off: math.MaxInt64, Len: 2}}},
		{Op: OpListRead, Handle: 1, Segs: []chio.Seg{{Off: 3, Len: 1}, {Off: -3, Len: 1}}},
		{Op: OpListWrite, Handle: 1, Segs: []chio.Seg{{Off: -1, Len: 5}}, Data: hello},
		{Op: OpListWrite, Handle: 1, Segs: []chio.Seg{{Off: 0, Len: -5}}, Data: hello},
		{Op: OpListWrite, Handle: 1, Segs: []chio.Seg{{Off: 2 << 30, Len: 5}}, Data: hello},
		{Op: OpPieceWriteDupSync, Handle: 1, Segs: []chio.Seg{{Off: -1, Len: 5}}, Data: hello},
		{Op: OpPieceWriteDupAsync, Handle: 1, Segs: []chio.Seg{{Off: 2 << 30, Len: 5}}, Data: hello},
		{Op: OpPieceRead, Handle: 1, Length: 5},
		{Op: OpPieceWrite, Handle: 1, Data: hello},
		{Op: OpPieceReadv, Handle: 1, Segs: []chio.Seg{{Off: 0, Len: 5}}},
		{Op: OpPieceWritev, Handle: 1, Segs: []chio.Seg{{Off: 0, Len: 5}}, Data: hello},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp := call(req)
		runtime.ReadMemStats(&after)
		if resp.OK || resp.Err == "" {
			t.Errorf("%s %+v: accepted, want an error reply", req.Op, req.Segs)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
			t.Errorf("%s %+v: allocated %d bytes", req.Op, req.Segs, grew)
		}
		resp = call(&Request{Op: OpListRead, Handle: 1, Segs: []chio.Seg{{Off: 0, Len: 5}}})
		if !resp.OK || !bytes.Equal(resp.Data, hello) {
			t.Fatalf("after hostile %s: read = %q ok=%v err=%s", req.Op, resp.Data, resp.OK, resp.Err)
		}
	}
}

// FuzzDataServerDispatch drives the data server's request handler with
// arbitrary ops, lengths, payloads and segment lists, each sent as a
// connection's opening: a version word, then the request frame. It
// must never panic; a version word but this wire's must be refused
// before any frame is read; it may answer a list read or write OK only
// when the list is ascending and disjoint; and whatever a read returns
// must be the piece's bytes. The seeds are the request shapes every
// generation of client has put on the wire, in this wire's layout; the
// retired ops' shapes now get unknown-op replies, and the unsorted list
// seeds error replies. One seed opens with version 1, whose ping a
// server of this version refuses.
func FuzzDataServerDispatch(f *testing.F) {
	segBytes := func(segs ...chio.Seg) []byte {
		var b []byte
		for _, s := range segs {
			b = binary.LittleEndian.AppendUint64(b, uint64(s.Off))
			b = binary.LittleEndian.AppendUint64(b, uint64(s.Len))
		}
		return b
	}
	f.Add(wireVersion, uint8(OpPieceRead), int64(8), []byte(nil), []byte(nil))
	f.Add(wireVersion, uint8(OpPieceWrite), int64(0), []byte("stripe piece data"), []byte(nil))
	f.Add(wireVersion, uint8(OpPieceReadv), int64(0), []byte(nil), segBytes(chio.Seg{Off: 0, Len: 4}, chio.Seg{Off: 16, Len: 4}))
	f.Add(wireVersion, uint8(OpPieceWritev), int64(0), []byte("BBBBAAAA"), segBytes(chio.Seg{Off: 0, Len: 4}, chio.Seg{Off: 100, Len: 4}))
	f.Add(wireVersion, uint8(OpListRead), int64(0), []byte(nil), segBytes(chio.Seg{Off: 3000, Len: 600}, chio.Seg{Off: 0, Len: 300}, chio.Seg{Off: 3100, Len: 100}, chio.Seg{Off: 4090, Len: 50}))
	f.Add(wireVersion, uint8(OpListWrite), int64(0), []byte("BBBBAAAA"), segBytes(chio.Seg{Off: 100, Len: 4}, chio.Seg{Off: 0, Len: 4}))
	f.Add(wireVersion, uint8(OpPieceWriteDupSync), int64(0), []byte("dup"), []byte(nil))
	f.Add(wireVersion, uint8(OpPieceWriteDupAsync), int64(0), []byte("BBBBAAAA"), segBytes(chio.Seg{Off: 100, Len: 4}, chio.Seg{Off: 0, Len: 4}))
	f.Add(wireVersion, uint8(OpPieceRead), int64(-1), []byte(nil), []byte(nil))
	f.Add(wireVersion, uint8(OpPieceRead), int64(1<<40), []byte(nil), []byte(nil))
	f.Add(wireVersion, uint8(OpListRead), int64(0), []byte(nil), segBytes(chio.Seg{Off: 0, Len: -5}, chio.Seg{Off: math.MaxInt64, Len: 2}))
	f.Add(wireVersion, uint8(OpPing), int64(0), []byte(nil), []byte(nil))
	f.Add(uint32(1), uint8(OpPing), int64(0), []byte(nil), []byte(nil))

	// A disk-backed store: a write at an absurd offset is a sparse file
	// there, not an allocation.
	store, err := chio.NewLocalFS(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	ds, err := StartDataServer(DataServerConfig{Addr: "127.0.0.1:0", Store: store})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { ds.Close() })
	const readHandle, writeHandle = 1, 2
	piece := make([]byte, 4096)
	for i := range piece {
		piece[i] = byte(i*7 + 1)
	}
	if err := chio.WriteFull(store, pieceName(readHandle), piece); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, version uint32, op uint8, length int64, data, rawSegs []byte) {
		req := &Request{Op: Op(op), Handle: readHandle, Length: length, Data: data}
		for ; len(rawSegs) >= 16; rawSegs = rawSegs[16:] {
			req.Segs = append(req.Segs, chio.Seg{
				Off: int64(binary.LittleEndian.Uint64(rawSegs)),
				Len: int64(binary.LittleEndian.Uint64(rawSegs[8:])),
			})
		}
		if req.Op != OpListRead {
			// Everything else may write or remove; keep it off the piece
			// the reads are checked against.
			req.Handle = writeHandle
		}
		opening := le.AppendUint32(le.AppendUint32(nil, wireMagic), version)
		r := bytes.NewReader(append(appendRequest(opening, req), req.Data...))
		if err := readHello(r); err != nil {
			if version == wireVersion || !errors.Is(err, ErrWireVersion) {
				t.Fatalf("version word %d read as %v", version, err)
			}
			return
		}
		if version != wireVersion {
			t.Fatalf("version word %d accepted", version)
		}
		if err := readRequest(r, req, new([]byte)); err != nil {
			t.Fatalf("%s request does not decode: %v", req.Op, err)
		}
		resp := ds.handle(req)
		if resp == nil {
			t.Fatal("nil response")
		}
		if !resp.OK || (req.Op != OpListRead && req.Op != OpListWrite) {
			return
		}
		for i := 1; i < len(req.Segs); i++ {
			if prev := req.Segs[i-1]; req.Segs[i].Off < prev.Off+prev.Len {
				t.Fatalf("%s answered OK for segments %+v: %d starts before %d ends", req.Op, req.Segs, i, i-1)
			}
		}
		if req.Op != OpListRead {
			return
		}
		if len(resp.SegLens) != len(req.Segs) {
			t.Fatalf("%d segment lengths for %d segments", len(resp.SegLens), len(req.Segs))
		}
		rest := resp.Data
		for i, s := range req.Segs {
			want := min(max(int64(len(piece))-s.Off, 0), s.Len)
			if resp.SegLens[i] != want {
				t.Fatalf("segment %d [%d,+%d): served %d, want %d", i, s.Off, s.Len, resp.SegLens[i], want)
			}
			if want == 0 {
				continue
			}
			if int64(len(rest)) < want || !bytes.Equal(rest[:want], piece[s.Off:s.Off+want]) {
				t.Fatalf("segment %d [%d,+%d): wrong bytes", i, s.Off, s.Len)
			}
			rest = rest[want:]
		}
		if len(rest) != 0 {
			t.Fatalf("%d bytes beyond the segments' sum", len(rest))
		}
	})
}
