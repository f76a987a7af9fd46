package pvfs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"pario/internal/chio"
	"pario/internal/rpcpool"
)

// legacyRequest is a request as a gob-speaking client encodes it.
type legacyRequest struct {
	Op     Op
	Handle uint64
	Segs   []chio.Seg
	Data   []byte
}

// retryCounter records the retries of every call a transport makes.
type retryCounter struct {
	mu      sync.Mutex
	retries int
}

func (r *retryCounter) ObserveCall(_ string, _ time.Duration, retries int, _ error) {
	r.mu.Lock()
	r.retries += retries
	r.mu.Unlock()
}

// TestWireVersionMismatch pins the version word in both directions: a
// gob-speaking client gets one refusal frame from a data server, which
// then hangs up on it and goes on serving everyone else, and a client
// whose server answers in gob fails with ErrWireVersion at once,
// without waiting out its timeout and without retrying.
func TestWireVersionMismatch(t *testing.T) {
	const timeout = 2 * time.Second
	t.Run("gob client, new server", func(t *testing.T) {
		ds, _ := startIod(t, 0)
		c, err := net.Dial("tcp", ds.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(timeout))
		if err := gob.NewEncoder(c).Encode(&legacyRequest{Op: OpPieceRemove}); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(c)
		err = readHello(r)
		if err == nil {
			err = readResponse(r, &Request{Op: OpPieceRemove}, new(Response), new([]byte))
		}
		if !errors.Is(err, ErrWireVersion) {
			t.Fatalf("the server's answer to a gob request reads as %v, want ErrWireVersion", err)
		}
		if rest, err := io.ReadAll(r); err != nil || len(rest) > 0 {
			t.Fatalf("after the refusal: %d more bytes, %v; want the connection closed", len(rest), err)
		}
		d, err := DialData(ds.Addr(), rpcpool.WithTimeout(timeout))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if err := d.RemovePiece(context.Background(), 1); err != nil {
			t.Fatalf("the server stopped serving after a refusal: %v", err)
		}
	})
	t.Run("new client, gob server", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					defer c.Close()
					if _, err := c.Read(make([]byte, 4096)); err != nil {
						return
					}
					gob.NewEncoder(c).Encode(&struct {
						OK   bool
						Data []byte
					}{OK: true, Data: []byte("pong")})
					io.Copy(io.Discard, c)
				}()
			}
		}()
		var obs retryCounter
		d, err := DialData(ln.Addr().String(), rpcpool.WithTimeout(timeout),
			rpcpool.WithRetries(3), rpcpool.WithObserver(&obs))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		start := time.Now()
		err = d.RemovePiece(context.Background(), 1)
		if !errors.Is(err, ErrWireVersion) {
			t.Fatalf("a request to a gob server: %v, want ErrWireVersion", err)
		}
		if elapsed := time.Since(start); elapsed >= timeout {
			t.Errorf("the mismatch took %v, not under the %v timeout", elapsed, timeout)
		}
		if obs.retries != 0 {
			t.Errorf("%d retries of a version mismatch, want 0", obs.retries)
		}
	})
}

// TestListReadAllocatesNoPayload pins the one-buffer read path: a
// stripe-aligned 1 MiB File.ReadAt over 4 data servers allocates no
// payload-sized buffer anywhere — the iods read into their reused
// reply buffers, and the client reads each run off the socket into the
// caller's memory.
func TestListReadAllocatesNoPayload(t *testing.T) {
	const stripe, size, calls = 64 << 10, 1 << 20, 20
	tc := startCluster(t, 4, stripe)
	payload := make([]byte, 4*size)
	for i := range payload {
		payload[i] = byte(i*13 + 5)
	}
	if err := chio.WriteFull(tc.client, "scan", payload); err != nil {
		t.Fatal(err)
	}
	f, err := tc.client.Open("scan")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, size)
	read := func(i int) {
		off := int64(i%4) * size
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, payload[off:off+size]) {
			t.Fatalf("ReadAt(%d): wrong bytes", off)
		}
	}
	for i := 0; i < 8; i++ { // warm the connections and their buffers
		read(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		read(i)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 64<<10 {
		t.Errorf("a 1 MiB ReadAt allocates %d bytes, want < 64 KiB", per)
	}
}

// FuzzWireFrame feeds raw bytes, a connection's opening, to the
// request decoder a server runs and to the response decoder a client
// runs: each reads the version word, then one frame. Neither may
// panic; a version word but this wire's must be refused; a frame that
// fails must not have allocated what it only declared; and an opening
// that decodes must re-encode to the same bytes. The seeds are the
// frames of the hostile-lengths rows and of the data-server fuzz seeds,
// the responses a server gives, and version 1's create with its stripe
// hint, which is refused.
func FuzzWireFrame(f *testing.F) {
	five := []byte("hello")
	for _, req := range []*Request{
		// TestHostileLengthsGetErrorReplies
		{Op: OpListWrite, Handle: 1, Segs: []chio.Seg{{Off: 0, Len: 5}}, Data: five},
		{Op: OpListRead, Handle: 1, Segs: []chio.Seg{{Off: 0, Len: 5}}},
		{Op: OpListRead, Handle: 1, Segs: []chio.Seg{{Off: 0, Len: -1}}},
		{Op: OpListRead, Handle: 1, Segs: []chio.Seg{{Off: 0, Len: 1 << 40}}},
		{Op: OpListRead, Handle: 1, Segs: []chio.Seg{{Off: -1, Len: 1}}},
		{Op: OpListRead, Handle: 1, Segs: []chio.Seg{{Len: maxRequestBytes/2 + 1}, {Len: maxRequestBytes/2 + 1}}},
		{Op: OpListRead, Handle: 1, Segs: []chio.Seg{{Off: math.MaxInt64, Len: 2}}},
		{Op: OpListRead, Handle: 1, Segs: []chio.Seg{{Off: 3, Len: 1}, {Off: -3, Len: 1}}},
		{Op: OpListWrite, Handle: 1, Segs: []chio.Seg{{Off: -1, Len: 5}}, Data: five},
		{Op: OpListWrite, Handle: 1, Segs: []chio.Seg{{Off: 0, Len: -5}}, Data: five},
		{Op: OpListWrite, Handle: 1, Segs: []chio.Seg{{Off: 2 << 30, Len: 5}}, Data: five},
		{Op: OpPieceWriteDupSync, Handle: 1, Segs: []chio.Seg{{Off: -1, Len: 5}}, Data: five},
		{Op: OpPieceWriteDupAsync, Handle: 1, Segs: []chio.Seg{{Off: 2 << 30, Len: 5}}, Data: five},
		{Op: OpPieceRead, Handle: 1, Length: 5},
		{Op: OpPieceWrite, Handle: 1, Data: five},
		{Op: OpPieceReadv, Handle: 1, Segs: []chio.Seg{{Off: 0, Len: 5}}},
		{Op: OpPieceWritev, Handle: 1, Segs: []chio.Seg{{Off: 0, Len: 5}}, Data: five},
		// FuzzDataServerDispatch
		{Op: OpPieceRead, Length: 8},
		{Op: OpPieceWrite, Data: []byte("stripe piece data")},
		{Op: OpPieceReadv, Segs: []chio.Seg{{Off: 0, Len: 4}, {Off: 16, Len: 4}}},
		{Op: OpPieceWritev, Segs: []chio.Seg{{Off: 0, Len: 4}, {Off: 100, Len: 4}}, Data: []byte("BBBBAAAA")},
		{Op: OpListRead, Segs: []chio.Seg{{Off: 3000, Len: 600}, {Off: 0, Len: 300}, {Off: 3100, Len: 100}, {Off: 4090, Len: 50}}},
		{Op: OpListWrite, Segs: []chio.Seg{{Off: 100, Len: 4}, {Off: 0, Len: 4}}, Data: []byte("BBBBAAAA")},
		{Op: OpPieceWriteDupSync, Data: []byte("dup")},
		{Op: OpPieceWriteDupAsync, Segs: []chio.Seg{{Off: 100, Len: 4}, {Off: 0, Len: 4}}, Data: []byte("BBBBAAAA")},
		{Op: OpPieceRead, Length: -1},
		{Op: OpPieceRead, Length: 1 << 40},
		{Op: OpListRead, Segs: []chio.Seg{{Off: 0, Len: -5}, {Off: math.MaxInt64, Len: 2}}},
		// The manager's requests.
		{Op: OpCreate, Name: "nt.000"},
		{Op: OpSetSize, Name: "nt.000", Length: 1 << 20},
		{Op: OpLoadReport, ServerID: 3, Load: 0.75, TraceID: 7, SpanID: 9},
	} {
		f.Add(append(appendRequest(slices.Clone(hello), req), req.Data...))
	}
	for _, resp := range []*Response{
		errResp("list read: bad segment [0,+-1)"),
		notFoundResp("nt.000"),
		{OK: true, SegLens: []int64{5, 0}, Data: five},
		{OK: true, Meta: Meta{Name: "nt.000", Handle: 4, Size: 1 << 20, StripeSize: 64 << 10, NumServers: 4}},
		{OK: true, Metas: []Meta{{Name: "a", Handle: 1}, {Name: "b", Handle: 2}}, Loads: map[int]float64{0: 0.5, 3: 2}},
		{OK: true},
	} {
		f.Add(append(appendResponse(slices.Clone(hello), resp), resp.Data...))
	}
	f.Add(refusal(ErrWireVersion))
	// Version 1's 77-byte header: Op, Handle, Offset, Length, Load,
	// ServerID, Stripe (64 KiB), TraceID, SpanID, the fields' and the
	// payload's lengths; then the fields: Name "nt.000", no Segs.
	v1 := le.AppendUint32(le.AppendUint32(nil, wireMagic), 1)
	v1 = append(v1, byte(OpCreate))
	v1 = append(v1, make([]byte, 5*8)...)
	v1 = le.AppendUint64(v1, 64<<10)
	v1 = append(v1, make([]byte, 2*8)...)
	v1 = le.AppendUint64(le.AppendUint32(v1, 14), 0)
	v1 = le.AppendUint32(appendString(v1, "nt.000"), 0)
	f.Add(v1)

	listRead := &Request{Op: OpListRead, Segs: []chio.Seg{{Off: 0, Len: 5}, {Off: 64, Len: 8}}}
	dst := make([]byte, 13)
	into := [][]byte{dst[:2], dst[2:5], dst[5:]}
	f.Fuzz(func(t *testing.T, opening []byte) {
		// declared runs a decoder over frame and checks that a failure
		// allocated less than the bound TestHostileLengthsGetErrorReplies
		// sets, and returns the bytes a success consumed.
		declared := func(decode func(r io.Reader) error) ([]byte, bool) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r := bytes.NewReader(opening)
			err := readHello(r)
			if word := opening[:min(len(opening), len(hello))]; len(word) == len(hello) && !bytes.Equal(word, hello) && !errors.Is(err, ErrWireVersion) {
				t.Fatalf("version word % x read as %v, want ErrWireVersion", word, err)
			}
			if err == nil {
				err = decode(r)
			}
			runtime.ReadMemStats(&after)
			if err != nil {
				if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
					t.Fatalf("a failed decode allocated %d bytes: %v", grew, err)
				}
				return nil, false
			}
			return opening[:len(opening)-r.Len()], true
		}

		var req Request
		if used, ok := declared(func(r io.Reader) error { return readRequest(r, &req, new([]byte)) }); ok {
			if again := append(appendRequest(slices.Clone(hello), &req), req.Data...); !bytes.Equal(again, used) {
				t.Fatalf("request re-encodes differently:\n got %x\nwant %x", again, used)
			}
		}
		for _, asked := range []*Request{listRead, {Op: OpStat}} {
			var resp Response
			if used, ok := declared(func(r io.Reader) error { return readResponse(r, asked, &resp, new([]byte)) }); ok {
				if again := append(appendResponse(slices.Clone(hello), &resp), resp.Data...); !bytes.Equal(again, used) {
					t.Fatalf("%s response re-encodes differently:\n got %x\nwant %x", asked.Op, again, used)
				}
			}
		}
		direct := Response{into: into}
		declared(func(r io.Reader) error { return readResponse(r, listRead, &direct, new([]byte)) })
	})
}
