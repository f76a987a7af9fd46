package pvfs

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"pario/internal/chio"
	"pario/internal/rpcpool"
	"pario/internal/telemetry"
	"pario/internal/util"
)

// TestListReadPropertyRandomSegments is the list-I/O correctness
// property: for any ascending, disjoint segment list — random gaps and
// lengths, zero-length segments, touching holes, running past EOF —
// OpListRead returns exactly what per-byte sequential reads of the
// piece would, concatenated in request order with per-segment served
// lengths.
func TestListReadPropertyRandomSegments(t *testing.T) {
	tc := startCluster(t, 1, 64)
	cl := tc.client

	// Piece content with a hole: [0,1000) written, [2000,3000) written,
	// EOF at 3000.
	const eof = 3000
	content := make([]byte, eof)
	rng := util.NewRNG(977)
	for i := range content {
		content[i] = byte(rng.Intn(256))
	}
	for i := 1000; i < 2000; i++ {
		content[i] = 0 // the hole reads back as zeros
	}
	resp, err := cl.meta.call(bg, &Request{Op: OpCreate, Name: "prop", Stripe: 64})
	if err != nil {
		t.Fatal(err)
	}
	handle := resp.Meta.Handle
	d, err := DialData(tc.iods[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.WriteRuns(bg, handle, []StripeRun{
		{ServerOff: 0, BufOff: 0, Length: 1000},
		{ServerOff: 2000, BufOff: 2000, Length: 1000},
	}, content); err != nil {
		t.Fatal(err)
	}

	check := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 16 {
			raw = raw[:16]
		}
		segs := make([]Seg, len(raw))
		var off int64
		for i, v := range raw {
			// Gaps 0..127 and lengths 0..511, so sixteen segments span
			// the hole and run past EOF.
			off += int64(v) % 128
			segs[i] = Seg{Offset: off, Length: int64(v>>7) % 512}
			off += segs[i].Length
		}
		resp, err := d.call(bg, &Request{Op: OpListRead, Handle: handle, Segs: segs})
		if err != nil {
			t.Logf("list read: %v", err)
			return false
		}
		data, lens := resp.Data, resp.SegLens
		if len(lens) != len(segs) {
			return false
		}
		for i, s := range segs {
			want := int64(eof) - s.Offset
			if want < 0 {
				want = 0
			}
			if want > s.Length {
				want = s.Length
			}
			if lens[i] != want {
				t.Logf("seg %d [%d,+%d): served %d, want %d", i, s.Offset, s.Length, lens[i], want)
				return false
			}
			if int64(len(data)) < want {
				return false
			}
			if want > 0 && !bytes.Equal(data[:want], content[s.Offset:s.Offset+want]) {
				t.Logf("seg %d [%d,+%d): data mismatch", i, s.Offset, s.Length)
				return false
			}
			data = data[want:]
		}
		return len(data) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestListNonAscendingRejected: a list read or write whose segment
// list is not ascending and disjoint — unsorted, overlapping, or with a
// zero-length segment before the previous one's end — gets an error
// reply and stores nothing, and the same connection goes on serving.
func TestListNonAscendingRejected(t *testing.T) {
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
			t.Fatalf("%s %+v: connection lost: %v", req.Op, req.Segs, err)
		}
		return &resp
	}
	const handle = 1
	if resp := call(&Request{Op: OpListWrite, Handle: handle, Data: []byte("AAAABBBB"), Segs: []Seg{
		{Offset: 0, Length: 4},
		{Offset: 100, Length: 4},
	}}); !resp.OK {
		t.Fatal(resp.Err)
	}
	for _, tc := range []struct {
		name string
		segs []Seg
	}{
		{"unsorted", []Seg{{Offset: 100, Length: 4}, {Offset: 0, Length: 4}}},
		{"overlapping", []Seg{{Offset: 200, Length: 8}, {Offset: 204, Length: 8}}},
		{"empty inside the previous", []Seg{{Offset: 0, Length: 8}, {Offset: 4, Length: 0}}},
	} {
		var total int64
		for _, s := range tc.segs {
			total += s.Length
		}
		if resp := call(&Request{Op: OpListWrite, Handle: handle, Segs: tc.segs, Data: bytes.Repeat([]byte("X"), int(total))}); resp.OK || resp.Err == "" {
			t.Errorf("%s list write: accepted, want an error reply", tc.name)
		}
		if resp := call(&Request{Op: OpListRead, Handle: handle, Segs: tc.segs}); resp.OK || resp.Err == "" {
			t.Errorf("%s list read: accepted, want an error reply", tc.name)
		}
	}
	// Nothing was stored: the piece still holds exactly the first write.
	resp := call(&Request{Op: OpListRead, Handle: handle, Segs: []Seg{
		{Offset: 0, Length: 4},
		{Offset: 100, Length: 4},
		{Offset: 200, Length: 12},
	}})
	if !resp.OK || string(resp.Data) != "AAAABBBB" || !slices.Equal(resp.SegLens, []int64{4, 4, 0}) {
		t.Fatalf("ascending read = %q lens %v ok=%v err=%s, want \"AAAABBBB\" lens [4 4 0]",
			resp.Data, resp.SegLens, resp.OK, resp.Err)
	}
}

// TestClientReadvAt drives the chio.VectorReaderAt surface end to end
// over a striped cluster: an ascending segment list decomposes to one
// list RPC per server and comes back byte-identical to ReadAt, with
// EOF tails zeroed in dst. An unsorted list is refused before any RPC
// is issued.
func TestClientReadvAt(t *testing.T) {
	tc := startCluster(t, 3, 64)
	content := make([]byte, 10_000)
	rng := util.NewRNG(41)
	for i := range content {
		content[i] = byte(rng.Intn(256))
	}
	if err := chio.WriteFull(tc.client, "rv", content); err != nil {
		t.Fatal(err)
	}
	f, err := tc.client.Open("rv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	vr, ok := any(f).(chio.VectorReaderAt)
	if !ok {
		t.Fatal("pvfs file does not implement chio.VectorReaderAt")
	}

	segs := []chio.Seg{
		{Off: 0, Len: 128},     // spans two servers
		{Off: 191, Len: 2},     // straddles a stripe boundary
		{Off: 193, Len: 64},    // abuts the previous segment
		{Off: 5_000, Len: 0},   // zero-length
		{Off: 9_900, Len: 300}, // EOF tail: 100 served, 200 zeroed
	}
	var total int64
	for _, s := range segs {
		total += s.Len
	}
	dst := make([]byte, total)
	for i := range dst {
		dst[i] = 0xEE
	}
	lens, err := vr.ReadvAt(segs, dst)
	if err != nil {
		t.Fatal(err)
	}
	wantLens := []int64{128, 2, 64, 0, 100}
	var base int64
	for i, s := range segs {
		if lens[i] != wantLens[i] {
			t.Errorf("seg %d: served %d, want %d", i, lens[i], wantLens[i])
		}
		region := dst[base : base+s.Len]
		if !bytes.Equal(region[:lens[i]], content[s.Off:s.Off+lens[i]]) {
			t.Errorf("seg %d: data mismatch", i)
		}
		for j := lens[i]; j < s.Len; j++ {
			if region[j] != 0 {
				t.Errorf("seg %d byte %d: EOF tail = %#x, want 0", i, j, region[j])
				break
			}
		}
		base += s.Len
	}

	// An unsorted list is an error, and nothing reaches a server.
	m := rpcpool.NewMetrics(telemetry.NewRegistry())
	var addrs []string
	for _, ds := range tc.iods {
		addrs = append(addrs, ds.Addr())
	}
	cl, err := Dial(tc.mgr.Addr(), addrs, rpcpool.WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	g, err := cl.Open("rv")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	calls := func() (n int64) {
		for _, s := range m.Snapshot() {
			n += s.Calls
		}
		return n
	}
	before := calls()
	unsorted := []chio.Seg{{Off: 1_000, Len: 10}, {Off: 0, Len: 10}}
	if _, err := g.(chio.VectorReaderAt).ReadvAt(unsorted, make([]byte, 20)); err == nil {
		t.Error("ReadvAt accepted an unsorted segment list")
	}
	if n := calls() - before; n != 0 {
		t.Errorf("an unsorted ReadvAt issued %d RPCs, want 0", n)
	}
}

// TestWireOpValuesStable pins every data-op wire value, the retired
// ops' reserved ones included. The list ops were appended after the
// vectored ops precisely so that old clients and new servers (and vice
// versa) keep agreeing on what 64..72 mean; a renumbering would pass
// every same-binary test and corrupt every mixed-version deployment.
func TestWireOpValuesStable(t *testing.T) {
	want := map[Op]uint8{
		OpPieceRead:          64,
		OpPieceWrite:         65,
		OpPieceRemove:        66,
		OpPing:               67,
		OpPieceWriteDupSync:  68,
		OpPieceWriteDupAsync: 69,
		OpFlushForwards:      70,
		OpPieceReadv:         71,
		OpPieceWritev:        72,
		OpListRead:           73,
		OpListWrite:          74,
	}
	for op, v := range want {
		if uint8(op) != v {
			t.Errorf("%s = %d, want %d (wire values must never shift)", op, uint8(op), v)
		}
	}
}
