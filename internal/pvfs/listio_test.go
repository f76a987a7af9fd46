package pvfs

import (
	"bytes"
	"testing"
	"testing/quick"

	"pario/internal/chio"
	"pario/internal/util"
)

// TestListReadPropertyRandomSegments is the list-I/O correctness
// property: for any segment list — unsorted, overlapping, touching
// holes, running past EOF — OpListRead returns exactly what per-byte
// sequential reads of the piece would, concatenated in request order
// with per-segment served lengths.
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
		for i, v := range raw {
			// Offsets across the whole piece including past EOF;
			// lengths 0..511.
			segs[i] = Seg{Offset: int64(v) % 3500, Length: int64(v>>7) % 512}
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

// TestListWriteUnsortedAndOverlapRejected: unsorted non-overlapping
// lists land correctly in one RPC; overlapping lists are rejected
// whole (order-dependent results must never be silently produced).
func TestListWriteUnsortedAndOverlapRejected(t *testing.T) {
	tc := startCluster(t, 1, 64)
	cl := tc.client
	resp, err := cl.meta.call(bg, &Request{Op: OpCreate, Name: "lw", Stripe: 64})
	if err != nil {
		t.Fatal(err)
	}
	handle := resp.Meta.Handle
	d, err := DialData(tc.iods[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Unsorted, disjoint: payload is request order, not piece order.
	payload := []byte("BBBBAAAA")
	if _, err := d.call(bg, &Request{Op: OpListWrite, Handle: handle, Data: payload, Segs: []Seg{
		{Offset: 100, Length: 4}, // "BBBB"
		{Offset: 0, Length: 4},   // "AAAA"
	}}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if err := d.ReadRuns(bg, handle, []StripeRun{
		{ServerOff: 0, BufOff: 0, Length: 4},
		{ServerOff: 100, BufOff: 4, Length: 4},
	}, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "AAAABBBB" {
		t.Fatalf("list write landed wrong: data=%q", got)
	}

	// Overlapping list: rejected, nothing written.
	_, err = d.call(bg, &Request{Op: OpListWrite, Handle: handle, Data: make([]byte, 16), Segs: []Seg{
		{Offset: 200, Length: 8},
		{Offset: 204, Length: 8},
	}})
	if err == nil {
		t.Fatal("overlapping list write was accepted")
	}
}

// TestClientReadvAt drives the chio.VectorReaderAt surface end to end
// over a striped cluster: arbitrary segment lists decompose to one
// list RPC per server and come back byte-identical to ReadAt, with
// EOF tails zeroed in dst.
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
		{Off: 9_900, Len: 300}, // EOF tail: 100 served, 200 zeroed
		{Off: 0, Len: 128},     // spans two servers
		{Off: 63, Len: 2},      // straddles a stripe boundary
		{Off: 5_000, Len: 0},   // zero-length
		{Off: 100, Len: 64},    // overlaps the second segment's range
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
	wantLens := []int64{100, 128, 2, 0, 64}
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
