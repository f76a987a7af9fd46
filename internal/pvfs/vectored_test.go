package pvfs

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"pario/internal/chio"
	"pario/internal/rpcpool"
	"pario/internal/telemetry"
)

// TestDecomposeRunsAscendingProperty: every plan gives each server
// runs that are ascending and disjoint in ServerOff — the one list
// shape the data servers accept, and the one segments and readInto
// rely on. decompose's runs are also strictly ascending in BufOff.
// The property is checked for one logical range, for PlanRead over
// random ascending segment lists, and for the SplitRuns halves a
// one-segment CEFT read sends to its two server groups.
func TestDecomposeRunsAscendingProperty(t *testing.T) {
	// ascending reports whether every server's runs name it, are
	// non-empty, and are ascending and disjoint in ServerOff.
	ascending := func(runs [][]StripeRun) bool {
		for server, list := range runs {
			for i, r := range list {
				if r.Server != server || r.Length <= 0 {
					return false
				}
				if i > 0 && r.ServerOff < list[i-1].ServerOff+list[i-1].Length {
					return false
				}
			}
		}
		return true
	}
	t.Run("decompose", func(t *testing.T) {
		f := func(offRaw, lenRaw uint16, stripeSel, nSel uint8) bool {
			stripe := int64(1 + stripeSel%128)
			n := 1 + int(nSel%8)
			off := int64(offRaw % 4096)
			length := int64(lenRaw%4096) + 1
			runs := decompose(off, length, stripe, n)
			for _, list := range runs {
				for i := 1; i < len(list); i++ {
					if list[i].BufOff <= list[i-1].BufOff {
						return false
					}
				}
			}
			return ascending(runs)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("PlanRead", func(t *testing.T) {
		f := func(raw []uint16, sizeRaw uint16, stripeSel, nSel uint8) bool {
			stripe := int64(1 + stripeSel%128)
			n := 1 + int(nSel%8)
			m := Meta{Size: int64(sizeRaw % 8192), StripeSize: stripe}
			// Random gaps (zero included) and lengths (zero included),
			// running past the file's end.
			var segs []chio.Seg
			var off, total int64
			for _, v := range raw {
				off += int64(v % 300)
				segs = append(segs, chio.Seg{Off: off, Len: int64(v>>8) % 200})
				off += segs[len(segs)-1].Len
				total += segs[len(segs)-1].Len
			}
			plan, err := PlanRead(segs, make([]byte, total), m, n)
			if err != nil {
				t.Logf("PlanRead(%v): %v", segs, err)
				return false
			}
			return ascending(plan.Runs)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("SplitRuns", func(t *testing.T) {
		f := func(offRaw, lenRaw uint16, stripeSel, nSel uint8) bool {
			stripe := int64(1 + stripeSel%128)
			n := 1 + int(nSel%8)
			seg := chio.Seg{Off: int64(offRaw % 4096), Len: int64(lenRaw%4096) + 1}
			m := Meta{Size: seg.Off + seg.Len, StripeSize: stripe}
			plan, err := PlanRead([]chio.Seg{seg}, make([]byte, seg.Len), m, n)
			if err != nil {
				return false
			}
			lo, hi := SplitRuns(plan.Runs, plan.Lens[0]/2)
			return ascending(lo) && ascending(hi)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestVectoredReadWriteRoundTrip exercises the list ops end to end
// through DataConn.WriteRuns/ReadRuns, including hole zero-fill and
// EOF-short segments.
func TestVectoredReadWriteRoundTrip(t *testing.T) {
	tc := startCluster(t, 1, 64)
	cl := tc.client
	resp, err := cl.meta.call(bg, &Request{Op: OpCreate, Name: "v", Stripe: 64})
	if err != nil {
		t.Fatal(err)
	}
	handle := resp.Meta.Handle
	d, err := DialData(tc.iods[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Write two disjoint runs in one RPC.
	buf := make([]byte, 300)
	for i := range buf {
		buf[i] = byte(i + 1)
	}
	writeRuns := []StripeRun{
		{ServerOff: 0, BufOff: 0, Length: 100},
		{ServerOff: 200, BufOff: 200, Length: 100},
	}
	if err := d.WriteRuns(bg, handle, writeRuns, buf); err != nil {
		t.Fatal(err)
	}

	// Read back three runs: the two written ranges plus the hole
	// between them and a range past EOF.
	got := make([]byte, 500)
	for i := range got {
		got[i] = 0xEE // must be overwritten or zeroed, never left
	}
	readRuns := []StripeRun{
		{ServerOff: 0, BufOff: 0, Length: 100},     // written
		{ServerOff: 100, BufOff: 100, Length: 100}, // hole -> zeros
		{ServerOff: 200, BufOff: 200, Length: 100}, // written
		{ServerOff: 300, BufOff: 300, Length: 200}, // past EOF -> zeros
	}
	if err := d.ReadRuns(bg, handle, readRuns, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:100], buf[:100]) || !bytes.Equal(got[200:300], buf[200:300]) {
		t.Fatal("vectored read returned wrong data for written runs")
	}
	for i := 100; i < 200; i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %#x, want 0", i, got[i])
		}
	}
	for i := 300; i < 500; i++ {
		if got[i] != 0 {
			t.Fatalf("past-EOF byte %d = %#x, want 0", i, got[i])
		}
	}
}

// TestWriteAtSkipsSizeRPCWhenNotExtending: overwriting bytes within
// the file's known size must not issue an OpSetSize metadata RPC.
func TestWriteAtSkipsSizeRPCWhenNotExtending(t *testing.T) {
	tc := startCluster(t, 2, 64)
	f, err := tc.client.Create("w")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := make([]byte, 1024)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

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
	metaAddr := tc.mgr.Addr()
	metaCalls := func() int64 {
		for _, s := range m.Snapshot() {
			if s.Server == metaAddr {
				return s.Calls
			}
		}
		return 0
	}
	fw, err := cl.Open("w")
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	before := metaCalls()
	// Interior overwrite: no size RPC.
	if _, err := fw.WriteAt(make([]byte, 100), 50); err != nil {
		t.Fatal(err)
	}
	if got := metaCalls(); got != before {
		t.Errorf("interior overwrite issued %d metadata RPCs, want 0", got-before)
	}
	// Extending write: exactly one size RPC.
	if _, err := fw.WriteAt(make([]byte, 100), 1000); err != nil {
		t.Fatal(err)
	}
	if got := metaCalls(); got != before+1 {
		t.Errorf("extending write issued %d metadata RPCs, want 1", got-before)
	}
	// Verify the size really grew.
	fi, err := cl.Stat("w")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 1100 {
		t.Errorf("size = %d, want 1100", fi.Size)
	}
}

// TestMergeRunsBoundary pins segments' piece-adjacency merge with
// exact boundary offsets: consecutive stripes of one server abut in
// its piece even though they are a full round apart in the logical
// file, so decompose's per-stripe runs must collapse to one wire
// segment per server — and a run that stops one byte short of the
// boundary must NOT merge with the run starting at it.
func TestMergeRunsBoundary(t *testing.T) {
	const stripe = int64(64)
	const nServers = 2

	// Stripe-aligned read of 4 stripes: each server gets 2 runs that
	// abut in its piece (server 0: [0,64)+[64,128); same for 1).
	runs := decompose(0, 4*stripe, stripe, nServers)
	for server, list := range runs {
		if len(list) != 2 {
			t.Fatalf("server %d: %d runs, want 2", server, len(list))
		}
		segs := segments(list)
		if len(segs) != 1 {
			t.Fatalf("server %d: %d wire segments, want 1 (runs %+v)", server, len(segs), list)
		}
		if segs[0].Offset != 0 || segs[0].Length != 2*stripe {
			t.Errorf("server %d: merged segment [%d,+%d), want [0,+%d)",
				server, segs[0].Offset, segs[0].Length, 2*stripe)
		}
	}

	// One byte missing at the boundary: [0,63) and [64,128) in the
	// piece must stay separate segments.
	gap := []StripeRun{
		{Server: 0, ServerOff: 0, BufOff: 0, Length: stripe - 1},
		{Server: 0, ServerOff: stripe, BufOff: stripe, Length: stripe},
	}
	if segs := segments(gap); len(segs) != 2 {
		t.Fatalf("gapped runs merged into %d segments, want 2", len(segs))
	}

	// Exact abutment one stripe in: [64,128) then [128,192).
	abut := []StripeRun{
		{Server: 0, ServerOff: stripe, BufOff: 0, Length: stripe},
		{Server: 0, ServerOff: 2 * stripe, BufOff: stripe, Length: stripe},
	}
	if segs := segments(abut); len(segs) != 1 || segs[0].Offset != stripe || segs[0].Length != 2*stripe {
		t.Fatalf("abutting runs gave segments %+v, want one [%d,+%d)", segs, stripe, 2*stripe)
	}
}

// TestBoundaryMergedReadBytes reads exactly the shapes the merge
// changes on the wire — stripe-aligned, boundary-straddling, and
// boundary-minus-one — and checks byte-identical results against the
// written payload.
func TestBoundaryMergedReadBytes(t *testing.T) {
	const stripe = int64(64)
	tc := startCluster(t, 2, stripe)
	payload := make([]byte, 8*stripe)
	for i := range payload {
		payload[i] = byte(i*31 + 7)
	}
	if err := chio.WriteFull(tc.client, "bm", payload); err != nil {
		t.Fatal(err)
	}
	f, err := tc.client.Open("bm")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, r := range []struct{ off, n int64 }{
		{0, 4 * stripe},            // aligned: 2 abutting runs per server merge
		{stripe - 1, 2*stripe + 2}, // straddles three stripes
		{0, 4*stripe - 1},          // last run one byte short of the boundary
		{1, 4 * stripe},            // first run one byte past the boundary
	} {
		got := make([]byte, r.n)
		n, err := f.ReadAt(got, r.off)
		if err != nil && err != io.EOF {
			t.Fatalf("ReadAt(%d,+%d): %v", r.off, r.n, err)
		}
		if int64(n) != r.n {
			t.Fatalf("ReadAt(%d,+%d): short read %d", r.off, r.n, n)
		}
		if !bytes.Equal(got, payload[r.off:r.off+r.n]) {
			t.Fatalf("ReadAt(%d,+%d): data mismatch", r.off, r.n)
		}
	}
}
