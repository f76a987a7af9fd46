package ceft

import (
	"bytes"
	"testing"

	"pario/internal/chio"
	"pario/internal/rpcpool"
	"pario/internal/telemetry"
)

// checkMirrored verifies both groups hold identical pieces and reads
// round-trip.
func checkMirrored(t *testing.T, c *cluster, data []byte) {
	t.Helper()
	got, err := chio.ReadFull(c.client, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back corrupted data")
	}
	for i := 0; i < c.g; i++ {
		pf, err := c.stores[i].List("")
		if err != nil || len(pf) == 0 {
			t.Fatalf("primary %d pieces: %v %v", i, pf, err)
		}
		mf, err := c.stores[c.g+i].List("")
		if err != nil || len(mf) != len(pf) {
			t.Fatalf("mirror %d pieces: %v (primary has %d)", i, mf, len(pf))
		}
		for k := range pf {
			pd, _ := chio.ReadFull(c.stores[i], pf[k].Name)
			md, _ := chio.ReadFull(c.stores[c.g+i], mf[k].Name)
			if !bytes.Equal(pd, md) {
				t.Errorf("pair %d piece %s differs between groups", i, pf[k].Name)
			}
		}
	}
}

// TestWriteProtocols checks the one write protocol CEFT keeps,
// client-side synchronous mirroring ("client-sync"). It writes ~39
// stripes per primary server. A write costs the client one list-write
// RPC per server of each group, whatever the number of stripes, and
// leaves both groups identical.
func TestWriteProtocols(t *testing.T) {
	t.Run("client-sync", func(t *testing.T) {
		m := rpcpool.NewMetrics(telemetry.NewRegistry())
		c := start(t, 2, 512, DefaultOptions(), false, rpcpool.WithMetrics(m))
		data := payload(40_000)
		f, err := c.client.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		// calls returns the client's RPCs so far to each data server.
		calls := func() []int64 {
			by := map[string]int64{}
			m.Calls.Each(func(lvs []string, n *telemetry.Counter) { by[lvs[0]] += n.Value() })
			out := make([]int64, len(c.servers))
			for i, ds := range c.servers {
				out[i] = by[ds.Addr()]
			}
			return out
		}
		before := calls()
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		after := calls()
		for i := range c.servers {
			if got := after[i] - before[i]; got != 1 {
				t.Errorf("server %d: %d RPCs during Write, want 1", i, got)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		checkMirrored(t, c, data)
	})
}

func TestOverwriteKeepsGroupsIdentical(t *testing.T) {
	c := start(t, 2, 256, DefaultOptions(), false)
	first := payload(10_000)
	if err := chio.WriteFull(c.client, "f", first); err != nil {
		t.Fatal(err)
	}
	second := payload(5_000)
	for i := range second {
		second[i] ^= 0xAA
	}
	if err := chio.WriteFull(c.client, "f", second); err != nil {
		t.Fatal(err)
	}
	checkMirrored(t, c, second)
}

func TestDegradedReadAfterServerFailure(t *testing.T) {
	// CEFT's core fault-tolerance promise: losing any single data
	// server must not lose data — reads fail over to the mirror pair.
	opts := DefaultOptions()
	opts.SkipHotSpots = false
	c := start(t, 2, 512, opts, false)
	data := payload(30_000)
	if err := chio.WriteFull(c.client, "f", data); err != nil {
		t.Fatal(err)
	}
	// Kill primary server 0.
	c.servers[0].Close()
	got, err := chio.ReadFull(c.client, "f")
	if err != nil {
		t.Fatalf("degraded read failed: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read corrupted data")
	}
	if c.client.Failovers() == 0 {
		t.Error("no failovers recorded although a server was down")
	}
}

func TestDegradedReadMirrorFailure(t *testing.T) {
	// Losing a mirror server must be equally invisible (doubled reads
	// route half the range through the mirror group).
	opts := DefaultOptions()
	opts.SkipHotSpots = false
	c := start(t, 2, 512, opts, false)
	data := payload(30_000)
	if err := chio.WriteFull(c.client, "f", data); err != nil {
		t.Fatal(err)
	}
	c.servers[2*c.g-1].Close() // last mirror server
	got, err := chio.ReadFull(c.client, "f")
	if err != nil {
		t.Fatalf("degraded read failed: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read corrupted data")
	}
}

func TestWholePairDownFailsCleanly(t *testing.T) {
	// Losing both members of a mirroring pair is unrecoverable and
	// must surface an error rather than silent corruption.
	opts := DefaultOptions()
	opts.SkipHotSpots = false
	c := start(t, 2, 512, opts, false)
	data := payload(30_000)
	if err := chio.WriteFull(c.client, "f", data); err != nil {
		t.Fatal(err)
	}
	c.servers[0].Close()   // primary 0
	c.servers[c.g].Close() // mirror 0
	if _, err := chio.ReadFull(c.client, "f"); err == nil {
		t.Fatal("read succeeded with an entire mirror pair down")
	}
}
