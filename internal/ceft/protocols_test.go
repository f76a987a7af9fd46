package ceft

import (
	"bytes"
	"testing"

	"pario/internal/chio"
	"pario/internal/pvfs"
	"pario/internal/rpcpool"
	"pario/internal/telemetry"
)

// startMirrored launches a CEFT cluster whose primary servers know
// their mirror partners (required by the server-side protocols); topts
// tune the client's transport.
func startMirrored(t *testing.T, g int, stripe int64, opts Options, topts ...rpcpool.Option) *cluster {
	t.Helper()
	mgr, err := pvfs.StartMetaServer(pvfs.MetaConfig{Addr: "127.0.0.1:0", NumServers: g, StripeSize: stripe})
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{mgr: mgr, g: g}
	// Mirrors first.
	mirrorAddrs := make([]string, g)
	mirrorServers := make([]*pvfs.DataServer, g)
	mirrorStores := make([]*chio.MemFS, g)
	for i := 0; i < g; i++ {
		store := chio.NewMemFS()
		ds, err := pvfs.StartDataServer(pvfs.DataServerConfig{ID: g + i, Addr: "127.0.0.1:0", Store: store})
		if err != nil {
			t.Fatal(err)
		}
		mirrorServers[i] = ds
		mirrorStores[i] = store
		mirrorAddrs[i] = ds.Addr()
	}
	var prim []string
	for i := 0; i < g; i++ {
		store := chio.NewMemFS()
		ds, err := pvfs.StartDataServer(pvfs.DataServerConfig{
			ID: i, Addr: "127.0.0.1:0", Store: store, MirrorAddr: mirrorAddrs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		c.servers = append(c.servers, ds)
		c.stores = append(c.stores, store)
		prim = append(prim, ds.Addr())
	}
	c.servers = append(c.servers, mirrorServers...)
	c.stores = append(c.stores, mirrorStores...)
	cl, err := Dial(mgr.Addr(), prim, mirrorAddrs, opts, topts...)
	if err != nil {
		t.Fatal(err)
	}
	c.client = cl
	t.Cleanup(func() {
		cl.Close()
		for _, ds := range c.servers {
			ds.Close()
		}
		mgr.Close()
	})
	return c
}

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

// TestWriteProtocols writes ~39 stripes per primary server with each
// protocol. Every protocol costs the client one RPC per server it
// writes to — both groups for the client-side protocols, the primaries
// alone for the server-side ones, whose duplication op carries the
// whole segment list — and leaves both groups identical.
func TestWriteProtocols(t *testing.T) {
	for _, proto := range []WriteProtocol{ClientSync, ClientAsync, ServerSync, ServerAsync} {
		t.Run(proto.String(), func(t *testing.T) {
			opts := DefaultOptions()
			opts.WriteProtocol = proto
			m := rpcpool.NewMetrics(telemetry.NewRegistry())
			c := startMirrored(t, 2, 512, opts, rpcpool.WithMetrics(m))
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
			c.client.asyncWG.Wait() // the client-async mirror writes
			after := calls()
			for i := range c.servers {
				want := int64(1)
				if i >= c.g && (proto == ServerSync || proto == ServerAsync) {
					want = 0 // the primaries forward to the mirrors
				}
				if got := after[i] - before[i]; got != want {
					t.Errorf("server %d: %d RPCs during Write, want %d", i, got, want)
				}
			}
			if err := f.Close(); err != nil { // settles async protocols
				t.Fatal(err)
			}
			checkMirrored(t, c, data)
		})
	}
}

func TestServerSyncWithoutMirrorConfigFails(t *testing.T) {
	// A cluster whose primaries have no MirrorAddr must reject the
	// server-side protocols instead of silently losing redundancy.
	opts := DefaultOptions()
	opts.WriteProtocol = ServerSync
	c := start(t, 2, 512, opts, false) // plain cluster, no MirrorAddr
	f, err := c.client.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(payload(1000)); err == nil {
		t.Error("server-sync write succeeded without mirror configuration")
	}
}

func TestServerAsyncFlushSurfacesForwardErrors(t *testing.T) {
	opts := DefaultOptions()
	opts.WriteProtocol = ServerAsync
	c := startMirrored(t, 2, 512, opts)
	// Create while the mirror group is alive (Create clears pieces on
	// both groups), then kill the mirrors so forwards fail.
	f, err := c.client.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	for i := c.g; i < 2*c.g; i++ {
		c.servers[i].Close()
	}
	if _, err := f.Write(payload(2000)); err != nil {
		// The local write should still succeed (ack precedes forward).
		t.Fatalf("server-async local write failed: %v", err)
	}
	if err := f.Close(); err == nil {
		t.Error("flush reported no error although the mirror group is down")
	}
}

func TestWriteProtocolString(t *testing.T) {
	if ClientSync.String() != "client-sync" || ServerAsync.String() != "server-async" {
		t.Error("protocol names wrong")
	}
	if WriteProtocol(9).String() == "" {
		t.Error("unknown protocol string empty")
	}
}

func TestOverwriteWithServerProtocols(t *testing.T) {
	opts := DefaultOptions()
	opts.WriteProtocol = ServerSync
	c := startMirrored(t, 2, 256, opts)
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
	c := startMirrored(t, 2, 512, opts)
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
	c := startMirrored(t, 2, 512, opts)
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
	c := startMirrored(t, 2, 512, opts)
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
