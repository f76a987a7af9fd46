package ceft

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"pario/internal/chio"
	"pario/internal/pvfs"
	"pario/internal/rpcpool"
	"pario/internal/util"
)

// cluster is a CEFT deployment: mgr + G primary + G mirror servers.
type cluster struct {
	mgr     *pvfs.MetaServer
	servers []*pvfs.DataServer // 0..G-1 primary, G..2G-1 mirror
	stores  []*chio.MemFS
	client  *Client
	g       int
}

// start launches a cluster. heartbeats=false keeps load reports fully
// under test control via InjectLoad; topts tune the client's transport.
func start(t *testing.T, g int, stripe int64, opts Options, heartbeats bool, topts ...rpcpool.Option) *cluster {
	t.Helper()
	mgr, err := pvfs.StartMetaServer(pvfs.MetaConfig{Addr: "127.0.0.1:0", NumServers: g, StripeSize: stripe})
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{mgr: mgr, g: g}
	var prim, mirr []string
	for i := 0; i < 2*g; i++ {
		store := chio.NewMemFS()
		cfg := pvfs.DataServerConfig{ID: i, Addr: "127.0.0.1:0", Store: store}
		if heartbeats {
			cfg.MgrAddr = mgr.Addr()
			cfg.HeartbeatPeriod = 25 * time.Millisecond
		}
		ds, err := pvfs.StartDataServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.servers = append(c.servers, ds)
		c.stores = append(c.stores, store)
		if i < g {
			prim = append(prim, ds.Addr())
		} else {
			mirr = append(mirr, ds.Addr())
		}
	}
	cl, err := Dial(mgr.Addr(), prim, mirr, opts, topts...)
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

// injectLoad pushes synthetic load reports for every server.
func (c *cluster) injectLoad(t *testing.T, loads map[int]float64) {
	t.Helper()
	m, err := pvfs.DialMeta(c.mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for id, v := range loads {
		if err := m.ReportLoad(context.Background(), id, v); err != nil {
			t.Fatal(err)
		}
	}
}

// corruptPieces flips bytes in every piece stored on server idx.
func (c *cluster) corruptPieces(t *testing.T, idx int) {
	t.Helper()
	fis, err := c.stores[idx].List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(fis) == 0 {
		t.Fatalf("server %d holds no pieces to corrupt", idx)
	}
	for _, fi := range fis {
		data, err := chio.ReadFull(c.stores[idx], fi.Name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] ^= 0xFF
		}
		if err := chio.WriteFull(c.stores[idx], fi.Name, data); err != nil {
			t.Fatal(err)
		}
	}
}

func payload(n int) []byte {
	rng := util.NewRNG(77)
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(rng.Intn(256))
	}
	return p
}

func TestRoundTrip(t *testing.T) {
	c := start(t, 4, 1024, DefaultOptions(), false)
	data := payload(100_000)
	if err := chio.WriteFull(c.client, "f", data); err != nil {
		t.Fatal(err)
	}
	got, err := chio.ReadFull(c.client, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip corrupted data")
	}
}

func TestMirrorHoldsIdenticalPieces(t *testing.T) {
	c := start(t, 3, 512, DefaultOptions(), false)
	if err := chio.WriteFull(c.client, "f", payload(50_000)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.g; i++ {
		pf, err := c.stores[i].List("")
		if err != nil || len(pf) != 1 {
			t.Fatalf("primary %d pieces: %v %v", i, pf, err)
		}
		mf, err := c.stores[c.g+i].List("")
		if err != nil || len(mf) != 1 {
			t.Fatalf("mirror %d pieces: %v %v", i, mf, err)
		}
		pd, _ := chio.ReadFull(c.stores[i], pf[0].Name)
		md, _ := chio.ReadFull(c.stores[c.g+i], mf[0].Name)
		if !bytes.Equal(pd, md) {
			t.Errorf("mirror pair %d differs: %d vs %d bytes", i, len(pd), len(md))
		}
	}
}

func TestDoubledReadsUseBothGroups(t *testing.T) {
	opts := DefaultOptions()
	opts.SkipHotSpots = false
	c := start(t, 2, 256, opts, false)
	data := payload(8192)
	if err := chio.WriteFull(c.client, "f", data); err != nil {
		t.Fatal(err)
	}
	// Corrupt the mirror group: a doubled read must show corruption
	// in its second half (proof the mirror served it), while the
	// first half stays clean.
	c.corruptPieces(t, 2)
	c.corruptPieces(t, 3)
	got, err := chio.ReadFull(c.client, "f")
	if err != nil {
		t.Fatal(err)
	}
	half := len(data) / 2
	if !bytes.Equal(got[:half], data[:half]) {
		t.Error("first half should come from the clean primary group")
	}
	if bytes.Equal(got[half:], data[half:]) {
		t.Error("second half identical to original: mirror group was not used")
	}
}

func TestSingleGroupReadWhenDoublingOff(t *testing.T) {
	opts := DefaultOptions()
	opts.DoubledReads = false
	opts.SkipHotSpots = false
	c := start(t, 2, 256, opts, false)
	data := payload(8192)
	if err := chio.WriteFull(c.client, "f", data); err != nil {
		t.Fatal(err)
	}
	// With doubling off, only the primary group serves reads: mirror
	// corruption must be invisible.
	c.corruptPieces(t, 2)
	c.corruptPieces(t, 3)
	got, err := chio.ReadFull(c.client, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("read touched the corrupted mirror group despite doubling off")
	}
}

func TestHotSpotSkipReadsFromMirror(t *testing.T) {
	opts := DefaultOptions()
	opts.DoubledReads = false // deterministic single-group preference
	opts.LoadCacheTTL = 0     // refresh every read
	c := start(t, 2, 256, opts, false)
	data := payload(4096)
	if err := chio.WriteFull(c.client, "f", data); err != nil {
		t.Fatal(err)
	}
	// Corrupt primary server 0 and mark it hot: reads must be served
	// by its mirror partner and return clean data.
	c.corruptPieces(t, 0)
	c.injectLoad(t, map[int]float64{0: 50, 1: 0.2, 2: 0.2, 3: 0.2})
	got, err := chio.ReadFull(c.client, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("hot primary server was not skipped")
	}
}

// TestAuditRecordsHotSpotActivity: the client's audit must name the
// hot server, count the stripe reads rerouted to its mirror, and log
// the transition through the structured logger.
func TestAuditRecordsHotSpotActivity(t *testing.T) {
	var logBuf bytes.Buffer
	opts := DefaultOptions()
	opts.DoubledReads = false
	opts.LoadCacheTTL = 0
	opts.Logger = slog.New(slog.NewTextHandler(&logBuf, nil))
	c := start(t, 2, 256, opts, false)
	data := payload(4096)
	if err := chio.WriteFull(c.client, "f", data); err != nil {
		t.Fatal(err)
	}

	if a := c.client.Audit(); len(a.Events) != 0 || len(a.Reroutes) != 0 {
		t.Fatalf("audit not empty before any hot activity: %+v", a)
	}

	c.injectLoad(t, map[int]float64{0: 50, 1: 0.2, 2: 0.2, 3: 0.2})
	if _, err := chio.ReadFull(c.client, "f"); err != nil {
		t.Fatal(err)
	}

	a := c.client.Audit()
	if a.GroupSize != 2 {
		t.Errorf("group size: %d", a.GroupSize)
	}
	var marked bool
	for _, ev := range a.Events {
		if ev.ServerID == 0 && ev.Hot {
			marked = true
			if ev.Load != 50 || ev.Cutoff <= 0 {
				t.Errorf("event detail: %+v", ev)
			}
		}
	}
	if !marked {
		t.Fatalf("no hot event for server 0: %+v", a.Events)
	}
	if a.Reroutes[0] == 0 {
		t.Errorf("no reroutes recorded away from server 0: %+v", a.Reroutes)
	}
	if !strings.Contains(logBuf.String(), "hot-spot marked") {
		t.Errorf("structured log missing transition:\n%s", logBuf.String())
	}

	// Cooling down must append a cleared event.
	c.injectLoad(t, map[int]float64{0: 0.1, 1: 0.2, 2: 0.2, 3: 0.2})
	if _, err := chio.ReadFull(c.client, "f"); err != nil {
		t.Fatal(err)
	}
	a = c.client.Audit()
	var cleared bool
	for _, ev := range a.Events {
		if ev.ServerID == 0 && !ev.Hot {
			cleared = true
		}
	}
	if !cleared {
		t.Errorf("no cooled-down event: %+v", a.Events)
	}
	if !strings.Contains(logBuf.String(), "hot-spot cleared") {
		t.Errorf("structured log missing clear:\n%s", logBuf.String())
	}

	// Reads through a context-bound view reroute on the parent's hot set
	// and show up in the parent's audit.
	c.injectLoad(t, map[int]float64{0: 50, 1: 0.2, 2: 0.2, 3: 0.2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rerouted := c.client.Audit().Reroutes[0]
	if _, err := chio.ReadFull(chio.BindContext(c.client, ctx), "f"); err != nil {
		t.Fatal(err)
	}
	if a := c.client.Audit(); a.Reroutes[0] <= rerouted {
		t.Errorf("bound view's reroutes missing from the parent's audit: %+v", a.Reroutes)
	}
}

func TestNoSkipWhenDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.DoubledReads = false
	opts.SkipHotSpots = false
	c := start(t, 2, 256, opts, false)
	data := payload(4096)
	if err := chio.WriteFull(c.client, "f", data); err != nil {
		t.Fatal(err)
	}
	c.corruptPieces(t, 0)
	c.injectLoad(t, map[int]float64{0: 50, 1: 0.2, 2: 0.2, 3: 0.2})
	got, err := chio.ReadFull(c.client, "f")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, data) {
		t.Error("data clean although skipping is disabled and primary 0 is corrupt")
	}
}

func TestIdleSystemNeverSkips(t *testing.T) {
	opts := DefaultOptions()
	opts.DoubledReads = false
	opts.LoadCacheTTL = 0
	c := start(t, 2, 256, opts, false)
	data := payload(4096)
	if err := chio.WriteFull(c.client, "f", data); err != nil {
		t.Fatal(err)
	}
	// All loads small: even a 12x relative difference stays below the
	// MinHotLoad floor, so the (corrupt) mirror is never consulted.
	c.corruptPieces(t, 2)
	c.corruptPieces(t, 3)
	c.injectLoad(t, map[int]float64{0: 0.6, 1: 0.05, 2: 0.05, 3: 0.05})
	got, err := chio.ReadFull(c.client, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("idle system skipped to the mirror")
	}
}

func TestHotPairNeverBothSkipped(t *testing.T) {
	opts := DefaultOptions()
	opts.LoadCacheTTL = 0
	c := start(t, 2, 256, opts, false)
	data := payload(4096)
	if err := chio.WriteFull(c.client, "f", data); err != nil {
		t.Fatal(err)
	}
	// Both sides of pair 0 hot: the client must still read pair 0
	// from somewhere (the hotter side is skipped, the other used).
	c.injectLoad(t, map[int]float64{0: 50, 1: 0.2, 2: 60, 3: 0.2})
	got, err := chio.ReadFull(c.client, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("read failed with both pair members hot")
	}
}

func TestStatRemoveList(t *testing.T) {
	c := start(t, 2, 256, DefaultOptions(), false)
	if err := chio.WriteFull(c.client, "a/1", payload(100)); err != nil {
		t.Fatal(err)
	}
	if err := chio.WriteFull(c.client, "a/2", payload(200)); err != nil {
		t.Fatal(err)
	}
	fi, err := c.client.Stat("a/2")
	if err != nil || fi.Size != 200 {
		t.Fatalf("stat: %+v %v", fi, err)
	}
	fis, err := c.client.List("a/")
	if err != nil || len(fis) != 2 {
		t.Fatalf("list: %+v %v", fis, err)
	}
	if err := c.client.Remove("a/1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.client.Open("a/1"); !errors.Is(err, chio.ErrNotExist) {
		t.Error("file opens after remove")
	}
	// Both files fit in stripe 0, so only pair 0 (servers 0 and 2)
	// holds pieces; after removing a/1 each must hold exactly a/2's.
	for _, i := range []int{0, 2} {
		fis, _ := c.stores[i].List("")
		if len(fis) != 1 {
			t.Errorf("server %d piece count = %d, want 1", i, len(fis))
		}
	}
}

func TestSeekEndAndEOF(t *testing.T) {
	c := start(t, 2, 64, DefaultOptions(), false)
	if err := chio.WriteFull(c.client, "f", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	f, err := c.client.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if pos, err := f.Seek(-4, io.SeekEnd); err != nil || pos != 6 {
		t.Fatalf("seek: %d %v", pos, err)
	}
	buf := make([]byte, 10)
	n, err := f.Read(buf)
	if n != 4 || (err != nil && err != io.EOF) {
		t.Fatalf("tail read: %d %v", n, err)
	}
	if string(buf[:n]) != "6789" {
		t.Errorf("tail = %q", buf[:n])
	}
	if _, err := f.ReadAt(buf, 100); err != io.EOF {
		t.Errorf("past-end err = %v", err)
	}
}

func TestGroupSizeValidation(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", nil, nil, DefaultOptions()); err == nil {
		t.Error("empty groups accepted")
	}
	if _, err := Dial("127.0.0.1:1", []string{"a"}, []string{"a", "b"}, DefaultOptions()); err == nil {
		t.Error("mismatched groups accepted")
	}
}

func TestHeartbeatDrivenSkip(t *testing.T) {
	// End-to-end: real heartbeats, one throttled (slow) server that
	// accumulates queue depth under concurrent load, then gets
	// skipped.
	opts := DefaultOptions()
	opts.DoubledReads = false
	opts.LoadCacheTTL = 10 * time.Millisecond
	opts.MinHotLoad = 0.5
	opts.HotFactor = 2
	c := start(t, 2, 1024, opts, true)
	data := payload(512 * 1024)
	if err := chio.WriteFull(c.client, "f", data); err != nil {
		t.Fatal(err)
	}
	// Stress primary server 0: large throttle plus a hammering client.
	c.servers[0].SetThrottle(2 * time.Millisecond)
	stop := make(chan struct{})
	go func() {
		d, err := pvfs.DialData(c.servers[0].Addr())
		if err != nil {
			return
		}
		defer d.Close()
		junk := make([]byte, 64*1024)
		run := []pvfs.StripeRun{{Length: int64(len(junk))}}
		for {
			select {
			case <-stop:
				return
			default:
				d.WriteRuns(context.Background(), 0xdead, run, junk)
			}
		}
	}()
	defer close(stop)

	// Wait for the hot set to reflect the stress, then time a read.
	time.Sleep(300 * time.Millisecond)
	f, err := c.client.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, len(data))
	start := time.Now()
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if !bytes.Equal(buf, data) {
		t.Fatal("data corrupted under stress")
	}
	// 256 KiB would land on the throttled server without skipping:
	// 2ms/KiB * 256 = 512ms minimum. With skipping the read should
	// finish far faster.
	if elapsed > 400*time.Millisecond {
		t.Errorf("read took %v; hot server apparently not skipped", elapsed)
	}
}
