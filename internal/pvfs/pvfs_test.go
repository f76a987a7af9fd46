package pvfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"pario/internal/chio"
	"pario/internal/util"
)

// testCluster is a complete PVFS deployment on localhost.
type testCluster struct {
	mgr    *MetaServer
	iods   []*DataServer
	stores []*chio.MemFS
	client *Client
}

func startCluster(t *testing.T, nServers int, stripe int64) *testCluster {
	t.Helper()
	mgr, err := StartMetaServer(MetaConfig{Addr: "127.0.0.1:0", NumServers: nServers, StripeSize: stripe})
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{mgr: mgr}
	var addrs []string
	for i := 0; i < nServers; i++ {
		store := chio.NewMemFS()
		ds, err := StartDataServer(DataServerConfig{
			ID:              i,
			Addr:            "127.0.0.1:0",
			Store:           store,
			MgrAddr:         mgr.Addr(),
			HeartbeatPeriod: 30 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.iods = append(tc.iods, ds)
		tc.stores = append(tc.stores, store)
		addrs = append(addrs, ds.Addr())
	}
	cl, err := Dial(mgr.Addr(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	tc.client = cl
	t.Cleanup(func() {
		cl.Close()
		for _, ds := range tc.iods {
			ds.Close()
		}
		mgr.Close()
	})
	return tc
}

func TestWriteReadRoundTrip(t *testing.T) {
	tc := startCluster(t, 4, 1024)
	payload := make([]byte, 100_000)
	rng := util.NewRNG(31)
	for i := range payload {
		payload[i] = byte(rng.Intn(256))
	}
	if err := chio.WriteFull(tc.client, "db/file", payload); err != nil {
		t.Fatal(err)
	}
	got, err := chio.ReadFull(tc.client, "db/file")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip corrupted data")
	}
}

func TestDataIsStriped(t *testing.T) {
	tc := startCluster(t, 4, 1024)
	payload := make([]byte, 16*1024) // 16 stripes over 4 servers
	if err := chio.WriteFull(tc.client, "f", payload); err != nil {
		t.Fatal(err)
	}
	// Every server must hold exactly 4 KB of piece data.
	for i, store := range tc.stores {
		fis, err := store.List("")
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, fi := range fis {
			total += fi.Size
		}
		if total != 4*1024 {
			t.Errorf("server %d holds %d bytes, want 4096", i, total)
		}
	}
}

func TestStripePlacementRoundRobin(t *testing.T) {
	tc := startCluster(t, 3, 16)
	// Write 6 stripes with recognizable content.
	payload := make([]byte, 6*16)
	for s := 0; s < 6; s++ {
		for j := 0; j < 16; j++ {
			payload[s*16+j] = byte('A' + s)
		}
	}
	if err := chio.WriteFull(tc.client, "f", payload); err != nil {
		t.Fatal(err)
	}
	// Server 0 gets stripes 0,3; server 1 gets 1,4; server 2 gets 2,5.
	for srv := 0; srv < 3; srv++ {
		fis, err := tc.stores[srv].List("")
		if err != nil || len(fis) != 1 {
			t.Fatalf("server %d pieces: %v %v", srv, fis, err)
		}
		data, err := chio.ReadFull(tc.stores[srv], fis[0].Name)
		if err != nil {
			t.Fatal(err)
		}
		want := []byte{byte('A' + srv), byte('A' + srv + 3)}
		if data[0] != want[0] || data[16] != want[1] {
			t.Errorf("server %d piece starts with %c,%c want %c,%c",
				srv, data[0], data[16], want[0], want[1])
		}
	}
}

func TestReadAtUnaligned(t *testing.T) {
	tc := startCluster(t, 4, 64)
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	if err := chio.WriteFull(tc.client, "f", payload); err != nil {
		t.Fatal(err)
	}
	f, err := tc.client.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, c := range []struct{ off, n int64 }{
		{0, 10}, {63, 2}, {64, 64}, {100, 1000}, {4000, 96}, {1, 4095},
	} {
		buf := make([]byte, c.n)
		if _, err := f.ReadAt(buf, c.off); err != nil && err != io.EOF {
			t.Fatalf("ReadAt(%d,%d): %v", c.off, c.n, err)
		}
		if !bytes.Equal(buf, payload[c.off:c.off+c.n]) {
			t.Errorf("ReadAt(%d,%d) returned wrong data", c.off, c.n)
		}
	}
	// Reads past EOF.
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 4090)
	if n != 6 || err != io.EOF {
		t.Errorf("tail read = %d,%v", n, err)
	}
	if _, err := f.ReadAt(buf, 5000); err != io.EOF {
		t.Errorf("past-end read err = %v", err)
	}
}

func TestRandomAccessPropertyAgainstShadow(t *testing.T) {
	tc := startCluster(t, 3, 32)
	f, err := tc.client.Create("prop")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shadow := []byte{}
	rng := util.NewRNG(32)
	check := func(writes []uint16) bool {
		for _, w := range writes {
			off := int64(w % 2048)
			n := 1 + rng.Intn(200)
			chunk := make([]byte, n)
			for i := range chunk {
				chunk[i] = byte(rng.Intn(256))
			}
			if _, err := f.WriteAt(chunk, off); err != nil {
				t.Logf("write error: %v", err)
				return false
			}
			if end := off + int64(n); end > int64(len(shadow)) {
				grown := make([]byte, end)
				copy(grown, shadow)
				shadow = grown
			}
			copy(shadow[off:], chunk)
		}
		got := make([]byte, len(shadow))
		if len(got) == 0 {
			return true
		}
		if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
			t.Logf("read error: %v", err)
			return false
		}
		return bytes.Equal(got, shadow)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestStatSizeAndNotExist(t *testing.T) {
	tc := startCluster(t, 2, 64)
	if _, err := tc.client.Stat("ghost"); !errors.Is(err, chio.ErrNotExist) {
		t.Errorf("Stat(ghost) err = %v", err)
	}
	if _, err := tc.client.Open("ghost"); !errors.Is(err, chio.ErrNotExist) {
		t.Errorf("Open(ghost) err = %v", err)
	}
	if err := chio.WriteFull(tc.client, "real", make([]byte, 777)); err != nil {
		t.Fatal(err)
	}
	fi, err := tc.client.Stat("real")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 777 {
		t.Errorf("size = %d", fi.Size)
	}
}

func TestRemoveClearsPieces(t *testing.T) {
	tc := startCluster(t, 2, 64)
	if err := chio.WriteFull(tc.client, "f", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := tc.client.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.client.Open("f"); !errors.Is(err, chio.ErrNotExist) {
		t.Error("file still opens after remove")
	}
	for i, store := range tc.stores {
		fis, _ := store.List("")
		if len(fis) != 0 {
			t.Errorf("server %d still holds %d pieces", i, len(fis))
		}
	}
	if err := tc.client.Remove("f"); !errors.Is(err, chio.ErrNotExist) {
		t.Errorf("double remove err = %v", err)
	}
}

func TestCreateTruncatesOldContent(t *testing.T) {
	tc := startCluster(t, 2, 64)
	if err := chio.WriteFull(tc.client, "f", bytes.Repeat([]byte{0xAA}, 500)); err != nil {
		t.Fatal(err)
	}
	if err := chio.WriteFull(tc.client, "f", []byte("short")); err != nil {
		t.Fatal(err)
	}
	got, err := chio.ReadFull(tc.client, "f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "short" {
		t.Errorf("got %q after truncating create", got)
	}
}

func TestList(t *testing.T) {
	tc := startCluster(t, 2, 64)
	for _, n := range []string{"db/a", "db/b", "x/y"} {
		if err := chio.WriteFull(tc.client, n, []byte(n)); err != nil {
			t.Fatal(err)
		}
	}
	fis, err := tc.client.List("db/")
	if err != nil {
		t.Fatal(err)
	}
	if len(fis) != 2 || fis[0].Name != "db/a" || fis[1].Name != "db/b" {
		t.Errorf("List = %+v", fis)
	}
}

func TestSeekAndStreaming(t *testing.T) {
	tc := startCluster(t, 2, 16)
	if err := chio.WriteFull(tc.client, "f", []byte("abcdefghijklmnop")); err != nil {
		t.Fatal(err)
	}
	f, err := tc.client.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(4, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(f, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "efgh" {
		t.Errorf("read after seek = %q", buf)
	}
	if pos, err := f.Seek(-4, io.SeekEnd); err != nil || pos != 12 {
		t.Fatalf("seek end: %d %v", pos, err)
	}
	if _, err := io.ReadFull(f, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "mnop" {
		t.Errorf("tail read = %q", buf)
	}
}

func TestConcurrentClients(t *testing.T) {
	tc := startCluster(t, 4, 256)
	const nClients = 6
	var addrs []string
	for _, ds := range tc.iods {
		addrs = append(addrs, ds.Addr())
	}
	var wg sync.WaitGroup
	errs := make([]error, nClients)
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(tc.mgr.Addr(), addrs)
			if err != nil {
				errs[c] = err
				return
			}
			defer cl.Close()
			name := fmt.Sprintf("client%d", c)
			payload := bytes.Repeat([]byte{byte(c + 1)}, 10_000)
			if err := chio.WriteFull(cl, name, payload); err != nil {
				errs[c] = err
				return
			}
			got, err := chio.ReadFull(cl, name)
			if err != nil {
				errs[c] = err
				return
			}
			if !bytes.Equal(got, payload) {
				errs[c] = fmt.Errorf("client %d data corrupted", c)
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", c, err)
		}
	}
}

// LoadMap fetches the manager's latest per-server load reports.
func (cl *Client) LoadMap() (map[int]float64, error) { return cl.meta.LoadQuery(cl.ctx) }

func TestLoadHeartbeatsReachManager(t *testing.T) {
	tc := startCluster(t, 3, 64)
	// Generate some traffic so loads are non-trivial, then wait for
	// heartbeats.
	if err := chio.WriteFull(tc.client, "f", make([]byte, 10_000)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		loads, err := tc.client.LoadMap()
		if err != nil {
			t.Fatal(err)
		}
		if len(loads) == 3 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("manager never received heartbeats from all 3 servers")
}

func TestThrottleSlowsServer(t *testing.T) {
	tc := startCluster(t, 2, 1024)
	payload := make([]byte, 64*1024)
	if err := chio.WriteFull(tc.client, "f", payload); err != nil {
		t.Fatal(err)
	}
	f, err := tc.client.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, len(payload))
	tc.iods[0].SetThrottle(100 * time.Microsecond) // 100us per KiB
	start := time.Now()
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	slow := time.Since(start)
	// Server 0 serves 32 KiB, so the read waits at least the throttle's
	// own 3.2 ms. Comparing against an unthrottled read's wall clock
	// instead would be at the mercy of the scheduler.
	if floor := 32 * 100 * time.Microsecond; slow < floor {
		t.Errorf("throttle had no effect: read took %v, floor %v", slow, floor)
	}
}

func TestDecompose(t *testing.T) {
	// 3 servers, stripe 10: range [5, 35) covers stripes 0..3.
	runs := decompose(5, 30, 10, 3)
	// server 0: stripe 0 [5,10) -> serverOff 5 len 5; stripe 3 [30,35) -> serverOff 10 len 5
	if len(runs[0]) != 2 || runs[0][0].ServerOff != 5 || runs[0][0].Length != 5 ||
		runs[0][1].ServerOff != 10 || runs[0][1].Length != 5 {
		t.Errorf("server 0 runs: %+v", runs[0])
	}
	// server 1: stripe 1 full -> serverOff 0 len 10.
	if len(runs[1]) != 1 || runs[1][0].ServerOff != 0 || runs[1][0].Length != 10 || runs[1][0].BufOff != 5 {
		t.Errorf("server 1 runs: %+v", runs[1])
	}
	// server 2: stripe 2 full.
	if len(runs[2]) != 1 || runs[2][0].BufOff != 15 {
		t.Errorf("server 2 runs: %+v", runs[2])
	}
}

func TestDecomposeMergesAdjacent(t *testing.T) {
	// 1 server: everything is one run.
	runs := decompose(0, 1000, 10, 1)
	if len(runs[0]) != 1 || runs[0][0].Length != 1000 {
		t.Errorf("single-server runs not merged: %+v", runs[0])
	}
}

func TestDecomposeCoversRangeProperty(t *testing.T) {
	f := func(offRaw, lenRaw uint16, stripeSel, nSel uint8) bool {
		stripe := int64(1 + stripeSel%128)
		n := 1 + int(nSel%8)
		off := int64(offRaw % 4096)
		length := int64(lenRaw%4096) + 1
		runs := decompose(off, length, stripe, n)
		covered := make([]bool, length)
		for _, list := range runs {
			for _, r := range list {
				if r.BufOff < 0 || r.BufOff+r.Length > length {
					return false
				}
				for i := r.BufOff; i < r.BufOff+r.Length; i++ {
					if covered[i] {
						return false // overlap
					}
					covered[i] = true
				}
			}
		}
		for _, c := range covered {
			if !c {
				return false // gap
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDialClientNoServers(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", nil); err == nil {
		t.Error("no data servers accepted")
	}
}

// A client dialled with 2 of a 4-server manager's data servers would
// stripe every file over the wrong servers: without the check it read
// holes and other stripes' bytes. Open and Create refuse it, naming
// both counts, and Create touches no piece.
func TestClientServerCountMustMatchManager(t *testing.T) {
	tc := startCluster(t, 4, 64)
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i*7 + 1)
	}
	if err := chio.WriteFull(tc.client, "f", payload); err != nil {
		t.Fatal(err)
	}
	short, err := Dial(tc.mgr.Addr(), []string{tc.iods[0].Addr(), tc.iods[1].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer short.Close()
	want := func(op string, err error) {
		t.Helper()
		var sce *ServerCountError
		if !errors.As(err, &sce) || sce.Manager != 4 || sce.Client != 2 {
			t.Fatalf("%s by a client of 2 of 4 servers: %v, want a ServerCountError naming 4 and 2", op, err)
		}
	}
	_, err = short.Open("f")
	want("Open", err)
	_, err = short.Create("g")
	want("Create", err)
	if got, err := chio.ReadFull(tc.client, "f"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("f after the refusals: %d bytes, %v; want it intact", len(got), err)
	}
}
