package pvfs

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"pario/internal/chio"
)

// bg is the ambient context for conn-level tests.
var bg = context.Background()

// startMeta spins up a bare manager.
func startMeta(t *testing.T, servers int) *MetaServer {
	t.Helper()
	ms, err := StartMetaServer(MetaConfig{Addr: "127.0.0.1:0", NumServers: servers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	return ms
}

// startIod spins up one data server.
func startIod(t *testing.T, id int) (*DataServer, *chio.MemFS) {
	t.Helper()
	store := chio.NewMemFS()
	ds, err := StartDataServer(DataServerConfig{ID: id, Addr: "127.0.0.1:0", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds, store
}

func TestMetaConnLifecycle(t *testing.T) {
	ms := startMeta(t, 4)
	m, err := DialMeta(ms.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	meta, err := m.Create(bg, "f")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Handle == 0 || meta.NumServers != 4 || meta.StripeSize != DefaultStripeSize {
		t.Errorf("create meta: %+v", meta)
	}
	if err := m.GrowSize(bg, "f", 1000); err != nil {
		t.Fatal(err)
	}
	if err := m.GrowSize(bg, "f", 500); err != nil { // grow-only: no shrink
		t.Fatal(err)
	}
	got, err := m.Stat(bg, "f")
	if err != nil || got.Size != 1000 {
		t.Fatalf("stat after grow: %+v %v", got, err)
	}
	got, err = m.Lookup(bg, "f")
	if err != nil || got.Size != 1000 {
		t.Fatalf("lookup after grow: %+v %v", got, err)
	}
	metas, err := m.List(bg, "")
	if err != nil || len(metas) != 1 || metas[0].Name != "f" {
		t.Fatalf("list: %+v %v", metas, err)
	}
	removed, err := m.Remove(bg, "f")
	if err != nil || removed.Handle != meta.Handle {
		t.Fatalf("remove: %+v %v", removed, err)
	}
	if _, err := m.Lookup(bg, "f"); !errors.Is(err, chio.ErrNotExist) {
		t.Errorf("lookup after remove: %v", err)
	}
	if _, err := m.Remove(bg, "f"); !errors.Is(err, chio.ErrNotExist) {
		t.Errorf("double remove: %v", err)
	}
}

func TestMetaConnLoadReporting(t *testing.T) {
	ms := startMeta(t, 2)
	m, err := DialMeta(ms.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.ReportLoad(bg, 0, 3.5); err != nil {
		t.Fatal(err)
	}
	if err := m.ReportLoad(bg, 1, 0.25); err != nil {
		t.Fatal(err)
	}
	loads, err := m.LoadQuery(bg)
	if err != nil {
		t.Fatal(err)
	}
	if loads[0] != 3.5 || loads[1] != 0.25 {
		t.Errorf("loads: %+v", loads)
	}
}

func TestDataConnPieceOps(t *testing.T) {
	ds, store := startIod(t, 3)
	d, err := DialData(ds.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if id, err := d.Ping(bg); err != nil || id != 3 {
		t.Fatalf("ping: %d %v", id, err)
	}
	payload := []byte("stripe piece data")
	run := []StripeRun{{ServerOff: 10, Length: int64(len(payload))}}
	if err := d.WriteRuns(bg, 77, run, payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := d.ReadRuns(bg, 77, run, got); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read back: %q %v", got, err)
	}
	// Reading a missing piece is not an error: holes read as zeros.
	if err := d.ReadRuns(bg, 9999, run, got); err != nil || !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatalf("hole read: %q %v", got, err)
	}
	if err := d.RemovePiece(bg, 77); err != nil {
		t.Fatal(err)
	}
	fis, _ := store.List("")
	if len(fis) != 0 {
		t.Errorf("piece remains after remove: %v", fis)
	}
	// Removing an absent piece is idempotent.
	if err := d.RemovePiece(bg, 77); err != nil {
		t.Errorf("double remove: %v", err)
	}
}

func TestDataServerLoadDecays(t *testing.T) {
	ds, _ := startIod(t, 0)
	d, err := DialData(ds.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Idle server: load stays near zero.
	time.Sleep(80 * time.Millisecond)
	if l := ds.Load(); l > 0.5 {
		t.Errorf("idle load = %v", l)
	}
}

func TestMetaServerUnknownOp(t *testing.T) {
	ms := startMeta(t, 1)
	cn, err := dialConn(ms.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cn.close()
	var resp Response
	err = cn.call(&Request{Op: 200}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Error("unknown op accepted")
	}
}

// TestDataServerUnknownOp sends every retired op value, and one never
// assigned, each as a bare request. Each must get an error reply, and
// the connection must then still serve a list read.
func TestDataServerUnknownOp(t *testing.T) {
	ds, _ := startIod(t, 0)
	cn, err := dialConn(ds.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cn.close()
	hello := []byte("hello")
	var resp Response
	if err := cn.call(&Request{Op: OpListWrite, Handle: 1, Segs: []Seg{{Length: 5}}, Data: hello}, &resp); err != nil || !resp.OK {
		t.Fatalf("seed write: %v %s", err, resp.Err)
	}
	for _, op := range []Op{64, 65, 68, 69, 70, 71, 72, 250} {
		t.Run(op.String(), func(t *testing.T) {
			var resp Response
			if err := cn.call(&Request{Op: op}, &resp); err != nil {
				t.Fatalf("connection lost: %v", err)
			}
			if resp.OK || resp.Err == "" {
				t.Errorf("op %d accepted, want an error reply", op)
			}
			resp = Response{}
			if err := cn.call(&Request{Op: OpListRead, Handle: 1, Segs: []Seg{{Length: 5}}}, &resp); err != nil {
				t.Fatalf("list read after op %d: %v", op, err)
			}
			if !resp.OK || !bytes.Equal(resp.Data, hello) {
				t.Fatalf("list read after op %d = %q ok=%v err=%s", op, resp.Data, resp.OK, resp.Err)
			}
		})
	}
}

func TestForcedCloseUnblocksClients(t *testing.T) {
	// Closing a server with clients attached must not hang and must
	// error subsequent calls on those clients.
	ds, _ := startIod(t, 0)
	d, err := DialData(ds.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Ping(bg); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ds.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with a client attached")
	}
	if _, err := d.Ping(bg); err == nil {
		t.Error("ping succeeded against a closed server")
	}
}

func TestPVFSOverLocalDiskStores(t *testing.T) {
	// Production path: data servers persisting stripe pieces to real
	// directories rather than memory.
	mgr := startMeta(t, 2)
	var addrs []string
	for i := 0; i < 2; i++ {
		store, err := chio.NewLocalFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ds, err := StartDataServer(DataServerConfig{ID: i, Addr: "127.0.0.1:0", Store: store})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		addrs = append(addrs, ds.Addr())
	}
	cl, err := Dial(mgr.Addr(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	payload := make([]byte, 300_000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := chio.WriteFull(cl, "disk-backed", payload); err != nil {
		t.Fatal(err)
	}
	got, err := chio.ReadFull(cl, "disk-backed")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("disk-backed round trip corrupted data")
	}
}
