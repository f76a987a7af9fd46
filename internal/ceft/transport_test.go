package ceft

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"pario/internal/chio"
	"pario/internal/rpcpool"
)

// hungAddr returns the address of a listener that accepts connections
// and drains requests but never replies — a wedged data server.
func hungAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	var mu sync.Mutex
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go io.Copy(io.Discard, c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	})
	return ln.Addr().String()
}

func TestHungPrimaryFallsBackToMirror(t *testing.T) {
	// A primary server hangs mid-read (accepts, never replies). The
	// per-request deadline converts that into a timeout and the read
	// completes from the mirror partner within the deadline budget.
	opts := DefaultOptions()
	opts.DoubledReads = false
	opts.SkipHotSpots = false
	c := start(t, 2, 1024, opts, false)
	payload := make([]byte, 16*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := chio.WriteFull(c.client, "f", payload); err != nil {
		t.Fatal(err)
	}

	// Same cluster, but primary 0's address points at a hung host.
	prim := []string{hungAddr(t), c.servers[1].Addr()}
	mirr := []string{c.servers[2].Addr(), c.servers[3].Addr()}
	cl, err := Dial(c.mgr.Addr(), prim, mirr, opts,
		rpcpool.WithTimeout(150*time.Millisecond), rpcpool.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	f, err := cl.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := make([]byte, len(payload))
	startT := time.Now()
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("read with hung primary: %v", err)
	}
	if elapsed := time.Since(startT); elapsed > 3*time.Second {
		t.Errorf("fallback read took %v, want bounded by deadline budget", elapsed)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("fallback read returned corrupt data")
	}
	if cl.Failovers() == 0 {
		t.Error("no failovers recorded; read did not use the mirror path")
	}

	// Cancelling a context-bound view aborts its reads with the
	// context's error, not a timeout and not a failover. The first
	// stripe lives on the hung primary alone, so nothing can answer it.
	ctx, cancel := context.WithCancel(context.Background())
	bf, err := chio.BindContext(cl, ctx).Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	cancel()
	if _, err := bf.ReadAt(got[:1024], 0); !errors.Is(err, context.Canceled) {
		t.Errorf("read on a cancelled bound view = %v, want context.Canceled", err)
	}
}

func TestKilledPrimaryMidSessionFallsBackToMirror(t *testing.T) {
	// The file is opened while all servers are healthy; a primary is
	// then killed and subsequent reads complete from its mirror.
	opts := DefaultOptions()
	opts.DoubledReads = false
	opts.SkipHotSpots = false
	c := start(t, 2, 1024, opts, false)
	payload := make([]byte, 16*1024)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	if err := chio.WriteFull(c.client, "f", payload); err != nil {
		t.Fatal(err)
	}
	f, err := c.client.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	c.servers[0].Close() // kill primary 0 mid-session

	got := make([]byte, len(payload))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("read after primary death: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("degraded read returned corrupt data")
	}
	if c.client.Failovers() == 0 {
		t.Error("no failovers recorded after primary death")
	}

	// A context-bound view is the same client: it keeps the backend's
	// name, and its failovers and degraded writes land in the parent's
	// counters.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bound := chio.BindContext(c.client, ctx)
	if name := bound.BackendName(); name != "ceft-pvfs" {
		t.Errorf("bound view BackendName = %q, want ceft-pvfs", name)
	}
	bf, err := bound.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	failovers := c.client.Failovers()
	if _, err := bf.ReadAt(got, 0); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("bound view read after primary death: %v", err)
	}
	if c.client.Failovers() <= failovers {
		t.Error("bound view's failovers missing from the parent client's count")
	}
	if err := chio.WriteFull(bound, "g", payload); err != nil {
		t.Fatalf("bound view degraded write: %v", err)
	}
	if c.client.DegradedWrites() == 0 {
		t.Error("bound view's degraded writes missing from the parent client's count")
	}
}

func TestDialDegradedClusterSucceeds(t *testing.T) {
	// A fresh client must be able to dial a cluster that has already
	// lost one server of a mirror pair (degraded mode) — and fail
	// with chio.ErrServerDown when a whole pair is gone.
	opts := DefaultOptions()
	opts.SkipHotSpots = false
	c := start(t, 2, 1024, opts, false)
	payload := make([]byte, 8*1024)
	for i := range payload {
		payload[i] = byte(i * 5)
	}
	if err := chio.WriteFull(c.client, "f", payload); err != nil {
		t.Fatal(err)
	}
	c.servers[0].Close() // primary 0 dead before the new client dials

	prim := []string{c.servers[0].Addr(), c.servers[1].Addr()}
	mirr := []string{c.servers[2].Addr(), c.servers[3].Addr()}
	cl, err := Dial(c.mgr.Addr(), prim, mirr, opts, rpcpool.WithRetries(0))
	if err != nil {
		t.Fatalf("dial degraded cluster: %v", err)
	}
	defer cl.Close()
	got := make([]byte, len(payload))
	f, err := cl.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("degraded read returned corrupt data")
	}

	c.servers[2].Close() // now pair 0 is entirely gone
	_, err = Dial(c.mgr.Addr(), prim, mirr, opts, rpcpool.WithRetries(0))
	if !errors.Is(err, chio.ErrServerDown) {
		t.Fatalf("dial with whole pair down = %v, want chio.ErrServerDown", err)
	}
}

func TestDegradedClusterWritesSucceed(t *testing.T) {
	// With one member of a mirror pair dead, writes must still land on
	// the surviving member instead of failing the whole operation —
	// and must fail once a pair has no live member at all.
	t.Run("client-sync", func(t *testing.T) {
		opts := DefaultOptions()
		opts.SkipHotSpots = false
		c := start(t, 2, 1024, opts, false)
		c.servers[0].Close() // primary 0 dead before any write

		payload := make([]byte, 8*1024)
		for i := range payload {
			payload[i] = byte(i * 3)
		}
		if err := chio.WriteFull(c.client, "f", payload); err != nil {
			t.Fatalf("degraded write: %v", err)
		}
		if c.client.DegradedWrites() == 0 {
			t.Error("no degraded writes recorded; data may have skipped the dead pair member silently")
		}

		got := make([]byte, len(payload))
		f, err := c.client.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatalf("read back degraded write: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("degraded write read back corrupt data")
		}

		c.servers[2].Close() // now pair 0 has no live member
		err = chio.WriteFull(c.client, "g", payload)
		if !errors.Is(err, chio.ErrServerDown) {
			t.Fatalf("write with whole pair down = %v, want chio.ErrServerDown", err)
		}
	})
}

func TestCEFTFileCloseInvalidatesHandle(t *testing.T) {
	c := start(t, 2, 1024, DefaultOptions(), false)
	if err := chio.WriteFull(c.client, "f", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	f, err := c.client.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Errorf("second close: %v, want nil", err)
	}
	if _, err := f.ReadAt(make([]byte, 10), 0); err == nil {
		t.Error("ReadAt after Close succeeded")
	}
	if _, err := f.WriteAt([]byte("x"), 0); err == nil {
		t.Error("WriteAt after Close succeeded")
	}
}

func TestConcurrentCEFTReadersShareOneClient(t *testing.T) {
	// Doubled-parallelism reads from many goroutines over one client:
	// exercises both transports' pools under -race.
	opts := DefaultOptions()
	opts.SkipHotSpots = false
	c := start(t, 2, 512, opts, false)
	payload := make([]byte, 32*1024)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	if err := chio.WriteFull(c.client, "f", payload); err != nil {
		t.Fatal(err)
	}
	const readers = 12
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			f, err := c.client.Open("f")
			if err != nil {
				errs[r] = err
				return
			}
			defer f.Close()
			for i := 0; i < 6; i++ {
				off := int64((r*1543 + i*2741) % (len(payload) - 500))
				buf := make([]byte, 500)
				if _, err := f.ReadAt(buf, off); err != nil {
					errs[r] = err
					return
				}
				if !bytes.Equal(buf, payload[off:off+500]) {
					errs[r] = io.ErrUnexpectedEOF
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Errorf("reader %d: %v", r, err)
		}
	}
}

func TestVectoredReadDegradesPerRun(t *testing.T) {
	// A dead mirror-pair member must degrade a multi-run vectored read
	// per run on the partner — not fail the whole request. The stripe
	// is small relative to the read, so each server's share of the read
	// is several runs coalesced into one vectored RPC.
	opts := DefaultOptions()
	opts.DoubledReads = false
	opts.SkipHotSpots = false
	c := start(t, 2, 512, opts, false)
	payload := make([]byte, 16*1024) // 16 stripes -> 8 runs per server
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	if err := chio.WriteFull(c.client, "f", payload); err != nil {
		t.Fatal(err)
	}
	f, err := c.client.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	c.servers[0].Close() // kill primary 0: its vectored read must fail over

	got := make([]byte, len(payload))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("vectored read after primary death: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("degraded vectored read returned corrupt data")
	}
	// Per-run fallback: server 0 held 8 runs of this read, and each
	// must have been retried individually on the mirror.
	if fo := c.client.Failovers(); fo < 8 {
		t.Errorf("failovers = %d, want >= 8 (one per run of the dead server)", fo)
	}
}
