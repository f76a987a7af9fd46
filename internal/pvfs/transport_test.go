package pvfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"pario/internal/chio"
	"pario/internal/rpcpool"
	"pario/internal/telemetry"
)

// hungListener accepts connections and then never responds: the
// failure mode of a wedged iod whose TCP stack is alive but whose
// service loop is stuck (the paper's motivating fault for CEFT).
// Close unblocks everything.
func hungListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go func() {
				// Drain requests so client writes succeed; never reply.
				io.Copy(io.Discard, c)
			}()
		}
	}()
	t.Cleanup(func() {
		close(done)
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	})
	return ln.Addr().String()
}

// flakyProxy forwards TCP to dst, but kills the first failConns
// connections immediately after accepting them — a server that drops
// established connections until it recovers.
func flakyProxy(t *testing.T, dst string, failConns int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		n := 0
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			n++
			if n <= failConns {
				c.Close()
				continue
			}
			up, err := net.Dial("tcp", dst)
			if err != nil {
				c.Close()
				continue
			}
			go func() { io.Copy(up, c); up.Close() }()
			go func() { io.Copy(c, up); c.Close() }()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

func TestDecomposeEdgeCases(t *testing.T) {
	countRuns := func(runs [][]StripeRun) (n int, total int64) {
		for _, list := range runs {
			n += len(list)
			for _, r := range list {
				total += r.Length
			}
		}
		return
	}
	cases := []struct {
		name     string
		off, n   int64
		stripe   int64
		servers  int
		wantRuns int
		wantLen  int64
	}{
		{"zero length", 100, 0, 10, 4, 0, 0},
		{"single byte", 0, 1, 10, 4, 1, 1},
		{"exact one stripe", 0, 10, 10, 4, 1, 10},
		{"ends on stripe boundary", 5, 5, 10, 4, 1, 5},
		{"starts on stripe boundary", 10, 10, 10, 4, 1, 10},
		{"spans exactly all servers", 0, 40, 10, 4, 4, 40},
		{"wraps past one round", 0, 50, 10, 4, 5, 50},
		{"single server merges", 0, 50, 10, 1, 1, 50},
		{"deep offset", 1 << 40, 10, 10, 4, 2, 10}, // 1<<40 % 10 != 0: spans two stripes
		{"offset inside last stripe of round", 39, 2, 10, 4, 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runs := decompose(tc.off, tc.n, tc.stripe, tc.servers)
			if len(runs) != tc.servers {
				t.Fatalf("got %d server slots, want %d", len(runs), tc.servers)
			}
			n, total := countRuns(runs)
			if n != tc.wantRuns || total != tc.wantLen {
				t.Errorf("got %d runs covering %d bytes, want %d runs covering %d",
					n, total, tc.wantRuns, tc.wantLen)
			}
		})
	}
}

func TestReadAtPastEOF(t *testing.T) {
	// decompose has no EOF notion; ReadAt trims against file size.
	tc := startCluster(t, 2, 1024)
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := chio.WriteFull(tc.client, "f", payload); err != nil {
		t.Fatal(err)
	}
	f, err := tc.client.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Straddling EOF: partial data plus io.EOF.
	buf := make([]byte, 2000)
	n, err := f.ReadAt(buf, 2000)
	if n != 1000 || !errors.Is(err, io.EOF) {
		t.Fatalf("straddling read = %d, %v; want 1000, io.EOF", n, err)
	}
	if !bytes.Equal(buf[:n], payload[2000:]) {
		t.Error("straddling read returned wrong data")
	}
	// Entirely past EOF: zero bytes plus io.EOF.
	if n, err := f.ReadAt(buf, 10_000); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("past-EOF read = %d, %v; want 0, io.EOF", n, err)
	}
}

func TestHungServerReadTimesOut(t *testing.T) {
	// A 2-server file where server 1's address points at a wedged
	// host: reads touching it must fail with chio.ErrTimeout within
	// the configured deadline budget, not hang forever.
	tc := startCluster(t, 2, 1024)
	payload := make([]byte, 8*1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := chio.WriteFull(tc.client, "f", payload); err != nil {
		t.Fatal(err)
	}

	hung := hungListener(t)
	cl, err := Dial(tc.mgr.Addr(), []string{tc.iods[0].Addr(), hung},
		rpcpool.WithTimeout(150*time.Millisecond), rpcpool.WithRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	f, err := cl.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	start := time.Now()
	_, err = f.ReadAt(make([]byte, len(payload)), 0)
	elapsed := time.Since(start)
	if !errors.Is(err, chio.ErrTimeout) {
		t.Fatalf("read error = %v, want chio.ErrTimeout", err)
	}
	// Budget: 2 attempts x 150ms plus backoff; anything over a few
	// seconds means the deadline was not enforced.
	if elapsed > 3*time.Second {
		t.Errorf("timed-out read took %v, want bounded by deadline budget", elapsed)
	}
}

func TestKilledServerReadFailsServerDown(t *testing.T) {
	tc := startCluster(t, 2, 1024)
	payload := make([]byte, 8*1024)
	if err := chio.WriteFull(tc.client, "f", payload); err != nil {
		t.Fatal(err)
	}
	f, err := tc.client.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tc.iods[1].Close() // kill one data server mid-session

	_, err = f.ReadAt(make([]byte, len(payload)), 0)
	if !errors.Is(err, chio.ErrServerDown) {
		t.Fatalf("read error = %v, want chio.ErrServerDown", err)
	}
	// The surviving server's stripes stay readable.
	if _, err := f.ReadAt(make([]byte, 1024), 0); err != nil {
		t.Errorf("read from surviving server: %v", err)
	}
}

func TestRetryCompletesAfterConnDrop(t *testing.T) {
	// The first connection to server 1 is dropped by a flaky proxy;
	// the transport must discard it, redial and complete the read.
	tc := startCluster(t, 2, 1024)
	payload := make([]byte, 8*1024)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	if err := chio.WriteFull(tc.client, "f", payload); err != nil {
		t.Fatal(err)
	}

	metrics := rpcpool.NewMetrics(telemetry.NewRegistry())
	proxy := flakyProxy(t, tc.iods[1].Addr(), 1)
	cl, err := Dial(tc.mgr.Addr(), []string{tc.iods[0].Addr(), proxy},
		rpcpool.WithRetries(2), rpcpool.WithMetrics(metrics))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	got := make([]byte, len(payload))
	f, err := cl.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("read through flaky proxy: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("retried read returned corrupt data")
	}
	var retries int64
	metrics.Retries.Each(func(_ []string, c *telemetry.Counter) { retries += c.Value() })
	if retries == 0 {
		t.Error("observer recorded no retries; dropped conn was not retried")
	}
}

func TestContextCancelAbortsRead(t *testing.T) {
	// A cancelled context must abort a read stuck on a hung server
	// immediately (not after the full timeout/retry budget) and
	// surface context.Canceled unwrapped.
	tc := startCluster(t, 2, 1024)
	if err := chio.WriteFull(tc.client, "f", make([]byte, 8*1024)); err != nil {
		t.Fatal(err)
	}
	hung := hungListener(t)
	cl, err := Dial(tc.mgr.Addr(), []string{tc.iods[0].Addr(), hung},
		rpcpool.WithTimeout(30*time.Second), rpcpool.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	bound := cl.WithContext(ctx)
	f, err := bound.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := f.ReadAt(make([]byte, 8*1024), 0)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("read error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled read did not return")
	}
}

func TestConcurrentReadersShareOneClient(t *testing.T) {
	// Many goroutines reading through a single client exercise the
	// connection pool under -race: bounded conns, no data corruption.
	tc := startCluster(t, 3, 512)
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	if err := chio.WriteFull(tc.client, "f", payload); err != nil {
		t.Fatal(err)
	}
	const readers = 16
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			f, err := tc.client.Open("f")
			if err != nil {
				errs[r] = err
				return
			}
			defer f.Close()
			for i := 0; i < 8; i++ {
				off := int64((r*977 + i*4099) % (len(payload) - 1000))
				buf := make([]byte, 1000)
				if _, err := f.ReadAt(buf, off); err != nil {
					errs[r] = fmt.Errorf("read %d at %d: %w", i, off, err)
					return
				}
				if !bytes.Equal(buf, payload[off:off+1000]) {
					errs[r] = fmt.Errorf("read %d at %d: corrupt data", i, off)
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

func TestFileCloseInvalidatesHandle(t *testing.T) {
	tc := startCluster(t, 2, 1024)
	if err := chio.WriteFull(tc.client, "f", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	f, err := tc.client.Open("f")
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
	if _, err := f.Read(make([]byte, 10)); err == nil {
		t.Error("Read after Close succeeded")
	}
}
