package pvfs

import (
	"net"
	"sync"
	"testing"
	"time"

	"pario/internal/chio"
)

// silentManager accepts connections and reads everything sent to it
// but never answers. got is closed once the first bytes arrive. The
// cleanup closes the listener and every accepted connection.
func silentManager(t *testing.T) (addr string, got <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	var conns []net.Conn
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						once.Do(func() { close(first) })
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String(), first
}

// TestHeartbeatSilentManagerClose: a manager that accepts a heartbeat
// and never answers must delay Close by no more than a heartbeat
// period — the report in flight is cancelled, not waited out.
func TestHeartbeatSilentManagerClose(t *testing.T) {
	addr, got := silentManager(t)
	ds, err := StartDataServer(DataServerConfig{
		ID: 0, Addr: "127.0.0.1:0", Store: chio.NewMemFS(),
		MgrAddr: addr, HeartbeatPeriod: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		ds.Close()
		t.Fatal("no heartbeat reached the manager")
	}
	done := make(chan error, 1)
	go func() { done <- ds.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close hung on a heartbeat the manager never answered")
	}
}

// TestHeartbeatReachesLateManager: a data server started before its
// manager reports its load once the manager comes up.
func TestHeartbeatReachesLateManager(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ds, err := StartDataServer(DataServerConfig{
		ID: 1, Addr: "127.0.0.1:0", Store: chio.NewMemFS(),
		MgrAddr: addr, HeartbeatPeriod: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	time.Sleep(60 * time.Millisecond) // a few reports fail to dial
	ms, err := StartMetaServer(MetaConfig{Addr: addr, NumServers: 2})
	if err != nil {
		t.Skipf("manager port %s taken meanwhile: %v", addr, err)
	}
	defer ms.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := ms.GetLoads()[1]; ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat from the data server reached the late manager")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
