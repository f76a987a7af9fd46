package mpi

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// rawPeer connects to the router as rank without a tcpComm, so a test
// can write frames whose headers a well-behaved client never would.
func rawPeer(t *testing.T, r *Router, rank int) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := writeFrame(conn, rank, helloTo, 0, nil); err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestRouterStampsSenderRank(t *testing.T) {
	r, err := StartRouter("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c1, err := Dial(r.Addr(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	spoofer := rawPeer(t, r, 0)
	if err := writeFrame(spoofer, 2, 1, 5, []byte("spoofed")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m, err := c1.Recv(ctx, AnySource, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.From != 0 {
		t.Errorf("frame claiming rank 2 arrived from %d, want the sender's rank 0", m.From)
	}
}

func TestRouterDropsPeerSendingOutOfRange(t *testing.T) {
	for _, to := range []int{-7, 2} {
		r, err := StartRouter("127.0.0.1:0", 2)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		conn := rawPeer(t, r, 0)
		if err := writeFrame(conn, 0, to, 1, []byte("nowhere")); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Errorf("to=%d: sender's read = %v, want EOF from a closed connection", to, err)
		}
		r.mu.Lock()
		if len(r.pending) != 0 {
			t.Errorf("to=%d: router queued frames for %d ranks", to, len(r.pending))
		}
		r.mu.Unlock()
	}
}

// Frames queued for a rank that has not connected yet, and frames sent
// to it while it connects, arrive in the order the sender sent them.
func TestRouterKeepsOrderWhileReceiverConnects(t *testing.T) {
	const n = 2000
	r, err := StartRouter("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c0, err := Dial(r.Addr(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	started := make(chan struct{})
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if i == n/10 {
				close(started)
			}
			if err := c0.Send(1, 1, binary.LittleEndian.AppendUint32(nil, uint32(i))); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	<-started
	c1, err := Dial(r.Addr(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		m, err := c1.Recv(ctx, 0, 1)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := binary.LittleEndian.Uint32(m.Data); got != uint32(i) {
			t.Fatalf("frame %d arrived in position %d", got, i)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// FuzzRouterFrames feeds raw byte streams to the router's per-
// connection loop. Whatever a peer sends, the router must not panic,
// hang, or queue a frame for a rank outside [0, size).
func FuzzRouterFrames(f *testing.F) {
	frame := func(from, to, tag int, payload []byte) []byte {
		var b bytes.Buffer
		writeFrame(&b, from, to, tag, payload)
		return b.Bytes()
	}
	hello := func() []byte { return frame(1, helloTo, 0, nil) }
	badMagic := hello()
	badMagic[0] ^= 0xff
	oversize := frame(1, 0, 3, nil)
	binary.LittleEndian.PutUint32(oversize[16:], 1<<31)
	f.Add(append(hello(), frame(1, 0, 7, []byte("data"))...))
	f.Add(badMagic)
	f.Add(append(append(hello(), badMagic...), "trailing"...))
	f.Add(append(hello(), oversize...))
	f.Add(append(hello(), frame(1, -5, 7, nil)...))
	f.Add(append(hello(), frame(1, 3, 7, nil)...))
	f.Add(append(hello(), hello()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &Router{
			size:    3,
			conns:   make(map[int]net.Conn),
			wmus:    make(map[int]*sync.Mutex),
			pending: make(map[int][]pendingFrame),
		}
		peer, conn := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			r.serve(conn)
		}()
		go io.Copy(io.Discard, peer) // frames the router sends back
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			peer.Write(data) // fails once the router drops the peer
			peer.Close()
		}()
		for _, ch := range []chan struct{}{wrote, served} {
			select {
			case <-ch:
			case <-time.After(5 * time.Second):
				t.Fatal("router neither read the peer's bytes nor dropped it")
			}
		}
		for to := range r.pending {
			if to < 0 || to >= r.size {
				t.Fatalf("router queued frames for rank %d of %d", to, r.size)
			}
		}
	})
}
