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
	m, err := c1.Recv(ctx)
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
		m, err := c1.Recv(ctx)
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

// dialAll connects ranks 0..n-1 of a world of size, closed with the
// test.
func dialAll(t *testing.T, r *Router, n, size int) []Comm {
	t.Helper()
	cs := make([]Comm, n)
	for rank := range cs {
		c, err := Dial(r.Addr(), rank, size)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		cs[rank] = c
	}
	return cs
}

// expect receives the next message on c within a few seconds and
// requires it to be from rank from and to carry data.
func expect(t *testing.T, c Comm, from int, data string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m, err := c.Recv(ctx)
	if err != nil {
		t.Fatalf("rank %d waiting for %q from rank %d: %v", c.Rank(), data, from, err)
	}
	if m.From != from || string(m.Data) != data {
		t.Fatalf("rank %d got %q from rank %d, want %q from rank %d", c.Rank(), m.Data, m.From, data, from)
	}
}

// expectGone requires c's next messages to be from rank from carrying
// data in order, then one TagGone from rank from, then nothing.
func expectGone(t *testing.T, c Comm, from int, data ...string) {
	t.Helper()
	for _, d := range data {
		expect(t, c, from, d)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if m, err := c.Recv(ctx); err != nil || m.From != from || m.Tag != TagGone {
		t.Fatalf("rank %d got %+v, %v; want TagGone from rank %d", c.Rank(), m, err, from)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if m, err := c.Recv(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("rank %d got %+v, %v after TagGone; want nothing", c.Rank(), m, err)
	}
}

// The router tells rank 0 that a rank whose connection ended is gone,
// once and after that rank's frames, including when the rank sends
// TagGone itself: that peer is dropped and cannot forge a departure.
func TestRouterReportsGoneRank(t *testing.T) {
	r, err := StartRouter("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cs := dialAll(t, r, 2, 3)
	for _, data := range []string{"a", "b"} {
		if err := cs[1].Send(0, 1, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	cs[1].Close()
	expectGone(t, cs[0], 1, "a", "b")

	forger := rawPeer(t, r, 2)
	if err := writeFrame(forger, 2, 0, TagGone, nil); err != nil {
		t.Fatal(err)
	}
	forger.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := forger.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Errorf("peer sending TagGone: read = %v, want EOF from a closed connection", err)
	}
	expectGone(t, cs[0], 2)
}

// A Send on a connection the router has ended, or that Close has,
// returns ErrClosed, like a Recv on it. The router's end reaches the
// sender as a reset, so the first Sends after it may still succeed.
func TestSendAfterConnectionEnds(t *testing.T) {
	r, err := StartRouter("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	c := dialAll(t, r, 2, 2)[1]
	r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Recv(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after the router closed = %v, want ErrClosed", err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		err := c.Send(0, 1, []byte("late result"))
		if err != nil {
			if err != ErrClosed {
				t.Errorf("Send after the router closed = %v, want ErrClosed", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Send still succeeds 5s after the router closed")
		}
	}
	c.Close()
	if err := c.Send(0, 1, nil); err != ErrClosed {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
}

// failingConn is a live connection whose writes fail with err.
type failingConn struct {
	net.Conn
	err error
}

func (c failingConn) Write([]byte) (int, error) { return 0, c.err }

// A write that fails on a connection nothing has ended keeps its own
// error: only an ended connection reads as a closed communicator.
func TestSendKeepsOtherWriteErrors(t *testing.T) {
	local, remote := net.Pipe()
	defer local.Close()
	defer remote.Close()
	boom := errors.New("boom")
	c := &tcpComm{rank: 1, size: 2, conn: failingConn{local, boom}, box: &mailbox{}}
	if err := c.Send(0, 1, []byte("x")); err != boom {
		t.Errorf("Send = %v, want the write's own error", err)
	}
}

// A frame for a rank whose connection has gone is dropped, and the
// router goes on forwarding the sender's frames to everyone else: a
// worker that leaves while the master still sends to it must not cut
// the master off from the rest.
func TestRouterForwardSurvivesGoneDestination(t *testing.T) {
	r, err := StartRouter("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cs := dialAll(t, r, 3, 3)
	// Round trips prove every rank is connected before rank 2 goes.
	for rank := 1; rank <= 2; rank++ {
		if err := cs[rank].Send(0, 1, []byte("up")); err != nil {
			t.Fatal(err)
		}
		expect(t, cs[0], rank, "up")
	}
	cs[2].Close()
	time.Sleep(100 * time.Millisecond) // the router sees rank 2's EOF
	for i := 0; i < 3; i++ {
		if err := cs[0].Send(2, 1, []byte("lost")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cs[0].Send(1, 1, []byte("after")); err != nil {
		t.Fatal(err)
	}
	expect(t, cs[1], 0, "after")
}

// The router accepts connections until Close and turns away a second
// connection for a rank that has joined, and a malformed hello, without
// either using up a place: rank 1 keeps its traffic and rank 2 still
// joins afterwards. No rank joins twice.
func TestRouterTurnsAwayDuplicateRank(t *testing.T) {
	r, err := StartRouter("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cs := dialAll(t, r, 2, 3)
	if err := cs[1].Send(0, 1, []byte("up")); err != nil {
		t.Fatal(err)
	}
	expect(t, cs[0], 1, "up")

	dup, err := Dial(r.Addr(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer dup.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := dup.Recv(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("second connection for rank 1: Recv = %v, want ErrClosed", err)
	}
	bad := rawPeer(t, r, 7) // no rank 7 in a world of 3
	bad.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bad.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("malformed hello: read = %v, want EOF from a closed connection", err)
	}

	if err := cs[0].Send(1, 1, []byte("still")); err != nil {
		t.Fatal(err)
	}
	expect(t, cs[1], 0, "still")
	c2, err := Dial(r.Addr(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := cs[0].Send(2, 1, []byte("joined")); err != nil {
		t.Fatal(err)
	}
	expect(t, c2, 0, "joined")
}

// A peer that connects and never sends its hello is ended by Close
// like a joined one: its side reads EOF.
func TestRouterCloseEndsPeerWithoutHello(t *testing.T) {
	r, err := StartRouter("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Close only once the router serves the connection: one still in
	// the listen backlog would be reset, not ended.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		r.mu.Lock()
		served := len(r.open)
		r.mu.Unlock()
		if served == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router never accepted the connection")
		}
	}
	r.Close()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("read after Close = %v, want EOF from a closed connection", err)
	}
}

// FuzzRouterFrames feeds raw byte streams to the router's per-
// connection loop. Whatever a peer sends, the router must not panic,
// hang, or queue a frame for a rank outside [0, size); and rank 0's
// queue ends in one TagGone from the peer if it joined as a rank other
// than 0, and holds none otherwise.
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
	f.Add(append(append(hello(), frame(1, 0, 7, nil)...), frame(1, 0, TagGone, nil)...))
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
		q, gone := r.pending[0], 0
		for _, pf := range q {
			if pf.tag == TagGone {
				gone++
			}
		}
		_, zero := r.conns[0]
		if len(r.conns) == 1 && !zero { // joined as a rank other than 0
			if gone != 1 || q[len(q)-1].tag != TagGone || r.conns[q[len(q)-1].from] == nil {
				t.Fatalf("rank 0's queue %v does not end in the one TagGone from the joined peer", q)
			}
		} else if gone != 0 {
			t.Fatalf("rank 0's queue holds %d TagGone frames from a peer that never joined as a worker", gone)
		}
	})
}
