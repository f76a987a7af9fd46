package mpi

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// listen starts rank 0 of a world of size on a free loopback port,
// closed with the test.
func listen(t *testing.T, size int) *Listener {
	t.Helper()
	l, err := Listen("127.0.0.1:0", size)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// rawPeer connects to l as rank without a tcpComm, so a test can write
// frames a well-behaved client never would.
func rawPeer(t *testing.T, l *Listener, rank int) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := writeFrame(conn, rank, nil); err != nil {
		t.Fatal(err)
	}
	return conn
}

// waitJoined waits until rank's connection is live at l: rank 0 drops
// what it sends a rank before then.
func waitJoined(t *testing.T, l *Listener, rank int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		live := l.conns[rank] != nil
		l.mu.Unlock()
		if live {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank %d never joined", rank)
		}
	}
}

// dial connects rank to l, closed with the test, and waits until it
// has joined.
func dial(t *testing.T, l *Listener, rank int) Comm {
	t.Helper()
	c, err := Dial(l.Addr(), rank, l.Size())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	waitJoined(t, l, rank)
	return c
}

// dialAll returns ranks 0..n-1 of l's world, rank 0 being l itself,
// once every one has joined.
func dialAll(t *testing.T, l *Listener, n int) []Comm {
	t.Helper()
	cs := []Comm{l}
	for rank := 1; rank < n; rank++ {
		cs = append(cs, dial(t, l, rank))
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

// expectNothing requires c to receive nothing for 100 ms.
func expectNothing(t *testing.T, c Comm) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if m, err := c.Recv(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("rank %d got %+v, %v; want nothing", c.Rank(), m, err)
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
	expectNothing(t, c)
}

// expectDropped requires rank 0 to have ended conn: its side reads EOF.
func expectDropped(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("%s: read = %v, want EOF from a closed connection", what, err)
	}
}

// Rank 0 stamps each frame with the rank its connection's hello named,
// whatever the frame's tag: no frame names a sender.
func TestRouterStampsSenderRank(t *testing.T) {
	l := listen(t, 3)
	peer := rawPeer(t, l, 1)
	if err := writeFrame(peer, 2, []byte("tagged 2")); err != nil {
		t.Fatal(err)
	}
	expect(t, l, 1, "tagged 2")
}

// A worker is connected to rank 0 alone: its Send to another worker is
// refused before anything is written, and its connection stays usable.
func TestWorkerSendsOnlyToRankZero(t *testing.T) {
	cs := dialAll(t, listen(t, 3), 3)
	if err := cs[1].Send(2, 1, []byte("sideways")); err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("worker's Send to another worker = %v, want a refusal", err)
	}
	expectNothing(t, cs[2])
	if err := cs[1].Send(0, 1, []byte("up")); err != nil {
		t.Fatal(err)
	}
	expect(t, cs[0], 1, "up")
}

// Rank 0 learns that a rank whose connection ended is gone, once and
// after that rank's frames, including when the rank sends TagGone
// itself: that peer is dropped and cannot forge a departure.
func TestRouterReportsGoneRank(t *testing.T) {
	l := listen(t, 3)
	cs := dialAll(t, l, 2)
	for _, data := range []string{"a", "b"} {
		if err := cs[1].Send(0, 1, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	cs[1].Close()
	expectGone(t, l, 1, "a", "b")

	forger := rawPeer(t, l, 2)
	if err := writeFrame(forger, TagGone, nil); err != nil {
		t.Fatal(err)
	}
	expectDropped(t, forger, "peer sending TagGone")
	expectGone(t, l, 2)
}

// A Send on a connection rank 0 has ended, or that Close has, returns
// ErrClosed, like a Recv on it. Rank 0's end reaches the sender as a
// reset, so the first Sends after it may still succeed.
func TestSendAfterConnectionEnds(t *testing.T) {
	l := listen(t, 2)
	c := dialAll(t, l, 2)[1]
	l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Recv(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after rank 0 closed = %v, want ErrClosed", err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		err := c.Send(0, 1, []byte("late result"))
		if err != nil {
			if err != ErrClosed {
				t.Errorf("Send after rank 0 closed = %v, want ErrClosed", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Send still succeeds 5s after rank 0 closed")
		}
	}
	c.Close()
	if err := c.Send(0, 1, nil); err != ErrClosed {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
	if err := l.Send(1, 1, nil); err != ErrClosed {
		t.Errorf("rank 0's Send after its Close = %v, want ErrClosed", err)
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

// Rank 0's Send to a rank that has not joined, or has gone, is
// dropped and returns nil, and rank 0 goes on reaching the others: a
// worker that leaves while the master still sends to it must not cut
// the master off from the rest. Nothing is kept for a late joiner.
func TestSendToAbsentRankIsDropped(t *testing.T) {
	l := listen(t, 3)
	cs := dialAll(t, l, 2)
	if err := l.Send(2, 1, []byte("early")); err != nil {
		t.Fatalf("Send to a rank that has not joined = %v, want nil", err)
	}
	c2 := dial(t, l, 2)
	expectNothing(t, c2)
	c2.Close()
	expectGone(t, l, 2)
	for i := 0; i < 3; i++ {
		if err := l.Send(2, 1, []byte("lost")); err != nil {
			t.Fatalf("Send to a gone rank = %v, want nil", err)
		}
	}
	if err := l.Send(1, 1, []byte("after")); err != nil {
		t.Fatal(err)
	}
	expect(t, cs[1], 0, "after")
}

// Rank 0 accepts connections until Close and turns away a second
// connection for a rank that has joined, and a malformed hello (one
// claiming rank 0 or a rank outside the world, one with a payload, or
// one in the frame layout before this one), without either using up a
// place or reporting a rank gone: rank 1 keeps its traffic and rank 2
// still joins afterwards. No rank joins twice.
func TestRouterTurnsAwayDuplicateRank(t *testing.T) {
	l := listen(t, 3)
	cs := dialAll(t, l, 2)
	if err := cs[1].Send(0, 1, []byte("up")); err != nil {
		t.Fatal(err)
	}
	expect(t, l, 1, "up")

	dup, err := Dial(l.Addr(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer dup.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := dup.Recv(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("second connection for rank 1: Recv = %v, want ErrClosed", err)
	}
	expectDropped(t, rawPeer(t, l, 0), "hello claiming rank 0")
	expectDropped(t, rawPeer(t, l, 7), "hello claiming rank 7 of 3")
	for what, hello := range map[string][]byte{
		"hello with a payload": frame(2, []byte("x")),
		"old-layout hello":     oldHello(2),
	} {
		conn, err := net.Dial("tcp", l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
		// Rank 0 stops reading at the old layout's bad magic, so its
		// end may reach the peer as a reset.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: read = %v, want the connection ended", what, err)
		}
	}

	if err := l.Send(1, 1, []byte("still")); err != nil {
		t.Fatal(err)
	}
	expect(t, cs[1], 0, "still")
	c2 := dial(t, l, 2)
	if err := c2.Send(0, 1, []byte("joined")); err != nil {
		t.Fatal(err)
	}
	expect(t, l, 2, "joined")
	if err := l.Send(2, 1, []byte("welcome")); err != nil {
		t.Fatal(err)
	}
	expect(t, c2, 0, "welcome")
}

// A peer that connects and never sends its hello is ended by Close
// like a joined one: its side reads EOF, and rank 0 hears of no rank
// gone.
func TestRouterCloseEndsPeerWithoutHello(t *testing.T) {
	l, err := Listen("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Close only once rank 0 serves the connection: one still in the
	// listen backlog would be reset, not ended.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		served := len(l.open)
		l.mu.Unlock()
		if served == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rank 0 never accepted the connection")
		}
	}
	l.Close()
	expectDropped(t, conn, "read after Close")
	if m, err := l.Recv(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("rank 0's Recv after Close = %+v, %v; want ErrClosed", m, err)
	}
}

// frame returns one frame as writeFrame puts it on the wire.
func frame(tag int, payload []byte) []byte {
	var b bytes.Buffer
	writeFrame(&b, tag, payload)
	return b.Bytes()
}

// oldHello is rank's hello in the frame layout before this one:
// magic 0x7061696f, from, to (-2 for a hello), tag and length.
func oldHello(rank int) []byte {
	b := binary.LittleEndian.AppendUint32(nil, 0x7061696f)
	b = binary.LittleEndian.AppendUint32(b, uint32(rank))
	b = binary.LittleEndian.AppendUint32(b, uint32(0xfffffffe))
	return binary.LittleEndian.AppendUint64(b, 0)
}

// FuzzRouterFrames feeds raw byte streams to rank 0's per-connection
// loop. Whatever a peer sends, serve must not panic or hang; a peer
// whose stream does not open with this layout's magic never joins;
// every message it puts in rank 0's mailbox is stamped with the rank
// the peer joined as, and the mailbox ends in exactly one TagGone if
// the peer joined, and holds nothing otherwise. One seed is a peer of
// the layout before this one, which never joins.
func FuzzRouterFrames(f *testing.F) {
	hello := func() []byte { return frame(1, nil) }
	badMagic := hello()
	badMagic[0] ^= 0xff
	oversize := frame(3, nil)
	binary.LittleEndian.PutUint32(oversize[8:], 1<<31)
	f.Add(append(hello(), frame(7, []byte("data"))...))
	f.Add(badMagic)
	f.Add(append(append(hello(), badMagic...), "trailing"...))
	f.Add(append(hello(), oversize...))
	f.Add(append(hello(), hello()...))
	f.Add(append(append(hello(), frame(7, nil)...), frame(TagGone, nil)...))
	f.Add(frame(1, []byte("hello with a payload")))
	f.Add(frame(0, nil))
	f.Add(frame(3, nil))
	f.Add(append(oldHello(1), oldHello(1)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		l := &Listener{size: 3, box: &mailbox{}, conns: make(map[int]net.Conn)}
		peer, conn := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			l.serve(conn)
		}()
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			peer.Write(data) // fails once rank 0 drops the peer
			peer.Close()
		}()
		for _, ch := range []chan struct{}{wrote, served} {
			select {
			case <-ch:
			case <-time.After(5 * time.Second):
				t.Fatal("rank 0 neither read the peer's bytes nor dropped it")
			}
		}
		q := l.box.pending
		if len(l.conns) == 0 {
			if len(q) != 0 {
				t.Fatalf("rank 0's mailbox holds %v from a peer that never joined", q)
			}
			return
		}
		if len(data) < 4 || binary.LittleEndian.Uint32(data) != frameMagic {
			t.Fatalf("a peer opening with % x joined", data[:min(len(data), 4)])
		}
		gone := 0
		for rank := range l.conns {
			for _, m := range q {
				if m.From != rank {
					t.Fatalf("message %+v from a peer that joined as rank %d", m, rank)
				}
				if m.Tag == TagGone {
					gone++
				}
			}
		}
		if gone != 1 || q[len(q)-1].Tag != TagGone {
			t.Fatalf("rank 0's mailbox %v does not end in the one TagGone from the joined peer", q)
		}
	})
}
