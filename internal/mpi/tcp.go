package mpi

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"
)

// TCP transport: a router process accepts one connection per rank and
// forwards tagged frames between them. This mirrors how a LAM/MPICH
// job of the paper's era multiplexed messages over the interconnect.
//
// Wire frame: magic(4) from(4) to(4) tag(4) len(4) payload(len),
// all little-endian. A hello frame (to == helloTo) announces a
// client's rank after connecting.

const (
	frameMagic = 0x7061696f // "paio"
	helloTo    = -2
)

func writeFrame(w io.Writer, from, to, tag int, payload []byte) error {
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(int32(from)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(int32(to)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readFrame(r io.Reader) (from, to, tag int, payload []byte, err error) {
	var hdr [20]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != frameMagic {
		err = fmt.Errorf("mpi: bad frame magic")
		return
	}
	from = int(int32(binary.LittleEndian.Uint32(hdr[4:])))
	to = int(int32(binary.LittleEndian.Uint32(hdr[8:])))
	tag = int(int32(binary.LittleEndian.Uint32(hdr[12:])))
	n := int(binary.LittleEndian.Uint32(hdr[16:]))
	if n > 1<<30 {
		err = fmt.Errorf("mpi: frame of %d bytes exceeds limit", n)
		return
	}
	// Grow the payload as its bytes arrive instead of trusting the
	// header: a peer that claims a 1 GiB frame has to send one.
	for len(payload) < n {
		k := min(n-len(payload), 1<<20)
		payload = append(payload, make([]byte, k)...)
		if _, err = io.ReadFull(r, payload[len(payload)-k:]); err != nil {
			return
		}
	}
	return
}

// Router forwards frames between rank connections.
type Router struct {
	ln      net.Listener
	size    int
	mu      sync.Mutex
	closing bool
	open    map[net.Conn]struct{} // every connection being served, hello or not
	conns   map[int]net.Conn
	wmus    map[int]*sync.Mutex
	pending map[int][]pendingFrame // frames for ranks that have not connected yet
}

type pendingFrame struct {
	from, tag int
	payload   []byte
}

// StartRouter listens on addr (e.g. "127.0.0.1:0") for size ranks and
// begins forwarding. It returns immediately; clients may connect at
// any time afterwards.
func StartRouter(addr string, size int) (*Router, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: router size %d < 1", size)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	r := &Router{
		ln:      ln,
		size:    size,
		open:    make(map[net.Conn]struct{}),
		conns:   make(map[int]net.Conn),
		wmus:    make(map[int]*sync.Mutex),
		pending: make(map[int][]pendingFrame),
	}
	go r.acceptLoop()
	return r, nil
}

// Addr returns the router's listen address for clients to dial.
func (r *Router) Addr() string { return r.ln.Addr().String() }

// acceptLoop serves every connection until Close, holding each in open
// while it is served, so that Close ends a peer that never sends its
// hello too. serve turns away a malformed hello and a second
// connection for a rank that has joined, so a stray dial cannot use up
// a rank's place.
func (r *Router) acceptLoop() {
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		r.mu.Lock()
		if r.closing {
			r.mu.Unlock()
			conn.Close()
			return
		}
		r.open[conn] = struct{}{}
		r.mu.Unlock()
		go func() {
			r.serve(conn)
			r.mu.Lock()
			delete(r.open, conn)
			r.mu.Unlock()
		}()
	}
}

func (r *Router) serve(conn net.Conn) {
	defer conn.Close()
	// First frame must be the hello announcing the client's rank.
	from, to, _, _, err := readFrame(conn)
	if err != nil || to != helloTo || from < 0 || from >= r.size {
		return
	}
	rank := from
	// Hold the rank's write lock from before it is published until the
	// queued frames are flushed, so a frame forwarded directly cannot
	// overtake an earlier queued one from the same sender.
	wmu := &sync.Mutex{}
	wmu.Lock()
	r.mu.Lock()
	if _, dup := r.conns[rank]; dup {
		// A rank joins once: it is never replaced, even after its
		// connection ends.
		r.mu.Unlock()
		return
	}
	r.conns[rank] = conn
	r.wmus[rank] = wmu
	queued := r.pending[rank]
	delete(r.pending, rank)
	r.mu.Unlock()
	if rank != 0 {
		defer r.forward(rank, 0, TagGone, nil) // however the connection ends, after its frames
	}
	for _, pf := range queued {
		writeFrame(conn, pf.from, rank, pf.tag, pf.payload) // a broken conn fails the read below
	}
	wmu.Unlock()
	for {
		_, to, tag, payload, err := readFrame(conn)
		if err != nil || to < 0 || to >= r.size || tag == TagGone {
			// Drop a peer whose stream is unreadable, that addresses a
			// rank that can never connect (queued, the frame would hold
			// router memory forever), or that claims a departure only
			// the router reports.
			return
		}
		// Forward under the connection's own rank, never the sender's
		// claim, so no rank can impersonate another.
		r.forward(rank, to, tag, payload)
	}
}

// forward delivers a frame from rank from to rank to, or queues it
// until to joins. A destination that has gone loses the frame, but the
// sender keeps being served: its frames to other ranks still matter.
// Once Close has begun, frames are dropped.
func (r *Router) forward(from, to, tag int, payload []byte) {
	r.mu.Lock()
	if r.closing {
		r.mu.Unlock()
		return
	}
	dst, ok := r.conns[to]
	if !ok {
		r.pending[to] = append(r.pending[to], pendingFrame{from: from, tag: tag, payload: payload})
		r.mu.Unlock()
		return
	}
	dmu := r.wmus[to]
	r.mu.Unlock()
	dmu.Lock()
	writeFrame(dst, from, to, tag, payload)
	dmu.Unlock()
}

// Close shuts the router down without reporting any rank gone.
func (r *Router) Close() error {
	err := r.ln.Close()
	r.mu.Lock()
	r.closing = true
	for c := range r.open {
		c.Close()
	}
	r.mu.Unlock()
	return err
}

// tcpComm is a Comm over a router connection.
type tcpComm struct {
	rank, size int
	conn       net.Conn
	box        *mailbox
	wmu        sync.Mutex
	closeOnce  sync.Once
}

// Dial connects rank to the router at addr in a world of size ranks.
// It returns once the connection is established; frames sent to a rank
// that has not connected yet wait at the router.
func Dial(addr string, rank, size int) (Comm, error) {
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("mpi: rank %d out of range [0,%d)", rank, size)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &tcpComm{rank: rank, size: size, conn: conn, box: &mailbox{}}
	if err := writeFrame(conn, rank, helloTo, 0, nil); err != nil {
		conn.Close()
		return nil, err
	}
	go c.readLoop()
	return c, nil
}

func (c *tcpComm) readLoop() {
	for {
		from, _, tag, payload, err := readFrame(c.conn)
		if err != nil {
			c.box.close()
			return
		}
		c.box.put(Message{From: from, Tag: tag, Data: payload})
	}
}

func (c *tcpComm) Rank() int { return c.rank }
func (c *tcpComm) Size() int { return c.size }

func (c *tcpComm) Send(to, tag int, data []byte) error {
	if to < 0 || to >= c.size {
		return fmt.Errorf("mpi: send to invalid rank %d", to)
	}
	if to == c.rank {
		// Loopback without a network round trip.
		return c.box.put(Message{From: c.rank, Tag: tag, Data: append([]byte(nil), data...)})
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	err := writeFrame(c.conn, c.rank, to, tag, data)
	// A write fails with a broken pipe or a reset once the router has
	// ended the connection, and with net.ErrClosed once Close has: the
	// communicator is closed, as a Recv would find it.
	if errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	return err
}

func (c *tcpComm) Recv(ctx context.Context) (Message, error) {
	return c.box.get(ctx)
}

func (c *tcpComm) Close() error {
	var err error
	c.closeOnce.Do(func() {
		c.box.close()
		err = c.conn.Close()
	})
	return err
}

// DialRetry dials the router every 10 ms until it accepts or the
// timeout elapses: workers in a distributed job typically start before
// the master has brought the router up, and a small job's router may
// live for less than 100 ms.
func DialRetry(addr string, rank, size int, timeout time.Duration) (Comm, error) {
	deadline := time.Now().Add(timeout)
	for {
		c, err := Dial(addr, rank, size)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("mpi: router %s not reachable within %v: %w", addr, timeout, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
