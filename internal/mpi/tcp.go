package mpi

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
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
		conns:   make(map[int]net.Conn),
		wmus:    make(map[int]*sync.Mutex),
		pending: make(map[int][]pendingFrame),
	}
	go r.acceptLoop()
	return r, nil
}

// Addr returns the router's listen address for clients to dial.
func (r *Router) Addr() string { return r.ln.Addr().String() }

func (r *Router) acceptLoop() {
	for i := 0; i < r.size; i++ {
		conn, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go r.serve(conn)
	}
}

func (r *Router) serve(conn net.Conn) {
	// First frame must be the hello announcing the client's rank.
	from, to, _, _, err := readFrame(conn)
	if err != nil || to != helloTo || from < 0 || from >= r.size {
		conn.Close()
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
		r.mu.Unlock()
		conn.Close()
		return
	}
	r.conns[rank] = conn
	r.wmus[rank] = wmu
	queued := r.pending[rank]
	delete(r.pending, rank)
	r.mu.Unlock()
	for _, pf := range queued {
		if err = writeFrame(conn, pf.from, rank, pf.tag, pf.payload); err != nil {
			break
		}
	}
	wmu.Unlock()
	if err != nil {
		return
	}
	for {
		_, to, tag, payload, err := readFrame(conn)
		if err != nil || to < 0 || to >= r.size {
			// Drop a peer whose stream is unreadable, or that addresses a
			// rank that can never connect (queued, the frame would hold
			// router memory forever).
			conn.Close()
			return
		}
		// Forward under the connection's own rank, never the sender's
		// claim, so no rank can impersonate another.
		r.mu.Lock()
		dst, ok := r.conns[to]
		if !ok {
			// Destination not yet connected: queue the frame.
			r.pending[to] = append(r.pending[to], pendingFrame{from: rank, tag: tag, payload: payload})
			r.mu.Unlock()
			continue
		}
		dmu := r.wmus[to]
		r.mu.Unlock()
		dmu.Lock()
		err = writeFrame(dst, rank, to, tag, payload)
		dmu.Unlock()
		if err != nil {
			return
		}
	}
}

// Close shuts the router down.
func (r *Router) Close() error {
	err := r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
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
	c := &tcpComm{rank: rank, size: size, conn: conn, box: newMailbox()}
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
	return writeFrame(c.conn, c.rank, to, tag, data)
}

func (c *tcpComm) Recv(ctx context.Context, from, tag int) (Message, error) {
	return c.box.get(ctx, from, tag)
}

func (c *tcpComm) Close() error {
	var err error
	c.closeOnce.Do(func() {
		c.box.close()
		err = c.conn.Close()
	})
	return err
}

// DialRetry dials the router, retrying until it accepts or the
// timeout elapses — workers in a distributed job typically start
// before the master has brought the router up.
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
		time.Sleep(100 * time.Millisecond)
	}
}
