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

// TCP transport: rank 0 listens and every other rank dials it, so a
// worker talks to the master alone, as mpiBLAST's workers do. Rank 0
// puts each connection's frames straight into its own mailbox and
// writes its sends on the destination's connection; no frame is
// forwarded. LAM and MPICH, in the paper's era, let any two ranks of a
// job talk; mpiBLAST used only the master-worker links, which are all
// this transport provides.
//
// Wire frame: magic(4) tag(4) len(4) payload(len), all little-endian.
// A connection opens with a hello, a frame whose tag is the dialling
// rank and whose payload is empty: the one frame that names a rank.
// The magic differs from that of the layout with from and to fields,
// so rank 0 turns away a peer that still speaks it.
const frameMagic = 0x3269706d // "mpi2" in little-endian byte order

func writeFrame(w io.Writer, tag int, payload []byte) error {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readFrame(r io.Reader) (tag int, payload []byte, err error) {
	var hdr [12]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != frameMagic {
		err = fmt.Errorf("mpi: bad frame magic")
		return
	}
	tag = int(int32(binary.LittleEndian.Uint32(hdr[4:])))
	n := int(binary.LittleEndian.Uint32(hdr[8:]))
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

// Listener is rank 0's endpoint over TCP: the Comm that accepts ranks
// 1..size-1 on its address. Each connection's frames go into rank 0's
// mailbox stamped with the connection's rank, and the connection's end
// puts that rank's TagGone after them.
type Listener struct {
	ln   net.Listener
	size int
	box  *mailbox
	wmu  sync.Mutex // one Send writes at a time

	mu      sync.Mutex
	closing bool
	open    map[net.Conn]struct{} // every connection being served, hello or not
	conns   map[int]net.Conn      // every rank that joined; nil once its connection ended
}

// Listen listens on addr (e.g. "127.0.0.1:0") as rank 0 of size ranks.
// It returns at once; the other ranks may dial at any time afterwards.
func Listen(addr string, size int) (*Listener, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: world size %d < 1", size)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &Listener{ln: ln, size: size, box: &mailbox{}, open: make(map[net.Conn]struct{}), conns: make(map[int]net.Conn)}
	go l.acceptLoop()
	return l, nil
}

// Addr returns the address the other ranks dial.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

func (l *Listener) Rank() int { return 0 }
func (l *Listener) Size() int { return l.size }

// acceptLoop serves every connection until Close, holding each in open
// while it is served, so that Close ends a peer that never sends its
// hello too.
func (l *Listener) acceptLoop() {
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		l.mu.Lock()
		if l.closing {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.open[conn] = struct{}{}
		l.mu.Unlock()
		go func() {
			l.serve(conn)
			l.mu.Lock()
			delete(l.open, conn)
			l.mu.Unlock()
		}()
	}
}

// serve reads one peer's frames into rank 0's mailbox. A malformed
// hello (one with a payload, or naming rank 0 or a rank outside the
// world) and a second connection for a rank that has joined are turned
// away, so a stray dial cannot use up a rank's place.
func (l *Listener) serve(conn net.Conn) {
	defer conn.Close()
	rank, hello, err := readFrame(conn)
	if err != nil || len(hello) > 0 || rank < 1 || rank >= l.size {
		return
	}
	l.mu.Lock()
	if _, dup := l.conns[rank]; dup {
		// A rank joins once: it is never replaced, even after its
		// connection ends.
		l.mu.Unlock()
		return
	}
	l.conns[rank] = conn
	l.mu.Unlock()
	defer func() {
		// However the connection ends, after its frames. Once Close
		// has closed the mailbox, the put reports nothing.
		l.mu.Lock()
		l.conns[rank] = nil
		l.mu.Unlock()
		l.box.put(Message{From: rank, Tag: TagGone})
	}()
	for {
		tag, payload, err := readFrame(conn)
		if err != nil || tag == TagGone {
			// Drop a peer whose stream is unreadable, or that claims a
			// departure only the transport reports.
			return
		}
		// Stamp the rank the connection's hello named: no frame
		// names a sender.
		if l.box.put(Message{From: rank, Tag: tag, Data: payload}) != nil {
			return // closed
		}
	}
}

// Send writes data on rank to's connection. A frame for a rank that
// has not joined or has gone is dropped, as World drops one for a
// closed rank; a failed write ends that rank's connection, so the rank
// is reported gone and rank 0 goes on with the others.
func (l *Listener) Send(to, tag int, data []byte) error {
	if to < 0 || to >= l.size {
		return fmt.Errorf("mpi: send to invalid rank %d", to)
	}
	if to == 0 {
		return l.box.put(Message{From: 0, Tag: tag, Data: append([]byte(nil), data...)})
	}
	l.mu.Lock()
	conn, closing := l.conns[to], l.closing
	l.mu.Unlock()
	if closing {
		return ErrClosed
	}
	if conn == nil {
		return nil
	}
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if writeFrame(conn, tag, data) != nil {
		conn.Close()
	}
	return nil
}

func (l *Listener) Recv(ctx context.Context) (Message, error) { return l.box.get(ctx) }

// Drop ends rank's connection, if it has one: the rank reads the end
// as its own Close, and serve reports it gone after its last frame.
func (l *Listener) Drop(rank int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if conn := l.conns[rank]; conn != nil {
		conn.Close()
	}
}

// Close stops listening and ends every connection, joined or not: that
// is each other rank's end signal. It reports no rank gone.
func (l *Listener) Close() error {
	err := l.ln.Close()
	l.mu.Lock()
	l.closing = true
	l.box.close()
	for c := range l.open {
		c.Close()
	}
	l.mu.Unlock()
	return err
}

// tcpComm is the Comm of a rank other than 0: its connection to rank 0.
type tcpComm struct {
	rank, size int
	conn       net.Conn
	box        *mailbox
	wmu        sync.Mutex
	closeOnce  sync.Once
}

// Dial connects rank, one of 1..size-1, to rank 0 listening at addr.
// It returns once the connection is established; rank 0 drops what it
// sends a rank before that rank's hello has arrived.
func Dial(addr string, rank, size int) (Comm, error) {
	if rank < 1 || rank >= size {
		return nil, fmt.Errorf("mpi: rank %d out of range [1,%d): rank 0 listens", rank, size)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &tcpComm{rank: rank, size: size, conn: conn, box: &mailbox{}}
	if err := writeFrame(conn, rank, nil); err != nil {
		conn.Close()
		return nil, err
	}
	go c.readLoop()
	return c, nil
}

func (c *tcpComm) readLoop() {
	for {
		tag, payload, err := readFrame(c.conn)
		if err != nil {
			c.box.close()
			return
		}
		c.box.put(Message{From: 0, Tag: tag, Data: payload})
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
	if to != 0 {
		return fmt.Errorf("mpi: rank %d is connected to rank 0 only, not to rank %d", c.rank, to)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	err := writeFrame(c.conn, tag, data)
	// A write fails with a broken pipe or a reset once rank 0 has
	// ended the connection, and with net.ErrClosed once Close has: the
	// communicator is closed, as a Recv would find it.
	if errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	return err
}

func (c *tcpComm) Recv(ctx context.Context) (Message, error) { return c.box.get(ctx) }

func (c *tcpComm) Drop(int) {}

func (c *tcpComm) Close() error {
	var err error
	c.closeOnce.Do(func() {
		c.box.close()
		err = c.conn.Close()
	})
	return err
}

// DialRetry dials rank 0 every 10 ms until it accepts or the timeout
// elapses: workers in a distributed job typically start before the
// master listens, and a small job's master may listen for less than
// 100 ms.
func DialRetry(addr string, rank, size int, timeout time.Duration) (Comm, error) {
	deadline := time.Now().Add(timeout)
	for {
		c, err := Dial(addr, rank, size)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("mpi: rank 0 at %s not reachable within %v: %w", addr, timeout, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
