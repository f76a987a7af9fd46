// Package mpi is a small message-passing substrate in the spirit of
// the MPI subset mpiBLAST uses: ranked processes and tagged point-to-
// point Send/Recv of byte payloads, where a rank receives its messages
// in the order they arrive and dispatches on each one's sender and tag.
// The transport carries bytes only: how a payload is laid out is its
// sender's and receiver's business, as an MPI application describes
// its own message layout. Two transports
// are provided: an in-process one (goroutines and channels) and a TCP
// one (rank 0 listens, the others dial it), so the parallel BLAST code
// runs unchanged in one process or across many. Both tell rank 0 when another rank is
// gone, with a TagGone message after that rank's last one.
package mpi

import (
	"context"
	"errors"
	"sync"
)

// ErrClosed is returned by operations on a closed communicator.
var ErrClosed = errors.New("mpi: communicator closed")

// TagGone tags the message the transport delivers to rank 0, after
// every other from rank From, once From's endpoint is closed or its
// connection has ended. Only the transport sends it.
const TagGone = -1

// Message is a received message with its envelope.
type Message struct {
	From int
	Tag  int
	Data []byte
}

// Comm is a communicator endpoint bound to one rank.
type Comm interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks.
	Size() int
	// Send delivers data to rank to with the given tag. It may block
	// until the transport accepts the message but does not wait for a
	// Recv.
	Send(to, tag int, data []byte) error
	// Recv blocks until the rank's next message arrives or ctx is done,
	// returning ctx.Err() in the latter case; a message is never lost
	// to a cancelled Recv. Messages come out in arrival order, and
	// those from one sender in the order it sent them.
	Recv(ctx context.Context) (Message, error)
	// Close shuts the endpoint down; blocked Recvs return ErrClosed,
	// and rank 0 receives TagGone from this rank.
	Close() error
	// Drop, on rank 0, ends rank's endpoint as the rank's own Close
	// would, TagGone included. On any other rank it does nothing.
	Drop(rank int)
}

// mailbox is the FIFO receive queue both transports share. A message
// leaves the queue only when a receive returns it, so a receive that
// gives up when its context ends (a worker told to leave, a master's
// bounded wait for its workers' last words) cannot take one with it.
type mailbox struct {
	mu      sync.Mutex
	pending []Message
	arrived chan struct{} // closed by the next put or close; nil until a get waits
	closed  bool
}

func (mb *mailbox) put(m Message) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return ErrClosed
	}
	mb.pending = append(mb.pending, m)
	mb.wake()
	return nil
}

// wake releases every waiting get; the caller holds mu.
func (mb *mailbox) wake() {
	if mb.arrived != nil {
		close(mb.arrived)
		mb.arrived = nil
	}
}

// get receives the next message, waiting until one arrives, ctx is
// done or the mailbox closes. A context that can never be cancelled has
// a nil Done channel, so the select then blocks on arrivals alone.
func (mb *mailbox) get(ctx context.Context) (Message, error) {
	for {
		mb.mu.Lock()
		if len(mb.pending) > 0 {
			m := mb.pending[0]
			mb.pending[0] = Message{}
			mb.pending = mb.pending[1:]
			mb.mu.Unlock()
			return m, nil
		}
		if mb.closed {
			mb.mu.Unlock()
			return Message{}, ErrClosed
		}
		if mb.arrived == nil {
			mb.arrived = make(chan struct{})
		}
		arrived := mb.arrived
		mb.mu.Unlock()
		select {
		case <-arrived:
		case <-ctx.Done():
			return Message{}, ctx.Err()
		}
	}
}

// close shuts the mailbox and reports whether it was open.
func (mb *mailbox) close() bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	was := !mb.closed
	mb.closed = true
	mb.wake()
	return was
}
