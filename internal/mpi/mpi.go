// Package mpi is a small message-passing substrate in the spirit of
// the MPI subset mpiBLAST uses: ranked processes and tagged point-to-
// point Send/Recv with wildcard matching. Two transports are provided:
// an in-process one (goroutines and channels) and a TCP one (router
// process), so the parallel BLAST code runs unchanged in one process or
// across many.
package mpi

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
)

// Wildcards for Recv matching.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag = -1
)

// ErrClosed is returned by operations on a closed communicator.
var ErrClosed = errors.New("mpi: communicator closed")

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
	// matching Recv.
	Send(to, tag int, data []byte) error
	// Recv blocks until a message matching (from, tag) arrives or ctx
	// is done, returning ctx.Err() in the latter case; a message is
	// never lost to a cancelled Recv. AnySource / AnyTag act as
	// wildcards.
	Recv(ctx context.Context, from, tag int) (Message, error)
	// Close shuts the endpoint down; blocked Recvs return ErrClosed.
	Close() error
}

// mailbox implements wildcard-matched receive queues shared by both
// transports. Waiters register matching channels so a receive can give
// up when its context ends (a fault-tolerant master's overdue tick, a
// worker told to leave).
type mailbox struct {
	mu      sync.Mutex
	pending []Message
	waiters []*waiter
	closed  bool
}

type waiter struct {
	from, tag int
	ch        chan Message // buffered(1); closed when the mailbox closes
}

func newMailbox() *mailbox { return &mailbox{} }

func envelopeMatches(from, tag int, m Message) bool {
	return (from == AnySource || m.From == from) && (tag == AnyTag || m.Tag == tag)
}

func (mb *mailbox) put(m Message) error {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		return ErrClosed
	}
	for i, w := range mb.waiters {
		if envelopeMatches(w.from, w.tag, m) {
			mb.waiters = append(mb.waiters[:i], mb.waiters[i+1:]...)
			mb.mu.Unlock()
			w.ch <- m // buffered: never blocks
			return nil
		}
	}
	mb.pending = append(mb.pending, m)
	mb.mu.Unlock()
	return nil
}

// get receives a matching message, waiting until one arrives, ctx is
// done or the mailbox closes. A context that can never be cancelled has
// a nil Done channel, so the select then blocks on the waiter alone.
func (mb *mailbox) get(ctx context.Context, from, tag int) (Message, error) {
	mb.mu.Lock()
	for i, pm := range mb.pending {
		if envelopeMatches(from, tag, pm) {
			mb.pending = append(mb.pending[:i], mb.pending[i+1:]...)
			mb.mu.Unlock()
			return pm, nil
		}
	}
	if mb.closed {
		mb.mu.Unlock()
		return Message{}, ErrClosed
	}
	w := &waiter{from: from, tag: tag, ch: make(chan Message, 1)}
	mb.waiters = append(mb.waiters, w)
	mb.mu.Unlock()

	select {
	case m, ok := <-w.ch:
		return delivered(m, ok)
	case <-ctx.Done():
	}
	mb.mu.Lock()
	for i, x := range mb.waiters {
		if x == w {
			mb.waiters = append(mb.waiters[:i], mb.waiters[i+1:]...)
			mb.mu.Unlock()
			return Message{}, ctx.Err()
		}
	}
	mb.mu.Unlock()
	// The waiter was already removed: either a put delivered a message
	// or close closed the channel; the buffered channel resolves which.
	m, ok := <-w.ch
	return delivered(m, ok)
}

// delivered interprets a receive from a waiter channel, which is closed
// only when the mailbox closes.
func delivered(m Message, ok bool) (Message, error) {
	if !ok {
		return Message{}, ErrClosed
	}
	return m, nil
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	ws := mb.waiters
	mb.waiters = nil
	mb.mu.Unlock()
	for _, w := range ws {
		close(w.ch)
	}
}

// SendGob gob-encodes v and sends it.
func SendGob(c Comm, to, tag int, v interface{}) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("mpi: encoding: %w", err)
	}
	return c.Send(to, tag, buf.Bytes())
}

// RecvGob receives a matching message and gob-decodes it into v,
// returning the envelope.
func RecvGob(ctx context.Context, c Comm, from, tag int, v interface{}) (Message, error) {
	m, err := c.Recv(ctx, from, tag)
	if err != nil {
		return m, err
	}
	if err := gob.NewDecoder(bytes.NewReader(m.Data)).Decode(v); err != nil {
		return m, fmt.Errorf("mpi: decoding: %w", err)
	}
	return m, nil
}
