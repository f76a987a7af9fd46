package mpi

import (
	"context"
	"fmt"
	"sync"
)

// World is the in-process transport: size communicators sharing
// message queues in one address space. It is the transport the tests,
// in-process searches and the traced Figure 4 runs use.
type World struct {
	// mu is held by every close of a mailbox and shared by every Send,
	// which reads its own mailbox's closed flag under it; so a rank's
	// TagGone follows each message it sent.
	mu    sync.RWMutex
	boxes []*mailbox
}

// NewWorld creates an in-process world with size ranks.
func NewWorld(size int) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: world size %d < 1", size)
	}
	w := &World{boxes: make([]*mailbox, size)}
	for i := range w.boxes {
		w.boxes[i] = &mailbox{}
	}
	return w, nil
}

// Comm returns the communicator endpoint for rank.
func (w *World) Comm(rank int) Comm {
	if rank < 0 || rank >= len(w.boxes) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, len(w.boxes)))
	}
	return &inprocComm{world: w, rank: rank}
}

// Close shuts down every rank's mailbox. It reports no rank as gone.
func (w *World) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, mb := range w.boxes {
		mb.close()
	}
}

type inprocComm struct {
	world *World
	rank  int
}

func (c *inprocComm) Rank() int { return c.rank }
func (c *inprocComm) Size() int { return len(c.world.boxes) }

func (c *inprocComm) Send(to, tag int, data []byte) error {
	if to < 0 || to >= c.Size() {
		return fmt.Errorf("mpi: send to invalid rank %d", to)
	}
	c.world.mu.RLock()
	defer c.world.mu.RUnlock()
	if c.world.boxes[c.rank].closed {
		return ErrClosed
	}
	// Copy so the sender may reuse its buffer, matching the TCP
	// transport's semantics. A message for a closed endpoint is
	// dropped, as rank 0's Listener drops a frame for a gone rank.
	c.world.boxes[to].put(Message{From: c.rank, Tag: tag, Data: append([]byte(nil), data...)})
	return nil
}

func (c *inprocComm) Recv(ctx context.Context) (Message, error) {
	return c.world.boxes[c.rank].get(ctx)
}

// Drop closes rank's mailbox for it.
func (c *inprocComm) Drop(rank int) {
	if c.rank == 0 && rank > 0 && rank < c.Size() {
		(&inprocComm{world: c.world, rank: rank}).Close()
	}
}

// Close shuts this rank's mailbox; the first Close of a rank other
// than 0 tells rank 0 it is gone.
func (c *inprocComm) Close() error {
	c.world.mu.Lock()
	defer c.world.mu.Unlock()
	if c.world.boxes[c.rank].close() && c.rank != 0 {
		c.world.boxes[0].put(Message{From: c.rank, Tag: TagGone})
	}
	return nil
}
