package mpi

import (
	"context"
	"fmt"
)

// World is the in-process transport: size communicators sharing
// message queues in one address space. It is the transport the tests,
// in-process searches and the traced Figure 4 runs use.
type World struct {
	boxes []*mailbox
}

// NewWorld creates an in-process world with size ranks.
func NewWorld(size int) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: world size %d < 1", size)
	}
	w := &World{boxes: make([]*mailbox, size)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
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

// Close shuts down every rank's mailbox.
func (w *World) Close() {
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
	// Copy so the sender may reuse its buffer, matching the TCP
	// transport's semantics.
	return c.world.boxes[to].put(Message{From: c.rank, Tag: tag, Data: append([]byte(nil), data...)})
}

func (c *inprocComm) Recv(ctx context.Context, from, tag int) (Message, error) {
	return c.world.boxes[c.rank].get(ctx, from, tag)
}

func (c *inprocComm) Close() error {
	c.world.boxes[c.rank].close()
	return nil
}
