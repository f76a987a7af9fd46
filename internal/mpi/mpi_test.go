package mpi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// runWorld executes fn on every rank of an in-process world.
func runWorld(t *testing.T, size int, fn func(c Comm) error) {
	t.Helper()
	w, err := NewWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(w.Comm(r))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// runTCPWorld executes fn on every rank over the TCP transport, once
// every rank has joined. The connections close once every rank has
// returned, so no rank is gone while rank 0 still receives.
func runTCPWorld(t *testing.T, size int, fn func(c Comm) error) {
	t.Helper()
	cs := dialAll(t, listen(t, size), size)
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = fn(c)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func transports(t *testing.T) map[string]func(*testing.T, int, func(Comm) error) {
	return map[string]func(*testing.T, int, func(Comm) error){
		"inproc": runWorld,
		"tcp":    runTCPWorld,
	}
}

func TestPingPong(t *testing.T) {
	for name, run := range transports(t) {
		t.Run(name, func(t *testing.T) {
			run(t, 2, func(c Comm) error {
				if c.Rank() == 0 {
					if err := c.Send(1, 7, []byte("ping")); err != nil {
						return err
					}
					m, err := c.Recv(context.Background())
					if err != nil {
						return err
					}
					if string(m.Data) != "pong" || m.From != 1 || m.Tag != 8 {
						return fmt.Errorf("bad reply %+v", m)
					}
					return nil
				}
				m, err := c.Recv(context.Background())
				if err != nil {
					return err
				}
				if string(m.Data) != "ping" {
					return fmt.Errorf("bad ping %q", m.Data)
				}
				return c.Send(0, 8, []byte("pong"))
			})
		})
	}
}

// TestWildcardRecv: one Recv takes the next message whoever sent it,
// and every sender's message arrives exactly once with its own tag.
func TestWildcardRecv(t *testing.T) {
	for name, run := range transports(t) {
		t.Run(name, func(t *testing.T) {
			const size = 4
			run(t, size, func(c Comm) error {
				if c.Rank() == 0 {
					seen := map[int]bool{}
					for i := 1; i < size; i++ {
						m, err := c.Recv(context.Background())
						if err != nil {
							return err
						}
						if seen[m.From] {
							return fmt.Errorf("duplicate message from %d", m.From)
						}
						seen[m.From] = true
						if m.Tag != 100+m.From {
							return fmt.Errorf("tag %d from rank %d", m.Tag, m.From)
						}
					}
					return nil
				}
				return c.Send(0, 100+c.Rank(), []byte{byte(c.Rank())})
			})
		})
	}
}

func TestSelfSend(t *testing.T) {
	for name, run := range transports(t) {
		t.Run(name, func(t *testing.T) {
			run(t, 1, func(c Comm) error {
				if err := c.Send(0, 5, []byte("loop")); err != nil {
					return err
				}
				m, err := c.Recv(context.Background())
				if err != nil {
					return err
				}
				if string(m.Data) != "loop" {
					return fmt.Errorf("self send got %q", m.Data)
				}
				return nil
			})
		})
	}
}

func TestRecvAfterCloseReturnsErrClosed(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	c := w.Comm(1)
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv(context.Background())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

// Closing a rank of a world tells rank 0, after that rank's messages;
// a Send to the closed rank is dropped, and one from it fails.
func TestWorldReportsClosedRank(t *testing.T) {
	w, err := NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c0, c1 := w.Comm(0), w.Comm(1)
	for _, data := range []string{"a", "b"} {
		if err := c1.Send(0, 1, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	c1.Close()
	c1.Close()
	expectGone(t, c0, 1, "a", "b")
	if err := c0.Send(1, 1, nil); err != nil {
		t.Errorf("Send to a closed rank = %v, want nil", err)
	}
	if err := c1.Send(2, 1, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Send from a closed rank = %v, want ErrClosed", err)
	}
}

func TestSendInvalidRank(t *testing.T) {
	w, _ := NewWorld(2)
	defer w.Close()
	c := w.Comm(0)
	if err := c.Send(5, 0, nil); err == nil {
		t.Error("send to rank 5 of 2 accepted")
	}
	if err := c.Send(-1, 0, nil); err == nil {
		t.Error("send to rank -1 accepted")
	}
}

func TestWorldSizeValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Error("world of size 0 accepted")
	}
}

func TestManyMessagesStress(t *testing.T) {
	for name, run := range transports(t) {
		t.Run(name, func(t *testing.T) {
			const size = 4
			const per = 200
			run(t, size, func(c Comm) error {
				if c.Rank() == 0 {
					total := 0
					sums := map[int]int{}
					for total < (size-1)*per {
						m, err := c.Recv(context.Background())
						if err != nil {
							return err
						}
						sums[m.From] += int(m.Data[0])
						total++
					}
					for r := 1; r < size; r++ {
						want := per * r
						if sums[r] != want {
							return fmt.Errorf("rank %d sum = %d, want %d", r, sums[r], want)
						}
					}
					return nil
				}
				for i := 0; i < per; i++ {
					if err := c.Send(0, i, []byte{byte(c.Rank())}); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

func TestDialRetryWaitsForRouter(t *testing.T) {
	// Pick a concrete free port by binding and releasing it.
	probe, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	concrete := probe.Addr()
	probe.Close()

	done := make(chan error, 1)
	go func() {
		c, err := DialRetry(concrete, 1, 2, 5*time.Second)
		if err == nil {
			c.Close()
		}
		done <- err
	}()
	// Listen late; the dialer must keep retrying.
	time.Sleep(300 * time.Millisecond)
	l, err := Listen(concrete, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := <-done; err != nil {
		t.Fatalf("DialRetry failed: %v", err)
	}
}

func TestDialRetryTimesOut(t *testing.T) {
	if _, err := DialRetry("127.0.0.1:1", 1, 2, 300*time.Millisecond); err == nil {
		t.Fatal("expected timeout error")
	}
}

// pair returns ranks 0 and 1 of a two-rank world over the named
// transport, torn down with the test.
func pair(t *testing.T, transport string) (Comm, Comm) {
	t.Helper()
	if transport == "inproc" {
		w, err := NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		return w.Comm(0), w.Comm(1)
	}
	cs := dialAll(t, listen(t, 2), 2)
	return cs[0], cs[1]
}

// Rank 0's Drop ends a rank as the rank's own Close would, over both
// transports: the rank's blocked Recv returns ErrClosed, and rank 0
// hears what the rank sent, then TagGone. Another rank's Drop, and
// rank 0's of itself, do nothing.
func TestDropEndsRank(t *testing.T) {
	for _, transport := range []string{"inproc", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			c0, c1 := pair(t, transport)
			recv := recvInBackground(context.Background(), c1)
			if err := c1.Send(0, 1, []byte("last")); err != nil {
				t.Fatal(err)
			}
			expect(t, c0, 1, "last")
			c1.Drop(0)
			c0.Drop(0)
			if err := c1.Send(0, 1, []byte("still")); err != nil {
				t.Fatal(err)
			}
			expect(t, c0, 1, "still")
			c0.Drop(1)
			if err := recv(); !errors.Is(err, ErrClosed) {
				t.Fatalf("the dropped rank's Recv = %v, want ErrClosed", err)
			}
			expectGone(t, c0, 1)
		})
	}
}

// recvInBackground starts a Recv on c and returns a function that
// waits (bounded) for its error, after the caller has unblocked it.
func recvInBackground(ctx context.Context, c Comm) func() error {
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv(ctx)
		done <- err
	}()
	return func() error {
		select {
		case err := <-done:
			return err
		case <-time.After(2 * time.Second):
			return errors.New("Recv did not unblock")
		}
	}
}

// TestRecvTimeout checks that a context deadline ends a Recv with
// nothing to receive, not before the deadline, and that a message sent
// afterwards still reaches a Recv with a longer deadline.
func TestRecvTimeout(t *testing.T) {
	for name, run := range transports(t) {
		t.Run(name, func(t *testing.T) {
			run(t, 2, func(c Comm) error {
				if c.Rank() == 0 {
					// Nothing sent yet: must time out.
					ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
					defer cancel()
					start := time.Now()
					if _, err := c.Recv(ctx); !errors.Is(err, context.DeadlineExceeded) {
						return fmt.Errorf("expected DeadlineExceeded, got %v", err)
					}
					if time.Since(start) < 60*time.Millisecond {
						return fmt.Errorf("timed out too early")
					}
					// Tell the peer to send, then receive with a deadline.
					if err := c.Send(1, 1, nil); err != nil {
						return err
					}
					ctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
					defer cancel()
					m, err := c.Recv(ctx)
					if err != nil {
						return fmt.Errorf("expected message, got %v", err)
					}
					if string(m.Data) != "late" {
						return fmt.Errorf("got %q", m.Data)
					}
					return nil
				}
				if _, err := c.Recv(context.Background()); err != nil {
					return err
				}
				return c.Send(0, 99, []byte("late"))
			})
		})
	}
}

// TestRecvContext pins how a Recv stops waiting without a deadline, on
// both transports: its context's cancellation, or Close.
func TestRecvContext(t *testing.T) {
	rows := []struct {
		name string
		run  func(c0, c1 Comm) error
	}{
		{"cancel", func(c0, c1 Comm) error {
			// Cancel unblocks the Recv, and a message sent afterwards
			// goes to the next Recv rather than the abandoned one.
			ctx, cancel := context.WithCancel(context.Background())
			wait := recvInBackground(ctx, c0)
			time.Sleep(20 * time.Millisecond)
			cancel()
			if err := wait(); !errors.Is(err, context.Canceled) {
				return fmt.Errorf("cancelled Recv: err = %v, want Canceled", err)
			}
			if err := c1.Send(0, 9, []byte("after")); err != nil {
				return err
			}
			ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			m, err := c0.Recv(ctx)
			if err != nil || string(m.Data) != "after" {
				return fmt.Errorf("message sent after the cancel: %v %q", err, m.Data)
			}
			return nil
		}},
		{"close", func(c0, _ Comm) error {
			wait := recvInBackground(context.Background(), c0)
			time.Sleep(20 * time.Millisecond)
			c0.Close()
			if err := wait(); !errors.Is(err, ErrClosed) {
				return fmt.Errorf("Recv on a closed endpoint: err = %v, want ErrClosed", err)
			}
			return nil
		}},
	}
	for _, transport := range []string{"inproc", "tcp"} {
		for _, row := range rows {
			t.Run(transport+"/"+row.name, func(t *testing.T) {
				c0, c1 := pair(t, transport)
				if err := row.run(c0, c1); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestMailboxOrderAndConservationQuick(t *testing.T) {
	// Property: for any sequence of sends, receives return every
	// message exactly once, in send order — also when the sends
	// run concurrently with the receives and every other receive is
	// cancelled while it may be waiting (run it under -race).
	f := func(tags []uint8, concurrent bool) bool {
		w, err := NewWorld(2)
		if err != nil {
			return false
		}
		defer w.Close()
		c0, c1 := w.Comm(0), w.Comm(1)
		sent := make(chan error, 1)
		send := func() {
			for i, tg := range tags {
				if err := c0.Send(1, int(tg), []byte{byte(i)}); err != nil {
					sent <- err
					return
				}
			}
			sent <- nil
		}
		if concurrent {
			go send()
		} else {
			send()
		}
		for i, got := 0, 0; got < len(tags); i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if concurrent && i%2 == 0 {
				go cancel() // races the Recv below
			}
			m, err := c1.Recv(ctx)
			cancel()
			if errors.Is(err, context.Canceled) {
				continue
			}
			if err != nil || int(m.Data[0]) != got || m.Tag != int(tags[got]) {
				return false
			}
			got++
		}
		return <-sent == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
