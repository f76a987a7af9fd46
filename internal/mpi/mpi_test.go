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

// runTCPWorld executes fn on every rank over the TCP transport.
func runTCPWorld(t *testing.T, size int, fn func(c Comm) error) {
	t.Helper()
	router, err := StartRouter("127.0.0.1:0", size)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := Dial(router.Addr(), r, size)
			if err != nil {
				errs[r] = err
				return
			}
			defer c.Close()
			errs[r] = fn(c)
		}(r)
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
					m, err := c.Recv(context.Background(), 1, 8)
					if err != nil {
						return err
					}
					if string(m.Data) != "pong" || m.From != 1 || m.Tag != 8 {
						return fmt.Errorf("bad reply %+v", m)
					}
					return nil
				}
				m, err := c.Recv(context.Background(), 0, 7)
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

func TestWildcardRecv(t *testing.T) {
	for name, run := range transports(t) {
		t.Run(name, func(t *testing.T) {
			const size = 4
			run(t, size, func(c Comm) error {
				if c.Rank() == 0 {
					seen := map[int]bool{}
					for i := 1; i < size; i++ {
						m, err := c.Recv(context.Background(), AnySource, AnyTag)
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

func TestTagMatching(t *testing.T) {
	for name, run := range transports(t) {
		t.Run(name, func(t *testing.T) {
			run(t, 2, func(c Comm) error {
				if c.Rank() == 0 {
					// Send tag 2 first, then tag 1; receiver asks for
					// tag 1 first and must still get both correctly.
					if err := c.Send(1, 2, []byte("two")); err != nil {
						return err
					}
					return c.Send(1, 1, []byte("one"))
				}
				m1, err := c.Recv(context.Background(), 0, 1)
				if err != nil {
					return err
				}
				if string(m1.Data) != "one" {
					return fmt.Errorf("tag 1 got %q", m1.Data)
				}
				m2, err := c.Recv(context.Background(), 0, 2)
				if err != nil {
					return err
				}
				if string(m2.Data) != "two" {
					return fmt.Errorf("tag 2 got %q", m2.Data)
				}
				return nil
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
				m, err := c.Recv(context.Background(), 0, 5)
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

func TestGobRoundTrip(t *testing.T) {
	type task struct {
		ID    int
		Files []string
	}
	runWorld(t, 2, func(c Comm) error {
		if c.Rank() == 0 {
			return SendGob(c, 1, 3, task{ID: 42, Files: []string{"a", "b"}})
		}
		var got task
		if _, err := RecvGob(context.Background(), c, 0, 3, &got); err != nil {
			return err
		}
		if got.ID != 42 || len(got.Files) != 2 || got.Files[1] != "b" {
			return fmt.Errorf("gob round trip: %+v", got)
		}
		return nil
	})
}

func TestRecvAfterCloseReturnsErrClosed(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	c := w.Comm(1)
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv(context.Background(), AnySource, AnyTag)
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

func TestTCPEarlySendBeforePeerConnects(t *testing.T) {
	// Rank 0 connects and sends immediately; rank 1 connects late.
	// The router must queue the frame.
	router, err := StartRouter("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	c0, err := Dial(router.Addr(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	if err := c0.Send(1, 9, []byte("early")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	c1, err := Dial(router.Addr(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	m, err := c1.Recv(context.Background(), 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Data) != "early" {
		t.Errorf("got %q", m.Data)
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
						m, err := c.Recv(context.Background(), AnySource, AnyTag)
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
	addr := "127.0.0.1:0"
	// Pick a concrete free port by binding and releasing it.
	probe, err := StartRouter(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	concrete := probe.Addr()
	probe.Close()

	done := make(chan error, 1)
	go func() {
		c, err := DialRetry(concrete, 0, 2, 5*time.Second)
		if err == nil {
			c.Close()
		}
		done <- err
	}()
	// Start the router late; the dialer must keep retrying.
	time.Sleep(300 * time.Millisecond)
	router, err := StartRouter(concrete, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if err := <-done; err != nil {
		t.Fatalf("DialRetry failed: %v", err)
	}
}

func TestDialRetryTimesOut(t *testing.T) {
	if _, err := DialRetry("127.0.0.1:1", 0, 2, 300*time.Millisecond); err == nil {
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
	router, err := StartRouter("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	var cs [2]Comm
	for r := range cs {
		c, err := Dial(router.Addr(), r, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		cs[r] = c
	}
	return cs[0], cs[1]
}

// recvInBackground starts a Recv on c and returns a function that
// waits (bounded) for its error, after the caller has unblocked it.
func recvInBackground(ctx context.Context, c Comm) func() error {
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv(ctx, AnySource, AnyTag)
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
// nothing to match, not before the deadline, and that a message sent
// afterwards still reaches a Recv with a longer deadline.
func TestRecvTimeout(t *testing.T) {
	for name, run := range transports(t) {
		t.Run(name, func(t *testing.T) {
			run(t, 2, func(c Comm) error {
				if c.Rank() == 0 {
					// Nothing matching tag 99 yet: must time out.
					ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
					defer cancel()
					start := time.Now()
					if _, err := c.Recv(ctx, AnySource, 99); !errors.Is(err, context.DeadlineExceeded) {
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
					m, err := c.Recv(ctx, 1, 99)
					if err != nil {
						return fmt.Errorf("expected message, got %v", err)
					}
					if string(m.Data) != "late" {
						return fmt.Errorf("got %q", m.Data)
					}
					return nil
				}
				if _, err := c.Recv(context.Background(), 0, 1); err != nil {
					return err
				}
				return c.Send(0, 99, []byte("late"))
			})
		})
	}
}

func TestRecvTimeoutDoesNotStealMismatched(t *testing.T) {
	for _, transport := range []string{"inproc", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			c0, c1 := pair(t, transport)
			if err := c1.Send(0, 5, []byte("keep")); err != nil {
				t.Fatal(err)
			}
			// Waiting for tag 6 must not consume the tag-5 message.
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			if _, err := c0.Recv(ctx, AnySource, 6); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("tag 6 wait: err = %v, want DeadlineExceeded", err)
			}
			m, err := c0.Recv(context.Background(), AnySource, 5)
			if err != nil || string(m.Data) != "keep" {
				t.Fatalf("tag 5 message lost: %v %q", err, m.Data)
			}
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
			m, err := c0.Recv(ctx, AnySource, AnyTag)
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
	// Property: for any sequence of sends, wildcard receives return
	// every message exactly once, in send order — also when the sends
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
			m, err := c1.Recv(ctx, AnySource, AnyTag)
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

func TestMailboxSelectiveRecvQuick(t *testing.T) {
	// Property: receiving by specific tag never loses other-tag
	// messages — they all arrive afterwards via wildcard.
	f := func(tags []uint8, want uint8) bool {
		w, err := NewWorld(2)
		if err != nil {
			return false
		}
		defer w.Close()
		c0, c1 := w.Comm(0), w.Comm(1)
		matching := 0
		for i, tg := range tags {
			if err := c0.Send(1, int(tg), []byte{byte(i)}); err != nil {
				return false
			}
			if tg == want {
				matching++
			}
		}
		for k := 0; k < matching; k++ {
			m, err := c1.Recv(context.Background(), AnySource, int(want))
			if err != nil || m.Tag != int(want) {
				return false
			}
		}
		// The rest must still be there.
		rest := len(tags) - matching
		for k := 0; k < rest; k++ {
			m, err := c1.Recv(context.Background(), AnySource, AnyTag)
			if err != nil || m.Tag == int(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
