package rpcpool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type fakeConn struct {
	id     int
	closed atomic.Bool
}

func (f *fakeConn) Close() error {
	f.closed.Store(true)
	return nil
}

func TestApplyDefaultsAndOptions(t *testing.T) {
	cfg := Apply()
	if cfg.StripeSize != 0 || cfg.PoolSize != DefaultPoolSize ||
		cfg.Timeout != DefaultTimeout || cfg.Retries != DefaultRetries {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	cfg = Apply(
		WithStripeSize(4096),
		WithPoolSize(2),
		WithTimeout(time.Second),
		WithRetries(5),
	)
	if cfg.StripeSize != 4096 || cfg.PoolSize != 2 || cfg.Timeout != time.Second ||
		cfg.Retries != 5 {
		t.Fatalf("options not applied: %+v", cfg)
	}
}

func TestBackoffGrowsAndIsCapped(t *testing.T) {
	// Each attempt doubles the base until the cap; full jitter keeps
	// every pause in [d/2, d) of its step d.
	step := DefaultRetryBackoff
	for attempt := 0; attempt < 10; attempt++ {
		d := Backoff(attempt)
		if d <= 0 {
			t.Fatalf("attempt %d: non-positive backoff %v", attempt, d)
		}
		if d >= DefaultMaxBackoff {
			t.Fatalf("attempt %d: backoff %v not capped below %v", attempt, d, DefaultMaxBackoff)
		}
		if d < step/2 || d >= step {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, d, step/2, step)
		}
		if step *= 2; step > DefaultMaxBackoff {
			step = DefaultMaxBackoff
		}
	}
	// The first attempt's jittered pause stays near the base.
	if d := Backoff(0); d < DefaultRetryBackoff/2 || d >= DefaultRetryBackoff {
		t.Fatalf("attempt 0: backoff %v outside [base/2, base)", d)
	}
}

func TestPoolReusesIdleConns(t *testing.T) {
	var dials atomic.Int32
	p := New(2, func() (*fakeConn, error) {
		return &fakeConn{id: int(dials.Add(1))}, nil
	})
	ctx := context.Background()
	c1, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(c1)
	c2, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Fatalf("expected idle conn reuse, got a fresh dial")
	}
	if dials.Load() != 1 {
		t.Fatalf("dials = %d, want 1", dials.Load())
	}
	p.Put(c2)
}

func TestPoolBoundsConcurrentConns(t *testing.T) {
	const bound = 3
	var dials atomic.Int32
	p := New(bound, func() (*fakeConn, error) {
		return &fakeConn{id: int(dials.Add(1))}, nil
	})
	ctx := context.Background()
	var held []*fakeConn
	for i := 0; i < bound; i++ {
		c, err := p.Get(ctx)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, c)
	}
	// The pool is exhausted: the next Get must block until a Put.
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := p.Get(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Get on exhausted pool: err = %v, want deadline exceeded", err)
	}
	done := make(chan *fakeConn)
	go func() {
		c, err := p.Get(ctx)
		if err != nil {
			t.Error(err)
		}
		done <- c
	}()
	p.Put(held[0])
	select {
	case c := <-done:
		p.Put(c)
	case <-time.After(2 * time.Second):
		t.Fatal("Get did not unblock after Put")
	}
	if int(dials.Load()) > bound {
		t.Fatalf("dials = %d, want <= %d", dials.Load(), bound)
	}
	for _, c := range held[1:] {
		p.Put(c)
	}
}

func TestPoolDiscardFreesSlotAndRedials(t *testing.T) {
	var dials atomic.Int32
	p := New(1, func() (*fakeConn, error) {
		return &fakeConn{id: int(dials.Add(1))}, nil
	})
	ctx := context.Background()
	c1, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p.Discard(c1)
	if !c1.closed.Load() {
		t.Fatal("Discard did not close the conn")
	}
	c2, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c2 == c1 {
		t.Fatal("discarded conn handed out again")
	}
	if dials.Load() != 2 {
		t.Fatalf("dials = %d, want 2", dials.Load())
	}
	p.Put(c2)
}

func TestPoolDialErrorFreesSlot(t *testing.T) {
	fail := errors.New("dial failed")
	calls := 0
	p := New(1, func() (*fakeConn, error) {
		calls++
		if calls == 1 {
			return nil, fail
		}
		return &fakeConn{id: calls}, nil
	})
	ctx := context.Background()
	if _, err := p.Get(ctx); !errors.Is(err, fail) {
		t.Fatalf("err = %v, want dial failure", err)
	}
	// The failed dial must not leak its slot.
	c, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(c)
}

func TestPoolCloseClosesIdleAndFailsGet(t *testing.T) {
	p := New(2, func() (*fakeConn, error) { return &fakeConn{}, nil })
	ctx := context.Background()
	c, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(c)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if !c.closed.Load() {
		t.Fatal("Close did not close idle conn")
	}
	if _, err := p.Get(ctx); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Get after Close: err = %v, want ErrPoolClosed", err)
	}
}

func TestPoolPutAfterCloseClosesConn(t *testing.T) {
	p := New(2, func() (*fakeConn, error) { return &fakeConn{}, nil })
	c, err := p.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Put(c)
	if !c.closed.Load() {
		t.Fatal("Put after Close did not close the returning conn")
	}
}

func TestPoolConcurrentStress(t *testing.T) {
	var live atomic.Int32
	const bound = 4
	p := New(bound, func() (*fakeConn, error) {
		return &fakeConn{id: int(live.Add(1))}, nil
	})
	ctx := context.Background()
	var wg sync.WaitGroup
	var peak atomic.Int32
	var inUse atomic.Int32
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c, err := p.Get(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				n := inUse.Add(1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				inUse.Add(-1)
				if i%7 == 0 {
					p.Discard(c)
				} else {
					p.Put(c)
				}
			}
		}()
	}
	wg.Wait()
	if peak.Load() > bound {
		t.Fatalf("peak concurrent checkouts %d exceeds bound %d", peak.Load(), bound)
	}
}

func TestSleepRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if err := Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
}
