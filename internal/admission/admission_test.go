package admission

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/qctx"
)

func TestAdmitUnlimited(t *testing.T) {
	c := NewController(Config{})
	var tickets []*Ticket
	for i := 0; i < 32; i++ {
		tk, err := c.Admit(Request{})
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	s := c.Stats()
	if s.Running != 32 || s.Admitted != 32 {
		t.Fatalf("stats = %+v, want 32 running/admitted", s)
	}
	for _, tk := range tickets {
		tk.Release()
		tk.Release() // idempotent
	}
	if s := c.Stats(); s.Running != 0 {
		t.Fatalf("running = %d after release, want 0", s.Running)
	}
}

func TestQueueFIFOAndShed(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, QueueDepth: 2})
	first, err := c.Admit(Request{})
	if err != nil {
		t.Fatal(err)
	}

	// Two waiters fit in the queue; admit them from goroutines and track
	// the order grants arrive in.
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	ready := make(chan struct{}, 2)
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ready <- struct{}{}
			tk, err := c.Admit(Request{})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
			tk.Release()
		}(i)
		<-ready
		// Wait until the waiter is actually queued so FIFO order is
		// deterministic.
		for {
			if c.Stats().Waiting >= i {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	// Queue is now full: the next arrival is shed with a typed error.
	_, err = c.Admit(Request{})
	if !errors.Is(err, qctx.ErrOverloaded) {
		t.Fatalf("full-queue admit err = %v, want ErrOverloaded", err)
	}
	var ov *qctx.OverloadError
	if !errors.As(err, &ov) || ov.RetryAfter <= 0 {
		t.Fatalf("shed error %v lacks retry-after hint", err)
	}

	first.Release()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("grant order = %v, want [1 2] (FIFO)", order)
	}
	if s := c.Stats(); s.Shed != 1 || s.Running != 0 {
		t.Fatalf("stats = %+v, want 1 shed, 0 running", s)
	}
}

func TestQueueWaitCountsAgainstDeadline(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, QueueDepth: 4})
	blocker, err := c.Admit(Request{})
	if err != nil {
		t.Fatal(err)
	}
	// This query's whole deadline elapses in the queue.
	start := time.Now()
	_, err = c.Admit(Request{Timeout: 20 * time.Millisecond})
	if !errors.Is(err, qctx.ErrQueryTimeout) {
		t.Fatalf("queued-past-deadline admit err = %v, want ErrQueryTimeout", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("admit returned after %v, should have waited out the deadline", d)
	}
	if s := c.Stats(); s.QueueTimeouts != 1 {
		t.Fatalf("queue timeouts = %d, want 1", s.QueueTimeouts)
	}
	blocker.Release()
	if s := c.Stats(); s.Running != 0 || s.Waiting != 0 {
		t.Fatalf("stats = %+v, want idle", s)
	}

	// A ticket granted with time to spare reports its remaining deadline.
	tk, err := c.Admit(Request{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rem, ok := tk.Remaining(); !ok || rem <= 0 || rem > time.Second {
		t.Fatalf("Remaining() = %v, %v", rem, ok)
	}
	tk.Release()
}

func TestPreExpiredDeadlineRejected(t *testing.T) {
	c := NewController(Config{})
	_, err := c.Admit(Request{Timeout: -time.Millisecond})
	if !errors.Is(err, qctx.ErrQueryTimeout) {
		t.Fatalf("pre-expired admit err = %v, want ErrQueryTimeout", err)
	}
	if s := c.Stats(); s.Admitted != 0 || s.Running != 0 {
		t.Fatalf("pre-expired query was admitted: %+v", s)
	}
}

func TestCancelWhileQueued(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, QueueDepth: 1})
	blocker, err := c.Admit(Request{})
	if err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := c.Admit(Request{Cancel: cancel})
		done <- err
	}()
	for c.Stats().Waiting == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	close(cancel)
	if err := <-done; !errors.Is(err, qctx.ErrCanceled) {
		t.Fatalf("canceled-in-queue err = %v, want ErrCanceled", err)
	}
	// Pre-closed cancel never enters the queue.
	if _, err := c.Admit(Request{Cancel: cancel}); !errors.Is(err, qctx.ErrCanceled) {
		t.Fatalf("pre-canceled admit err = %v, want ErrCanceled", err)
	}
	blocker.Release()
}

func TestPoolLeasing(t *testing.T) {
	// The default lease is PoolBytes/MaxConcurrent = 400, the minimum
	// lease a quarter of it, 100.
	c := NewController(Config{PoolBytes: 1600, MaxConcurrent: 4})

	// Full lease while the pool is empty.
	a, err := c.Admit(Request{})
	if err != nil || a.Lease() != 400 || c.Stats().Degraded != 0 {
		t.Fatalf("first grant: lease=%d degraded=%d err=%v", a.Lease(), c.Stats().Degraded, err)
	}
	// Explicit request larger than default.
	b, err := c.Admit(Request{MemBytes: 1100})
	if err != nil || b.Lease() != 1100 || c.Stats().Degraded != 0 {
		t.Fatalf("second grant: lease=%d degraded=%d err=%v", b.Lease(), c.Stats().Degraded, err)
	}
	// Only the minimum lease, 100, left: degraded grant at the remainder.
	d, err := c.Admit(Request{})
	if err != nil || d.Lease() != 100 || c.Stats().Degraded != 1 {
		t.Fatalf("third grant: lease=%d degraded=%d err=%v", d.Lease(), c.Stats().Degraded, err)
	}
	// Pool exhausted with a slot free: next query waits (no queue depth
	// configured → shed).
	if _, err := c.Admit(Request{}); !errors.Is(err, qctx.ErrOverloaded) {
		t.Fatalf("exhausted-pool admit err = %v, want ErrOverloaded", err)
	}
	s := c.Stats()
	if s.PoolUsed != 1600 || s.PoolPeak != 1600 || s.Degraded != 1 {
		t.Fatalf("pool stats = %+v", s)
	}
	a.Release()
	b.Release()
	d.Release()
	if s := c.Stats(); s.PoolUsed != 0 {
		t.Fatalf("pool used = %d after release, want 0", s.PoolUsed)
	}

	// A request bigger than the whole pool runs degraded at pool size
	// rather than overcommitting.
	huge, err := c.Admit(Request{MemBytes: 5000})
	if err != nil || huge.Lease() != 1600 || c.Stats().Degraded != 2 {
		t.Fatalf("oversized grant: lease=%d degraded=%d err=%v", huge.Lease(), c.Stats().Degraded, err)
	}
	huge.Release()
}

func TestPoolNeverOvercommitsUnderLoad(t *testing.T) {
	const pool = 1 << 20
	c := NewController(Config{MaxConcurrent: 8, QueueDepth: 64, PoolBytes: pool})
	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tk, err := c.Admit(Request{MemBytes: int64(1+i%7) * (pool / 16), Timeout: 2 * time.Second})
			if err != nil {
				if !errors.Is(err, qctx.ErrOverloaded) && !errors.Is(err, qctx.ErrQueryTimeout) {
					failures.Add(1)
				}
				return
			}
			time.Sleep(time.Duration(i%3) * time.Millisecond)
			tk.Release()
		}(i)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d admits failed with unexpected errors", failures.Load())
	}
	s := c.Stats()
	if s.PoolPeak > pool {
		t.Fatalf("pool peak %d exceeded pool %d", s.PoolPeak, pool)
	}
	if s.Running != 0 || s.PoolUsed != 0 || s.Waiting != 0 {
		t.Fatalf("controller not idle after load: %+v", s)
	}
}

func TestRetryDelayBackoff(t *testing.T) {
	c := NewController(Config{RetryMax: 3})
	want := []time.Duration{2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond}
	for attempt, base := range want {
		d, ok := c.RetryDelay(attempt)
		if !ok {
			t.Fatalf("attempt %d: RetryDelay refused, want allowed", attempt)
		}
		if d < base/2 || d > base {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, base/2, base)
		}
	}
	if _, ok := c.RetryDelay(3); ok {
		t.Fatal("attempt 3 allowed, want refused (RetryMax=3)")
	}
	if s := c.Stats(); s.Retries != 3 {
		t.Fatalf("retries = %d, want 3", s.Retries)
	}
	// Far past the attempt where retryBase·2^attempt overflows int64 the
	// delay must stay positive and capped.
	c = NewController(Config{RetryMax: 81})
	for attempt := 0; attempt <= 80; attempt++ {
		if d, ok := c.RetryDelay(attempt); !ok || d <= 0 || d > retryCap {
			t.Fatalf("attempt %d: delay %v, allowed %v; want a delay in (0, 250ms]", attempt, d, ok)
		}
	}
}

func TestDrain(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, QueueDepth: 2})
	running, err := c.Admit(Request{})
	if err != nil {
		t.Fatal(err)
	}
	qc := qctx.New(qctx.Limits{})
	running.Bind(qc)

	// One waiter in the queue; drain must shed it.
	waiterErr := make(chan error, 1)
	go func() {
		_, err := c.Admit(Request{})
		waiterErr <- err
	}()
	for c.Stats().Waiting == 0 {
		time.Sleep(100 * time.Microsecond)
	}

	// The running query ignores the drain deadline, so drain cancels it
	// through the bound qctx; we release on cancellation like the engine
	// does.
	go func() {
		<-qc.Done()
		running.Release()
	}()
	if err := c.Drain(20 * time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-waiterErr; !errors.Is(err, qctx.ErrOverloaded) {
		t.Fatalf("shed waiter err = %v, want ErrOverloaded", err)
	}
	if err := qc.Err(); !errors.Is(err, qctx.ErrCanceled) {
		t.Fatalf("straggler cause = %v, want ErrCanceled", err)
	}
	s := c.Stats()
	if !s.Draining || s.Running != 0 || s.DrainCanceled != 1 {
		t.Fatalf("post-drain stats = %+v", s)
	}

	// Admission stays closed until Resume.
	if _, err := c.Admit(Request{}); !errors.Is(err, qctx.ErrOverloaded) {
		t.Fatalf("admit while draining err = %v, want ErrOverloaded", err)
	}
	c.Resume()
	tk, err := c.Admit(Request{})
	if err != nil {
		t.Fatalf("admit after resume: %v", err)
	}
	tk.Release()
}

// TestDrainCancelsLateBind: a query admitted but not yet bound (the
// engine binds after taking the commit lock, which may wait behind a
// commit) is still canceled by a drain: the qctx it binds afterwards is
// canceled at once, so it cannot run to completion past the grace period.
func TestDrainCancelsLateBind(t *testing.T) {
	c := NewController(Config{})
	tk, err := c.Admit(Request{})
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- c.Drain(time.Millisecond) }()
	for c.Stats().DrainCanceled != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	qc := qctx.New(qctx.Limits{})
	tk.Bind(qc)
	if err := qc.Check(); !errors.Is(err, qctx.ErrCanceled) {
		t.Fatalf("late-bound query: Check() = %v, want ErrCanceled", err)
	}
	tk.Release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestDrainWaitsForInFlight(t *testing.T) {
	c := NewController(Config{})
	tk, err := c.Admit(Request{})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		tk.Release()
	}()
	if err := c.Drain(time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if s := c.Stats(); s.DrainCanceled != 0 {
		t.Fatalf("polite drain canceled %d queries, want 0", s.DrainCanceled)
	}
}

func TestStatsString(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 2, PoolBytes: 1 << 20})
	tk, _ := c.Admit(Request{})
	defer tk.Release()
	out := c.Stats().String()
	for _, frag := range []string{"1 running", "memory pool", "0 transient"} {
		if !contains(out, frag) {
			t.Errorf("stats %q missing %q", out, frag)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// Hammer the controller from many goroutines mixing admits, timeouts,
// cancels, and releases; the invariant is that it ends idle with
// consistent counters. Run with -race.
func TestControllerStress(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 4, QueueDepth: 8, PoolBytes: 1 << 16})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				req := Request{MemBytes: int64(g%5) * 1024, Timeout: 10 * time.Millisecond}
				if g%4 == 0 {
					cancel := make(chan struct{})
					req.Cancel = cancel
					time.AfterFunc(time.Duration(i%5)*time.Millisecond, func() { close(cancel) })
				}
				tk, err := c.Admit(req)
				if err != nil {
					if !errors.Is(err, qctx.ErrOverloaded) && !errors.Is(err, qctx.ErrQueryTimeout) &&
						!errors.Is(err, qctx.ErrCanceled) {
						t.Errorf("unexpected admit error: %v", err)
					}
					continue
				}
				if g%3 == 0 {
					time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
				}
				tk.Release()
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Running != 0 || s.Waiting != 0 || s.PoolUsed != 0 {
		t.Fatalf("controller not idle: %+v", s)
	}
	if s.PoolPeak > 1<<16 {
		t.Fatalf("pool peak %d exceeded pool", s.PoolPeak)
	}
	if s.Admitted == 0 {
		t.Fatal("nothing was admitted")
	}
}

func ExampleStats_String() {
	c := NewController(Config{MaxConcurrent: 4})
	fmt.Println(c.Stats().String())
	// Output:
	// admission: 0 running, 0 queued, 0 admitted, 0 shed, 0 queue timeouts
	// retries: 0 transient
}
