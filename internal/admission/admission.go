// Package admission is the engine's concurrency gateway: every query
// passes through a Controller before any operator opens. The controller
// bounds how many queries run at once, queues a bounded number of
// arrivals behind them (queue time counts against the query's own
// deadline), sheds load with a typed overload error once the queue is
// full, and leases per-query memory budgets from one global pool so
// concurrent queries can never overcommit the configured memory, only
// degrade (smaller lease, sequential plan) or wait.
//
// It also owns the retry budget that sits above a single query's
// lifecycle: how many times a query that failed with a transient fault
// (qctx.Retryable) is re-run, and the capped, jittered backoff before
// each re-run.
//
// Finally it implements graceful drain: stop admitting, let in-flight
// queries finish under a drain deadline, then cancel stragglers through
// the qctx each ticket is bound to. The queue is strictly FIFO — a
// large-lease query at the head waits rather than being overtaken, so
// heavy queries cannot starve behind a stream of light ones.
package admission

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/qctx"
)

// Config sizes a Controller. The zero value of any field picks the
// documented default; a zero MaxConcurrent means unlimited concurrency
// and a zero PoolBytes means no global memory pool.
type Config struct {
	// MaxConcurrent bounds the queries running at once; 0 = unlimited.
	MaxConcurrent int
	// QueueDepth bounds how many admitted-but-waiting queries may queue
	// behind the running ones; arrivals beyond it are shed with
	// qctx.ErrOverloaded. 0 means no queue: shed as soon as saturated.
	QueueDepth int
	// PoolBytes is the global memory pool leased out as per-query
	// budgets; 0 disables pooling (queries keep their own budgets).
	PoolBytes int64
	// DefaultLease is granted to queries that request no explicit memory
	// budget; 0 derives PoolBytes/MaxConcurrent (or PoolBytes/4 when
	// concurrency is unlimited).
	DefaultLease int64
	// MinLease is the smallest degraded lease worth running with; a
	// query that cannot get even MinLease waits instead. 0 derives
	// DefaultLease/4.
	MinLease int64

	// RetryMax bounds transient-fault retries per query; 0 disables.
	RetryMax int
}

// The transient-retry backoff: retryBase doubles per attempt up to
// retryCap (qctx.Backoff), jittered from a time-seeded source.
const (
	retryBase = 2 * time.Millisecond
	retryCap  = 250 * time.Millisecond
)

func (c Config) defaultLease() int64 {
	if c.DefaultLease > 0 {
		return c.DefaultLease
	}
	div := int64(4)
	if c.MaxConcurrent > 0 {
		div = int64(c.MaxConcurrent)
	}
	return c.PoolBytes / div
}

func (c Config) minLease() int64 {
	if c.MinLease > 0 {
		return c.MinLease
	}
	if l := c.defaultLease() / 4; l > 0 {
		return l
	}
	return 1
}

// Request describes one query asking to run.
type Request struct {
	// Timeout is the query's wall-clock limit; queue time counts
	// against it, and a query whose deadline expires while queued (or
	// arrives pre-expired) is rejected with qctx.ErrQueryTimeout
	// before any operator opens. 0 means no deadline.
	Timeout time.Duration
	// MemBytes is the query's requested memory budget; 0 asks for the
	// controller's default lease (when a pool is configured).
	MemBytes int64
	// Cancel, when non-nil, aborts the queue wait with qctx.ErrCanceled
	// as soon as it is closed.
	Cancel <-chan struct{}
}

// grantResult is what a queued waiter eventually receives.
type grantResult struct {
	lease    int64
	degraded bool
	pressure bool
	err      error // set when the waiter is shed (drain)
}

// waiter is one queued admission request.
type waiter struct {
	want  int64
	grant chan grantResult // buffered 1; written exactly once
}

// Controller is the admission gateway. All methods are safe for
// concurrent use.
type Controller struct {
	cfg Config

	mu          sync.Mutex
	running     int
	queue       []*waiter
	poolUsed    int64
	poolPeak    int64
	draining    bool
	spillBacked bool
	active      map[*Ticket]struct{}
	rng         *rand.Rand

	// Counters (under mu).
	admitted       int64
	shed           int64
	queueTimeouts  int64
	degraded       int64
	pressureGrants int64
	retries        int64
	drainCanceled  int64
	// ewmaRun tracks recent query durations for the retry-after hint.
	ewmaRun time.Duration
}

// NewController creates a controller from a config.
func NewController(cfg Config) *Controller {
	return &Controller{
		cfg:    cfg,
		active: make(map[*Ticket]struct{}),
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// SetSpillBacked tells the memory pool that queries can degrade to
// disk-backed execution instead of failing on a tiny budget. Under
// pressure the pool then grants whatever remains (a "pressure" lease,
// below MinLease) rather than queuing the arrival — a spill-capable
// lessee makes progress on any positive budget.
func (c *Controller) SetSpillBacked(on bool) {
	c.mu.Lock()
	c.spillBacked = on
	c.mu.Unlock()
}

// grantLocked decides whether a query wanting `want` lease bytes can run
// right now, and with how much. Callers hold c.mu.
func (c *Controller) grantLocked(want int64) (lease int64, degraded, pressure, ok bool) {
	if c.cfg.MaxConcurrent > 0 && c.running >= c.cfg.MaxConcurrent {
		return 0, false, false, false
	}
	if c.cfg.PoolBytes == 0 {
		return 0, false, false, true
	}
	if want <= 0 {
		want = c.cfg.defaultLease()
	}
	if want > c.cfg.PoolBytes {
		// The pool is the hard ceiling: a query asking for more than the
		// whole pool runs degraded at pool size rather than overcommit.
		want = c.cfg.PoolBytes
		degraded = true
	}
	free := c.cfg.PoolBytes - c.poolUsed
	switch {
	case free >= want:
		lease = want
	case free >= c.cfg.minLease():
		lease, degraded = free, true
	case c.spillBacked && free > 0:
		// Pressure grant: spill-backed queries degrade to disk rather
		// than fail on a tiny budget, so the nearly-exhausted pool hands
		// out its remainder instead of making the arrival wait.
		lease, degraded, pressure = free, true, true
	default:
		return 0, false, false, false
	}
	return lease, degraded, pressure, true
}

// admitLocked commits a grant and mints the ticket. When charge is true
// it also bumps the running count and pool usage; a waiter woken by
// wakeLocked already carries that reservation and passes false.
// Callers hold c.mu.
func (c *Controller) admitLocked(lease int64, degraded, pressure bool, timeout time.Duration, start time.Time, charge bool) *Ticket {
	if charge {
		c.running++
		c.poolUsed += lease
		if c.poolUsed > c.poolPeak {
			c.poolPeak = c.poolUsed
		}
	}
	c.admitted++
	if degraded {
		c.degraded++
	}
	if pressure {
		c.pressureGrants++
	}
	t := &Ticket{c: c, lease: lease, degraded: degraded, start: start}
	if timeout > 0 {
		t.deadline = start.Add(timeout)
	}
	c.active[t] = struct{}{}
	return t
}

// shedLocked builds the typed overload error with a retry-after hint
// derived from recent query durations. Callers hold c.mu.
func (c *Controller) shedLocked(reason string) error {
	c.shed++
	hint := c.ewmaRun
	if hint <= 0 {
		hint = 50 * time.Millisecond
	}
	return &qctx.OverloadError{Reason: reason, RetryAfter: hint}
}

// Admit asks to run one query. It returns a granted Ticket, or a typed
// error: qctx.ErrOverloaded (full queue, or draining), qctx.ErrQueryTimeout
// (the deadline expired while queued — including a pre-expired arrival),
// or qctx.ErrCanceled (the request's Cancel channel closed while queued).
// Queue order is FIFO.
func (c *Controller) Admit(req Request) (*Ticket, error) {
	start := time.Now()
	if req.Cancel != nil {
		select {
		case <-req.Cancel:
			return nil, qctx.ErrCanceled
		default:
		}
	}
	if req.Timeout < 0 {
		return nil, qctx.ErrQueryTimeout
	}

	c.mu.Lock()
	if c.draining {
		err := c.shedLocked("draining")
		c.mu.Unlock()
		return nil, err
	}
	if len(c.queue) == 0 {
		if lease, degraded, pressure, ok := c.grantLocked(req.MemBytes); ok {
			t := c.admitLocked(lease, degraded, pressure, req.Timeout, start, true)
			c.mu.Unlock()
			return t, nil
		}
	}
	if len(c.queue) >= c.cfg.QueueDepth {
		err := c.shedLocked("queue full")
		c.mu.Unlock()
		return nil, err
	}
	w := &waiter{want: req.MemBytes, grant: make(chan grantResult, 1)}
	c.queue = append(c.queue, w)
	c.mu.Unlock()

	var deadline <-chan time.Time
	if req.Timeout > 0 {
		timer := time.NewTimer(req.Timeout)
		defer timer.Stop()
		deadline = timer.C
	}
	select {
	case gr := <-w.grant:
		if gr.err != nil {
			return nil, gr.err
		}
		if req.Timeout > 0 && time.Since(start) >= req.Timeout {
			// Satellite-1 contract: a query whose deadline expired during
			// the queue wait must not run at all. Hand the grant back.
			c.mu.Lock()
			c.queueTimeouts++
			c.releaseResourcesLocked(gr.lease)
			c.mu.Unlock()
			return nil, qctx.ErrQueryTimeout
		}
		c.mu.Lock()
		t := c.admitLocked(gr.lease, gr.degraded, gr.pressure, req.Timeout, start, false)
		c.mu.Unlock()
		return t, nil
	case <-deadline:
		return nil, c.abandonWait(w, &c.queueTimeouts, qctx.ErrQueryTimeout)
	case <-req.Cancel:
		return nil, c.abandonWait(w, nil, qctx.ErrCanceled)
	}
}

// abandonWait removes a waiter that gave up (deadline, cancel). If a
// grant raced the abandonment, the granted resources are returned to the
// pool and the next waiter is woken.
func (c *Controller) abandonWait(w *waiter, counter *int64, cause error) error {
	c.mu.Lock()
	for i, q := range c.queue {
		if q == w {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			if counter != nil {
				*counter++
			}
			c.mu.Unlock()
			return cause
		}
	}
	c.mu.Unlock()
	// Not queued anymore: a grant is in flight. Consume and return it.
	gr := <-w.grant
	if gr.err == nil {
		c.mu.Lock()
		if counter != nil {
			*counter++
		}
		c.releaseResourcesLocked(gr.lease)
		c.mu.Unlock()
	}
	return cause
}

// releaseResourcesLocked returns reserved capacity and wakes as many
// FIFO waiters as now fit. The grant reserves running+pool on behalf of
// the waiter so capacity cannot be double-issued between the release
// here and the waiter finishing its admit. Callers hold c.mu.
func (c *Controller) releaseResourcesLocked(lease int64) {
	c.running--
	c.poolUsed -= lease
	c.wakeLocked()
}

func (c *Controller) wakeLocked() {
	for len(c.queue) > 0 {
		w := c.queue[0]
		lease, degraded, pressure, ok := c.grantLocked(w.want)
		if !ok {
			return
		}
		c.queue = c.queue[1:]
		// Reserve on the waiter's behalf; Admit's grant path converts the
		// reservation into a real ticket (or hands it back on timeout).
		c.running++
		c.poolUsed += lease
		if c.poolUsed > c.poolPeak {
			c.poolPeak = c.poolUsed
		}
		w.grant <- grantResult{lease: lease, degraded: degraded, pressure: pressure}
	}
}

// release finishes one ticket: returns its capacity, folds its runtime
// into the retry-after EWMA, and wakes waiters.
func (c *Controller) release(t *Ticket) {
	dur := time.Since(t.start)
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.active, t)
	if c.ewmaRun == 0 {
		c.ewmaRun = dur
	} else {
		c.ewmaRun = (3*c.ewmaRun + dur) / 4
	}
	c.releaseResourcesLocked(t.lease)
}

// RetryDelay reports whether a transient-fault retry number `attempt`
// (0-based) is allowed, and the jittered backoff to sleep first
// (qctx.Backoff over retryBase and retryCap).
func (c *Controller) RetryDelay(attempt int) (time.Duration, bool) {
	if attempt >= c.cfg.RetryMax {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retries++
	return qctx.Backoff(retryBase, retryCap, attempt, c.rng), true
}

// Drain stops admission and waits for in-flight queries to finish. New
// arrivals and every queued waiter are shed with qctx.ErrOverloaded.
// Queries still running when the drain deadline passes are canceled
// through their bound qctx (qctx.ErrCanceled) and then given a short
// grace period to unwind; Drain errors if any survive even that.
// Admission stays closed afterwards until Resume.
func (c *Controller) Drain(timeout time.Duration) error {
	c.mu.Lock()
	c.draining = true
	for _, w := range c.queue {
		c.shed++
		w.grant <- grantResult{err: &qctx.OverloadError{Reason: "draining", RetryAfter: timeout}}
	}
	c.queue = nil
	c.mu.Unlock()

	if c.waitIdle(time.Now().Add(timeout)) {
		return nil
	}
	c.mu.Lock()
	n := int64(len(c.active))
	for t := range c.active {
		t.cancel()
	}
	c.drainCanceled += n
	c.mu.Unlock()

	grace := timeout
	if grace < 5*time.Second {
		grace = 5 * time.Second
	}
	if c.waitIdle(time.Now().Add(grace)) {
		return nil
	}
	c.mu.Lock()
	left := c.running
	c.mu.Unlock()
	return fmt.Errorf("admission: drain: %d queries still running after cancel", left)
}

// waitIdle polls until nothing is running or the deadline passes.
// Cancellation is cooperative and surfaces within one morsel of work, so
// millisecond polling is plenty and keeps the controller lock simple.
func (c *Controller) waitIdle(deadline time.Time) bool {
	for {
		c.mu.Lock()
		n := c.running
		c.mu.Unlock()
		if n == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// Resume re-opens admission after a Drain.
func (c *Controller) Resume() {
	c.mu.Lock()
	c.draining = false
	c.mu.Unlock()
}

// Draining reports whether admission is closed.
func (c *Controller) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Stats is a snapshot of the admission counters, for the REPL's \stats
// and for tests.
type Stats struct {
	Running, Waiting                 int
	Admitted, Shed                   int64
	QueueTimeouts, Degraded, Retries int64
	PressureGrants                   int64
	DrainCanceled                    int64
	PoolBytes, PoolUsed, PoolPeak    int64
	Draining                         bool
}

// Stats snapshots the counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Running:        c.running,
		Waiting:        len(c.queue),
		Admitted:       c.admitted,
		Shed:           c.shed,
		QueueTimeouts:  c.queueTimeouts,
		Degraded:       c.degraded,
		Retries:        c.retries,
		PressureGrants: c.pressureGrants,
		DrainCanceled:  c.drainCanceled,
		PoolBytes:      c.cfg.PoolBytes,
		PoolUsed:       c.poolUsed,
		PoolPeak:       c.poolPeak,
		Draining:       c.draining,
	}
}

// String renders the snapshot as the REPL's \stats block.
func (s Stats) String() string {
	b := fmt.Sprintf("admission: %d running, %d queued, %d admitted, %d shed, %d queue timeouts\n",
		s.Running, s.Waiting, s.Admitted, s.Shed, s.QueueTimeouts)
	if s.PoolBytes > 0 {
		b += fmt.Sprintf("memory pool: %d/%d bytes leased (peak %d), %d degraded grants (%d under pressure)\n",
			s.PoolUsed, s.PoolBytes, s.PoolPeak, s.Degraded, s.PressureGrants)
	}
	b += fmt.Sprintf("retries: %d transient", s.Retries)
	if s.Draining {
		b += "; DRAINING"
	}
	return b
}

// Ticket is one granted admission. Release must be called exactly when
// the query ends (it is idempotent); Bind attaches the query's lifecycle
// context so a drain can cancel the query cooperatively.
type Ticket struct {
	c        *Controller
	lease    int64
	degraded bool
	start    time.Time
	deadline time.Time

	mu       sync.Mutex
	qc       *qctx.QueryContext
	released bool
}

// Lease is the granted memory budget in bytes (0 = no pool configured).
func (t *Ticket) Lease() int64 { return t.lease }

// Degraded reports that the grant was reduced below the requested (or
// default) lease by pool pressure; the engine responds by preferring
// sequential plans, which buffer less.
func (t *Ticket) Degraded() bool { return t.degraded }

// Remaining reports the time left until the query's deadline; ok is
// false when the request carried no deadline. Admission guarantees a
// granted ticket has positive remaining time.
func (t *Ticket) Remaining() (time.Duration, bool) {
	if t.deadline.IsZero() {
		return 0, false
	}
	return time.Until(t.deadline), true
}

// Bind attaches the query's lifecycle context for drain cancellation.
// Safe on a nil ticket (no-op), so ungoverned call sites need no guard.
func (t *Ticket) Bind(qc *qctx.QueryContext) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.qc = qc
	t.mu.Unlock()
}

// cancel cancels the bound query (drain straggler path).
func (t *Ticket) cancel() {
	t.mu.Lock()
	qc := t.qc
	t.mu.Unlock()
	qc.Cancel(qctx.ErrCanceled)
}

// Release returns the ticket's capacity to the controller. Idempotent.
func (t *Ticket) Release() {
	t.mu.Lock()
	if t.released {
		t.mu.Unlock()
		return
	}
	t.released = true
	t.mu.Unlock()
	t.c.release(t)
}
