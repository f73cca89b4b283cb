// Package qctx defines the query lifecycle context: a per-query carrier
// for deadlines, cooperative cancellation, and resource budgets that the
// executor checks between morsels of work. It deliberately does not wrap
// context.Context — operators sit in tight Next loops where the only
// affordable check is one atomic load or a non-blocking select on an
// already-closed channel, and the budget accounting (rows emitted, bytes
// buffered by hash builds and sorts) has no analogue in the standard
// context package.
//
// All methods are safe on a nil *QueryContext and act as no-ops, so
// operators thread the context unconditionally and ungoverned queries
// (the default) pay a single nil check.
package qctx

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The typed lifecycle errors (ErrQueryTimeout, ErrCanceled, the budget
// family, and the admission-layer families) live in errors.go.

// PanicError wraps a recovered panic so it can travel the error path.
// The engine boundary and every parallel worker convert panics from
// value/storage/exec code into one of these instead of killing the
// process.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // stack captured at recovery
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("query panicked: %v", p.Value)
}

// Unwrap exposes a panicked error value to errors.Is/As, so e.g. an
// injected fault that panics with a *storage.FaultError is still
// recognizable after containment.
func (p *PanicError) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Recovered converts a recover() result into a *PanicError, capturing
// the stack at the call site. It returns nil for a nil recover value so
// it can be used unconditionally in a deferred handler.
func Recovered(v any) *PanicError {
	if v == nil {
		return nil
	}
	buf := make([]byte, 16<<10)
	return &PanicError{Value: v, Stack: buf[:runtime.Stack(buf, false)]}
}

// QueryContext governs one query execution: cancellation (explicit or by
// deadline) and resource budgets. The zero limits mean "unlimited"; a
// nil *QueryContext means "ungoverned" and every method no-ops.
type QueryContext struct {
	// done holds the current cancellation channel. It is a pointer so
	// ResetUsage can re-arm a budget-canceled query with a fresh
	// channel without racing the lock-free readers in Check and Done.
	done     atomic.Pointer[chan struct{}]
	timer    *time.Timer // deadline timer, nil when no deadline
	deadline time.Time   // when timer fires, zero when no deadline

	mu    sync.Mutex
	cause error // first cancellation cause, nil until canceled

	// Budgets; 0 means unlimited. Immutable after construction.
	maxRows  int64
	maxBytes int64

	// Spill policy. Stored atomically because ForceSpill may escalate
	// it between execution attempts while per-operator readers run
	// lock-free; spillThreshold is immutable after construction.
	spill          atomic.Uint32
	spillThreshold int64

	rows     atomic.Int64 // result rows produced so far
	buffered atomic.Int64 // bytes currently buffered (hash builds, sorts)
}

// SpillPolicy selects how buffering operators respond to memory
// pressure when a spill session is available.
type SpillPolicy uint8

// The spill policies. SpillDefault is resolved by the engine (to
// SpillAuto when a spill directory is configured, SpillOff otherwise)
// before a QueryContext is built.
const (
	SpillDefault SpillPolicy = iota
	// SpillOff never spills: exceeding the memory budget fails the
	// query with ErrMemoryBudget, the pre-spill behavior.
	SpillOff
	// SpillAuto spills when a reservation would cross the memory budget
	// or the configured spill threshold, and stays in memory otherwise.
	SpillAuto
	// SpillForced refuses every reservation, pushing all buffering
	// operator state through spill runs — the chaos and metamorph
	// suites use it to exercise the spill paths deterministically.
	SpillForced
)

func (p SpillPolicy) String() string {
	switch p {
	case SpillOff:
		return "off"
	case SpillAuto:
		return "auto"
	case SpillForced:
		return "forced"
	default:
		return "default"
	}
}

// Limits configures a QueryContext.
type Limits struct {
	// Timeout bounds wall-clock execution; 0 means none.
	Timeout time.Duration
	// MaxRows bounds the number of result rows; 0 means unlimited.
	MaxRows int64
	// MaxBytes bounds bytes buffered by hash builds and sort runs at
	// any one time; 0 means unlimited.
	MaxBytes int64
	// Spill selects the spill policy (see SpillPolicy).
	Spill SpillPolicy
	// SpillThreshold makes SpillAuto spill once buffered bytes would
	// cross it, even when MaxBytes is unlimited or larger; 0 means
	// "spill only at the MaxBytes boundary".
	SpillThreshold int64
}

// New creates a QueryContext. If lim.Timeout is positive, a timer
// cancels the query with ErrQueryTimeout at the deadline — per-row
// checks then cost one closed-channel select, never a time.Now call.
// Callers must Finish() the context when the query ends to release the
// timer.
func New(lim Limits) *QueryContext {
	qc := &QueryContext{
		maxRows:        lim.MaxRows,
		maxBytes:       lim.MaxBytes,
		spillThreshold: lim.SpillThreshold,
	}
	qc.spill.Store(uint32(lim.Spill))
	ch := make(chan struct{})
	qc.done.Store(&ch)
	if lim.Timeout > 0 {
		qc.deadline = time.Now().Add(lim.Timeout)
		qc.timer = time.AfterFunc(lim.Timeout, func() {
			qc.Cancel(ErrQueryTimeout)
		})
	}
	return qc
}

// Cancel cancels the query with the given cause. The first cause wins;
// later calls are no-ops. A nil cause is recorded as ErrCanceled.
func (qc *QueryContext) Cancel(cause error) {
	if qc == nil {
		return
	}
	if cause == nil {
		cause = ErrCanceled
	}
	qc.mu.Lock()
	defer qc.mu.Unlock()
	if qc.cause != nil {
		return
	}
	qc.cause = cause
	close(*qc.done.Load())
}

// CancelOn cancels the query with ErrCanceled once ch closes — at once
// if it already has — until release is called. A nil ch watches nothing.
func (qc *QueryContext) CancelOn(ch <-chan struct{}) (release func()) {
	stop := make(chan struct{})
	select {
	case <-ch:
		qc.Cancel(ErrCanceled)
	default:
		if ch != nil {
			go func() {
				select {
				case <-ch:
					qc.Cancel(ErrCanceled)
				case <-stop:
				case <-qc.Done():
				}
			}()
		}
	}
	return func() { close(stop) }
}

// Remaining is the time left before the deadline (0: none), or why none
// is left: the cancel cause, or ErrQueryTimeout once the deadline passed.
func (qc *QueryContext) Remaining() (time.Duration, error) {
	if err := qc.Err(); err != nil || qc == nil || qc.deadline.IsZero() {
		return 0, err
	}
	if left := time.Until(qc.deadline); left > 0 {
		return left, nil
	}
	return 0, ErrQueryTimeout
}

// Finish releases the deadline timer. It does not cancel the query;
// call it when execution ends, successfully or not.
func (qc *QueryContext) Finish() {
	if qc == nil || qc.timer == nil {
		return
	}
	qc.timer.Stop()
}

// Done returns a channel closed on cancellation, for operators that
// block on channel receives (ExchangeMerge) and need to wake up. A nil
// context returns nil — a receive that never fires, which is exactly
// the ungoverned behavior.
func (qc *QueryContext) Done() <-chan struct{} {
	if qc == nil {
		return nil
	}
	return *qc.done.Load()
}

// Err returns the cancellation cause, or nil if the query is live.
func (qc *QueryContext) Err() error {
	if qc == nil {
		return nil
	}
	select {
	case <-*qc.done.Load():
	default:
		return nil
	}
	qc.mu.Lock()
	defer qc.mu.Unlock()
	return qc.cause
}

// Check is the per-morsel (or per-row, in sequential loops) gate: it
// returns the cancellation cause once the query is canceled and nil
// otherwise. The live-query fast path is one select on an open channel.
func (qc *QueryContext) Check() error {
	if qc == nil {
		return nil
	}
	select {
	case <-*qc.done.Load():
		qc.mu.Lock()
		defer qc.mu.Unlock()
		return qc.cause
	default:
		return nil
	}
}

// AddRows charges n result rows against the row budget and returns
// ErrRowBudget when the budget is exhausted (also canceling the query so
// parallel workers stop). The error is returned within the same call
// that crosses the limit — one morsel of slack at most.
func (qc *QueryContext) AddRows(n int) error {
	if qc == nil || qc.maxRows == 0 {
		return nil
	}
	if qc.rows.Add(int64(n)) > qc.maxRows {
		qc.Cancel(ErrRowBudget)
		return ErrRowBudget
	}
	return nil
}

// tracking reports whether buffered-byte accounting is live: either a
// hard budget or a spill threshold makes the counter meaningful.
func (qc *QueryContext) tracking() bool {
	return qc.maxBytes != 0 || qc.spillThreshold != 0
}

// AddBuffered charges n bytes of buffered state (hash-table partitions,
// sort runs) against the memory budget; ReleaseBuffered returns them.
// Exceeding the budget cancels the query with ErrMemoryBudget.
func (qc *QueryContext) AddBuffered(n int64) error {
	if qc == nil || !qc.tracking() {
		return nil
	}
	if qc.buffered.Add(n) > qc.maxBytes && qc.maxBytes != 0 {
		qc.Cancel(ErrMemoryBudget)
		return ErrMemoryBudget
	}
	return nil
}

// ReserveBuffered tries to charge n bytes like AddBuffered but without
// ever canceling the query: it reports false — rolling back the charge —
// when the caller should spill instead. That happens under SpillForced
// always, and under any policy when the reservation would cross the
// hard memory budget or the spill threshold. A nil or untracked context
// always grants, and a granted reservation is returned with
// ReleaseBuffered like any other charge. Operators without a spill
// session keep calling AddBuffered, so refusal here never strands an
// unspillable operator.
func (qc *QueryContext) ReserveBuffered(n int64) bool {
	if qc == nil {
		return true
	}
	if SpillPolicy(qc.spill.Load()) == SpillForced {
		return false
	}
	if !qc.tracking() {
		return true
	}
	nb := qc.buffered.Add(n)
	if (qc.maxBytes != 0 && nb > qc.maxBytes) ||
		(qc.spillThreshold != 0 && nb > qc.spillThreshold) {
		qc.buffered.Add(-n)
		return false
	}
	return true
}

// SpillPolicy reports the context's spill policy (SpillOff for nil).
func (qc *QueryContext) SpillPolicy() SpillPolicy {
	if qc == nil {
		return SpillOff
	}
	return SpillPolicy(qc.spill.Load())
}

// ForceSpill escalates the policy to SpillForced for the engine's
// forced-spill rerun: operators whose reservations merely FIT the budget
// can starve a later irreducible charge (a temp page buffer has no spill
// path), so the rerun refuses every reservation and pushes all spillable
// state to disk.
func (qc *QueryContext) ForceSpill() {
	if qc == nil {
		return
	}
	qc.spill.Store(uint32(SpillForced))
}

// ReleaseBuffered returns n bytes to the memory budget, e.g. when a
// hash join closes and frees its build side.
func (qc *QueryContext) ReleaseBuffered(n int64) {
	if qc == nil || !qc.tracking() {
		return
	}
	qc.buffered.Add(-n)
}

// ResetUsage zeroes the row and buffered-byte counters and, if the
// query was canceled by a budget (not a timeout or explicit cancel),
// re-arms it. The engine's degradation ladder calls it before each
// rerun: the rerun gets the full budgets back but the original deadline
// keeps ticking.
func (qc *QueryContext) ResetUsage() {
	if qc == nil {
		return
	}
	qc.rows.Store(0)
	qc.buffered.Store(0)
	qc.mu.Lock()
	defer qc.mu.Unlock()
	if qc.cause != nil && errors.Is(qc.cause, ErrBudgetExceeded) {
		qc.cause = nil
		ch := make(chan struct{})
		qc.done.Store(&ch)
	}
}

// RowsProduced reports rows charged so far (for tests and tracing).
func (qc *QueryContext) RowsProduced() int64 {
	if qc == nil {
		return 0
	}
	return qc.rows.Load()
}

// BytesBuffered reports bytes currently charged (for tests and tracing).
func (qc *QueryContext) BytesBuffered() int64 {
	if qc == nil {
		return 0
	}
	return qc.buffered.Load()
}
