// The typed error taxonomy of the lifecycle and admission layers. Every
// failure a governed query can produce belongs to exactly one family,
// each anchored by a sentinel matchable with errors.Is through any
// amount of wrapping (fmt.Errorf %w chains, PanicError containment, the
// admission layer's OverloadError). Callers — the REPL, the chaos
// harness, retry logic — branch on these sentinels, never on error
// strings.
//
// The families:
//
//	ErrQueryTimeout   the query ran past its deadline (including while
//	                  waiting in the admission queue)
//	ErrCanceled       explicit cancellation (Ctrl-C, caller, drain)
//	ErrBudgetExceeded resource budgets; ErrRowBudget and ErrMemoryBudget
//	                  wrap it to identify the resource
//	ErrOverloaded     the admission layer shed the query (full queue or
//	                  draining engine); carries a retry-after hint
//	ErrInjectedFault  a fault the chaos harness injected (transient and
//	                  retryable)
//	ErrSpillCorrupt   a spill run failed its checksum or decode; the
//	                  query never saw wrong rows, and a clean re-run can
//	                  succeed (transient and retryable)
package qctx

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/fault"
)

// Typed lifecycle errors. Budget violations wrap ErrBudgetExceeded so
// callers can test the family with errors.Is and still distinguish the
// resource via ErrRowBudget / ErrMemoryBudget.
var (
	// ErrQueryTimeout reports that the query ran past its deadline.
	ErrQueryTimeout = errors.New("query timeout exceeded")
	// ErrCanceled reports an explicit cancellation (Ctrl-C, caller).
	ErrCanceled = errors.New("query canceled")
	// ErrBudgetExceeded is the common ancestor of all budget errors.
	ErrBudgetExceeded = errors.New("query budget exceeded")
	// ErrRowBudget reports that the query produced more result rows
	// than its row budget allows.
	ErrRowBudget = fmt.Errorf("row limit: %w", ErrBudgetExceeded)
	// ErrMemoryBudget reports that hash builds / sort buffers exceeded
	// the per-query memory budget.
	ErrMemoryBudget = fmt.Errorf("memory limit: %w", ErrBudgetExceeded)

	// ErrOverloaded reports that the admission layer refused the query:
	// the queue was full, or the engine is draining. Concrete errors are
	// *OverloadError values carrying a retry-after hint.
	ErrOverloaded = errors.New("engine overloaded")

	// ErrInjectedFault is internal/fault's sentinel, re-exported so the
	// taxonomy is complete in one place. It is a transient family: see
	// Retryable.
	ErrInjectedFault = fault.ErrInjected

	// ErrSpillCorrupt reports that a spill run file failed its CRC32C
	// checksum (or could not be decoded) when read back. The executor
	// guarantees corruption is detected before any row from the damaged
	// run is returned, so the result is never wrong — the query fails
	// typed, and because the runs are rewritten from scratch on a
	// re-run, the family is transient and retryable.
	ErrSpillCorrupt = errors.New("corrupt spill run")
)

// OverloadError is the concrete shed error: the admission queue was full
// (or the engine was draining) and the query was rejected without doing
// any work. RetryAfter is the controller's estimate of when capacity will
// free up — a hint, not a promise.
type OverloadError struct {
	Reason     string // "queue full", "draining"
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v (%s; retry after %v)", ErrOverloaded, e.Reason, e.RetryAfter)
}

// Unwrap ties every OverloadError to the ErrOverloaded sentinel.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// Retryable reports whether an error is worth a transient retry of the
// whole query: an injected fault (possibly contained from a
// panic) or a corrupt spill run, as long as it is not also a lifecycle
// outcome. Timeouts, cancellations, budget violations and sheds are
// final — retrying them either cannot succeed or would override the
// caller.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrQueryTimeout) || errors.Is(err, ErrCanceled) ||
		errors.Is(err, ErrBudgetExceeded) || errors.Is(err, ErrOverloaded) {
		return false
	}
	return errors.Is(err, ErrInjectedFault) || errors.Is(err, ErrSpillCorrupt)
}
