// Worker health: the failover state machine and the error taxonomy that
// drives it.
//
// Every worker is in one of four states:
//
//	healthy ──transport failure──▶ suspect ──breaker trips──▶ dead
//	   ▲                             │                          │
//	   │◀──────success / probe───────┘                          │
//	   │                                                        ▼
//	   └──────snapshot re-ship ok────── rejoining ◀───probe dials OK
//
// A suspect worker stays in the routing table (its next success heals
// it); a dead worker does not, and can only return through Rejoin — a
// full snapshot re-ship from a live replica, or, for a shard with none,
// proof that every replica holds the same copy — because a worker that
// missed even one committed write has diverged and must not serve
// reads. Two things kill a worker outright, skipping suspect: missing a
// DML/DDL write that another replica acknowledged, and answering
// "unknown relation" for a physical table it is supposed to host (the
// restarted-empty detector).
//
// Only transport-class failures move the state machine. A typed server
// error (overload shed, timeout, row budget, user error) proves the
// worker is alive and is propagated to the client untouched — otherwise
// one bad query could poison the whole routing table.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"

	"repro/internal/client"
	"repro/internal/wire"
)

// ErrWorkerLost reports a worker link that failed at the transport
// level. Match with errors.Is; the concrete *WorkerLostError carries
// the worker index and cause.
var ErrWorkerLost = errors.New("cluster: worker lost")

// WorkerLostError wraps the transport failure behind a lost worker. It
// matches ErrWorkerLost and its cause.
type WorkerLostError struct {
	Worker int
	Addr   string
	Cause  error
}

func (e *WorkerLostError) Error() string {
	return fmt.Sprintf("cluster: worker %d (%s) lost: %v", e.Worker, e.Addr, e.Cause)
}

// Unwrap exposes both the sentinel and the cause (multi-error unwrap).
func (e *WorkerLostError) Unwrap() []error {
	return []error{ErrWorkerLost, e.Cause}
}

// ErrShardUnavailable reports a shard with no live replica left — every
// worker hosting it is dead or unreachable.
var ErrShardUnavailable = errors.New("cluster: no live replica for shard")

// workerState is one node of the failover state machine.
type workerState int32

const (
	workerHealthy workerState = iota
	workerSuspect
	workerDead
	workerRejoining
)

func (s workerState) String() string {
	switch s {
	case workerHealthy:
		return "healthy"
	case workerSuspect:
		return "suspect"
	case workerDead:
		return "dead"
	case workerRejoining:
		return "rejoining"
	default:
		return fmt.Sprintf("workerState(%d)", int32(s))
	}
}

// breakerThreshold is the circuit breaker: this many consecutive
// transport failures moves suspect to dead.
const breakerThreshold = 2

// healthTracker holds per-worker state under its own mutex, separate
// from the coordinator's statement lock so health reads never contend
// with query execution.
type healthTracker struct {
	mu     sync.Mutex
	states []workerState
	fails  []int // consecutive transport failures
}

func newHealthTracker(n int) *healthTracker {
	return &healthTracker{states: make([]workerState, n), fails: make([]int, n)}
}

func (h *healthTracker) state(w int) workerState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.states[w]
}

// live reports whether w may serve reads and accept writes: healthy or
// suspect, but never dead or mid-rejoin.
func (h *healthTracker) live(w int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.states[w] == workerHealthy || h.states[w] == workerSuspect
}

// markFailure records a transport failure: healthy turns suspect, and
// breakerThreshold consecutive failures trip the breaker to dead.
func (h *healthTracker) markFailure(w int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.states[w] {
	case workerHealthy, workerSuspect:
		h.fails[w]++
		if h.fails[w] >= breakerThreshold {
			h.states[w] = workerDead
		} else {
			h.states[w] = workerSuspect
		}
	}
}

// markDead records a divergence (a missed write, a lost table): the
// worker leaves the routing table until a snapshot re-ship.
func (h *healthTracker) markDead(w int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.states[w] != workerRejoining {
		h.states[w] = workerDead
	}
}

// markSuccess records a clean exchange: a suspect worker heals.
func (h *healthTracker) markSuccess(w int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fails[w] = 0
	if h.states[w] == workerSuspect {
		h.states[w] = workerHealthy
	}
}

// beginRejoin claims a dead worker for snapshot re-shipping; false when
// the worker is not dead (already rejoining, or was never lost).
func (h *healthTracker) beginRejoin(w int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.states[w] != workerDead {
		return false
	}
	h.states[w] = workerRejoining
	return true
}

// finishRejoin completes a rejoin: healthy on success, back to dead on
// failure (the next probe retries).
func (h *healthTracker) finishRejoin(w int, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.states[w] != workerRejoining {
		return
	}
	if ok {
		h.states[w], h.fails[w] = workerHealthy, 0
	} else {
		h.states[w] = workerDead
	}
}

// snapshot returns every worker's state name, for tests and harnesses.
func (h *healthTracker) snapshot() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, len(h.states))
	for i, s := range h.states {
		out[i] = s.String()
	}
	return out
}

// transportFailure classifies an error from a worker exchange: true for
// anything that means the link (or the worker) died — connection loss,
// dial refusal, corrupt framing, EOF — and false for typed server
// answers, which prove the worker alive.
func transportFailure(err error) bool {
	var re *wire.RemoteError
	if errors.As(err, &re) {
		return false
	}
	if errors.Is(err, ErrWorkerLost) || errors.Is(err, client.ErrConnectionLost) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		// A deadline tripping on an established exchange means the worker
		// is slow, not gone — breaker evidence is link death only. Real
		// silent partitions still count: the client's frame-wait IOTimeout
		// arrives wrapped in ErrConnectionLost (matched above), and dial
		// timeouts to an unreachable worker are counted by withWorker without
		// consulting this classifier.
		return false
	}
	return client.LinkFailure(err)
}

// unknownRelation reports a typed "unknown relation" answer. Against a
// physical table the worker is supposed to host, it is the restarted-
// empty detector: the worker came back with no state and must rejoin
// before serving again. Against a staging table mid-cleanup it just
// means already dropped.
func unknownRelation(err error) bool {
	var re *wire.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Frame.Message, "unknown relation")
}
