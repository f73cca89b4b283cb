// Worker health: the failover state machine and the error taxonomy that
// drives it.
//
// Every worker is in one of four states:
//
//	healthy ──transport failure──▶ suspect ──breaker trips──▶ dead
//	   ▲                             │                          │
//	   │◀──────success / probe───────┘                          │
//	   │                                                        ▼
//	   └───────────rejoin ok─────────── rejoining ◀───probe dials OK
//
// A suspect worker stays in the routing table (its next success heals
// it); a dead worker does not, and returns only through Rejoin. Two
// things kill a worker outright: missing a DML/DDL write another replica
// acknowledged (markDiverged), and answering "unknown relation" for a
// physical table it hosts (markDead: it restarted empty).
//
// A transport strike never kills a worker that holds a shard's only live
// copy: it stays suspect and routable, failing typed with ErrWorkerLost
// until a probe heals it. A divergence does kill it, and its copy becomes
// the shard's last copy: every write since its last rejoin either reached
// it or killed it, so it holds every acked row, and no other replica of
// the shard can rejoin before it. Lost state is never a last copy.
//
// A typed server error (overload shed, timeout, row budget, user error)
// proves the worker alive and passes to the client untouched — otherwise
// one bad query could poison the whole routing table.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"slices"
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

// ErrShardUnavailable reports a shard whose every replica is dead.
var ErrShardUnavailable = errors.New("cluster: no live replica for shard")

// workerState is one node of the failover state machine.
type workerState int32

const (
	workerHealthy workerState = iota
	workerSuspect
	workerDead
	workerRejoining
)

var stateNames = [...]string{"healthy", "suspect", "dead", "rejoining"}

func (s workerState) String() string { return stateNames[s] }

// breakerThreshold is the circuit breaker: this many consecutive
// transport failures moves suspect to dead (a last live copy excepted).
const breakerThreshold = 2

// healthTracker holds per-worker state under its own mutex, separate
// from the coordinator's statement lock so health reads never contend
// with query execution.
type healthTracker struct {
	mu       sync.Mutex
	states   []workerState
	fails    []int       // consecutive transport failures
	replicas [][]int     // shard -> the workers hosting it
	last     map[int]int // shard -> the worker holding its last copy
}

func newHealthTracker(replicas [][]int) *healthTracker {
	n := len(replicas)
	return &healthTracker{states: make([]workerState, n), fails: make([]int, n), replicas: replicas, last: make(map[int]int)}
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
	return h.isLive(w)
}

func (h *healthTracker) isLive(w int) bool {
	return h.states[w] == workerHealthy || h.states[w] == workerSuspect
}

// livePeer returns a live replica of shard s other than w, or -1.
func (h *healthTracker) livePeer(w, s int) int {
	for _, r := range h.replicas[s] {
		if r != w && h.isLive(r) {
			return r
		}
	}
	return -1
}

// soleShards lists the shards w hosts that have no other live replica.
func (h *healthTracker) soleShards(w int) (out []int) {
	for s, rs := range h.replicas {
		if slices.Contains(rs, w) && h.livePeer(w, s) < 0 {
			out = append(out, s)
		}
	}
	return out
}

// markFailure records a transport failure: healthy turns suspect, and
// breakerThreshold consecutive failures trip the breaker to dead —
// unless w holds a shard's only live copy.
func (h *healthTracker) markFailure(w int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.isLive(w) {
		h.fails[w]++
		h.states[w] = workerSuspect
		if h.fails[w] >= breakerThreshold && len(h.soleShards(w)) == 0 {
			h.states[w] = workerDead
		}
	}
}

// markDiverged records that w missed a write shard s committed: a live w
// leaves the routing table as the last copy of every shard it alone held
// live — never of s, even if the peer that acked was struck dead since.
func (h *healthTracker) markDiverged(w, s int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.isLive(w) {
		for _, t := range h.soleShards(w) {
			h.last[t] = w
		}
		h.states[w] = workerDead
	}
	if l, ok := h.last[s]; ok && l == w {
		delete(h.last, s)
	}
}

// markDead records lost state (a hosted table answered "unknown
// relation"): w leaves the routing table until a rejoin, and no copy of
// it is a shard's last.
func (h *healthTracker) markDead(w int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for s, l := range h.last {
		if l == w {
			delete(h.last, s)
		}
	}
	if h.isLive(w) {
		h.states[w] = workerDead
	}
}

// rejoinSource is the rejoin rule for w's copy of shard s: a live peer to
// re-ship it from; else w itself, when it holds the shard's last copy;
// else -1, no copy to trust.
func (h *healthTracker) rejoinSource(w, s int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if r := h.livePeer(w, s); r >= 0 {
		return r
	}
	if l, ok := h.last[s]; ok && l == w {
		return w
	}
	return -1
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

// beginRejoin claims a dead worker for rejoining; false when the worker
// is not dead (already rejoining, or was never lost).
func (h *healthTracker) beginRejoin(w int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.states[w] != workerDead {
		return false
	}
	h.states[w] = workerRejoining
	return true
}

// finishRejoin completes a rejoin: back to dead on failure (the next
// probe retries); healthy on success, with a whole copy of every shard w
// hosts, so none of them waits on a last copy any more.
func (h *healthTracker) finishRejoin(w int, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.states[w] != workerRejoining {
		return
	}
	h.states[w] = workerDead
	if ok {
		h.states[w], h.fails[w] = workerHealthy, 0
		for s, rs := range h.replicas {
			if slices.Contains(rs, w) {
				delete(h.last, s)
			}
		}
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
		// is slow, not gone. Silent partitions still count: the frame-wait
		// IOTimeout arrives wrapped in ErrConnectionLost (matched above),
		// and withWorker strikes a failed dial without asking.
		return false
	}
	return client.LinkFailure(err)
}

// unknownRelation reports a typed "unknown relation" answer: for a
// physical table the worker hosts, it restarted empty (lost state, see
// lostShard); for a table being dropped, it is already gone.
func unknownRelation(err error) bool {
	var re *wire.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Frame.Message, "unknown relation")
}

// lostShard reports an "unknown relation" answer from worker w that names
// a physical slice (shardTable's T__S<n>) of a shard w hosts: the worker
// restarted empty and must rejoin. Any other missing name — a logical
// table a statement named, say — is a wrong statement, not lost state.
func (co *Coordinator) lostShard(w int, err error) bool {
	return unknownRelation(err) && slices.ContainsFunc(co.hostedShards(w), func(s int) bool {
		return strings.HasSuffix(err.Error(), shardTable("", s))
	})
}
