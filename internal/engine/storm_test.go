package engine_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/qctx"
)

// The multi-client chaos storm: many client goroutines hammer ONE engine
// through the admission gateway while the fault injector is armed. Every
// query must end in exactly one of two ways — a result that matches the
// pre-computed nested-iteration oracle, or a typed lifecycle error
// (injected fault, timeout, cancellation, budget, overload shed). The
// memory pool must never overcommit, and after a drain the engine must be
// back at baseline: no temp files, no in-flight storage operations, no
// goroutines.

// stormCleanErr extends cleanChaosErr with the admission-layer outcome a
// storm legitimately produces: a shed (full queue or drain).
func stormCleanErr(err error) bool {
	return cleanChaosErr(err) || errors.Is(err, qctx.ErrOverloaded)
}

// rungs are the degradation rungs a completed query can have climbed,
// each named by the trace line it leaves on the Result.
var rungs = [...]struct{ name, line string }{
	{"degraded lease", "admission: degraded memory lease"},
	{"sequential rerun", "retrying sequentially"},
	{"forced-spill rerun", "retrying with forced spill"},
	{"transient retry", "transient fault ("},
	{"fallback", "fallback to nested iteration"},
}

// rescueCensus counts, per rung, the completed queries whose trace shows
// they climbed it, so one -v run of a storm says which rungs still
// rescue anything. The storms log it and assert nothing: their
// interleavings do not replay.
type rescueCensus struct {
	mu sync.Mutex
	n  [len(rungs)]int
}

func (c *rescueCensus) add(res *engine.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, r := range rungs {
		if slices.ContainsFunc(res.Trace, func(l string) bool { return strings.Contains(l, r.line) }) {
			c.n[i]++
		}
	}
}

func (c *rescueCensus) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	parts := make([]string, len(rungs))
	for i, r := range rungs {
		parts[i] = fmt.Sprintf("%s %d", r.name, c.n[i])
	}
	return strings.Join(parts, ", ")
}

// armFaults arms db with a fresh injector of plan and, should the test
// fail, logs the plan's text form — what replays the schedule.
func armFaults(t *testing.T, db *engine.DB, plan fault.Plan) *fault.Injector {
	t.Helper()
	in := fault.New(plan)
	db.SetFaults(in)
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("armed fault plan: %v", plan)
		}
	})
	return in
}

// stormFaults is the plan shared by the storm tests: the chaos harness's
// schedule, covering anonymous materialization temps and the transform
// algorithms' named (now query-suffixed) temp tables.
func stormFaults(seed int64) fault.Plan {
	return fault.Plan{
		Seed:         seed,
		Rates:        fault.Rates{fault.StorageRead: 0.02, fault.StorageTear: 0.2, fault.StorageLatency: 0.01},
		TearPrefixes: []string{"$tmp", "TEMP"},
		Latency:      200 * time.Microsecond,
	}
}

// stormCorpus generates n random queries over the fuzz database together
// with their fault-free nested-iteration oracle answers. The oracle runs
// before faults or admission are armed.
func stormCorpus(t *testing.T, db *engine.DB, rng *rand.Rand, n int) (queries []string, oracle []*engine.Result) {
	t.Helper()
	g := &queryGen{rng: rng}
	for len(queries) < n {
		sql := g.genQuery()
		ni, err := db.Query(sql, engine.Options{Strategy: engine.NestedIteration})
		if err != nil {
			t.Fatalf("fault-free NI failed for %q: %v", sql, err)
		}
		queries = append(queries, sql)
		oracle = append(oracle, ni)
	}
	return queries, oracle
}

// stormOpts picks one of the execution variants a storm client rotates
// through: nested iteration, sequential transform, parallel transform
// (sometimes forced), occasionally with a tight deadline or an oversized
// memory request to exercise queue timeouts and degraded leases.
func stormOpts(rng *rand.Rand, poolBytes int64) engine.Options {
	opts := engine.Options{Timeout: 30 * time.Second}
	switch rng.Intn(4) {
	case 0:
		opts.Strategy = engine.NestedIteration
	case 1:
		opts.Strategy = engine.TransformJA2
	default:
		opts.Strategy = engine.TransformJA2
		opts.Planner.Parallelism = 4
		opts.Planner.ForceParallel = rng.Intn(2) == 0
	}
	if rng.Intn(8) == 0 {
		// A deadline shorter than the queue wait under load: exercises
		// deadline-aware waiting and queue-timeout rejection.
		opts.Timeout = time.Duration(rng.Intn(5)+1) * time.Millisecond
	}
	if rng.Intn(4) == 0 {
		// Ask for more than a fair pool share so concurrent big askers
		// force degraded (partial) leases.
		opts.MaxBytes = poolBytes/2 + int64(rng.Intn(int(poolBytes/4)))
	}
	return opts
}

func TestChaosStorm(t *testing.T) {
	const clients = 8
	rounds := 16 // per client; 8×16 = 128 storm rounds
	if testing.Short() {
		rounds = 8
	}
	baseline := runtime.NumGoroutine()

	seed := int64(77000)
	rng := rand.New(rand.NewSource(seed))
	db := fuzzDB(t, rng)
	queries, oracle := stormCorpus(t, db, rng, 24)

	const poolBytes = 1 << 20
	ctrl := db.EnableAdmission(admission.Config{
		MaxConcurrent: 3,
		QueueDepth:    2,
		PoolBytes:     poolBytes,
		RetryMax:      2,
	})
	inj := armFaults(t, db, stormFaults(seed))

	var okRuns, errRuns int64
	var census rescueCensus
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			crng := rand.New(rand.NewSource(seed + int64(c) + 1))
			for r := range rounds {
				qi := crng.Intn(len(queries))
				sql := queries[qi]
				res, err := db.Query(sql, stormOpts(crng, poolBytes))
				if err != nil {
					atomic.AddInt64(&errRuns, 1)
					if !stormCleanErr(err) {
						t.Errorf("client %d round %d: unclean error for %q: %v", c, r, sql, err)
						return
					}
					continue
				}
				atomic.AddInt64(&okRuns, 1)
				census.add(res)
				// A query that survived the storm must be correct.
				if d := diffNI(sql, res, oracle[qi]); d != "" {
					t.Errorf("client %d round %d: wrong result for %q: %s", c, r, sql, d)
					return
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("storm hung\n%s", buf[:runtime.Stack(buf, true)])
	}
	if t.Failed() {
		return
	}

	st := ctrl.Stats()
	t.Logf("storm: %d ok, %d typed errors, %d faults injected; %s",
		okRuns, errRuns, inj.Injected(), st)
	t.Logf("storm rescues: %s; %d pressure grants", &census, st.PressureGrants)
	if st.PoolPeak > poolBytes {
		t.Errorf("memory pool overcommitted: peak %d > pool %d", st.PoolPeak, poolBytes)
	}
	if st.Admitted == 0 || okRuns == 0 {
		t.Error("storm admitted or completed no queries; the harness exercises nothing")
	}
	if inj.Injected() == 0 {
		t.Error("no faults injected; the storm ran fault-free")
	}

	// Drain: in-flight work finishes (or is canceled), then the engine
	// must be idle with nothing leaked.
	if err := db.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain after storm: %v", err)
	}
	if n := inj.InFlight(); n != 0 {
		t.Errorf("drain left %d storage operation(s) in flight", n)
	}
	if n := db.Store().TempCount(); n != 0 {
		t.Errorf("storm leaked %d temp file(s)", n)
	}
	waitGoroutineBaseline(t, baseline, "storm")

	// The drained engine sheds new work with the typed overload error...
	if _, err := db.Query(queries[0], engine.Options{Strategy: engine.TransformJA2}); !errors.Is(err, qctx.ErrOverloaded) {
		t.Errorf("query against drained engine: got %v, want ErrOverloaded", err)
	}
	// ...and after Resume, with faults disarmed, the differential oracle
	// must still hold: the storm corrupted no base table.
	ctrl.Resume()
	db.SetFaults(nil)
	for qi, sql := range queries {
		res, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2})
		if err != nil {
			t.Fatalf("post-storm rerun failed for %q: %v", sql, err)
		}
		if d := diffNI(sql, res, oracle[qi]); d != "" {
			t.Fatalf("post-storm differential mismatch for %q: %s", sql, d)
		}
	}
}

// TestDrainUnderFaults drains the engine in the middle of a faulted storm:
// Drain must return within its deadline, every straggler must be canceled
// cleanly, and the injector's in-flight gauge, the temp-file count, and
// the goroutine count must all return to baseline.
func TestDrainUnderFaults(t *testing.T) {
	baseline := runtime.NumGoroutine()
	seed := int64(78000)
	rng := rand.New(rand.NewSource(seed))
	db := fuzzDB(t, rng)
	queries, _ := stormCorpus(t, db, rng, 12)

	db.EnableAdmission(admission.Config{
		MaxConcurrent: 4,
		QueueDepth:    8,
		PoolBytes:     1 << 20,
	})
	inj := armFaults(t, db, stormFaults(seed))

	var stop atomic.Bool
	var wg sync.WaitGroup
	started := make(chan struct{}, 6)
	for c := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			crng := rand.New(rand.NewSource(seed + int64(c) + 1))
			first := true
			for !stop.Load() {
				sql := queries[crng.Intn(len(queries))]
				opts := engine.Options{Strategy: engine.TransformJA2, Timeout: 30 * time.Second}
				if crng.Intn(2) == 0 {
					opts.Planner.Parallelism = 4
				}
				_, err := db.Query(sql, opts)
				if first {
					first = false
					started <- struct{}{}
				}
				if err != nil && !stormCleanErr(err) {
					t.Errorf("client %d: unclean error for %q: %v", c, sql, err)
					return
				}
			}
		}()
	}
	// Wait until every client has completed at least one query, then let
	// the storm run a moment longer so the drain lands mid-flight.
	for range 6 {
		<-started
	}
	time.Sleep(30 * time.Millisecond)

	if err := db.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain under faults: %v", err)
	}
	stop.Store(true)
	wg.Wait()

	if n := inj.InFlight(); n != 0 {
		t.Errorf("drain left %d storage operation(s) in flight", n)
	}
	if n := db.Store().TempCount(); n != 0 {
		t.Errorf("drain leaked %d temp file(s)", n)
	}
	waitGoroutineBaseline(t, baseline, "drain under faults")

	// Resume: the engine is healthy again.
	db.Admission().Resume()
	db.SetFaults(nil)
	if _, err := db.Query(queries[0], engine.Options{Strategy: engine.TransformJA2}); err != nil {
		t.Fatalf("query after resume: %v", err)
	}
}

// TestConcurrentQueriesWithoutAdmission is the plain-concurrency
// regression test: two clients issue queries simultaneously against one
// engine with NO admission gateway. Per-query temp-table namespacing and
// the concurrent-safe catalog must keep the runs independent — under
// -race this guards the shared-state audit, not just the gateway.
func TestConcurrentQueriesWithoutAdmission(t *testing.T) {
	rng := rand.New(rand.NewSource(79000))
	db := fuzzDB(t, rng)
	queries, oracle := stormCorpus(t, db, rng, 12)

	var wg sync.WaitGroup
	for c := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The two clients walk the corpus in opposite directions, so
			// different queries (and the same query) overlap in time.
			for pass := range 3 {
				for i := range queries {
					qi := i
					if c == 1 {
						qi = len(queries) - 1 - i
					}
					sql := queries[qi]
					opts := engine.Options{Strategy: engine.TransformJA2}
					if pass == 2 {
						opts.Planner.Parallelism = 2
					}
					res, err := db.Query(sql, opts)
					if err != nil {
						t.Errorf("client %d: %q failed: %v", c, sql, err)
						return
					}
					if d := diffNI(sql, res, oracle[qi]); d != "" {
						t.Errorf("client %d: wrong result for %q: %s", c, sql, d)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := db.Store().TempCount(); n != 0 {
		t.Errorf("concurrent queries leaked %d temp file(s)", n)
	}
}

// TestAdmissionRejectsExpiredDeadline checks satellite requirement (1) at
// the engine level: a query whose deadline is already gone — or expires
// while queued — is rejected with ErrQueryTimeout before any operator
// opens, so the store sees zero I/O from it.
func TestAdmissionRejectsExpiredDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(80000))
	db := fuzzDB(t, rng)
	queries, _ := stormCorpus(t, db, rng, 1)
	ctrl := db.EnableAdmission(admission.Config{MaxConcurrent: 1, QueueDepth: 4})

	// Pre-expired deadline: rejected at the gate.
	before := db.Store().Stats()
	if _, err := db.Query(queries[0], engine.Options{Timeout: -time.Nanosecond}); !errors.Is(err, qctx.ErrQueryTimeout) {
		t.Fatalf("pre-expired deadline: got %v, want ErrQueryTimeout", err)
	}
	if got := db.Store().Stats().Sub(before); got.Total() != 0 {
		t.Errorf("pre-expired query performed I/O: %v", got)
	}
	if st := ctrl.Stats(); st.Admitted != 0 {
		t.Errorf("pre-expired query was admitted: %+v", st)
	}

	// Deadline expiring IN the queue: occupy the only slot directly, so
	// the queued query's wait provably consumes its whole budget.
	slot, err := ctrl.Admit(admission.Request{})
	if err != nil {
		t.Fatal(err)
	}
	before = db.Store().Stats()
	if _, err := db.Query(queries[0], engine.Options{Timeout: 20 * time.Millisecond}); !errors.Is(err, qctx.ErrQueryTimeout) {
		t.Fatalf("queue-expired deadline: got %v, want ErrQueryTimeout", err)
	}
	if got := db.Store().Stats().Sub(before); got.Total() != 0 {
		t.Errorf("queue-expired query performed I/O: %v", got)
	}
	if st := ctrl.Stats(); st.QueueTimeouts != 1 {
		t.Errorf("QueueTimeouts = %d, want 1", st.QueueTimeouts)
	}
	slot.Release()

	// With the slot free the same query and deadline succeed.
	if _, err := db.Query(queries[0], engine.Options{Timeout: 10 * time.Second}); err != nil {
		t.Fatalf("query after slot freed: %v", err)
	}
}

// waitGoroutineBaseline polls until the goroutine count returns to the
// pre-test baseline, dumping all stacks on timeout.
func waitGoroutineBaseline(t *testing.T, baseline int, label string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%s: goroutines leaked: baseline=%d now=%d\n%s",
				label, baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
