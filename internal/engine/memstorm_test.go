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
	"repro/internal/planner"
	"repro/internal/qctx"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/value"
)

// The memory-pressure suite: queries run under byte budgets far below
// their working sets, and with spilling enabled they must degrade to
// disk-backed execution and return results BYTE-IDENTICAL to the
// unbudgeted sequential oracle — same rows, same order. Without
// spilling the same budgets must fail typed (ErrMemoryBudget), which
// also pins the satellite fix that sequential merge-join groups, hash
// aggregation, and temp-table materialization are charged at all.

// memStormCleanErr extends the storm's clean-error set with the two
// spill outcomes chaos legitimately produces: a corrupt run detected by
// its checksum, and an injected spill I/O fault.
func memStormCleanErr(err error) bool {
	return stormCleanErr(err) || errors.Is(err, qctx.ErrSpillCorrupt)
}

// memDB builds RA/RB/RC with enough rows that sorts and join groups
// dwarf the tiny budgets the suite runs under.
func memDB(t *testing.T, seed int64, rows int) *engine.DB {
	t.Helper()
	db := engine.New(8)
	rng := rand.New(rand.NewSource(seed))
	for _, name := range []string{"RA", "RB", "RC"} {
		rel := &schema.Relation{Name: name, Columns: []schema.Column{
			{Name: "K", Type: value.KindInt},
			{Name: "V", Type: value.KindInt},
			{Name: "W", Type: value.KindInt},
		}}
		if err := db.CreateRelation(rel, 4); err != nil {
			t.Fatal(err)
		}
		for range rows {
			row := storage.Tuple{
				value.NewInt(int64(rng.Intn(rows / 3))),
				value.NewInt(int64(rng.Intn(6))),
				value.NewInt(int64(rng.Intn(8))),
			}
			if err := db.Insert(name, row); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Seal(name); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// exactRows renders a result preserving row order — the byte-diff the
// spill contract is held to on deterministic (sequential) plans.
func exactRows(res *engine.Result) string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.String()
	}
	return strings.Join(out, "\n")
}

// mergeJoins forces both join phases to sort-merge so every plan has
// buffering operators (sorts, merge-join groups) to squeeze.
func mergeJoins(o *engine.Options) {
	o.Planner.TempJoin = planner.JoinMerge
	o.Planner.FinalJoin = planner.JoinMerge
}

// The acceptance query: a correlated COUNT (type JA), transformed by
// NEST-JA2 into temp-table materialization, sorts, and a merge join.
const memJAQuery = `SELECT T1.K, T1.V FROM RA T1
	WHERE T1.V = (SELECT COUNT(T2.V) FROM RB T2 WHERE T2.K = T1.K)`

// memStormQueries is the memory-pressure storm's fixed mix: JA
// transforms, grouping, ordering, joins — all shapes with buffering
// operators.
var memStormQueries = []string{
	memJAQuery,
	`SELECT T1.K, T1.V FROM RA T1 WHERE T1.V >= (SELECT COUNT(T2.V) FROM RB T2 WHERE T2.K = T1.K)`,
	`SELECT T1.K, T1.W FROM RB T1 WHERE T1.W > (SELECT MAX(T2.V) FROM RC T2 WHERE T2.K = T1.K)`,
	`SELECT T1.K, T1.V FROM RC T1 WHERE T1.V IN (SELECT T2.V FROM RA T2 WHERE T2.K = T1.K)`,
	`SELECT T1.K, T1.V FROM RA T1 WHERE EXISTS (SELECT T2.V FROM RB T2 WHERE T2.K = T1.K AND T2.V < T1.V)`,
}

// TestSpillCompletesUnderSmallBudget is the PR's acceptance criterion:
// a NEST-JA2 query that fails with ErrMemoryBudget under a small budget
// completes with spilling enabled, byte-identical to the unbudgeted
// sequential run, and leaves the spill directory empty.
func TestSpillCompletesUnderSmallBudget(t *testing.T) {
	db := memDB(t, 91000, 90)
	// Above one temp-table page buffer (the irreducible working set of
	// materialization, which models disk and cannot spill) but far below
	// the ~10KB the sorts and join groups want to buffer.
	const budget = 4096

	oracleOpts := engine.Options{Strategy: engine.TransformJA2}
	mergeJoins(&oracleOpts)
	oracle, err := db.Query(memJAQuery, oracleOpts)
	if err != nil {
		t.Fatalf("unbudgeted oracle: %v", err)
	}
	if len(oracle.Rows) == 0 {
		t.Fatal("oracle returned no rows; the fixture exercises nothing")
	}

	// Seed behavior: the budget alone kills the query.
	tight := oracleOpts
	tight.MaxBytes = budget
	if _, err := db.Query(memJAQuery, tight); !errors.Is(err, qctx.ErrMemoryBudget) {
		t.Fatalf("budget %d without spill: got %v, want ErrMemoryBudget", budget, err)
	}

	// With a spill manager the same budget degrades instead of failing.
	if err := db.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(memJAQuery, tight)
	if err != nil {
		t.Fatalf("budget %d with spill: %v", budget, err)
	}
	if got, want := exactRows(res), exactRows(oracle); got != want {
		t.Fatalf("spilled result differs from oracle:\n  got:  %s\n  want: %s", got, want)
	}
	if res.Spill.Runs == 0 {
		t.Fatal("query completed under budget without writing a single spill run — no pressure exercised")
	}
	if left := spillLeft(db); left != "" {
		t.Fatalf("after the query: %s left behind", left)
	}
	if n := db.Store().TempCount(); n != 0 {
		t.Fatalf("query leaked %d temp file(s)", n)
	}
}

// TestSequentialBudgetCharged pins the satellite fix: SEQUENTIAL plans
// (merge-join group buffers, temp-table materialization, aggregation)
// must charge the memory budget. At the seed none of them called
// AddBuffered, so this query sailed under any budget.
func TestSequentialBudgetCharged(t *testing.T) {
	db := memDB(t, 92000, 90)
	opts := engine.Options{Strategy: engine.TransformJA2, MaxBytes: 512}
	mergeJoins(&opts)
	if _, err := db.Query(memJAQuery, opts); !errors.Is(err, qctx.ErrMemoryBudget) {
		t.Fatalf("sequential NEST-JA2 under 512-byte budget: got %v, want ErrMemoryBudget", err)
	}
	if n := db.Store().TempCount(); n != 0 {
		t.Fatalf("failed query leaked %d temp file(s)", n)
	}
}

// TestSpillForcedMatchesOracle pushes every buffering operator through
// spill runs with no budget at all (the policy the chaos and metamorph
// suites lean on) and still demands byte-identical output, across the
// whole fuzz corpus.
func TestSpillForcedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(93000))
	db := fuzzDB(t, rng)
	queries, _ := stormCorpus(t, db, rng, 16)
	if err := db.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	spilled := int64(0)
	for _, sql := range queries {
		oopts := engine.Options{Strategy: engine.TransformJA2}
		mergeJoins(&oopts)
		oracle, err := db.Query(sql, oopts)
		if err != nil {
			t.Fatalf("oracle for %q: %v", sql, err)
		}
		fopts := oopts
		fopts.Spill = qctx.SpillForced
		res, err := db.Query(sql, fopts)
		if err != nil {
			t.Fatalf("forced-spill run for %q: %v", sql, err)
		}
		if got, want := exactRows(res), exactRows(oracle); got != want {
			t.Fatalf("forced-spill result differs for %q:\n  got:  %s\n  want: %s", sql, got, want)
		}
		spilled += res.Spill.Runs
	}
	if spilled == 0 {
		t.Fatal("no query wrote a spill run under SpillForced")
	}
	if left := spillLeft(db); left != "" {
		t.Fatalf("after the corpus: %s left behind", left)
	}
}

// TestSpillCorruptRunDetected: a corrupted spill run must surface as a
// typed error — never wrong rows — and must leave the spill directory
// empty afterwards.
func TestSpillCorruptRunDetected(t *testing.T) {
	db := memDB(t, 94000, 90)
	if err := db.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	db.SetFaults(fault.New(fault.Plan{Seed: 9, Rates: fault.Rates{fault.SpillCorrupt: 1}}))
	opts := engine.Options{Strategy: engine.TransformJA2, MaxBytes: 4096}
	mergeJoins(&opts)
	res, err := db.Query(memJAQuery, opts)
	if err == nil {
		t.Fatalf("query over all-corrupt spill runs succeeded with %d rows", len(res.Rows))
	}
	if !errors.Is(err, qctx.ErrSpillCorrupt) {
		t.Fatalf("corrupt run error = %v, want ErrSpillCorrupt", err)
	}
	if left := spillLeft(db); left != "" {
		t.Fatalf("failed query left %s behind", left)
	}
	if n := db.Store().TempCount(); n != 0 {
		t.Fatalf("failed query leaked %d temp file(s)", n)
	}

	// A transient (retryable) corruption: under admission the engine
	// re-runs the query and the retry, fault now spent, succeeds.
	db.SetFaults(fault.New(fault.Plan{Seed: 9, Max: 1, Rates: fault.Rates{fault.SpillCorrupt: 1}}))
	db.EnableAdmission(admission.Config{RetryMax: 3})
	if _, err := db.Query(memJAQuery, opts); err != nil {
		t.Fatalf("retryable corruption not recovered: %v", err)
	}
	if left := spillLeft(db); left != "" {
		t.Fatalf("recovered query left %s behind", left)
	}
}

// spillLeft describes what a finished query left in the spill directory
// — files (a session never closed) or live runs (a count never folded) —
// and is "" when that is nothing.
func spillLeft(db *engine.DB) string {
	files, err := db.SpillManager().LiveFiles()
	if runs := db.SpillManager().LiveRuns(); files != 0 || runs != 0 || err != nil {
		return fmt.Sprintf("%d spill file(s), %d run(s) (err %v)", files, runs, err)
	}
	return ""
}

// TestSpillTimeoutLeakFree hammers the cancel/timeout path: queries
// forced through spill runs are killed by tiny deadlines at random
// points, and every attempt must leave zero spill files, zero temp
// files, and no goroutines.
func TestSpillTimeoutLeakFree(t *testing.T) {
	baseline := runtime.NumGoroutine()
	db := memDB(t, 95000, 90)
	if err := db.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(95001))
	for round := range 40 {
		opts := engine.Options{
			Strategy: engine.TransformJA2,
			Spill:    qctx.SpillForced,
			Timeout:  time.Duration(rng.Intn(900)+50) * time.Microsecond,
		}
		mergeJoins(&opts)
		if rng.Intn(2) == 0 {
			opts.Planner.Parallelism = 4
		}
		_, err := db.Query(memJAQuery, opts)
		if err != nil && !memStormCleanErr(err) {
			t.Fatalf("round %d: unclean error: %v", round, err)
		}
		if left := spillLeft(db); left != "" {
			t.Fatalf("round %d: leaked %s", round, left)
		}
		if n := db.Store().TempCount(); n != 0 {
			t.Fatalf("round %d: %d temp file(s) leaked", round, n)
		}
	}
	waitGoroutineBaseline(t, baseline, "spill timeouts")
}

// TestMemPressureStorm is the tentpole chaos gate: concurrent clients
// run the corpus under budgets far below their working sets, through
// the admission gateway (whose pool is small enough to hand out
// pressure leases), with spill I/O faults armed. Every query must end
// as either a result matching its oracle — byte-identical for
// sequential plans — or a typed error; afterwards the engine must be
// back at baseline with zero spill or temp files.
func TestMemPressureStorm(t *testing.T) {
	const clients = 6
	rounds := 16
	if testing.Short() {
		rounds = 6
	}
	baseline := runtime.NumGoroutine()

	seed := int64(96000)
	db := memDB(t, seed, 120)

	queries := memStormQueries
	oracle := make([]string, len(queries))
	oracleBag := make([]string, len(queries))
	for i, sql := range queries {
		opts := engine.Options{Strategy: engine.TransformJA2}
		mergeJoins(&opts)
		res, err := db.Query(sql, opts)
		if err != nil {
			t.Fatalf("oracle for %q: %v", sql, err)
		}
		oracle[i] = exactRows(res)
		oracleBag[i] = sortedRows(res)
	}

	if err := db.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	// A pool well under clients × working set: the default lease is
	// PoolBytes/MaxConcurrent = 6 KiB, grants are routinely degraded or
	// pressure-sized (below the 1.5 KiB minimum lease), and every lease is
	// small enough to force spilling, but the common lease stays above
	// the irreducible temp-page buffer so most queries can complete.
	const poolBytes = 24 << 10
	ctrl := db.EnableAdmission(admission.Config{
		MaxConcurrent: 4,
		QueueDepth:    4,
		PoolBytes:     poolBytes,
		RetryMax:      2,
	})
	// Fault probabilities are per record appended/read, and a squeezed
	// query moves hundreds of records through spill runs — these rates
	// give roughly one fault every couple of queries.
	inj := armFaults(t, db, fault.Plan{
		Seed:  seed,
		Rates: fault.Rates{fault.SpillWrite: 0.0003, fault.SpillRead: 0.0003, fault.SpillCorrupt: 0.0002},
	})

	var okRuns, errRuns int64
	var peakHeap atomic.Uint64 // HeapInuse, sampled after every round: what pinned row chunks cost
	var census rescueCensus
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			crng := rand.New(rand.NewSource(seed + int64(c) + 1))
			for r := range rounds {
				qi := crng.Intn(len(queries))
				opts := engine.Options{
					Strategy: engine.TransformJA2,
					Timeout:  30 * time.Second,
					// From "below even one temp-page buffer" (a clean
					// typed failure) up to "most of a sort's working
					// set" (spills, then completes).
					MaxBytes: int64(crng.Intn(10<<10) + 1536),
				}
				mergeJoins(&opts)
				parallel := crng.Intn(3) == 0
				if parallel {
					opts.Planner.Parallelism = 4
				}
				if crng.Intn(4) == 0 {
					opts.Spill = qctx.SpillForced
				}
				res, err := db.Query(queries[qi], opts)
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				for peak := peakHeap.Load(); ms.HeapInuse > peak && !peakHeap.CompareAndSwap(peak, ms.HeapInuse); {
					peak = peakHeap.Load()
				}
				if err != nil {
					atomic.AddInt64(&errRuns, 1)
					if !memStormCleanErr(err) {
						t.Errorf("client %d round %d: unclean error for %q: %v", c, r, queries[qi], err)
						return
					}
					continue
				}
				atomic.AddInt64(&okRuns, 1)
				census.add(res)
				if parallel {
					// Parallel output interleaves: bag equality.
					if got := sortedRows(res); got != oracleBag[qi] {
						t.Errorf("client %d round %d: parallel bag mismatch for %q", c, r, queries[qi])
						return
					}
				} else if got := exactRows(res); got != oracle[qi] {
					// Sequential spilled plans are deterministic: the
					// degraded run must be byte-identical to the oracle.
					t.Errorf("client %d round %d: byte diff vs oracle for %q:\n  got:  %s\n  want: %s",
						c, r, queries[qi], got, oracle[qi])
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
		t.Fatalf("memory-pressure storm hung\n%s", buf[:runtime.Stack(buf, true)])
	}
	if t.Failed() {
		return
	}

	st := ctrl.Stats()
	sp := db.SpillStats()
	t.Logf("mem storm: %d ok, %d typed errors; %s; %d spill faults injected",
		okRuns, errRuns, sp, inj.Injected())
	t.Logf("mem storm rescues: %s; %d pressure grants; peak HeapInuse %d KiB", &census, st.PressureGrants, peakHeap.Load()>>10)
	if okRuns == 0 {
		t.Error("no query survived the storm; the harness exercises nothing")
	}
	if sp.Runs == 0 {
		t.Error("storm wrote no spill runs; budgets exerted no pressure")
	}
	if inj.Injected() == 0 {
		t.Error("spill fault injector never fired; the storm exercises no spill I/O faults")
	}
	if st.PoolPeak > poolBytes {
		t.Errorf("memory pool overcommitted: peak %d > pool %d", st.PoolPeak, poolBytes)
	}

	if err := db.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain after storm: %v", err)
	}
	if left := spillLeft(db); left != "" {
		t.Errorf("storm leaked %s", left)
	}
	if n := db.Store().TempCount(); n != 0 {
		t.Errorf("storm leaked %d temp file(s)", n)
	}
	waitGoroutineBaseline(t, baseline, "mem storm")

	// Faults disarmed, admission resumed: the base tables are intact.
	ctrl.Resume()
	db.SetFaults(nil)
	for i, sql := range queries {
		opts := engine.Options{Strategy: engine.TransformJA2, MaxBytes: 8192}
		mergeJoins(&opts)
		res, err := db.Query(sql, opts)
		if err != nil {
			t.Fatalf("post-storm rerun failed for %q: %v", sql, err)
		}
		if got := exactRows(res); got != oracle[i] {
			t.Fatalf("post-storm differential mismatch for %q", sql)
		}
	}
}

// TestBudgetDegradationMonotonic sweeps the memory budget over the storm
// mix under the default planner, where the unbudgeted plans hash-join:
// with spilling on, once a budget completes a query every larger budget
// must too, and every completion must hold the unbudgeted rows. On the
// way down a plan degrades to spilling, then to the forced-spill rerun,
// which must sort-merge: an inline hash join there holds its whole build
// side and fails budgets just above ones the first run completes at.
func TestBudgetDegradationMonotonic(t *testing.T) {
	db := memDB(t, 91000, 120)
	oracle := make([]string, len(memStormQueries))
	for i, sql := range memStormQueries {
		res, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2})
		if err != nil {
			t.Fatalf("oracle for %q: %v", sql, err)
		}
		oracle[i] = sortedRows(res)
	}
	if err := db.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	for qi, sql := range memStormQueries {
		// One subtest per query, so a query that breaks the rule does not
		// hide how the others fare.
		t.Run(fmt.Sprintf("q%d", qi), func(t *testing.T) {
			for _, workers := range []int{0, 4} {
				completedAt := int64(0)
				for budget := int64(1024); budget <= 24<<10; budget += 256 {
					opts := engine.Options{Strategy: engine.TransformJA2, MaxBytes: budget}
					opts.Planner.Parallelism = workers
					res, err := db.Query(sql, opts)
					switch {
					case err == nil:
						if completedAt == 0 {
							completedAt = budget
						}
						if sortedRows(res) != oracle[qi] {
							t.Fatalf("%d workers, %d bytes: rows differ from the unbudgeted run", workers, budget)
						}
					case !errors.Is(err, qctx.ErrMemoryBudget):
						t.Fatalf("%d workers, %d bytes: %v", workers, budget, err)
					case completedAt != 0:
						t.Fatalf("%d workers: completes at %d bytes but fails at %d: %v",
							workers, completedAt, budget, err)
					}
				}
				if completedAt == 0 {
					t.Fatalf("%d workers: no budget up to 24 KiB completes", workers)
				}
			}
		})
	}
	if left := spillLeft(db); left != "" {
		t.Fatalf("after the sweep: %s left behind", left)
	}
}

// TestForcedSpillRerunSortMerges pins how the forced-spill rerun plans a
// query whose joins the caller left to cost: the first run hash-joins,
// and the rerun that follows the trace's "retrying with forced spill"
// line describes merge joins only. Some budget in the sweep must reach
// that rerun and complete, with the unbudgeted rows.
func TestForcedSpillRerunSortMerges(t *testing.T) {
	db := memDB(t, 91000, 120)
	want, err := db.Query(memJAQuery, engine.Options{Strategy: engine.TransformJA2})
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(want, trace.HashJoin) {
		t.Fatalf("the unbudgeted plan does not hash-join; the rerun has nothing to replace:\n%s", traceText(want))
	}
	if err := db.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	reruns := 0
	for budget := int64(1024); budget <= 24<<10; budget += 256 {
		res, err := db.Query(memJAQuery, engine.Options{Strategy: engine.TransformJA2, MaxBytes: budget})
		if err != nil {
			continue
		}
		at := slices.IndexFunc(res.Trace, func(e trace.Event) bool { return e.Kind == trace.ForcedSpillRerun })
		if at < 0 {
			continue
		}
		reruns++
		rerun := res.Trace[at+1:]
		if slices.ContainsFunc(rerun, isKind(trace.HashJoin)) || !slices.ContainsFunc(rerun, isKind(trace.MergeJoin)) {
			t.Errorf("%d bytes: the forced-spill rerun does not sort-merge:\n%s", budget, strings.Join(trace.Lines(rerun), "\n"))
		}
		if sortedRows(res) != sortedRows(want) {
			t.Errorf("%d bytes: the forced-spill rerun's rows differ from the unbudgeted run", budget)
		}
	}
	if reruns == 0 {
		t.Fatal("no budget up to 24 KiB completed through the forced-spill rerun")
	}
}

// TestLadderRungsInOrder pins a query that climbs two rungs of the
// degradation ladder: its forced-parallel plan blows a budget between 3 and
// 7.5 KiB, the sequential rerun blows it too, and the forced-spill rerun
// completes with the unbudgeted rows. The trace describes that one
// completing execution: both rung events, in order, then each
// transformation step once and a plan that sort-merges, with none of the
// failed hash-joining attempts' notes.
func TestLadderRungsInOrder(t *testing.T) {
	db := memDB(t, 91000, 120)
	want, err := db.Query(memJAQuery, engine.Options{Strategy: engine.TransformJA2})
	if err != nil {
		t.Fatal(err)
	}
	steps := slices.DeleteFunc(slices.Clone(want.Trace), func(e trace.Event) bool { return e.Kind != trace.Step })
	if err := db.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{3 << 10, 5 << 10, 7680} {
		opts := engine.Options{Strategy: engine.TransformJA2, MaxBytes: budget}
		opts.Planner.Parallelism = 4
		res, err := db.Query(memJAQuery, opts)
		if err != nil {
			t.Fatalf("%d bytes: %v", budget, err)
		}
		if !slices.Equal(climbed(res), []trace.Kind{trace.SequentialRerun, trace.ForcedSpillRerun}) {
			t.Errorf("%d bytes: want the sequential rerun, then the forced-spill rerun:\n%s", budget, traceText(res))
		}
		got := slices.DeleteFunc(slices.Clone(res.Trace), func(e trace.Event) bool { return e.Kind != trace.Step })
		if !slices.EqualFunc(got, steps, func(a, b trace.Event) bool { return a.String() == b.String() }) {
			t.Errorf("%d bytes: want each transformation step once:\n%s", budget, traceText(res))
		}
		if hasKind(res, trace.HashJoin) || !hasKind(res, trace.MergeJoin) || usedParallel(res, want) {
			t.Errorf("%d bytes: the trace keeps a failed attempt's notes or does not sort-merge:\n%s", budget, traceText(res))
		}
		if sortedRows(res) != sortedRows(want) {
			t.Errorf("%d bytes: rows differ from the unbudgeted run", budget)
		}
	}
	if left := spillLeft(db); left != "" {
		t.Fatalf("after the queries: %s left behind", left)
	}
}

// TestTransientRetryStaysSequential pins the step-down: once a parallel
// plan has failed and rerun sequentially, a later rung keeps planning
// sequentially. The forced-parallel plan of an IN query blows its budget;
// the sequential rerun spills past the threshold and meets a spill-write
// fault; the transient retry then completes, sequentially, with the
// unbudgeted rows, and the trace keeps both rung events in order.
func TestTransientRetryStaysSequential(t *testing.T) {
	const sql = `SELECT T1.K, T1.V FROM RC T1 WHERE T1.V IN (SELECT T2.V FROM RA T2 WHERE T2.K = T1.K)`
	db := memDB(t, 91000, 120)
	want, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnableSpill(t.TempDir(), 1024); err != nil {
		t.Fatal(err)
	}
	db.EnableAdmission(admission.Config{MaxConcurrent: 2, RetryMax: 3})
	for _, budget := range []int64{4 << 10, 8 << 10, 12 << 10} {
		var rates fault.Rates
		rates[fault.SpillWrite] = 1
		db.SetFaults(fault.New(fault.Plan{Seed: 1, Max: 1, Rates: rates}))
		opts := engine.Options{Strategy: engine.TransformJA2, MaxBytes: budget}
		opts.Planner.Parallelism = 4
		res, err := db.Query(sql, opts)
		if err != nil {
			t.Fatalf("%d bytes: %v", budget, err)
		}
		if !slices.Equal(climbed(res), []trace.Kind{trace.SequentialRerun, trace.TransientRetry}) || usedParallel(res, want) {
			t.Errorf("%d bytes: want the sequential rerun, then a sequential transient retry:\n%s", budget, traceText(res))
		}
		if sortedRows(res) != sortedRows(want) {
			t.Errorf("%d bytes: rows differ from the unbudgeted run", budget)
		}
	}
	if left := spillLeft(db); left != "" {
		t.Fatalf("after the queries: %s left behind", left)
	}
}

// climbed lists the rung events in res's trace, in the order it climbed
// them.
func climbed(res *engine.Result) []trace.Kind {
	var kinds []trace.Kind
	for _, e := range res.Trace {
		for _, r := range rungs {
			if e.Kind == r.kind {
				kinds = append(kinds, e.Kind)
			}
		}
	}
	return kinds
}

// TestSpillForcedPlansSortMerge pins where the sort-merge rule lives: the
// planner, under any SpillForced query, not just the engine's rerun. A
// caller's SpillForced query that leaves its joins to cost and asks for
// forced parallelism still plans merge joins and sort-based grouping, with
// no hash operator and no exchange — the plan whose every buffer can
// spill — and returns the unbudgeted rows.
func TestSpillForcedPlansSortMerge(t *testing.T) {
	db := memDB(t, 91000, 120)
	if err := db.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	for sql, join := range map[string]bool{
		memJAQuery: true,
		`SELECT T1.K, COUNT(T1.V) AS CT FROM RB T1 GROUP BY T1.K`: false,
	} {
		want, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2})
		if err != nil {
			t.Fatal(err)
		}
		opts := engine.Options{Strategy: engine.TransformJA2, Spill: qctx.SpillForced}
		opts.Planner.Parallelism = 4
		res, err := db.Query(sql, opts)
		if err != nil {
			t.Fatalf("%q under SpillForced: %v", sql, err)
		}
		if hasKind(res, trace.HashJoin) || hasKind(res, trace.HashGroup) {
			t.Errorf("%q under SpillForced places a hash operator:\n%s", sql, traceText(res))
		}
		if join && !hasKind(res, trace.MergeJoin) {
			t.Errorf("%q under SpillForced places no merge join:\n%s", sql, traceText(res))
		}
		if !hasKind(res, trace.GroupSort) && !hasKind(res, trace.GroupOrdered) {
			t.Errorf("%q under SpillForced places no sort-based GroupAgg:\n%s", sql, traceText(res))
		}
		if sortedRows(res) != sortedRows(want) {
			t.Errorf("%q under SpillForced: rows differ from the unbudgeted run", sql)
		}
	}
	if left := spillLeft(db); left != "" {
		t.Fatalf("after the queries: %s left behind", left)
	}
}

// TestPressureGrantsUnderSpill: with spilling enabled, a pool too empty
// for even the minimum lease hands out what it has (a pressure grant) instead of
// queuing — and the query completes by spilling against the tiny lease.
func TestPressureGrantsUnderSpill(t *testing.T) {
	db := memDB(t, 97000, 90)
	if err := db.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	const pool = 1 << 20
	ctrl := db.EnableAdmission(admission.Config{
		MaxConcurrent: 8,
		PoolBytes:     pool,
	})
	// Occupy almost the whole pool, leaving free below the minimum lease
	// (pool/8/4 = 32 KiB).
	big, err := ctrl.Admit(admission.Request{MemBytes: pool - 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer big.Release()

	opts := engine.Options{Strategy: engine.TransformJA2, Timeout: 30 * time.Second}
	mergeJoins(&opts)
	res, err := db.Query(memJAQuery, opts)
	if err != nil {
		t.Fatalf("query under pool pressure: %v", err)
	}
	if res.Spill.Runs == 0 {
		t.Error("pressure-leased query never spilled; the tiny lease exerted no pressure")
	}
	if st := ctrl.Stats(); st.PressureGrants != 1 {
		t.Errorf("PressureGrants = %d, want 1", st.PressureGrants)
	}
}
