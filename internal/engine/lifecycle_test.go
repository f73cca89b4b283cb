package engine_test

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/qctx"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// Lifecycle tests: deadline, cancellation, and resource budgets must
// surface as their typed errors from both execution paths, and a failed
// parallel plan must degrade to a sequential retry exactly once.

// lifecycleDB loads two deterministic relations sized so joins and sorts
// do real work: RA(K,V) with 60 rows, RB(K,V) with 40.
func lifecycleDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.New(6)
	for _, spec := range []struct {
		name string
		n    int
	}{{"RA", 60}, {"RB", 40}} {
		rel := &schema.Relation{Name: spec.name, Columns: []schema.Column{
			{Name: "K", Type: value.KindInt},
			{Name: "V", Type: value.KindInt},
		}}
		if err := db.CreateRelation(rel, 2); err != nil {
			t.Fatal(err)
		}
		for i := range spec.n {
			row := storage.Tuple{value.NewInt(int64(i % 7)), value.NewInt(int64(i % 5))}
			if err := db.Insert(spec.name, row); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Seal(spec.name); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

const lifecycleQuery = "SELECT T1.K, T1.V FROM RA T1 WHERE T1.V IN (SELECT T2.V FROM RB T2)"

var bothStrategies = []engine.Strategy{engine.NestedIteration, engine.TransformJA2}

func TestTimeoutReturnsTypedError(t *testing.T) {
	for _, strat := range bothStrategies {
		db := lifecycleDB(t)
		// Injected latency (no hard faults) makes every page read slow, so
		// the 30ms deadline trips mid-execution on both paths.
		db.SetFaults(fault.New(fault.Plan{Seed: 1, Rates: fault.Rates{fault.StorageLatency: 1}, Latency: 5 * time.Millisecond}))
		_, err := db.Query(lifecycleQuery, engine.Options{Strategy: strat, Timeout: 30 * time.Millisecond})
		if !errors.Is(err, qctx.ErrQueryTimeout) {
			t.Errorf("%v: err = %v, want ErrQueryTimeout", strat, err)
		}
	}
}

func TestRowBudgetReturnsTypedError(t *testing.T) {
	for _, strat := range bothStrategies {
		db := lifecycleDB(t)
		// The query returns 60 rows; a budget of 5 must trip.
		_, err := db.Query(lifecycleQuery, engine.Options{Strategy: strat, MaxRows: 5})
		if !errors.Is(err, qctx.ErrRowBudget) || !errors.Is(err, qctx.ErrBudgetExceeded) {
			t.Errorf("%v: err = %v, want ErrRowBudget", strat, err)
		}
		// A budget the result fits under must not trip. The transformed
		// path may produce duplicate rows (the NEST-N-J join form is only
		// set-equivalent), so the bound is generous.
		res, err := db.Query(lifecycleQuery, engine.Options{Strategy: strat, MaxRows: 1 << 20})
		if err != nil {
			t.Errorf("%v: within budget: %v", strat, err)
		} else if len(res.Rows) < 60 {
			t.Errorf("%v: got %d rows, want >= 60", strat, len(res.Rows))
		}
	}
}

func TestMemoryBudgetReturnsTypedError(t *testing.T) {
	db := lifecycleDB(t)
	// ORDER BY forces an external sort, whose buffered tuples are charged
	// against the memory budget; 64 bytes cannot hold even one page.
	q := lifecycleQuery + " ORDER BY T1.K"
	_, err := db.Query(q, engine.Options{Strategy: engine.TransformJA2, MaxBytes: 64})
	if !errors.Is(err, qctx.ErrMemoryBudget) || !errors.Is(err, qctx.ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrMemoryBudget", err)
	}
	if _, err := db.Query(q, engine.Options{Strategy: engine.TransformJA2, MaxBytes: 1 << 20}); err != nil {
		t.Errorf("within budget: %v", err)
	}
}

func TestCancelChannel(t *testing.T) {
	for _, strat := range bothStrategies {
		db := lifecycleDB(t)
		db.SetFaults(fault.New(fault.Plan{Seed: 1, Rates: fault.Rates{fault.StorageLatency: 1}, Latency: 5 * time.Millisecond}))
		cancel := make(chan struct{})
		go func() {
			time.Sleep(20 * time.Millisecond)
			close(cancel)
		}()
		done := make(chan error, 1)
		go func() {
			_, err := db.Query(lifecycleQuery, engine.Options{Strategy: strat, Cancel: cancel})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, qctx.ErrCanceled) {
				t.Errorf("%v: err = %v, want ErrCanceled", strat, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: cancellation did not interrupt the query", strat)
		}
	}
}

func TestPreCanceledQuery(t *testing.T) {
	db := lifecycleDB(t)
	cancel := make(chan struct{})
	close(cancel)
	_, err := db.Query(lifecycleQuery, engine.Options{Strategy: engine.NestedIteration, Cancel: cancel})
	if !errors.Is(err, qctx.ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled for pre-closed channel", err)
	}
}

// TestPanicContainment arms a certain read fault and checks the panic is
// converted to an error that still identifies the fault, on both paths
// and through DML, without killing the process.
func TestPanicContainment(t *testing.T) {
	for _, strat := range bothStrategies {
		db := lifecycleDB(t)
		db.SetFaults(fault.New(fault.Plan{Seed: 3, Rates: fault.Rates{fault.StorageRead: 1}}))
		_, err := db.Query(lifecycleQuery, engine.Options{Strategy: strat})
		if !errors.Is(err, fault.ErrInjected) {
			t.Errorf("%v: err = %v, want wrapped ErrInjectedFault", strat, err)
		}
		var pe *qctx.PanicError
		if !errors.As(err, &pe) {
			t.Errorf("%v: err = %v, want a contained *qctx.PanicError", strat, err)
		}
		// After disarming, the same query runs normally — the store is intact.
		db.SetFaults(nil)
		if _, err := db.Query(lifecycleQuery, engine.Options{Strategy: strat}); err != nil {
			t.Errorf("%v: clean rerun failed: %v", strat, err)
		}
	}
}

func TestPanicContainmentDML(t *testing.T) {
	db := lifecycleDB(t)
	db.SetFaults(fault.New(fault.Plan{Seed: 4, Rates: fault.Rates{fault.StorageRead: 1}}))
	_, err := db.Exec("DELETE FROM RA WHERE K IN (SELECT K FROM RB)", engine.Options{})
	if !errors.Is(err, fault.ErrInjected) {
		t.Errorf("DML err = %v, want wrapped ErrInjectedFault", err)
	}
}

// TestSequentialRetryAfterWorkerFault allows exactly one injected fault:
// the parallel plan absorbs it, degrades, and the sequential retry (now
// fault-free) must produce the correct result and say so in the trace.
func TestSequentialRetryAfterWorkerFault(t *testing.T) {
	db := lifecycleDB(t)
	want, err := db.Query(lifecycleQuery, engine.Options{Strategy: engine.NestedIteration})
	if err != nil {
		t.Fatal(err)
	}
	db.SetFaults(fault.New(fault.Plan{Seed: 5, Max: 1, Rates: fault.Rates{fault.StorageRead: 1}}))
	opts := engine.Options{Strategy: engine.TransformJA2}
	opts.Planner.Parallelism = 4
	opts.Planner.ForceParallel = true
	res, err := db.Query(lifecycleQuery, opts)
	if err != nil {
		t.Fatalf("parallel query did not degrade to sequential: %v", err)
	}
	if d := diffNI(lifecycleQuery, res, want); d != "" {
		t.Errorf("retried result differs from ground truth: %s", d)
	}
	retried := false
	for _, line := range res.Trace {
		if strings.Contains(line, "retrying sequentially") {
			retried = true
		}
	}
	if !retried {
		t.Errorf("trace does not record the sequential retry: %v", res.Trace)
	}
}

// TestWorkerFaultsLeaveParallelOpen: under admission, contained worker
// faults do not close the parallel path. Each forced-parallel query that
// loses a worker is rescued by the sequential rerun, however many come in
// a row, and the next fault-free one still runs a parallel plan.
func TestWorkerFaultsLeaveParallelOpen(t *testing.T) {
	db := lifecycleDB(t)
	want, err := db.Query(lifecycleQuery, engine.Options{Strategy: engine.NestedIteration})
	if err != nil {
		t.Fatal(err)
	}
	db.EnableAdmission(admission.Config{MaxConcurrent: 4})
	opts := engine.Options{Strategy: engine.TransformJA2}
	opts.Planner.Parallelism = 4
	opts.Planner.ForceParallel = true
	for i := range 6 {
		db.SetFaults(fault.New(fault.Plan{Seed: int64(7 + i), Max: 1, Rates: fault.Rates{fault.StorageRead: 1}}))
		res, err := db.Query(lifecycleQuery, opts)
		if err != nil {
			t.Fatalf("query %d after %d worker faults: %v", i, i, err)
		}
		if d := diffNI(lifecycleQuery, res, want); d != "" {
			t.Errorf("query %d: rescued result differs from ground truth: %s", i, d)
		}
		if !slices.ContainsFunc(res.Trace, func(l string) bool { return strings.Contains(l, "retrying sequentially") }) {
			t.Errorf("query %d: the worker fault was not rescued by the sequential rerun: %v", i, res.Trace)
		}
	}
	db.SetFaults(nil)
	res, err := db.Query(lifecycleQuery, opts)
	if err != nil {
		t.Fatalf("fault-free query after the faults: %v", err)
	}
	plan := strings.Join(res.Trace, "\n")
	if !strings.Contains(plan, "ExchangeMerge(workers=") || strings.Contains(plan, "retrying sequentially") {
		t.Errorf("fault-free query after the faults did not run in parallel:\n%s", plan)
	}
	if d := diffNI(lifecycleQuery, res, want); d != "" {
		t.Errorf("fault-free parallel result differs from ground truth: %s", d)
	}
}

// TestNoRetryOnTimeout pins the retry policy: a deadline violation in a
// parallel plan must NOT be retried (a sequential run would only be
// slower) and surfaces as ErrQueryTimeout.
func TestNoRetryOnTimeout(t *testing.T) {
	db := lifecycleDB(t)
	db.SetFaults(fault.New(fault.Plan{Seed: 6, Rates: fault.Rates{fault.StorageLatency: 1}, Latency: 5 * time.Millisecond}))
	opts := engine.Options{Strategy: engine.TransformJA2, Timeout: 30 * time.Millisecond}
	opts.Planner.Parallelism = 4
	opts.Planner.ForceParallel = true
	start := time.Now()
	res, err := db.Query(lifecycleQuery, opts)
	if !errors.Is(err, qctx.ErrQueryTimeout) {
		t.Fatalf("err = %v (res=%v), want ErrQueryTimeout", err, res)
	}
	// Generous bound: one run, not a retry that doubles the latency bill.
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("timeout took %v; looks like the timed-out plan was retried", d)
	}
}

// TestRowBudgetNotRetried: a row-budget violation under a parallel plan
// surfaces directly — a sequential rerun would exceed the same budget.
func TestRowBudgetNotRetried(t *testing.T) {
	db := lifecycleDB(t)
	opts := engine.Options{Strategy: engine.TransformJA2, MaxRows: 5}
	opts.Planner.Parallelism = 4
	opts.Planner.ForceParallel = true
	res, err := db.Query(lifecycleQuery, opts)
	if !errors.Is(err, qctx.ErrRowBudget) {
		t.Fatalf("err = %v, want ErrRowBudget", err)
	}
	if res != nil {
		for _, line := range res.Trace {
			if strings.Contains(line, "retrying sequentially") {
				t.Error("row-budget failure must not be retried")
			}
		}
	}
}
