package exec_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/value"
)

// Unit tests for the morsel-driven parallel operators. Every parallel
// operator is checked for equivalence against its sequential counterpart
// (MergeJoin, GroupAgg) across worker counts 1..8 — parallelism may only
// reorder rows, so comparisons are over sorted bags of rendered tuples.

// loadTuples creates a heap file from explicit tuples (NULLs allowed).
func loadTuples(s *storage.Store, name string, tpp int, rows []storage.Tuple) *storage.HeapFile {
	f, err := s.Create(name, tpp)
	if err != nil {
		panic(err)
	}
	for _, r := range rows {
		f.Append(r)
	}
	f.Seal()
	return f
}

// sortedBag drains op and returns its rows in the shared comparator's bag
// form (storage.Canon).
func sortedBag(t *testing.T, op exec.Operator) []string {
	t.Helper()
	rows, err := exec.Drain(op, nil)
	if err != nil {
		t.Fatal(err)
	}
	return storage.Canon(storage.AgreeBag, rows)
}

// randTuples builds n two-column tuples with keys from a small domain (to
// force duplicates) and the occasional NULL in either column.
func randTuples(rng *rand.Rand, n, keyDomain int) []storage.Tuple {
	rows := make([]storage.Tuple, n)
	for i := range rows {
		k := value.NewInt(int64(rng.Intn(keyDomain)))
		if rng.Intn(10) == 0 {
			k = value.Null
		}
		v := value.NewInt(int64(rng.Intn(5)))
		if rng.Intn(10) == 0 {
			v = value.Null
		}
		rows[i] = storage.Tuple{k, v}
	}
	return rows
}

func TestParallelHashJoinEquivalence(t *testing.T) {
	for _, outer := range []bool{false, true} {
		for _, workers := range []int{1, 2, 3, 4, 8} {
			name := fmt.Sprintf("outer=%v/workers=%d", outer, workers)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(workers)*100 + 7))
				s := storage.NewStore(8)
				left := loadTuples(s, "L", 2, randTuples(rng, 60, 8))
				right := loadTuples(s, "R", 2, randTuples(rng, 40, 8))

				// Reference: sort-merge join over sorted scans.
				want := sortedBag(t, &exec.MergeJoin{
					Left:     &exec.Sort{Child: scanOf(left, "L"), Keys: []int{0}, Store: s, TuplesPerPage: 2},
					Right:    &exec.Sort{Child: scanOf(right, "R"), Keys: []int{0}, Store: s, TuplesPerPage: 2},
					LeftKey:  0,
					RightKey: 0,
					Outer:    outer,
				})
				got := sortedBag(t, &exec.ExchangeMerge{Source: &exec.ParallelHashJoin{
					Left:     scanOf(left, "L"),
					Right:    scanOf(right, "R"),
					LeftKey:  0,
					RightKey: 0,
					Outer:    outer,
					Workers:  workers,
				}})
				if !eqStrings(got, want) {
					t.Errorf("parallel join != merge join\n  want: %v\n  got:  %v", want, got)
				}
			})
		}
	}
}

// TestParallelHashJoinPartitioning pins partitioning correctness directly:
// with duplicate keys on both sides, each key's full cross product must
// appear exactly once (every copy of a key lands on exactly one worker),
// and under Outer each unmatched left row is padded exactly once.
func TestParallelHashJoinPartitioning(t *testing.T) {
	s := storage.NewStore(8)
	left := loadTuples(s, "L", 2, []storage.Tuple{
		{intv(1), intv(10)}, {intv(1), intv(11)},
		{intv(2), intv(20)},
		{intv(3), intv(30)}, // unmatched
		{value.Null, intv(40)},
	})
	right := loadTuples(s, "R", 2, []storage.Tuple{
		{intv(1), intv(100)}, {intv(1), intv(101)}, {intv(1), intv(102)},
		{intv(2), intv(200)},
		{value.Null, intv(300)},
	})
	got := sortedBag(t, &exec.ExchangeMerge{Source: &exec.ParallelHashJoin{
		Left: scanOf(left, "L"), Right: scanOf(right, "R"),
		LeftKey: 0, RightKey: 0, Outer: true, Workers: 4,
	}})
	want := []string{
		// key 1: 2 left × 3 right = 6 rows
		"(1, 10, 1, 100)", "(1, 10, 1, 101)", "(1, 10, 1, 102)",
		"(1, 11, 1, 100)", "(1, 11, 1, 101)", "(1, 11, 1, 102)",
		// key 2: exactly one match
		"(2, 20, 2, 200)",
		// key 3 and the NULL-keyed left row: padded exactly once each
		"(3, 30, NULL, NULL)",
		"(NULL, 40, NULL, NULL)",
	}
	sort.Strings(want)
	if !eqStrings(got, want) {
		t.Errorf("partitioned outer join\n  want: %v\n  got:  %v", want, got)
	}
}

func TestParallelHashGroupEquivalence(t *testing.T) {
	items := []exec.GroupItem{
		{Agg: value.AggNone, Col: 0, Out: exec.ColID{Column: "K"}},
		{Agg: value.AggCount, Col: 1, Out: exec.ColID{Column: "CNT"}},
		{Agg: value.AggCountStar, Out: exec.ColID{Column: "CNTSTAR"}},
		{Agg: value.AggSum, Col: 1, Out: exec.ColID{Column: "SUM"}},
		{Agg: value.AggMax, Col: 1, Out: exec.ColID{Column: "MAX"}},
	}
	for _, workers := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(workers)*100 + 13))
			s := storage.NewStore(8)
			f := loadTuples(s, "G", 2, randTuples(rng, 80, 6))

			want := sortedBag(t, &exec.GroupAgg{
				Child:     &exec.Sort{Child: scanOf(f, "G"), Keys: []int{0}, Store: s, TuplesPerPage: 2},
				GroupCols: []int{0},
				Items:     items,
			})
			got := sortedBag(t, &exec.ExchangeMerge{Source: &exec.ParallelHashGroup{
				Child:     scanOf(f, "G"),
				GroupCols: []int{0},
				Items:     items,
				Workers:   workers,
			}})
			if !eqStrings(got, want) {
				t.Errorf("parallel group != sequential group\n  want: %v\n  got:  %v", want, got)
			}
		})
	}
}

// TestParallelHashGroupGlobalEmpty pins the COUNT-bug invariant at the
// operator level: a global aggregate over empty input emits exactly one
// row (COUNT = 0, MAX = NULL) no matter how many workers run.
func TestParallelHashGroupGlobalEmpty(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := storage.NewStore(4)
		f := loadTuples(s, "E", 2, nil)
		got := sortedBag(t, &exec.ExchangeMerge{Source: &exec.ParallelHashGroup{
			Child: scanOf(f, "E"),
			Items: []exec.GroupItem{
				{Agg: value.AggCount, Col: 1, Out: exec.ColID{Column: "CNT"}},
				{Agg: value.AggMax, Col: 1, Out: exec.ColID{Column: "MAX"}},
			},
			Workers: workers,
		}})
		want := []string{"(0, NULL)"}
		if !eqStrings(got, want) {
			t.Errorf("workers=%d: global aggregate over empty input = %v, want %v", workers, got, want)
		}
		// A grouped aggregate over empty input emits nothing.
		got = sortedBag(t, &exec.ExchangeMerge{Source: &exec.ParallelHashGroup{
			Child:     scanOf(f, "E"),
			GroupCols: []int{0},
			Items: []exec.GroupItem{
				{Agg: value.AggNone, Col: 0, Out: exec.ColID{Column: "K"}},
				{Agg: value.AggCount, Col: 1, Out: exec.ColID{Column: "CNT"}},
			},
			Workers: workers,
		}})
		if len(got) != 0 {
			t.Errorf("workers=%d: grouped aggregate over empty input = %v, want none", workers, got)
		}
	}
}

// TestParallelEarlyCloseNoLeak closes an ExchangeMerge after consuming
// only a few rows of a large join and checks every distributor/worker
// goroutine shuts down. Close must also be idempotent and callable
// without Next ever having been invoked.
func TestParallelEarlyCloseNoLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := storage.NewStore(8)
	left := loadTuples(s, "L", 2, randTuples(rng, 4000, 16))
	right := loadTuples(s, "R", 2, randTuples(rng, 2000, 16))
	before := runtime.NumGoroutine()

	newOp := func() *exec.ExchangeMerge {
		return &exec.ExchangeMerge{Source: &exec.ParallelHashJoin{
			Left: scanOf(left, "L"), Right: scanOf(right, "R"),
			LeftKey: 0, RightKey: 0, Outer: true, Workers: 4,
		}}
	}
	for round := range 20 {
		op := newOp()
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		// Consume a handful of rows — or none on every third round — so
		// workers are still mid-flight when Close arrives.
		if round%3 != 0 {
			for range 5 {
				if _, ok, err := op.Next(); err != nil {
					t.Fatal(err)
				} else if !ok {
					break
				}
			}
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		if err := op.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
	}
	// Goroutine counts settle asynchronously; retry before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after early Close: before=%d after=%d", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEarlyCloseThenNextQuery: the morsels an ExchangeMerge closed after
// its first row puts back are reused by the next query, and neither the
// row already taken nor the next query's result is touched by them.
func TestEarlyCloseThenNextQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := storage.NewStore(8)
	left := loadTuples(s, "L", 2, randTuples(rng, 2000, 16))
	right := loadTuples(s, "R", 2, randTuples(rng, 1000, 16))
	join := func() *exec.ExchangeMerge {
		return &exec.ExchangeMerge{Source: &exec.ParallelHashJoin{
			Left: scanOf(left, "L"), Right: scanOf(right, "R"), LeftKey: 0, RightKey: 0, Outer: true, Workers: 2,
		}}
	}
	op := join()
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	first, ok, err := op.Next()
	if err != nil || !ok {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	kept := first.String()
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	want := sortedBag(t, &exec.MergeJoin{
		Left:  &exec.Sort{Child: scanOf(left, "L"), Keys: []int{0}, Store: s, TuplesPerPage: 2},
		Right: &exec.Sort{Child: scanOf(right, "R"), Keys: []int{0}, Store: s, TuplesPerPage: 2},
		Outer: true,
	})
	if got := sortedBag(t, join()); !eqStrings(got, want) {
		t.Errorf("the query after an early Close lost or changed rows: %s", storage.DiffCanon(got, want))
	}
	if first.String() != kept {
		t.Errorf("the row taken before Close changed: %s, was %s", first, kept)
	}
}

// failingOp yields a few rows, then errors.
type failingOp struct {
	rows int
	n    int
}

func (f *failingOp) Open() error { f.n = 0; return nil }
func (f *failingOp) Next() (storage.Tuple, bool, error) {
	if f.n >= f.rows {
		return nil, false, fmt.Errorf("synthetic child failure")
	}
	f.n++
	return storage.Tuple{intv(int64(f.n)), intv(0)}, true, nil
}
func (f *failingOp) Close() error { return nil }
func (f *failingOp) Schema() exec.RowSchema {
	return exec.RowSchema{{Table: "F", Column: "K"}, {Table: "F", Column: "V"}}
}

// TestExchangeMergeErrorPropagation makes a probe-side child fail mid-scan
// and checks the error surfaces from Next (not a hang, not silence), with
// Close still shutting everything down.
func TestExchangeMergeErrorPropagation(t *testing.T) {
	s := storage.NewStore(4)
	right := loadTuples(s, "R", 2, []storage.Tuple{{intv(1), intv(100)}})
	op := &exec.ExchangeMerge{Source: &exec.ParallelHashJoin{
		Left: &failingOp{rows: 3}, Right: scanOf(right, "R"),
		LeftKey: 0, RightKey: 0, Workers: 2,
	}}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	var sawErr error
	for {
		_, ok, err := op.Next()
		if err != nil {
			sawErr = err
			break
		}
		if !ok {
			break
		}
	}
	if sawErr == nil || !strings.Contains(sawErr.Error(), "synthetic child failure") {
		t.Errorf("child error not propagated, got %v", sawErr)
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelHashGroupWorkerErrorNoDeadlock pins the regression where a
// worker-side aggregation error (MAX over mixed int/string values) killed a
// worker without draining its input channel, leaving the distributor
// blocked on a full channel forever and hanging ExchangeMerge.Next. The
// input puts the error at the front of one group's stream and follows it
// with far more rows than the worker channels can buffer, so the pre-fix
// code deadlocks deterministically; post-fix, Next must surface the error.
func TestParallelHashGroupWorkerErrorNoDeadlock(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rows := []storage.Tuple{
				{intv(1), intv(1)},
				{intv(1), value.NewString("x")}, // MAX(int, string) errors
			}
			// Enough follow-on rows for the same key to overflow the dead
			// worker's channel buffer (2 morsels) and block the distributor.
			for range 4 * exec.MorselSize {
				rows = append(rows, storage.Tuple{intv(1), intv(2)})
			}
			s := storage.NewStore(8)
			f := loadTuples(s, "M", 2, rows)
			op := &exec.ExchangeMerge{Source: &exec.ParallelHashGroup{
				Child:     scanOf(f, "M"),
				GroupCols: []int{0},
				Items: []exec.GroupItem{
					{Agg: value.AggNone, Col: 0, Out: exec.ColID{Column: "K"}},
					{Agg: value.AggMax, Col: 1, Out: exec.ColID{Column: "MAX"}},
				},
				Workers: workers,
			}}
			done := make(chan error, 1)
			go func() {
				_, err := exec.Drain(op, nil) // Drain opens and closes op itself
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Error("aggregation error not propagated from parallel group")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("parallel group deadlocked after worker-side aggregation error")
			}
		})
	}
}

func eqStrings(a, b []string) bool { return storage.DiffCanon(a, b) == "" }
