package exec_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/qctx"
	"repro/internal/storage"
	"repro/internal/value"
)

// Lifecycle regression tests for the parallel operators: early Close and
// mid-stream cancellation must tear down every distributor and worker
// goroutine, and cancellation must surface as the typed cause.

// settleGoroutines waits for the goroutine count to drop back to the
// baseline, failing the test if it does not within the deadline.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, after, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// parallelOps builds one instance of each parallel operator shape over
// shared input files, all governed by qc.
func parallelOps(s *storage.Store, left, right *storage.HeapFile, qc *qctx.QueryContext) map[string]func() exec.Operator {
	return map[string]func() exec.Operator{
		"ParallelHashJoin": func() exec.Operator {
			return &exec.ExchangeMerge{Source: &exec.ParallelHashJoin{
				Left: scanOf(left, "L"), Right: scanOf(right, "R"),
				LeftKey: 0, RightKey: 0, Outer: true, Workers: 4, QC: qc,
			}, QC: qc}
		},
		"ParallelHashGroup": func() exec.Operator {
			return &exec.ExchangeMerge{Source: &exec.ParallelHashGroup{
				Child:     scanOf(left, "L"),
				GroupCols: []int{0},
				Items: []exec.GroupItem{
					{Agg: value.AggNone, Col: 0, Out: exec.ColID{Column: "K"}},
					{Agg: value.AggCount, Col: 1, Out: exec.ColID{Column: "CNT"}},
				},
				Workers: 4, QC: qc,
			}, QC: qc}
		},
		// The same operators as plans place them: inline, on one worker.
		"HashJoin": func() exec.Operator {
			return &exec.ParallelHashJoin{Left: scanOf(left, "L"), Right: scanOf(right, "R"), Outer: true, QC: qc}
		},
		"HashGroup": func() exec.Operator {
			return &exec.ParallelHashGroup{Child: scanOf(left, "L"), GroupCols: []int{0}, Items: []exec.GroupItem{
				{Agg: value.AggNone, Col: 0, Out: exec.ColID{Column: "K"}},
				{Agg: value.AggCount, Col: 1, Out: exec.ColID{Column: "CNT"}},
			}, QC: qc}
		},
	}
}

// TestParallelEarlyCloseAllOperators extends the hash-join early-close
// test to every parallel operator: Close before Next, after a few Next
// calls, and twice in a row, with no goroutine left behind.
func TestParallelEarlyCloseAllOperators(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := storage.NewStore(8)
	left := loadTuples(s, "L", 2, randTuples(rng, 4000, 16))
	right := loadTuples(s, "R", 2, randTuples(rng, 2000, 16))
	for name, mk := range parallelOps(s, left, right, nil) {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for round := range 12 {
				op := mk()
				if err := op.Open(); err != nil {
					t.Fatal(err)
				}
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
			settleGoroutines(t, before)
		})
	}
}

// TestParallelMidStreamCancel cancels the query context while workers are
// mid-flight. Next must return the cancellation cause promptly (never
// hang), Close must succeed, and every goroutine must exit.
func TestParallelMidStreamCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := storage.NewStore(8)
	left := loadTuples(s, "L", 2, randTuples(rng, 6000, 16))
	right := loadTuples(s, "R", 2, randTuples(rng, 3000, 16))
	for _, name := range []string{"ParallelHashJoin", "ParallelHashGroup", "HashJoin", "HashGroup"} {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for round := range 8 {
				qc := qctx.New(qctx.Limits{})
				op := parallelOps(s, left, right, qc)[name]()
				if err := op.Open(); err != nil {
					qc.Finish()
					t.Fatal(err)
				}
				// Let a few rows through on even rounds so cancellation
				// lands both before and during the output stream.
				if round%2 == 0 {
					for range 3 {
						if _, ok, err := op.Next(); err != nil || !ok {
							break
						}
					}
				}
				qc.Cancel(qctx.ErrCanceled)
				sawCause := false
				done := make(chan struct{})
				go func() {
					defer close(done)
					for {
						_, ok, err := op.Next()
						if err != nil {
							sawCause = errors.Is(err, qctx.ErrCanceled)
							return
						}
						if !ok {
							return
						}
					}
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("Next hung after mid-stream cancellation")
				}
				if !sawCause {
					// Workers that already finished may have drained the
					// stream before noticing; that is fine only when the
					// stream actually ended. Any error must be the cause.
					t.Logf("round %d: stream ended before cancellation surfaced", round)
				}
				if err := op.Close(); err != nil {
					t.Fatal(err)
				}
				qc.Finish()
			}
			settleGoroutines(t, before)
		})
	}
}

// TestExchangeMergeCancelUnblocksNext pins the case the Done channel
// exists for: a consumer blocked in ExchangeMerge.Next with no producer
// progress (simulated by a child that blocks forever) must be woken by
// cancellation rather than hang.
func TestExchangeMergeCancelUnblocksNext(t *testing.T) {
	qc := qctx.New(qctx.Limits{})
	defer qc.Finish()
	block := make(chan struct{})
	defer close(block)
	op := &exec.ExchangeMerge{Source: &exec.ParallelHashJoin{
		Left:    &blockingOp{block: block},
		Right:   &blockingOp{block: block}, // build side blocks: Open never returns a row
		LeftKey: 0, RightKey: 0, Workers: 2, QC: qc,
	}, QC: qc}
	// Open builds the hash table from Right — run it in a goroutine since
	// the blocking child stalls it; cancellation must unblock via QC.Check
	// inside the build loop.
	errc := make(chan error, 1)
	go func() {
		if err := op.Open(); err != nil {
			errc <- err
			return
		}
		_, _, err := op.Next()
		op.Close()
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	qc.Cancel(qctx.ErrCanceled)
	select {
	case err := <-errc:
		if !errors.Is(err, qctx.ErrCanceled) {
			t.Errorf("got %v, want ErrCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not unblock the parallel pipeline")
	}
}

// blockingOp emits rows slowly forever until its channel closes.
type blockingOp struct {
	block <-chan struct{}
	n     int64
}

func (b *blockingOp) Open() error { return nil }
func (b *blockingOp) Next() (storage.Tuple, bool, error) {
	select {
	case <-b.block:
		return nil, false, fmt.Errorf("blockingOp released")
	case <-time.After(5 * time.Millisecond):
		b.n++
		return storage.Tuple{intv(b.n % 7), intv(b.n)}, true, nil
	}
}
func (b *blockingOp) Close() error { return nil }
func (b *blockingOp) Schema() exec.RowSchema {
	return exec.RowSchema{{Table: "B", Column: "K"}, {Table: "B", Column: "V"}}
}
