package qctx

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestNilContext asserts every method is a no-op on a nil receiver — the
// ungoverned fast path operators rely on.
func TestNilContext(t *testing.T) {
	var qc *QueryContext
	if err := qc.Check(); err != nil {
		t.Errorf("nil Check: %v", err)
	}
	if err := qc.AddRows(1_000_000); err != nil {
		t.Errorf("nil AddRows: %v", err)
	}
	if err := qc.AddBuffered(1 << 40); err != nil {
		t.Errorf("nil AddBuffered: %v", err)
	}
	qc.ReleaseBuffered(1)
	qc.Cancel(errors.New("x"))
	qc.Finish()
	qc.ResetUsage()
	if qc.Err() != nil || qc.Done() != nil {
		t.Error("nil context must report live and a nil Done channel")
	}
	if qc.RowsProduced() != 0 || qc.BytesBuffered() != 0 {
		t.Error("nil context must report zero usage")
	}
}

func TestCancelFirstCauseWins(t *testing.T) {
	qc := New(Limits{})
	defer qc.Finish()
	if err := qc.Check(); err != nil {
		t.Fatalf("live query: %v", err)
	}
	qc.Cancel(ErrCanceled)
	qc.Cancel(errors.New("second"))
	if err := qc.Check(); !errors.Is(err, ErrCanceled) {
		t.Errorf("Check = %v, want ErrCanceled", err)
	}
	if err := qc.Err(); !errors.Is(err, ErrCanceled) {
		t.Errorf("Err = %v, want ErrCanceled", err)
	}
	select {
	case <-qc.Done():
	default:
		t.Error("Done channel not closed after Cancel")
	}
}

func TestCancelNilCause(t *testing.T) {
	qc := New(Limits{})
	defer qc.Finish()
	qc.Cancel(nil)
	if err := qc.Err(); !errors.Is(err, ErrCanceled) {
		t.Errorf("Err = %v, want ErrCanceled for nil cause", err)
	}
}

func TestTimeout(t *testing.T) {
	qc := New(Limits{Timeout: 10 * time.Millisecond})
	defer qc.Finish()
	select {
	case <-qc.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("deadline never fired")
	}
	if err := qc.Check(); !errors.Is(err, ErrQueryTimeout) {
		t.Errorf("Check = %v, want ErrQueryTimeout", err)
	}
}

func TestRowBudget(t *testing.T) {
	qc := New(Limits{MaxRows: 10})
	defer qc.Finish()
	for i := 0; i < 10; i++ {
		if err := qc.AddRows(1); err != nil {
			t.Fatalf("row %d within budget: %v", i, err)
		}
	}
	err := qc.AddRows(1)
	if !errors.Is(err, ErrRowBudget) {
		t.Fatalf("AddRows over budget = %v, want ErrRowBudget", err)
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Error("ErrRowBudget must wrap ErrBudgetExceeded")
	}
	// The violation also cancels the query, so parallel workers see it.
	if err := qc.Check(); !errors.Is(err, ErrRowBudget) {
		t.Errorf("Check after violation = %v, want ErrRowBudget", err)
	}
}

func TestMemoryBudget(t *testing.T) {
	qc := New(Limits{MaxBytes: 1000})
	defer qc.Finish()
	if err := qc.AddBuffered(600); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	qc.ReleaseBuffered(600)
	if err := qc.AddBuffered(900); err != nil {
		t.Fatalf("released bytes must be reusable: %v", err)
	}
	err := qc.AddBuffered(200)
	if !errors.Is(err, ErrMemoryBudget) || !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("AddBuffered over budget = %v, want ErrMemoryBudget", err)
	}
}

func TestResetUsageRearmsBudgetCancel(t *testing.T) {
	qc := New(Limits{MaxRows: 1, MaxBytes: 100})
	defer qc.Finish()
	qc.AddRows(5)
	if qc.Check() == nil {
		t.Fatal("expected canceled")
	}
	qc.ResetUsage()
	if err := qc.Check(); err != nil {
		t.Fatalf("after ResetUsage the query must be live again: %v", err)
	}
	if qc.RowsProduced() != 0 || qc.BytesBuffered() != 0 {
		t.Error("usage counters not zeroed")
	}
	// The full budget is available again.
	if err := qc.AddRows(1); err != nil {
		t.Errorf("fresh budget: %v", err)
	}
}

func TestResetUsageKeepsExplicitCancel(t *testing.T) {
	for _, cause := range []error{ErrCanceled, ErrQueryTimeout} {
		qc := New(Limits{MaxRows: 1})
		qc.Cancel(cause)
		qc.ResetUsage()
		if err := qc.Check(); !errors.Is(err, cause) {
			t.Errorf("ResetUsage cleared %v; it must only re-arm budget cancels", cause)
		}
		qc.Finish()
	}
}

func TestConcurrentCheckAndCancel(t *testing.T) {
	qc := New(Limits{MaxRows: 1000})
	defer qc.Finish()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				qc.Check()
				qc.AddRows(0)
				qc.AddBuffered(0)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		qc.Cancel(ErrCanceled)
	}()
	wg.Wait()
	if err := qc.Err(); !errors.Is(err, ErrCanceled) {
		t.Errorf("Err = %v", err)
	}
}

func TestPanicError(t *testing.T) {
	if Recovered(nil) != nil {
		t.Fatal("Recovered(nil) must be nil")
	}
	inner := fmt.Errorf("wrapped: %w", ErrCanceled)
	pe := Recovered(inner)
	if pe == nil || len(pe.Stack) == 0 {
		t.Fatal("Recovered must capture a stack")
	}
	// An error payload stays recognizable through the panic wrapper.
	if !errors.Is(pe, ErrCanceled) {
		t.Error("errors.Is must see through PanicError to the payload")
	}
	var got *PanicError
	if !errors.As(error(pe), &got) {
		t.Error("errors.As must find the PanicError")
	}
	// A non-error payload unwraps to nothing but still formats.
	pe2 := Recovered("boom")
	if pe2.Unwrap() != nil {
		t.Error("non-error payload must unwrap to nil")
	}
	if pe2.Error() == "" {
		t.Error("empty message")
	}
}

// TestBackoffBounds walks far past the attempt where base·2^attempt
// overflows int64, with the knobs of both callers (admission's retry
// defaults, the client's reconnect defaults): every delay stays in
// (0, limit] and the early ones double.
func TestBackoffBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []struct{ base, limit time.Duration }{
		{2 * time.Millisecond, 250 * time.Millisecond},
		{20 * time.Millisecond, time.Second},
	} {
		for attempt := 0; attempt <= 80; attempt++ {
			d := Backoff(k.base, k.limit, attempt, rng)
			if d <= 0 || d > k.limit {
				t.Fatalf("base %v limit %v attempt %d: delay %v outside (0, %v]", k.base, k.limit, attempt, d, k.limit)
			}
			if full := k.base << uint(attempt); attempt < 4 && (d < full/2 || d > full) {
				t.Fatalf("base %v attempt %d: delay %v outside [%v, %v]", k.base, attempt, d, full/2, full)
			}
		}
	}
}
