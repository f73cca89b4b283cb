package engine_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/qctx"
	"repro/internal/storage"
)

// Streaming tests: a sunk query must deliver exactly the rows the
// materialized path produces, in the same order for deterministic plans,
// with the column header exactly once — and a sink error must abort the
// query, never retry it behind the client's back.

// collectSink gathers everything a RowSink sees.
type collectSink struct {
	colCalls int
	cols     []string
	batches  int
	rows     []storage.Tuple
	failAt   int   // fail when this many rows have been collected (0 = never)
	err      error // the error to fail with
}

func (c *collectSink) sink(batchRows int) *engine.RowSink {
	return &engine.RowSink{
		BatchRows: batchRows,
		Columns: func(cols []string) error {
			c.colCalls++
			c.cols = append([]string(nil), cols...)
			return nil
		},
		Batch: func(rows []storage.Tuple) error {
			c.batches++
			for _, r := range rows {
				c.rows = append(c.rows, append(storage.Tuple(nil), r...))
			}
			if c.failAt > 0 && len(c.rows) >= c.failAt {
				return c.err
			}
			return nil
		},
	}
}

func TestStreamMatchesMaterialized(t *testing.T) {
	for _, strat := range bothStrategies {
		for _, batch := range []int{1, 7, 0} {
			db := lifecycleDB(t)
			want, err := db.Query(lifecycleQuery, engine.Options{Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			c := &collectSink{}
			res, err := db.Query(lifecycleQuery, engine.Options{Strategy: strat, Sink: c.sink(batch)})
			if err != nil {
				t.Fatalf("%v batch=%d: %v", strat, batch, err)
			}
			if res.Rows != nil {
				t.Errorf("%v: streamed result still materialized %d rows", strat, len(res.Rows))
			}
			if c.colCalls != 1 || !reflect.DeepEqual(c.cols, want.Columns) {
				t.Errorf("%v: columns sent %d times as %v, want once as %v", strat, c.colCalls, c.cols, want.Columns)
			}
			if !reflect.DeepEqual(c.rows, want.Rows) {
				t.Errorf("%v batch=%d: streamed %d rows != materialized %d rows",
					strat, batch, len(c.rows), len(want.Rows))
			}
			if batch == 1 && c.batches != len(want.Rows) {
				t.Errorf("%v: %d batches at size 1 for %d rows", strat, c.batches, len(want.Rows))
			}
		}
	}
}

func TestStreamEmptyResultSendsColumns(t *testing.T) {
	db := lifecycleDB(t)
	c := &collectSink{}
	_, err := db.Query("SELECT T1.K FROM RA T1 WHERE T1.V = 999", engine.Options{
		Strategy: engine.TransformJA2, Sink: c.sink(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.colCalls != 1 || len(c.rows) != 0 {
		t.Errorf("empty result: %d column calls, %d rows", c.colCalls, len(c.rows))
	}
}

func TestStreamSinkErrorAbortsQuery(t *testing.T) {
	db := lifecycleDB(t)
	boom := errors.New("client went away")
	c := &collectSink{failAt: 1, err: boom}
	_, err := db.Query(lifecycleQuery, engine.Options{Strategy: engine.TransformJA2, Sink: c.sink(1)})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
	if n := db.Store().TempCount(); n != 0 {
		t.Errorf("aborted stream leaked %d temp file(s)", n)
	}
}

func TestStreamRejectsVerifyParallel(t *testing.T) {
	db := lifecycleDB(t)
	c := &collectSink{}
	_, err := db.Query(lifecycleQuery, engine.Options{
		Strategy: engine.TransformJA2, VerifyParallel: true, Sink: c.sink(0),
	})
	if err == nil || c.colCalls != 0 {
		t.Fatalf("VerifyParallel+Sink must fail before streaming; err=%v colCalls=%d", err, c.colCalls)
	}
}

// TestStreamRowBudgetStillEnforced pins that the streamed pull loop
// charges the row budget exactly like the materialized drain.
func TestStreamRowBudgetStillEnforced(t *testing.T) {
	for _, strat := range bothStrategies {
		db := lifecycleDB(t)
		c := &collectSink{}
		_, err := db.Query(lifecycleQuery, engine.Options{Strategy: strat, MaxRows: 5, Sink: c.sink(2)})
		if !errors.Is(err, qctx.ErrRowBudget) {
			t.Errorf("%v: err = %v, want ErrRowBudget", strat, err)
		}
	}
}

// TestStreamNoRetryAfterEmission pins the retry fence: a transient fault
// that strikes after rows have been delivered must fail the query, not
// silently re-run it (the client would receive duplicates). The sink
// error stands in for the fault — the fence is the same hasEmitted gate.
func TestStreamNoRetryAfterEmission(t *testing.T) {
	db := lifecycleDB(t)
	db.EnableAdmission(admission.Config{RetryMax: 3})
	boom := fmt.Errorf("mid-stream: %w", fault.ErrInjected)
	c := &collectSink{failAt: 3, err: boom}
	_, err := db.Query(lifecycleQuery, engine.Options{Strategy: engine.TransformJA2, Sink: c.sink(1)})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the mid-stream fault", err)
	}
	if c.colCalls != 1 {
		t.Errorf("columns sent %d times; a retry leaked through the fence", c.colCalls)
	}
	if len(c.rows) != 3 {
		t.Errorf("sink saw %d rows, want exactly 3 (no duplicate delivery)", len(c.rows))
	}
}

// TestStreamNoRetryAfterSinkFailure pins the other half of the fence: a
// sink that fails on the very FIRST batch leaves hasEmitted false (the
// failed batch is not counted), yet retrying would be wasted work — the
// consumer's write path is broken, and a re-run would stream into the
// same dead pipe. The sinkBroken gate must stop the transient-fault
// retry even when the sink's error looks retryable.
func TestStreamNoRetryAfterSinkFailure(t *testing.T) {
	db := lifecycleDB(t)
	db.EnableAdmission(admission.Config{RetryMax: 3})
	boom := fmt.Errorf("first write failed: %w", fault.ErrInjected)
	c := &collectSink{failAt: 1, err: boom}
	_, err := db.Query(lifecycleQuery, engine.Options{Strategy: engine.TransformJA2, Sink: c.sink(1)})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the sink failure", err)
	}
	if c.batches != 1 {
		t.Errorf("sink saw %d batch calls; a retry leaked through the sink-failure fence", c.batches)
	}
	if c.colCalls != 1 {
		t.Errorf("columns sent %d times, want exactly once", c.colCalls)
	}
}
