package engine

import (
	"repro/internal/exec"
	"repro/internal/storage"
)

// RowSink streams a query's result instead of materializing it on the
// Result: Columns is called exactly once (after name resolution, before
// any row), then Batch zero or more times with bounded row batches, in
// result order. Both callbacks run on the querying goroutine; a callback
// that blocks (a full network write buffer) blocks the executor's pull
// loop, which is how client backpressure reaches the operators. A
// callback error aborts the query and surfaces from Query unchanged.
//
// A sunk query reports Rows == nil on its Result.
//
// Batch slices are reused by the executor; sinks must copy what they keep.
type RowSink struct {
	// BatchRows bounds rows per Batch call (0 = exec.DefaultBatchRows).
	BatchRows int
	Columns   func(cols []string) error
	Batch     func(rows []storage.Tuple) error
}

// streamState wraps a RowSink for one query execution. Every rung of the
// degradation ladder reruns the whole query, which would deliver rows
// twice, or stream into a consumer that is gone (a closed connection, a
// client stalled past its write deadline): so once any batch has gone to
// the sink, delivered or refused, the query is fenced and never reruns.
type streamState struct {
	sink *RowSink
	sent bool
}

// fenced reports whether a batch has gone to the sink. Nil-safe so
// non-streaming queries can ask it unconditionally.
func (s *streamState) fenced() bool { return s != nil && s.sent }

// batch forwards one batch, fencing the query's reruns.
func (s *streamState) batch(rows []storage.Tuple) error {
	if len(rows) == 0 {
		return nil
	}
	s.sent = true
	return s.sink.Batch(rows)
}

// emitSlice streams an already-materialized result (the nested-iteration
// evaluator computes its rows before any can be delivered) through the
// sink in BatchRows-sized chunks, so the wire sees the same batch shape
// regardless of the evaluation path.
func (s *streamState) emitSlice(rows []storage.Tuple) error {
	n := s.sink.BatchRows
	if n <= 0 {
		n = exec.DefaultBatchRows
	}
	for len(rows) > 0 {
		b := rows
		if len(b) > n {
			b = b[:n]
		}
		if err := s.batch(b); err != nil {
			return err
		}
		rows = rows[len(b):]
	}
	return nil
}
