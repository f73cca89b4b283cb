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

// streamState wraps a RowSink for one query execution. It tracks whether
// any rows have escaped to the caller: the engine's retry paths (the
// admission layer's transient-fault retry and the sequential retry of a
// failed parallel plan) re-run the whole query, which would duplicate
// already-delivered rows — so both are fenced once emission starts.
type streamState struct {
	sink       *RowSink
	colsSent   bool
	emitted    int64
	sinkFailed bool
}

// hasEmitted reports whether any batch reached the sink. Nil-safe so
// non-streaming paths can test it unconditionally.
func (s *streamState) hasEmitted() bool { return s != nil && s.emitted > 0 }

// sinkBroken reports whether a sink callback itself failed. A broken
// sink means the consumer is gone (a closed network connection, a
// stalled client past its write deadline): re-running the query on any
// retry path would stream into the same dead pipe, so retries are
// fenced even when no rows made it out.
func (s *streamState) sinkBroken() bool { return s != nil && s.sinkFailed }

// columns forwards the column header exactly once, surviving retries.
func (s *streamState) columns(cols []string) error {
	if s.colsSent {
		return nil
	}
	s.colsSent = true
	if s.sink.Columns == nil {
		return nil
	}
	if err := s.sink.Columns(cols); err != nil {
		s.sinkFailed = true
		return err
	}
	return nil
}

// batch forwards one batch, counting emission.
func (s *streamState) batch(rows []storage.Tuple) error {
	if len(rows) == 0 {
		return nil
	}
	if err := s.sink.Batch(rows); err != nil {
		s.sinkFailed = true
		return err
	}
	s.emitted += int64(len(rows))
	return nil
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
