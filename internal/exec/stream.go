package exec

import (
	"repro/internal/qctx"
	"repro/internal/storage"
)

// BatchSink receives result rows in bounded batches as an operator tree
// produces them. A sink that blocks (a full network write buffer) blocks
// the pull loop, so backpressure propagates into the executor: the
// operators simply stop being pulled. A sink error aborts the drain and is
// returned to the caller unchanged.
//
// The sink must not retain the batch slice after returning; DrainInto
// reuses it.
type BatchSink func(rows []storage.Tuple) error

// DefaultBatchRows is the batch size DrainInto uses when the caller
// passes 0.
const DefaultBatchRows = 64

// DrainInto runs an operator to completion, delivering rows to sink in
// batches of at most batchRows, charging each row against qc's row budget
// exactly like Drain.
func DrainInto(op Operator, qc *qctx.QueryContext, batchRows int, sink BatchSink) error {
	if batchRows <= 0 {
		batchRows = DefaultBatchRows
	}
	defer op.Close() // see MaterializeInto for why this precedes Open
	if err := op.Open(); err != nil {
		return err
	}
	batch := make([]storage.Tuple, 0, batchRows)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := sink(batch)
		batch = batch[:0]
		return err
	}
	for {
		t, ok, err := op.Next()
		if err != nil {
			return err
		}
		if !ok {
			return flush()
		}
		if err := qc.AddRows(1); err != nil {
			return err
		}
		batch = append(batch, t)
		if len(batch) >= batchRows {
			if err := flush(); err != nil {
				return err
			}
		}
	}
}
