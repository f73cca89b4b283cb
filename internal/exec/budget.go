package exec

import (
	"io"

	"repro/internal/qctx"
	"repro/internal/spill"
	"repro/internal/storage"
)

// This file holds what every buffering operator shares when memory runs
// short: the one rule that decides between holding state in memory and
// spilling it, and the one checked iterator that reads a spill run back.

// reserve charges n bytes of buffered operator state against the query's
// memory budget. It reports false when the caller must spill the state
// instead, and an error — qctx.ErrMemoryBudget, the query is canceled —
// when a hard charge does not fit. It is the only place that chooses
// between a refusable reservation and a hard charge:
//
//   - without a spill session the charge is hard: the hash operators, the
//     group table and temp-page buffers always pass nil, since only sorts
//     and merge-join groups spill;
//   - with one it is refusable — by the byte budget, the spill threshold,
//     or SpillForced, which refuses everything.
func reserve(qc *qctx.QueryContext, sess *spill.Session, n int64) (bool, error) {
	if !sess.Enabled() {
		return true, qc.AddBuffered(n)
	}
	return qc.ReserveBuffered(n), nil
}

// source is the checked iterator every spill reader goes through, under a
// sort's merge and a merge join's spilled group: io.EOF ends the stream,
// the query context is consulted per tuple, and the file is closed at end
// of stream and on every error, so only a caller that stops early has to
// call close.
type source struct {
	qc *qctx.QueryContext
	rd *spill.Reader
}

// openRun starts a checked scan of run.
func openRun(qc *qctx.QueryContext, run *spill.Run) (source, error) {
	rd, err := run.Open()
	return source{qc: qc, rd: rd}, err
}

func (s *source) next() (storage.Tuple, bool, error) {
	if s.rd == nil {
		return nil, false, nil
	}
	t, err := s.rd.Next()
	if err == nil {
		err = s.qc.Check()
	}
	if err != nil {
		s.close()
		if err == io.EOF {
			err = nil
		}
		return nil, false, err
	}
	return t, true, nil
}

// close releases the run's file handle; it is idempotent.
func (s *source) close() {
	if s.rd != nil {
		s.rd.Close()
		s.rd = nil
	}
}
