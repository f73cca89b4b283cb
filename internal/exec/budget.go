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

// source feeds an operator kernel its input one tuple at a time: a
// worker's morsel channel (and ExchangeMerge the workers' output), a spill
// run under a sort's merge and a merge join's spilled group, the probe
// child itself under the inline hash join. Over a channel, cancellation
// wakes a blocked receive. Over a run it is the checked iterator every
// spill reader goes through: io.EOF ends the stream, the query context is
// consulted per tuple, and the file is closed at end of stream and on
// every error, so only a caller that stops early has to call close.
type source struct {
	qc  *qctx.QueryContext
	in  <-chan Morsel
	rd  *spill.Reader
	op  Operator
	cur Morsel
	idx int
}

// openRun starts a checked scan of run.
func openRun(qc *qctx.QueryContext, run *spill.Run) (source, error) {
	rd, err := run.Open()
	return source{qc: qc, rd: rd}, err
}

func (s *source) next() (storage.Tuple, bool, error) {
	for s.idx >= len(s.cur) {
		if s.op != nil {
			return s.op.Next()
		}
		if s.in == nil {
			return s.readRun()
		}
		// The morsel read through goes back to the pool, exactly once.
		recycle(s.cur)
		s.cur, s.idx = nil, 0
		select {
		case m, ok := <-s.in:
			if !ok {
				return nil, false, nil
			}
			s.cur = m
		case <-s.qc.Done():
			return nil, false, s.qc.Err()
		}
	}
	t := s.cur[s.idx]
	s.idx++
	return t, true, nil
}

func (s *source) readRun() (storage.Tuple, bool, error) {
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

// close releases the run's file handle; it is idempotent and a no-op
// over a channel.
func (s *source) close() {
	if s.rd != nil {
		s.rd.Close()
		s.rd = nil
	}
}
