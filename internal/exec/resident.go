package exec

import (
	"repro/internal/qctx"
	"repro/internal/storage"
)

// Resident is a temporary table held in memory instead of a heap file:
// section 7.2's favorable case, a relation of at most B−1 pages read with
// no write and no read-back. Its rows are kept as Drain collects them, in
// pooled morsels of row headers, with the bytes the query's memory budget
// granted for them.
type Resident struct {
	rows    rowChunks
	charged int64
}

// Len reports the number of rows held.
func (r *Resident) Len() int { return r.rows.n }

// Unreserve hands the grant back to qc and keeps the rows. Once the last
// block reading the temp is planned, its operators charge what they buffer
// of the rows, as they would reading the file the temp stands in for, so
// the grant would count those bytes twice.
func (r *Resident) Unreserve(qc *qctx.QueryContext) {
	qc.ReleaseBuffered(r.charged)
	r.charged = 0
}

// Release hands the morsels back to the pool and any grant back to qc.
// The rows themselves are not recycled: a result may still hold them.
func (r *Resident) Release(qc *qctx.QueryContext) {
	for _, m := range r.rows.chunks {
		recycle(m)
	}
	r.rows = rowChunks{}
	r.Unreserve(qc)
}

// Hold drains op into memory while it yields at most limit rows and qc
// grants each row's bytes — a refusable reservation, so a refusal never
// fails the query. At the first row past either, Hold writes the rows it
// held and the rest of op into the file newFile makes, as MaterializeInto
// would, with the same page writes, and returns nil.
func Hold(op Operator, limit int, qc *qctx.QueryContext, newFile func() *storage.HeapFile) (*Resident, error) {
	defer op.Close() // see MaterializeInto for why this precedes Open
	if err := op.Open(); err != nil {
		return nil, err
	}
	r, kept := new(Resident), false
	defer func() {
		if !kept {
			r.Release(qc)
		}
	}()
	for {
		t, ok, err := op.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			kept = true
			return r, nil
		}
		n := tupleBytes(t)
		if r.rows.n >= limit || !qc.ReserveBuffered(n) {
			w := newPageWriter(newFile())
			for _, m := range r.rows.chunks {
				for _, held := range m {
					w.append(held)
				}
			}
			w.append(t)
			r.Release(qc) // the rows are in pages now, bar one page staged
			return nil, writePages(op, w, qc)
		}
		r.charged += n
		r.rows.add(t)
	}
}

// ResidentScan reads a Resident temp in the order its rows were held, as
// a SeqScan reads the file it stands in for.
type ResidentScan struct {
	Rows *Resident
	Sch  RowSchema
	// Name is the temp's name, for EXPLAIN.
	Name string
	// QC, when set, is checked once per morsel of rows.
	QC *qctx.QueryContext

	chunk, idx int
}

// NewResidentScan builds a scan of rows whose columns are bound under
// binding.
func NewResidentScan(rows *Resident, binding string, cols []string) *ResidentScan {
	return &ResidentScan{Rows: rows, Sch: bind(binding, cols)}
}

// Open resets the scan to the first row.
func (s *ResidentScan) Open() error {
	s.chunk, s.idx = 0, 0
	return nil
}

// Next returns the next held row.
func (s *ResidentScan) Next() (storage.Tuple, bool, error) {
	chunks := s.Rows.rows.chunks
	for s.chunk < len(chunks) {
		m := chunks[s.chunk]
		if s.idx == 0 {
			if err := s.QC.Check(); err != nil {
				return nil, false, err
			}
		}
		if s.idx < len(m) {
			s.idx++
			return m[s.idx-1], true, nil
		}
		s.chunk, s.idx = s.chunk+1, 0
	}
	return nil, false, nil
}

// Close releases nothing; the rows belong to the Resident.
func (s *ResidentScan) Close() error { return nil }

// Schema returns the scan's column bindings.
func (s *ResidentScan) Schema() RowSchema { return s.Sch }
