package exec

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/qctx"
	"repro/internal/storage"
	"repro/internal/value"
)

// Operator is a pull-based physical operator (the iterator model of
// System R). Open prepares state, Next produces one row at a time, Close
// releases resources. Schema describes the rows Next yields.
type Operator interface {
	Open() error
	Next() (storage.Tuple, bool, error)
	Close() error
	Schema() RowSchema
}

// SeqScan reads a heap file in sequential page order through the buffer
// pool.
type SeqScan struct {
	File *storage.HeapFile
	Sch  RowSchema
	// Name is what EXPLAIN calls the scanned relation when it is not the
	// file's name: a planner temp's TEMPn.
	Name string
	// QC, when set, is checked once per page — the scan's natural morsel.
	QC *qctx.QueryContext

	pageIdx int
	tuples  []storage.Tuple
	tupIdx  int
}

// NewSeqScan builds a scan of file whose columns are bound under binding.
func NewSeqScan(file *storage.HeapFile, binding string, cols []string) *SeqScan {
	sch := make(RowSchema, len(cols))
	for i, c := range cols {
		sch[i] = ColID{Table: binding, Column: c}
	}
	return &SeqScan{File: file, Sch: sch}
}

// Open resets the scan to the first page.
func (s *SeqScan) Open() error {
	s.pageIdx, s.tupIdx, s.tuples = 0, 0, nil
	return nil
}

// Next returns the next tuple in file order.
func (s *SeqScan) Next() (storage.Tuple, bool, error) {
	for s.tupIdx >= len(s.tuples) {
		if err := s.QC.Check(); err != nil {
			return nil, false, err
		}
		if s.pageIdx >= s.File.NumPages() {
			return nil, false, nil
		}
		s.tuples = s.File.ReadPage(s.pageIdx)
		s.pageIdx++
		s.tupIdx = 0
	}
	t := s.tuples[s.tupIdx]
	s.tupIdx++
	return t, true, nil
}

// Close releases nothing; scans hold no resources.
func (s *SeqScan) Close() error { return nil }

// Schema returns the scan's column bindings.
func (s *SeqScan) Schema() RowSchema { return s.Sch }

// RowPred is a compiled predicate over positional rows: whether a row makes
// it definitely true, all a filter or a join ever asks of the three values.
type RowPred func(storage.Tuple) (bool, error)

// Filter passes through rows for which the predicate is definitely true.
type Filter struct {
	Child Operator
	Pred  RowPred
}

func (f *Filter) Open() error { return f.Child.Open() }

func (f *Filter) Next() (storage.Tuple, bool, error) {
	for {
		t, ok, err := f.Child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		ok, err = f.Pred(t)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return t, true, nil
		}
	}
}

func (f *Filter) Close() error      { return f.Child.Close() }
func (f *Filter) Schema() RowSchema { return f.Child.Schema() }

// Project emits selected columns of its child, optionally renaming them.
type Project struct {
	Child Operator
	Cols  []int
	Sch   RowSchema
	rows  rowBuilder
}

// NewProject builds a projection of the given child columns. Output names
// default to the child's; name overrides apply per position when non-empty.
// An ascending run of columns is the child's row resliced, not a copy.
func NewProject(child Operator, cols []int, names []ColID) *Project {
	p := &Project{Child: child, Cols: cols, rows: newRowBuilder(cols, child.Schema(), nil)}
	p.Sch = p.rows.sch
	for i, name := range names {
		if name != (ColID{}) {
			p.Sch[i] = name
		}
	}
	return p
}

func (p *Project) Open() error { return p.Child.Open() }

func (p *Project) Next() (storage.Tuple, bool, error) {
	t, ok, err := p.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	return p.rows.build(t, nil), true, nil
}

func (p *Project) Close() error      { return p.Child.Close() }
func (p *Project) Schema() RowSchema { return p.Sch }

// Distinct removes duplicates from a sorted input by comparing adjacent
// rows; NULL compares equal to NULL, matching SQL DISTINCT. The planner
// always places it above a Sort on all columns — the paper eliminates
// duplicates with a (B−1)-way merge sort (section 7.1).
type Distinct struct {
	Child Operator
	prev  storage.Tuple
	cols  []int
}

func (d *Distinct) Open() error {
	d.prev, d.cols = nil, Identity(len(d.Child.Schema()))
	return d.Child.Open()
}

func (d *Distinct) Next() (storage.Tuple, bool, error) {
	for {
		t, ok, err := d.Child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if d.prev != nil && sameKey(d.prev, t, d.cols) {
			continue
		}
		d.prev = t
		return t, true, nil
	}
}

func (d *Distinct) Close() error      { return d.Child.Close() }
func (d *Distinct) Schema() RowSchema { return d.Child.Schema() }

// Materialize drains an operator into a new temporary heap file, counting
// the writes — the +Pt terms of the paper's cost formulas. On any failure
// — an error, or a panic (torn-write fault) unwinding through an append —
// the temp file is dropped, so failed materializations leak nothing.
func Materialize(op Operator, store *storage.Store, tuplesPerPage int) (*storage.HeapFile, error) {
	f := store.CreateTemp(tuplesPerPage)
	done := false
	defer func() {
		if !done {
			store.Drop(f.Name())
		}
	}()
	if err := MaterializeInto(op, f, nil); err != nil {
		return nil, err
	}
	done = true
	return f, nil
}

// MaterializeInto drains an operator into an existing (empty) heap file
// and seals it. Close is deferred before Open so resources acquired by a
// partially successful Open (sort runs, worker goroutines) are released
// even when Open itself errors or panics; Operator.Close is required to
// be safe in that state (see DESIGN.md, "Operator lifecycle contract").
//
// The tuples staged for the heap file's open page are charged against
// qc's memory budget (nil = ungoverned) and released every time a page is
// handed over — heap pages model disk, so only the partial-page working
// set counts as memory. A page buffer has nowhere to spill, so the charge
// is a hard one.
func MaterializeInto(op Operator, f *storage.HeapFile, qc *qctx.QueryContext) error {
	defer op.Close()
	if err := op.Open(); err != nil {
		return err
	}
	var pageBytes int64
	defer func() { qc.ReleaseBuffered(pageBytes) }()
	w := newPageWriter(f)
	for {
		t, ok, err := op.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n := tupleBytes(t)
		if _, err := reserve(qc, nil, n); err != nil {
			return err
		}
		pageBytes += n
		if w.append(t) {
			qc.ReleaseBuffered(pageBytes)
			pageBytes = 0
		}
	}
	w.seal()
	return nil
}

// pageWriter appends to a heap file a page at a time: tuples are staged
// in a pooled morsel and handed over whole, one store-mutex acquisition
// per page rather than one per tuple.
type pageWriter struct {
	f     *storage.HeapFile
	stage Morsel
	page  int // tuples per hand-over: the file's page, at most a morsel
}

func newPageWriter(f *storage.HeapFile) pageWriter {
	return pageWriter{f: f, stage: newMorsel(), page: min(f.TuplesPerPage(), MorselSize)}
}

// append stages t and reports whether that filled the stage and handed it
// over.
func (w *pageWriter) append(t storage.Tuple) bool {
	w.stage = append(w.stage, t)
	if len(w.stage) < w.page {
		return false
	}
	w.f.AppendAll(w.stage)
	clear(w.stage)
	w.stage = w.stage[:0]
	return true
}

// seal hands over the partial page left staged, seals the file and
// recycles the stage.
func (w *pageWriter) seal() {
	w.f.AppendAll(w.stage)
	w.f.Seal()
	recycle(w.stage)
	w.stage = nil
}

// Drain runs an operator to completion collecting all rows, charging each
// against qc's row budget (nil = ungoverned), so a query exceeding its row
// limit stops within one row of the limit. The rows are collected in
// pooled morsels and returned in one slice of their exact length.
func Drain(op Operator, qc *qctx.QueryContext) ([]storage.Tuple, error) {
	defer op.Close() // see MaterializeInto for why this precedes Open
	if err := op.Open(); err != nil {
		return nil, err
	}
	var rows rowChunks
	for {
		t, ok, err := op.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rows.flatten(), nil
		}
		if err := qc.AddRows(1); err != nil {
			return nil, err
		}
		rows.add(t)
	}
}

// tupleBytes estimates the in-memory footprint of a tuple for budget
// accounting: a fixed per-value overhead plus string payloads. It is an
// estimate — budgets bound magnitude, not exact allocation.
func tupleBytes(t storage.Tuple) int64 {
	n := int64(24) // slice header
	for _, v := range t {
		n += 32
		if v.Kind() == value.KindString {
			n += int64(len(v.Str()))
		}
	}
	return n
}

// CompileConjuncts compiles a plan's conjuncts against a row schema into
// the nested-iteration evaluator's filter over one frame, so a plan tests a
// row by the same three-valued rules nested iteration does. Disjunctions
// and negations compile too; a subquery or an outer-join operator anywhere
// in a conjunct is refused here, before any row reaches it (the planner
// passes neither).
func CompileConjuncts(preds []ast.Predicate, sch RowSchema) (RowPred, error) {
	for _, p := range preds {
		if err := planPredicate(p); err != nil {
			return nil, err
		}
	}
	// The evaluator and its one frame, in one allocation.
	fe := new(struct {
		ev    Evaluator
		frame [1]storage.Tuple
	})
	fe.ev.frames = fe.frame[:]
	return fe.ev.CompileFilter(preds, sch)
}

// planPredicate refuses a predicate a plan cannot evaluate: one with a
// leaf that is no comparison of scalars, or is an outer-join comparison.
func planPredicate(p ast.Predicate) (err error) {
	ast.Leaves(p, func(leaf ast.Predicate) bool {
		c, ok := leaf.(*ast.Comparison)
		switch {
		case ok && c.LeftOuter:
			err = fmt.Errorf("exec: outer-join predicate %s cannot be a filter", c)
		case !ok || len(ast.SubqueriesOf(c)) > 0:
			err = fmt.Errorf("exec: cannot compile predicate %s into a plan", leaf)
		}
		return err == nil
	})
	return err
}
