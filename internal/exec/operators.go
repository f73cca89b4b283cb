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

// RowPred is a compiled predicate over positional rows.
type RowPred func(storage.Tuple) (value.Tri, error)

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
		tri, err := f.Pred(t)
		if err != nil {
			return nil, false, err
		}
		if tri.IsTrue() {
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
// The tuples accumulating in the heap file's open page are charged
// against qc's memory budget (nil = ungoverned) and released every time a
// page fills — heap pages model disk, so only the partial-page working
// set counts as memory. A page buffer has nowhere to spill, so the charge
// is a hard one.
func MaterializeInto(op Operator, f *storage.HeapFile, qc *qctx.QueryContext) error {
	defer op.Close()
	if err := op.Open(); err != nil {
		return err
	}
	var pageBytes int64
	defer func() { qc.ReleaseBuffered(pageBytes) }()
	tpp := f.TuplesPerPage()
	count := 0
	for {
		t, ok, err := op.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n := tupleBytes(t)
		if _, err := reserve(qc, nil, n, 0); err != nil {
			return err
		}
		pageBytes += n
		f.Append(t)
		count++
		if tpp > 0 && count%tpp == 0 {
			qc.ReleaseBuffered(pageBytes)
			pageBytes = 0
		}
	}
	f.Seal()
	return nil
}

// Drain runs an operator to completion collecting all rows, charging each
// against qc's row budget (nil = ungoverned), so a query exceeding its row
// limit stops within one row of the limit.
func Drain(op Operator, qc *qctx.QueryContext) ([]storage.Tuple, error) {
	defer op.Close() // see MaterializeInto for why this precedes Open
	if err := op.Open(); err != nil {
		return nil, err
	}
	var rows []storage.Tuple
	for {
		t, ok, err := op.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rows, nil
		}
		if err := qc.AddRows(1); err != nil {
			return nil, err
		}
		rows = append(rows, t)
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

// CompileConjuncts compiles simple (non-nested) conjuncts against a row
// schema into a single RowPred evaluating their three-valued conjunction.
// Disjunctions and negations over simple comparisons compile too; nested
// subqueries do not (the planner never passes them).
func CompileConjuncts(preds []ast.Predicate, sch RowSchema) (RowPred, error) {
	compiled := make([]RowPred, len(preds))
	for i, p := range preds {
		c, err := compilePred(p, sch)
		if err != nil {
			return nil, err
		}
		compiled[i] = c
	}
	return func(t storage.Tuple) (value.Tri, error) {
		out := value.True
		for _, p := range compiled {
			tri, err := p(t)
			if err != nil {
				return value.Unknown, err
			}
			out = out.And(tri)
			if out == value.False {
				return out, nil
			}
		}
		return out, nil
	}, nil
}

func compilePred(p ast.Predicate, sch RowSchema) (RowPred, error) {
	switch p := p.(type) {
	case *ast.Comparison:
		if p.LeftOuter {
			return nil, fmt.Errorf("exec: outer-join predicate %s cannot be a filter", p)
		}
		l, err := compileExpr(p.Left, sch)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(p.Right, sch)
		if err != nil {
			return nil, err
		}
		op := p.Op
		return func(t storage.Tuple) (value.Tri, error) {
			return op.Apply(l(t), r(t))
		}, nil
	case *ast.OrPred:
		l, err := compilePred(p.Left, sch)
		if err != nil {
			return nil, err
		}
		r, err := compilePred(p.Right, sch)
		if err != nil {
			return nil, err
		}
		return func(t storage.Tuple) (value.Tri, error) {
			lt, err := l(t)
			if err != nil {
				return value.Unknown, err
			}
			rt, err := r(t)
			if err != nil {
				return value.Unknown, err
			}
			return lt.Or(rt), nil
		}, nil
	case *ast.AndPred:
		return CompileConjuncts([]ast.Predicate{p.Left, p.Right}, sch)
	case *ast.NotPred:
		inner, err := compilePred(p.P, sch)
		if err != nil {
			return nil, err
		}
		return func(t storage.Tuple) (value.Tri, error) {
			tri, err := inner(t)
			return tri.Not(), err
		}, nil
	default:
		return nil, fmt.Errorf("exec: cannot compile predicate %s into a plan", p)
	}
}

func compileExpr(e ast.Expr, sch RowSchema) (func(storage.Tuple) value.Value, error) {
	switch e := e.(type) {
	case ast.ColumnRef:
		i := sch.Index(e)
		if i < 0 {
			return nil, errUnknownColumn(e)
		}
		return func(t storage.Tuple) value.Value { return t[i] }, nil
	case ast.Const:
		v := e.Val
		return func(storage.Tuple) value.Value { return v }, nil
	default:
		return nil, fmt.Errorf("exec: cannot compile expression %s into a plan", e)
	}
}
