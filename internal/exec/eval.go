package exec

import (
	"fmt"
	"slices"

	"repro/internal/ast"
	"repro/internal/qctx"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// Evaluator executes query blocks by nested iteration — the method System R
// used for nested queries ([SEL 79:33], summarized in section 2 of the
// paper): the inner query block of a correlated (type-J / type-JA) nested
// predicate is re-evaluated once for each outer tuple that satisfies the
// simple predicates, while an uncorrelated (type-A / type-N) inner block is
// evaluated once, its result kept as a constant or materialized as a list
// of values that membership tests then scan.
//
// This executor is the engine's semantic ground truth: every transformation
// is validated against it. Its page I/Os flow through the storage layer, so
// it also measures the baseline cost the paper's analyses start from.
//
// What does not depend on the tuples is done once per block, not once per
// invocation or per row: compile looks the files up, orders the conjuncts,
// decides correlation and resolves every column reference to a (frame,
// column) pair; iterating a block then only stores tuples on the frame
// stack and calls closures that read them.
type Evaluator struct {
	Cat   *schema.Catalog
	Store *storage.Store
	// QC, when set, is checked once per cartesian-product row and charged
	// for every root-block result row. Inner blocks do not charge the row
	// budget — it bounds what the query returns, not what it examines.
	QC *qctx.QueryContext
	// Temps, when set, resolves a relation name before the catalog does:
	// the planner's own temporary tables, which the catalog never holds.
	Temps func(name string) (*schema.Relation, *storage.HeapFile, bool)

	// root is the block whose emissions count against the row budget,
	// recorded by EvalQuery.
	root *ast.QueryBlock
	// progs holds every block compiled so far, keyed by block identity.
	progs map[*ast.QueryBlock]*blockProg
	// frames is the frame stack: the current tuple of each FROM entry of
	// every block being iterated, outermost block first. When the inner
	// block of Kiessling's query Q2 runs, the current PARTS tuple sits in
	// frame 0 and the SUPPLY tuple in frame 1, which is how SUPPLY.PNUM =
	// PARTS.PNUM sees the outer row.
	frames []storage.Tuple
	// tempFiles tracks materializations for cleanup.
	tempFiles []*storage.HeapFile
}

// cachedSub is the once-evaluated result of an uncorrelated subquery.
// Scalar results stay in memory (System R replaces the block with "a single
// constant"); set-valued results are materialized to a temporary list file
// whose membership scans are charged like any other page access.
type cachedSub struct {
	scalar   value.Value // for scalar/aggregate blocks
	isScalar bool
	list     *storage.HeapFile // for set-valued blocks (the "list X")
}

// blockProg is a query block compiled against the frames it can see.
type blockProg struct {
	qb         *ast.QueryBlock
	correlated bool
	out        RowSchema
	files      []*storage.HeapFile
	// base is the frame of From[0]. A block's frames sit above those of
	// every block enclosing it — an uncorrelated block's too, although it
	// resolves against none of them: it is evaluated when first reached,
	// while the enclosing frames are live.
	base  int
	where []pred // simple conjuncts before nested ones
	sel   []slot // each select item's column (unset for COUNT(*))
	// Aggregate blocks fold a scratch row, laid out as the GROUP BY values
	// followed by one slot per select item (holding the item's aggregate
	// argument), into groups, a group table each invocation resets, and
	// keep the finished groups that pass having.
	groupBy []slot
	items   []GroupItem
	scratch storage.Tuple
	groups  groupTable
	having  RowPred
	// cache is an uncorrelated block's result once evaluated.
	cache *cachedSub
}

// slot is a resolved column reference: a frame and a position in its tuple.
type slot struct{ frame, col int }

// expr and pred are a compiled scalar expression and predicate, reading the
// frame stack of the evaluator that compiled them.
type (
	expr func() (value.Value, error)
	pred func() (value.Tri, error)
)

// NewEvaluator returns an evaluator over the given catalog and store.
func NewEvaluator(cat *schema.Catalog, store *storage.Store) *Evaluator {
	return &Evaluator{Cat: cat, Store: store, progs: make(map[*ast.QueryBlock]*blockProg)}
}

// Close drops any temporary list files the evaluator materialized.
func (ev *Evaluator) Close() {
	for _, f := range ev.tempFiles {
		ev.Store.Drop(f.Name())
	}
	ev.tempFiles = nil
}

// EvalQuery evaluates a resolved query block tree and returns the result
// rows and their schema.
func (ev *Evaluator) EvalQuery(qb *ast.QueryBlock) ([]storage.Tuple, RowSchema, error) {
	ev.root = qb
	bp, err := ev.compile(qb, nil)
	if err != nil {
		return nil, nil, err
	}
	rows, err := ev.run(bp)
	if err != nil {
		return nil, nil, err
	}
	return rows, bp.out, nil
}

// CompileFilter compiles WHERE conjuncts over the rows of one schema into
// a test of whether a row satisfies all of them (all definitely true). The
// engine's DELETE and UPDATE use it, so their WHERE clauses support the
// full dialect including nested subqueries, and so does every plan
// predicate (CompileConjuncts).
func (ev *Evaluator) CompileFilter(preds []ast.Predicate, sch RowSchema) (RowPred, error) {
	scope := []RowSchema{sch}
	ev.growFrames(1)
	where := make([]pred, len(preds))
	for i, p := range preds {
		var err error
		if where[i], err = ev.framePred(p, scope); err != nil {
			return nil, err
		}
	}
	return func(t storage.Tuple) (bool, error) {
		ev.frames[0] = t
		return allTrue(where)
	}, nil
}

// relation resolves a FROM entry's name against Temps first, then the
// store and the catalog.
func (ev *Evaluator) relation(name string) (*schema.Relation, *storage.HeapFile, error) {
	if ev.Temps != nil {
		if rel, f, ok := ev.Temps(name); ok {
			return rel, f, nil
		}
	}
	f, ok := ev.Store.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("exec: no stored relation %s", name)
	}
	rel, ok := ev.Cat.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("exec: relation %s not in catalog", name)
	}
	return rel, f, nil
}

func (ev *Evaluator) growFrames(n int) {
	for len(ev.frames) < n {
		ev.frames = append(ev.frames, nil)
	}
}

// compile builds the block's program, once per evaluator. scope holds the
// schema of each frame below the block's own, outermost first.
func (ev *Evaluator) compile(qb *ast.QueryBlock, scope []RowSchema) (*blockProg, error) {
	if bp := ev.progs[qb]; bp != nil {
		return bp, nil
	}
	bp := &blockProg{qb: qb, correlated: ast.IsCorrelated(qb), out: blockOutputSchema(qb), base: len(scope)}
	if !bp.correlated {
		// The frames below stay live, and out of sight.
		scope = make([]RowSchema, len(scope))
	}
	scope = slices.Clip(scope) // sibling blocks append to the same prefix
	for _, tr := range qb.From {
		rel, f, err := ev.relation(tr.Relation)
		if err != nil {
			return nil, err
		}
		rs := make(RowSchema, len(rel.Columns))
		for j, c := range rel.Columns {
			rs[j] = ColID{Table: tr.Binding(), Column: c.Name}
		}
		bp.files = append(bp.files, f)
		scope = append(scope, rs)
	}
	ev.growFrames(len(scope))

	// Evaluate cheap conjuncts first so nested predicates run only for
	// tuples that satisfy all simple predicates — System R's rule, and
	// the origin of the f(i)·Ni factor in the cost analyses.
	var nested []pred
	for _, p := range qb.Where {
		c, err := ev.framePred(p, scope)
		if err != nil {
			return nil, err
		}
		if len(ast.SubqueriesOf(p)) == 0 {
			bp.where = append(bp.where, c)
		} else {
			nested = append(nested, c)
		}
	}
	bp.where = append(bp.where, nested...)

	var err error
	bp.sel = make([]slot, len(qb.Select))
	for i, item := range qb.Select {
		// COUNT(*) counts rows; its argument is unused.
		if item.Agg == value.AggCountStar {
			continue
		}
		if bp.sel[i], err = resolve(item.Col, scope); err != nil {
			return nil, err
		}
	}
	if qb.HasAggregate() {
		k := len(qb.GroupBy)
		bp.groupBy = make([]slot, k)
		for j, col := range qb.GroupBy {
			if bp.groupBy[j], err = resolve(col, scope); err != nil {
				return nil, err
			}
		}
		bp.items = make([]GroupItem, len(qb.Select))
		for i, item := range qb.Select {
			bp.items[i] = GroupItem{Agg: item.Agg, Col: k + i}
			if !item.IsAggregate() {
				// Plain column: resolver guarantees it is a GROUP BY column.
				bp.items[i].Col = slices.Index(qb.GroupBy, item.Col)
			}
		}
		bp.scratch = make(storage.Tuple, k+len(qb.Select))
		bp.groups, bp.having = groupTable{cols: Identity(k), items: bp.items}, Having(qb.Having)
	}
	ev.progs[qb] = bp
	return bp, nil
}

// resolve binds a column reference to the innermost frame that defines it.
// Within a block a later FROM entry is the inner frame.
func resolve(ref ast.ColumnRef, scope []RowSchema) (slot, error) {
	for f := len(scope) - 1; f >= 0; f-- {
		switch i := scope[f].Index(ref); {
		case i >= 0:
			return slot{frame: f, col: i}, nil
		case i == -2:
			return slot{}, errUnknownColumn(ref)
		}
	}
	return slot{}, errUnknownColumn(ref)
}

// run evaluates one compiled block against the frames below it.
func (ev *Evaluator) run(bp *blockProg) ([]storage.Tuple, error) {
	qb, root := bp.qb, bp.qb == ev.root
	var rows []storage.Tuple
	bp.groups.reset()
	if bp.items != nil && len(bp.groupBy) == 0 {
		// One group, there even over an empty input (COUNT = 0, MAX =
		// NULL) — the semantics the COUNT bug of section 5.1 loses.
		bp.groups.open(nil)
	}
	err := ev.scanProduct(bp, 0, func() error {
		if ok, err := allTrue(bp.where); err != nil || !ok {
			return err
		}
		if bp.items != nil {
			k := len(bp.groupBy)
			for i, s := range bp.groupBy {
				bp.scratch[i] = ev.frames[s.frame][s.col]
			}
			for i, it := range bp.items {
				if it.Agg != value.AggNone && it.Agg != value.AggCountStar {
					bp.scratch[k+i] = ev.frames[bp.sel[i].frame][bp.sel[i].col]
				}
			}
			i, h := bp.groups.find(bp.scratch)
			if i < 0 {
				i = bp.groups.insert(bp.scratch, h)
			}
			return bp.groups.add(i, bp.scratch)
		}
		row := make(storage.Tuple, len(bp.sel))
		for i, s := range bp.sel {
			row[i] = ev.frames[s.frame][s.col]
		}
		if root && !qb.Distinct {
			// Streaming root emission: charge as we go so the row budget
			// stops the scan within one row. DISTINCT charges after
			// deduplication — duplicates are not result rows.
			if err := ev.QC.AddRows(1); err != nil {
				return err
			}
		}
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		return nil, err
	}

	if bp.items != nil {
		rows = make([]storage.Tuple, 0, bp.groups.n)
		for i := range bp.groups.n {
			row := bp.groups.row(i)
			if keep, err := bp.having(row); err != nil {
				return nil, err
			} else if keep {
				rows = append(rows, row)
			}
		}
	}
	if qb.Distinct {
		rows = dedupeRows(rows, len(bp.out))
	}
	if root && (bp.items != nil || qb.Distinct) {
		if err := ev.QC.AddRows(len(rows)); err != nil {
			return nil, err
		}
	}
	if len(qb.OrderBy) > 0 {
		if err := sortRowsBy(rows, qb.OrderBy); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// allTrue reports whether every predicate is definitely true, stopping at
// the first that is not.
func allTrue(preds []pred) (bool, error) {
	for _, p := range preds {
		if tri, err := p(); err != nil || !tri.IsTrue() {
			return false, err
		}
	}
	return true, nil
}

// Having tests an aggregate output row against HAVING conjuncts: whether
// all are definitely true, stopping at the first that is not. Nested
// iteration and a plan's HAVING filter both use it.
func Having(having []ast.HavingPred) RowPred {
	return func(row storage.Tuple) (bool, error) {
		for i := range having {
			h := &having[i]
			if tri, err := h.Op.ApplyRef(&row[h.Pos], &h.Val); err != nil || !tri.IsTrue() {
				return false, err
			}
		}
		return true, nil
	}
}

// sortRowsBy orders result rows by the resolved ORDER BY positions. An
// incomparable pair of sort keys surfaces as an error after the sort.
func sortRowsBy(rows []storage.Tuple, order []ast.OrderItem) error {
	keys, desc := make([]int, len(order)), make([]bool, len(order))
	for i, o := range order {
		keys[i], desc[i] = o.Pos, o.Desc
	}
	var cmpErr error
	slices.SortStableFunc(rows, func(a, b storage.Tuple) int { return compareRows(a, b, keys, desc, &cmpErr) })
	return cmpErr
}

// blockOutputSchema derives the result schema of a block. Plain columns
// keep their binding so correlation through selected columns stays
// resolvable; aggregates and aliased items become derived columns.
func blockOutputSchema(qb *ast.QueryBlock) RowSchema {
	out := make(RowSchema, len(qb.Select))
	for i, item := range qb.Select {
		switch {
		case item.As != "":
			out[i] = ColID{Column: item.As}
		case item.IsAggregate():
			out[i] = ColID{Column: item.OutputName()}
		default:
			out[i] = ColID{Table: item.Col.Table, Column: item.Col.Column}
		}
	}
	return out
}

// scanProduct iterates the cartesian product of the block's FROM relations
// in order from the i-th on, re-scanning inner files once per outer
// combination — the nested iteration of the paper — with each current tuple
// in its frame. Pages move through the buffer pool, so an inner relation
// that fits in B pages is effectively cached. Cancellation is checked once
// per page read, as SeqScan checks it: a page is the scan's natural morsel.
func (ev *Evaluator) scanProduct(bp *blockProg, i int, fn func() error) error {
	if i == len(bp.files) {
		return fn()
	}
	f := bp.files[i]
	for pg, n := 0, f.NumPages(); pg < n; pg++ {
		if err := ev.QC.Check(); err != nil {
			return err
		}
		for _, t := range f.ReadPage(pg) {
			ev.frames[bp.base+i] = t
			if err := ev.scanProduct(bp, i+1, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// dedupeRows removes duplicate rows of width columns preserving first
// occurrence, with NULL equal to NULL (SQL DISTINCT semantics): a row is
// kept when it opens a group of a table grouping on every column.
func dedupeRows(rows []storage.Tuple, width int) []storage.Tuple {
	seen, out := groupTable{cols: Identity(width)}, rows[:0:0]
	for _, r := range rows {
		if i, h := seen.find(r); i < 0 {
			seen.insert(r, h)
			out = append(out, r)
		}
	}
	return out
}

// framePred compiles one predicate, evaluated under three-valued logic.
func (ev *Evaluator) framePred(p ast.Predicate, scope []RowSchema) (pred, error) {
	switch p := p.(type) {
	case *ast.Comparison:
		if p.LeftOuter {
			// Refused when a row reaches it, like any evaluation error.
			err := fmt.Errorf("exec: outer-join operator %s+ is only valid in transformed temporary-table definitions", p.Op)
			return func() (value.Tri, error) { return value.Unknown, err }, nil
		}
		lo, lok := operandOf(p.Left, scope)
		ro, rok := operandOf(p.Right, scope)
		if lok && rok {
			// The common conjunct, two columns or constants, compared in place.
			return func() (value.Tri, error) { return p.Op.ApplyRef(lo.get(ev.frames), ro.get(ev.frames)) }, nil
		}
		l, err := ev.frameExpr(p.Left, scope)
		if err != nil {
			return nil, err
		}
		r, err := ev.frameExpr(p.Right, scope)
		if err != nil {
			return nil, err
		}
		return func() (value.Tri, error) {
			lv, err := l()
			if err != nil {
				return value.Unknown, err
			}
			rv, err := r()
			if err != nil {
				return value.Unknown, err
			}
			return p.Op.Apply(lv, rv)
		}, nil
	case *ast.InPred:
		// x IN S is x = ANY S.
		return ev.frameNested(p.Left, p.Sub, scope, func(lv value.Value, sub *blockProg) (value.Tri, error) {
			tri, err := ev.evalQuant(lv, value.OpEq, ast.Any, sub)
			if p.Negated {
				tri = tri.Not()
			}
			return tri, err
		})
	case *ast.ExistsPred:
		bp, err := ev.compile(p.Sub, scope)
		return func() (value.Tri, error) {
			rows, err := ev.subRows(bp)
			return value.TriOf(len(rows) > 0 != p.Negated), err
		}, err
	case *ast.QuantPred:
		return ev.frameNested(p.Left, p.Sub, scope, func(lv value.Value, sub *blockProg) (value.Tri, error) {
			return ev.evalQuant(lv, p.Op, p.Quant, sub)
		})
	case *ast.OrPred:
		return ev.frameBoth(p.Left, p.Right, scope, value.Tri.Or)
	case *ast.AndPred:
		return ev.frameBoth(p.Left, p.Right, scope, value.Tri.And)
	case *ast.NotPred:
		inner, err := ev.framePred(p.P, scope)
		if err != nil {
			return nil, err
		}
		return func() (value.Tri, error) {
			t, err := inner()
			return t.Not(), err
		}, nil
	default:
		return nil, fmt.Errorf("exec: unknown predicate type %T", p)
	}
}

// frameNested compiles a nested predicate: its left operand, then its
// inner block, handed to test on each evaluation.
func (ev *Evaluator) frameNested(left ast.Expr, sub *ast.QueryBlock, scope []RowSchema,
	test func(value.Value, *blockProg) (value.Tri, error)) (pred, error) {
	l, err := ev.frameExpr(left, scope)
	if err != nil {
		return nil, err
	}
	bp, err := ev.compile(sub, scope)
	if err != nil {
		return nil, err
	}
	return func() (value.Tri, error) {
		lv, err := l()
		if err != nil {
			return value.Unknown, err
		}
		return test(lv, bp)
	}, nil
}

// frameBoth compiles a connective that evaluates both of its sides.
func (ev *Evaluator) frameBoth(left, right ast.Predicate, scope []RowSchema, join func(l, r value.Tri) value.Tri) (pred, error) {
	l, err := ev.framePred(left, scope)
	if err != nil {
		return nil, err
	}
	r, err := ev.framePred(right, scope)
	if err != nil {
		return nil, err
	}
	return func() (value.Tri, error) {
		lt, err := l()
		if err != nil {
			return value.Unknown, err
		}
		rt, err := r()
		return join(lt, rt), err
	}, nil
}

// operand is a compiled column or constant, read in place: the constant c
// when it is set, else the column at slot s of the frame stack. A plain
// value, so the closure that reads it allocates nothing more.
type operand struct {
	s slot
	c *value.Value
}

func (o operand) get(frames []storage.Tuple) *value.Value {
	if o.c != nil {
		return o.c
	}
	return &frames[o.s.frame][o.s.col]
}

// operandOf compiles a column or constant; false for anything else, an
// unresolvable column included (frameExpr reports it).
func operandOf(e ast.Expr, scope []RowSchema) (operand, bool) {
	switch e := e.(type) {
	case ast.ColumnRef:
		s, err := resolve(e, scope)
		return operand{s: s}, err == nil
	case ast.Const:
		return operand{c: &e.Val}, true
	}
	return operand{}, false
}

// Operand compiles a column or constant over the rows of one schema — the
// operand x of a Quantifier.
func Operand(e ast.Expr, sch RowSchema) (func(storage.Tuple) value.Value, error) {
	o, ok := operandOf(e, []RowSchema{sch})
	if !ok {
		return nil, fmt.Errorf("exec: operand %s is not a column or constant of the plan", e)
	}
	return func(t storage.Tuple) value.Value { return *o.get([]storage.Tuple{t}) }, nil
}

// frameExpr compiles a scalar expression.
func (ev *Evaluator) frameExpr(e ast.Expr, scope []RowSchema) (expr, error) {
	if o, ok := operandOf(e, scope); ok {
		return func() (value.Value, error) { return *o.get(ev.frames), nil }, nil
	}
	switch e := e.(type) {
	case ast.ColumnRef:
		return nil, errUnknownColumn(e)
	case *ast.Subquery:
		bp, err := ev.compile(e.Block, scope)
		return func() (value.Value, error) { return ev.scalarSub(bp) }, err
	default:
		return nil, fmt.Errorf("exec: unknown expression type %T", e)
	}
}

// scalarSub evaluates a subquery used as a scalar: zero rows yield NULL
// (which makes MAX over an empty correlated set behave as the paper's
// section 5.3 assumes), more than one row is a runtime error.
func (ev *Evaluator) scalarSub(bp *blockProg) (value.Value, error) {
	if !bp.correlated {
		c, err := ev.cached(bp)
		if err != nil {
			return value.Null, err
		}
		if c.isScalar {
			return c.scalar, nil
		}
	}
	rows, err := ev.subRows(bp)
	if err != nil {
		return value.Null, err
	}
	switch len(rows) {
	case 0:
		return value.Null, nil
	case 1:
		return rows[0][0], nil
	default:
		return value.Null, fmt.Errorf("exec: scalar subquery returned %d rows", len(rows))
	}
}

// evalQuant implements op ANY / op ALL under three-valued logic, including
// the empty-set cases (ANY over empty is FALSE, ALL over empty is TRUE).
func (ev *Evaluator) evalQuant(lv value.Value, op value.CompareOp, quant ast.Quantifier, sub *blockProg) (value.Tri, error) {
	var q quantified
	if err := ev.visitSubValues(sub, func(v value.Value) error { return q.see(&lv, op, &v) }); err != nil {
		return value.Unknown, err
	}
	return q.tri(quant), nil
}

// quantified folds lv op v over the values v of a list, one at a time, for
// op ANY and op ALL. x IN S is x = ANY S, so nested iteration's IN, NOT IN,
// ANY and ALL and a plan's quantified joins — hash, merge and nested loops —
// all decide through it.
type quantified struct{ anyTrue, anyUnknown, anyFalse bool }

func (q *quantified) see(lv *value.Value, op value.CompareOp, v *value.Value) error {
	tri, err := op.ApplyRef(lv, v)
	switch tri {
	case value.True:
		q.anyTrue = true
	case value.Unknown:
		q.anyUnknown = true
	default:
		q.anyFalse = true
	}
	return err
}

func (q *quantified) tri(quant ast.Quantifier) value.Tri {
	if quant == ast.Any {
		switch {
		case q.anyTrue:
			return value.True
		case q.anyUnknown:
			return value.Unknown
		default:
			return value.False
		}
	}
	switch {
	case q.anyFalse:
		return value.False
	case q.anyUnknown:
		return value.Unknown
	default:
		return value.True
	}
}

// visitSubValues streams the single-column values of a subquery result to
// fn. Uncorrelated subqueries are materialized once as the list X of
// [SEL 79]; each visit then re-scans the list through the buffer pool, so
// a list that does not fit in B pages costs real I/O per outer tuple,
// matching Kim's type-N cost analysis.
func (ev *Evaluator) visitSubValues(bp *blockProg, fn func(value.Value) error) error {
	if !bp.correlated {
		c, err := ev.cached(bp)
		if err != nil {
			return err
		}
		if c.isScalar {
			return fn(c.scalar)
		}
		var visitErr error
		c.list.Scan(func(t storage.Tuple) bool {
			visitErr = fn(t[0])
			return visitErr == nil
		})
		return visitErr
	}
	rows, err := ev.run(bp)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := fn(r[0]); err != nil {
			return err
		}
	}
	return nil
}

// subRows returns the full result rows of a subquery: what EXISTS tests
// and a scalar use counts.
func (ev *Evaluator) subRows(bp *blockProg) ([]storage.Tuple, error) {
	if bp.correlated {
		return ev.run(bp)
	}
	c, err := ev.cached(bp)
	if err != nil {
		return nil, err
	}
	if c.isScalar {
		return []storage.Tuple{{c.scalar}}, nil
	}
	var rows []storage.Tuple
	c.list.Scan(func(t storage.Tuple) bool {
		rows = append(rows, t)
		return true
	})
	return rows, nil
}

// cached evaluates an uncorrelated subquery once. A single-row aggregate
// block without GROUP BY becomes an in-memory constant (type-A evaluation,
// [SEL 79:33]); anything else is materialized as a temporary list file.
func (ev *Evaluator) cached(bp *blockProg) (*cachedSub, error) {
	if bp.cache != nil {
		return bp.cache, nil
	}
	rows, err := ev.run(bp)
	if err != nil {
		return nil, err
	}
	c := &cachedSub{}
	if qb := bp.qb; qb.HasAggregate() && len(qb.GroupBy) == 0 && len(qb.Select) == 1 {
		c.isScalar = true
		c.scalar = rows[0][0]
	} else {
		f := ev.Store.CreateTemp(0)
		// Register for cleanup before filling: an append that panics
		// (torn-write fault) must not orphan the half-written temp.
		ev.tempFiles = append(ev.tempFiles, f)
		for _, r := range rows {
			f.Append(r)
		}
		f.Seal()
		c.list = f
	}
	bp.cache = c
	return c, nil
}
