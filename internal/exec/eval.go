package exec

import (
	"fmt"
	"slices"
	"strconv"

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
type Evaluator struct {
	Cat   *schema.Catalog
	Store *storage.Store
	// QC, when set, is checked once per cartesian-product row and charged
	// for every root-block result row. Inner blocks do not charge the row
	// budget — it bounds what the query returns, not what it examines.
	QC *qctx.QueryContext
	// MapName, when set, translates relation references to their physical
	// names — the planner uses it so blocks referencing its namespaced
	// temporary tables (TEMP1 → TEMP1#qN) resolve under concurrency.
	MapName func(string) string

	// root is the block whose emissions count against the row budget,
	// recorded by EvalQuery.
	root *ast.QueryBlock

	// subCache holds once-evaluated results of uncorrelated subqueries,
	// keyed by block identity. Scalar results stay in memory (System R
	// replaces the block with "a single constant"); set-valued results
	// are materialized to a temporary list file whose membership scans
	// are charged like any other page access.
	subCache map[*ast.QueryBlock]*cachedSub
	// tempFiles tracks materializations for cleanup.
	tempFiles []*storage.HeapFile
}

type cachedSub struct {
	scalar   value.Value // for scalar/aggregate blocks
	isScalar bool
	list     *storage.HeapFile // for set-valued blocks (the "list X")
}

// NewEvaluator returns an evaluator over the given catalog and store.
func NewEvaluator(cat *schema.Catalog, store *storage.Store) *Evaluator {
	return &Evaluator{Cat: cat, Store: store, subCache: make(map[*ast.QueryBlock]*cachedSub)}
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
	return ev.evalBlock(qb, nil)
}

// evalBlock evaluates one query block under the given outer environment.
func (ev *Evaluator) evalBlock(qb *ast.QueryBlock, env *Env) ([]storage.Tuple, RowSchema, error) {
	files := make([]*storage.HeapFile, len(qb.From))
	schemas := make([]RowSchema, len(qb.From))
	for i, tr := range qb.From {
		name := tr.Relation
		if ev.MapName != nil {
			name = ev.MapName(name)
		}
		f, ok := ev.Store.Lookup(name)
		if !ok {
			return nil, nil, fmt.Errorf("exec: no stored relation %s", tr.Relation)
		}
		rel, ok := ev.Cat.Lookup(name)
		if !ok {
			return nil, nil, fmt.Errorf("exec: relation %s not in catalog", tr.Relation)
		}
		files[i] = f
		rs := make(RowSchema, len(rel.Columns))
		for j, c := range rel.Columns {
			rs[j] = ColID{Table: tr.Binding(), Column: c.Name}
		}
		schemas[i] = rs
	}

	// Evaluate cheap conjuncts first so nested predicates run only for
	// tuples that satisfy all simple predicates — System R's rule, and
	// the origin of the f(i)·Ni factor in the cost analyses.
	var simple, nested []ast.Predicate
	for _, p := range qb.Where {
		if len(ast.SubqueriesOf(p)) == 0 {
			simple = append(simple, p)
		} else {
			nested = append(nested, p)
		}
	}

	outSchema := blockOutputSchema(qb)
	hasAgg := qb.HasAggregate()

	var rows []storage.Tuple
	var groups *groupTable
	if hasAgg {
		groups = newGroupTable(qb)
	}

	err := ev.scanProduct(files, schemas, 0, env, func(rowEnv *Env) error {
		for _, p := range simple {
			tri, err := ev.evalPred(p, rowEnv)
			if err != nil {
				return err
			}
			if !tri.IsTrue() {
				return nil
			}
		}
		for _, p := range nested {
			tri, err := ev.evalPred(p, rowEnv)
			if err != nil {
				return err
			}
			if !tri.IsTrue() {
				return nil
			}
		}
		if hasAgg {
			return groups.add(qb, rowEnv)
		}
		row := make(storage.Tuple, len(qb.Select))
		for i, item := range qb.Select {
			v, ok := rowEnv.Lookup(item.Col)
			if !ok {
				return errUnknownColumn(item.Col)
			}
			row[i] = v
		}
		if qb == ev.root && !qb.Distinct {
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
		return nil, nil, err
	}

	if hasAgg {
		rows = groups.results()
		rows, err = filterHaving(rows, qb.Having)
		if err != nil {
			return nil, nil, err
		}
	}
	if qb.Distinct {
		rows = dedupeRows(rows)
	}
	if qb == ev.root && (hasAgg || qb.Distinct) {
		if err := ev.QC.AddRows(len(rows)); err != nil {
			return nil, nil, err
		}
	}
	if len(qb.OrderBy) > 0 {
		if err := sortRowsBy(rows, qb.OrderBy); err != nil {
			return nil, nil, err
		}
	}
	return rows, outSchema, nil
}

// filterHaving keeps aggregate output rows whose HAVING conjuncts are all
// definitely true.
func filterHaving(rows []storage.Tuple, having []ast.HavingPred) ([]storage.Tuple, error) {
	if len(having) == 0 {
		return rows, nil
	}
	out := rows[:0:0]
	for _, row := range rows {
		keep := true
		for _, h := range having {
			tri, err := h.Op.Apply(row[h.Pos], h.Val)
			if err != nil {
				return nil, err
			}
			if !tri.IsTrue() {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, row)
		}
	}
	return out, nil
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

// scanProduct iterates the cartesian product of the FROM relations in
// order, re-scanning inner files once per outer combination — the nested
// iteration of the paper. Pages move through the buffer pool, so an inner
// relation that fits in B pages is effectively cached.
func (ev *Evaluator) scanProduct(files []*storage.HeapFile, schemas []RowSchema, i int, env *Env, fn func(*Env) error) error {
	if i == len(files) {
		if err := ev.QC.Check(); err != nil {
			return err
		}
		return fn(env)
	}
	var scanErr error
	files[i].Scan(func(t storage.Tuple) bool {
		if err := ev.scanProduct(files, schemas, i+1, env.Bind(schemas[i], t), fn); err != nil {
			scanErr = err
			return false
		}
		return true
	})
	return scanErr
}

// groupTable accumulates grouped (or global) aggregates in deterministic
// first-seen order. It runs the aggregation kernel of group.go over a
// scratch row laid out as the GROUP BY values followed by one slot per
// select item (holding the item's aggregate argument).
type groupTable struct {
	cols    []int
	items   []GroupItem
	scratch storage.Tuple
	groups  map[string]*groupState
	order   []*groupState
}

func newGroupTable(qb *ast.QueryBlock) *groupTable {
	k := len(qb.GroupBy)
	g := &groupTable{
		cols:    make([]int, k),
		items:   make([]GroupItem, len(qb.Select)),
		scratch: make(storage.Tuple, k+len(qb.Select)),
		groups:  make(map[string]*groupState),
	}
	for i := range g.cols {
		g.cols[i] = i
	}
	for i, item := range qb.Select {
		g.items[i] = GroupItem{Agg: item.Agg, Col: k + i}
		if !item.IsAggregate() {
			// Plain column: resolver guarantees it is a GROUP BY column.
			for j, col := range qb.GroupBy {
				if col == item.Col {
					g.items[i].Col = j
				}
			}
		}
	}
	return g
}

func (g *groupTable) add(qb *ast.QueryBlock, rowEnv *Env) error {
	k := len(g.cols)
	for i, col := range qb.GroupBy {
		v, ok := rowEnv.Lookup(col)
		if !ok {
			return errUnknownColumn(col)
		}
		g.scratch[i] = v
	}
	for i, item := range qb.Select {
		// COUNT(*) counts rows; its argument is unused.
		if item.IsAggregate() && item.Agg != value.AggCountStar {
			v, ok := rowEnv.Lookup(item.Col)
			if !ok {
				return errUnknownColumn(item.Col)
			}
			g.scratch[k+i] = v
		}
	}
	key := encodeKey(g.scratch[:k])
	gs := g.groups[key]
	if gs == nil {
		gs = newGroup(append([]value.Value(nil), g.scratch[:k]...), g.items)
		g.groups[key] = gs
		g.order = append(g.order, gs)
	}
	return gs.add(g.scratch, g.items)
}

// results emits one row per group. With no GROUP BY, aggregates over an
// empty input still produce one row (COUNT = 0, MAX = NULL) — the
// semantics the COUNT bug of section 5.1 loses.
func (g *groupTable) results() []storage.Tuple {
	if len(g.cols) == 0 && len(g.order) == 0 {
		g.order = append(g.order, newGroup(nil, g.items))
	}
	out := make([]storage.Tuple, len(g.order))
	for i, gs := range g.order {
		out[i] = gs.row(g.cols, g.items)
	}
	return out
}

// dedupeRows removes duplicate rows preserving first occurrence, with NULL
// equal to NULL (SQL DISTINCT semantics).
func dedupeRows(rows []storage.Tuple) []storage.Tuple {
	seen := make(map[string]bool, len(rows))
	out := rows[:0:0]
	for _, r := range rows {
		k := encodeKey(r)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// Qualifies reports whether a tuple of the given schema satisfies every
// predicate (all definitely true). The engine's DELETE and UPDATE use it,
// so their WHERE clauses support the full dialect including nested
// subqueries.
func (ev *Evaluator) Qualifies(preds []ast.Predicate, sch RowSchema, t storage.Tuple) (bool, error) {
	env := (*Env)(nil).Bind(sch, t)
	for _, p := range preds {
		tri, err := ev.evalPred(p, env)
		if err != nil {
			return false, err
		}
		if !tri.IsTrue() {
			return false, nil
		}
	}
	return true, nil
}

// evalPred evaluates one predicate under three-valued logic.
func (ev *Evaluator) evalPred(p ast.Predicate, env *Env) (value.Tri, error) {
	switch p := p.(type) {
	case *ast.Comparison:
		if p.LeftOuter {
			return value.Unknown, fmt.Errorf("exec: outer-join operator %s+ is only valid in transformed temporary-table definitions", p.Op)
		}
		lv, err := ev.evalExpr(p.Left, env)
		if err != nil {
			return value.Unknown, err
		}
		rv, err := ev.evalExpr(p.Right, env)
		if err != nil {
			return value.Unknown, err
		}
		return p.Op.Apply(lv, rv)
	case *ast.InPred:
		return ev.evalIn(p, env)
	case *ast.ExistsPred:
		rows, err := ev.subRows(p.Sub, env)
		if err != nil {
			return value.Unknown, err
		}
		return value.TriOf(len(rows) > 0 != p.Negated), nil
	case *ast.QuantPred:
		return ev.evalQuant(p, env)
	case *ast.OrPred:
		l, err := ev.evalPred(p.Left, env)
		if err != nil {
			return value.Unknown, err
		}
		r, err := ev.evalPred(p.Right, env)
		if err != nil {
			return value.Unknown, err
		}
		return l.Or(r), nil
	case *ast.AndPred:
		l, err := ev.evalPred(p.Left, env)
		if err != nil {
			return value.Unknown, err
		}
		r, err := ev.evalPred(p.Right, env)
		if err != nil {
			return value.Unknown, err
		}
		return l.And(r), nil
	case *ast.NotPred:
		t, err := ev.evalPred(p.P, env)
		if err != nil {
			return value.Unknown, err
		}
		return t.Not(), nil
	default:
		return value.Unknown, fmt.Errorf("exec: unknown predicate type %T", p)
	}
}

// evalExpr evaluates a scalar expression.
func (ev *Evaluator) evalExpr(e ast.Expr, env *Env) (value.Value, error) {
	switch e := e.(type) {
	case ast.ColumnRef:
		v, ok := env.Lookup(e)
		if !ok {
			return value.Null, errUnknownColumn(e)
		}
		return v, nil
	case ast.Const:
		return e.Val, nil
	case *ast.Subquery:
		return ev.scalarSub(e.Block, env)
	default:
		return value.Null, fmt.Errorf("exec: unknown expression type %T", e)
	}
}

// scalarSub evaluates a subquery used as a scalar: zero rows yield NULL
// (which makes MAX over an empty correlated set behave as the paper's
// section 5.3 assumes), more than one row is a runtime error.
func (ev *Evaluator) scalarSub(qb *ast.QueryBlock, env *Env) (value.Value, error) {
	if !ast.IsCorrelated(qb) {
		c, err := ev.cached(qb)
		if err != nil {
			return value.Null, err
		}
		if c.isScalar {
			return c.scalar, nil
		}
		return value.Null, fmt.Errorf("exec: scalar use of set-valued subquery")
	}
	rows, _, err := ev.evalBlock(qb, env)
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

// evalIn implements membership under three-valued logic: TRUE on a match;
// UNKNOWN when there is no match but a NULL is involved; FALSE otherwise.
func (ev *Evaluator) evalIn(p *ast.InPred, env *Env) (value.Tri, error) {
	lv, err := ev.evalExpr(p.Left, env)
	if err != nil {
		return value.Unknown, err
	}
	matched, sawNull, n := false, false, 0
	visit := func(v value.Value) error {
		n++
		if v.IsNull() {
			sawNull = true
			return nil
		}
		if lv.IsNull() {
			return nil
		}
		tri, err := value.OpEq.Apply(lv, v)
		if err != nil {
			return err
		}
		if tri.IsTrue() {
			matched = true
		}
		return nil
	}
	if err := ev.visitSubValues(p.Sub, env, visit); err != nil {
		return value.Unknown, err
	}
	var tri value.Tri
	switch {
	case matched:
		tri = value.True
	case n > 0 && (lv.IsNull() || sawNull):
		tri = value.Unknown
	default:
		tri = value.False
	}
	if p.Negated {
		tri = tri.Not()
	}
	return tri, nil
}

// evalQuant implements op ANY / op ALL under three-valued logic, including
// the empty-set cases (ANY over empty is FALSE, ALL over empty is TRUE).
func (ev *Evaluator) evalQuant(p *ast.QuantPred, env *Env) (value.Tri, error) {
	lv, err := ev.evalExpr(p.Left, env)
	if err != nil {
		return value.Unknown, err
	}
	anyTrue, anyUnknown, anyFalse := false, false, false
	visit := func(v value.Value) error {
		tri, err := p.Op.Apply(lv, v)
		if err != nil {
			return err
		}
		switch tri {
		case value.True:
			anyTrue = true
		case value.Unknown:
			anyUnknown = true
		default:
			anyFalse = true
		}
		return nil
	}
	if err := ev.visitSubValues(p.Sub, env, visit); err != nil {
		return value.Unknown, err
	}
	if p.Quant == ast.Any {
		switch {
		case anyTrue:
			return value.True, nil
		case anyUnknown:
			return value.Unknown, nil
		default:
			return value.False, nil
		}
	}
	switch {
	case anyFalse:
		return value.False, nil
	case anyUnknown:
		return value.Unknown, nil
	default:
		return value.True, nil
	}
}

// visitSubValues streams the single-column values of a subquery result to
// fn. Uncorrelated subqueries are materialized once as the list X of
// [SEL 79]; each visit then re-scans the list through the buffer pool, so
// a list that does not fit in B pages costs real I/O per outer tuple,
// matching Kim's type-N cost analysis.
func (ev *Evaluator) visitSubValues(qb *ast.QueryBlock, env *Env, fn func(value.Value) error) error {
	if !ast.IsCorrelated(qb) {
		c, err := ev.cached(qb)
		if err != nil {
			return err
		}
		if c.isScalar {
			return fn(c.scalar)
		}
		var visitErr error
		c.list.Scan(func(t storage.Tuple) bool {
			if err := fn(t[0]); err != nil {
				visitErr = err
				return false
			}
			return true
		})
		return visitErr
	}
	rows, _, err := ev.evalBlock(qb, env)
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

// subRows returns the full result rows of a subquery (used by EXISTS).
func (ev *Evaluator) subRows(qb *ast.QueryBlock, env *Env) ([]storage.Tuple, error) {
	if !ast.IsCorrelated(qb) {
		c, err := ev.cached(qb)
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
	rows, _, err := ev.evalBlock(qb, env)
	return rows, err
}

// cached evaluates an uncorrelated subquery once. A single-row aggregate
// block without GROUP BY becomes an in-memory constant (type-A evaluation,
// [SEL 79:33]); anything else is materialized as a temporary list file.
func (ev *Evaluator) cached(qb *ast.QueryBlock) (*cachedSub, error) {
	if c, ok := ev.subCache[qb]; ok {
		return c, nil
	}
	rows, _, err := ev.evalBlock(qb, nil)
	if err != nil {
		return nil, err
	}
	c := &cachedSub{}
	if qb.HasAggregate() && len(qb.GroupBy) == 0 && len(qb.Select) == 1 {
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
	ev.subCache[qb] = c
	return c, nil
}

// encodeKey builds a canonical, collision-free string key for a value
// list, used for grouping and duplicate elimination (NULL groups with
// NULL).
func encodeKey(vs []value.Value) string {
	b := make([]byte, 0, 16*len(vs))
	for _, v := range vs {
		b = appendValueKey(b, v)
	}
	return string(b)
}

func appendValueKey(b []byte, v value.Value) []byte {
	s := v.String()
	b = append(b, byte('0'+int(v.Kind())))
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	b = append(b, s...)
	return b
}
