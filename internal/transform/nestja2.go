package transform

import (
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/schema"
	"repro/internal/value"
)

// jaJoin is one correlated join conjunct of a type-JA inner block,
// normalized so the inner (local) column is on the left: local op outer.
type jaJoin struct {
	local ast.ColumnRef
	op    value.CompareOp
	outer ast.ColumnRef
}

// jaInfo is the analysis of a type-JA nested predicate that both NEST-JA
// variants start from.
type jaInfo struct {
	outerExpr    ast.Expr        // the outer block's comparison operand (Ri.Ch)
	op0          value.CompareOp // the scalar operator against the aggregate
	inner        *ast.QueryBlock // the aggregate block
	agg          ast.SelectItem  // the aggregate select item
	joins        []jaJoin        // correlated join conjuncts
	locals       []ast.Predicate // conjuncts local to the inner block
	outerBinding string          // the single outer binding the joins reference
}

// analyzeJA decomposes a type-JA nested predicate of qb. It rejects (with
// ErrNotTransformable) the shapes outside the paper's algorithm: multiple
// distinct outer relations, non-column join operands, correlation that
// skips the immediately enclosing block, and grouped or DISTINCT inner
// blocks.
func (t *Transformer) analyzeJA(qb *ast.QueryBlock, p ast.Predicate) (*jaInfo, error) {
	info := &jaInfo{}
	switch p := p.(type) {
	case *ast.Comparison:
		sq, ok := p.Right.(*ast.Subquery)
		if !ok {
			return nil, notTransformable("type-JA predicate without right-hand subquery: %s", p.String())
		}
		info.outerExpr, info.op0, info.inner = p.Left, p.Op, sq.Block
	case *ast.InPred:
		// IN over a single-row aggregate block is scalar equality.
		info.outerExpr, info.op0, info.inner = p.Left, value.OpEq, p.Sub
		if p.Negated {
			info.op0 = value.OpNe
		}
	default:
		return nil, notTransformable("unsupported type-JA predicate %s", p.String())
	}
	inner := info.inner
	if len(inner.Select) != 1 || !inner.Select[0].IsAggregate() {
		return nil, notTransformable("type-JA inner block must select a single aggregate")
	}
	if len(inner.GroupBy) > 0 || inner.Distinct {
		return nil, notTransformable("type-JA inner block with GROUP BY or DISTINCT")
	}
	info.agg = inner.Select[0]

	local := make(map[string]bool)
	for _, b := range inner.Bindings() {
		local[strings.ToUpper(b)] = true
	}
	isLocal := func(c ast.ColumnRef) bool { return local[strings.ToUpper(c.Table)] }

	for _, conj := range inner.Where {
		free := conjFreeRefs(conj, local)
		if len(free) == 0 {
			info.locals = append(info.locals, conj)
			continue
		}
		cmp, ok := conj.(*ast.Comparison)
		if !ok {
			return nil, notTransformable("correlated predicate %s is not a scalar comparison", conj.String())
		}
		lc, lok := cmp.Left.(ast.ColumnRef)
		rc, rok := cmp.Right.(ast.ColumnRef)
		if !lok || !rok {
			return nil, notTransformable("correlated join predicate %s must compare two columns", conj.String())
		}
		j := jaJoin{}
		switch {
		case isLocal(lc) && !isLocal(rc):
			j = jaJoin{local: lc, op: cmp.Op, outer: rc}
		case !isLocal(lc) && isLocal(rc):
			j = jaJoin{local: rc, op: cmp.Op.Flip(), outer: lc}
		default:
			return nil, notTransformable("correlated join predicate %s does not relate inner to outer", conj.String())
		}
		if info.outerBinding == "" {
			info.outerBinding = j.outer.Table
		} else if !strings.EqualFold(info.outerBinding, j.outer.Table) {
			return nil, notTransformable("correlation references more than one outer relation (%s and %s)",
				info.outerBinding, j.outer.Table)
		}
		info.joins = append(info.joins, j)
	}
	if len(info.joins) == 0 {
		return nil, notTransformable("type-JA predicate without a correlated join conjunct")
	}

	// The correlation must target the immediately enclosing block: the
	// recursive procedure guarantees this for the paper's query shapes
	// (inherited predicates migrate up one level per NEST-N-J merge).
	found := false
	for _, b := range qb.Bindings() {
		if strings.EqualFold(b, info.outerBinding) {
			found = true
			break
		}
	}
	if !found {
		return nil, notTransformable("correlated reference %s.%s skips the enclosing block",
			info.outerBinding, info.joins[0].outer.Column)
	}

	// The aggregate argument must be a local column (or COUNT(*)).
	if info.agg.Agg != value.AggCountStar && !isLocal(info.agg.Col) {
		return nil, notTransformable("aggregate argument %s is not an inner column", info.agg.Col)
	}
	return info, nil
}

// conjFreeRefs returns the column references in one conjunct (including
// inside any remaining nested blocks) that do not bind to the inner
// block's own FROM clause.
func conjFreeRefs(p ast.Predicate, local map[string]bool) []ast.ColumnRef {
	var free []ast.ColumnRef
	for _, ref := range ast.PredicateRefs(p) {
		if ref.Table != "" && !local[strings.ToUpper(ref.Table)] {
			free = append(free, ref)
		}
	}
	for _, sub := range ast.SubqueriesOf(p) {
		for _, ref := range ast.FreeRefs(sub) {
			if !local[strings.ToUpper(ref.Table)] {
				free = append(free, ref)
			}
		}
	}
	return free
}

// colType resolves the type of binding.column against a FROM clause.
func (t *Transformer) colType(c ast.ColumnRef, from []ast.TableRef) (value.Kind, error) {
	for _, tr := range from {
		if strings.EqualFold(tr.Binding(), c.Table) {
			rel, ok := t.lookupRel(tr.Relation)
			if !ok {
				return 0, notTransformable("unknown relation %s", tr.Relation)
			}
			idx := rel.ColumnIndex(c.Column)
			if idx < 0 {
				return 0, notTransformable("relation %s has no column %s", tr.Relation, c.Column)
			}
			return rel.Columns[idx].Type, nil
		}
	}
	return 0, notTransformable("no binding %s in FROM clause", c.Table)
}

// tempColNames assigns a distinct output name to each referenced column,
// preferring the bare column name and qualifying with the binding on
// collision.
func tempColNames(refs []ast.ColumnRef) map[ast.ColumnRef]string {
	names := make(map[ast.ColumnRef]string, len(refs))
	used := make(map[string]bool, len(refs))
	for _, r := range refs {
		name := r.Column
		if used[strings.ToUpper(name)] {
			name = r.Table + "_" + r.Column
		}
		used[strings.ToUpper(name)] = true
		names[r] = name
	}
	return names
}

// aggOutputName names the aggregate column of a temp table in the paper's
// style: CT for COUNT, MAXQUAN-style otherwise.
func aggOutputName(item ast.SelectItem) string {
	if item.Agg.IsCount() {
		return "CT"
	}
	return item.Agg.String() + item.Col.Column
}

// aggResultType computes the stored type of an aggregate column.
func (t *Transformer) aggResultType(item ast.SelectItem, from []ast.TableRef) (value.Kind, error) {
	switch item.Agg {
	case value.AggCount, value.AggCountStar:
		return value.KindInt, nil
	case value.AggAvg:
		return value.KindFloat, nil
	default:
		return t.colType(item.Col, from)
	}
}

// nestJA2 applies the paper's corrected algorithm NEST-JA2 (section 6) to
// one type-JA nested predicate of qb and immediately reduces the resulting
// type-J form to canonical conjuncts (the nest_ja2 + nest_n_j sequence of
// procedure nest_g). It appends the new temporary tables to the
// transformer and the TEMP3 relation to qb's FROM clause, returning the
// replacement conjuncts.
func (t *Transformer) nestJA2(qb *ast.QueryBlock, p ast.Predicate) ([]ast.Predicate, error) {
	info, err := t.analyzeJA(qb, p)
	if err != nil {
		return nil, err
	}
	isCount := info.agg.Agg.IsCount()
	aggCol := info.agg.Col
	if info.agg.Agg == value.AggCountStar {
		// Section 5.2.1: COUNT(*) must become COUNT over an inner join
		// column that is non-NULL exactly when a real match exists. Any
		// correlation but <=> is UNKNOWN on NULL, so a match implies its
		// column is non-NULL; under <=> a NULL-keyed match has a NULL
		// column, which COUNT would skip.
		i := slices.IndexFunc(info.joins, func(j jaJoin) bool { return j.op != value.OpEqNull })
		if i < 0 {
			return nil, notTransformable("COUNT(*) correlated only by <=> has no inner join column that is non-NULL on every match")
		}
		aggCol = info.joins[i].local
	}

	// ---- Step 1: project the join column(s) of the outer relation,
	// DISTINCT, restricted by the outer block's simple predicates
	// (sections 5.4.1 and 6, step 1).
	var outerTR ast.TableRef
	for _, tr := range qb.From {
		if strings.EqualFold(tr.Binding(), info.outerBinding) {
			outerTR = tr
			break
		}
	}
	var outerCols []ast.ColumnRef
	for _, j := range info.joins {
		outerCols = append(outerCols, j.outer)
	}
	outerCols = ast.UniqueRefs(outerCols)

	var outerSimple []ast.Predicate
	for _, conj := range qb.Where {
		if conj == p {
			continue
		}
		cmp, ok := conj.(*ast.Comparison)
		if !ok || len(ast.SubqueriesOf(cmp)) > 0 {
			continue
		}
		onOuter := true
		for _, ref := range ast.PredicateRefs(cmp) {
			if !strings.EqualFold(ref.Table, info.outerBinding) {
				onOuter = false
				break
			}
		}
		if onOuter {
			outerSimple = append(outerSimple, ast.ClonePredicate(conj))
		}
	}

	temp1 := t.freshTempName()
	def1 := &ast.QueryBlock{Distinct: true, From: []ast.TableRef{outerTR}, Where: outerSimple}
	cols1 := make([]schema.Column, len(outerCols))
	for i, c := range outerCols {
		def1.Select = append(def1.Select, ast.SelectItem{Col: c})
		typ, err := t.colType(c, qb.From)
		if err != nil {
			return nil, err
		}
		cols1[i] = schema.Column{Name: c.Column, Type: typ}
	}
	t.addTemp(temp1, cols1, def1)

	aggName := aggOutputName(info.agg)
	aggType, err := t.aggResultType(info.agg, info.inner.From)
	if err != nil {
		return nil, err
	}

	def3 := &ast.QueryBlock{}
	var cols3 []schema.Column
	for i, c := range outerCols {
		def3.Select = append(def3.Select, ast.SelectItem{Col: ast.ColumnRef{Table: temp1, Column: c.Column}})
		def3.GroupBy = append(def3.GroupBy, ast.ColumnRef{Table: temp1, Column: c.Column})
		cols3 = append(cols3, cols1[i])
	}
	cols3 = append(cols3, schema.Column{Name: aggName, Type: aggType})

	if isCount {
		// ---- Step 2 (COUNT only): restrict and project the inner
		// relation *before* the join (section 5.2: applying the simple
		// predicate after the outer join would wrongly keep padded
		// rows).
		if info.agg.Agg == value.AggCountStar {
			t.addStep("NEST-JA2", "COUNT(*) converted to COUNT(%s), the inner join column", aggCol)
		}
		var innerCols []ast.ColumnRef
		for _, j := range info.joins {
			innerCols = append(innerCols, j.local)
		}
		innerCols = append(innerCols, aggCol)
		innerCols = ast.UniqueRefs(innerCols)
		names2 := tempColNames(innerCols)

		temp2 := t.freshTempName()
		def2 := &ast.QueryBlock{From: info.inner.From, Where: info.locals}
		var cols2 []schema.Column
		for _, c := range innerCols {
			item := ast.SelectItem{Col: c}
			if names2[c] != c.Column {
				item.As = names2[c]
			}
			def2.Select = append(def2.Select, item)
			typ, err := t.colType(c, info.inner.From)
			if err != nil {
				return nil, err
			}
			cols2 = append(cols2, schema.Column{Name: names2[c], Type: typ})
		}
		t.addTemp(temp2, cols2, def2)

		// ---- Step 3 (COUNT): outer join TEMP1 with TEMP2, preserving
		// TEMP1's groups, using the original correlated operator; COUNT
		// over the inner column yields 0 for unmatched groups.
		def3.From = []ast.TableRef{{Relation: temp1}, {Relation: temp2}}
		for _, j := range info.joins {
			def3.Where = append(def3.Where, &ast.Comparison{
				Left:      ast.ColumnRef{Table: temp1, Column: j.outer.Column},
				Op:        j.op.Flip(),
				Right:     ast.ColumnRef{Table: temp2, Column: names2[j.local]},
				LeftOuter: true,
			})
		}
		def3.Select = append(def3.Select, ast.SelectItem{
			Agg: value.AggCount,
			Col: ast.ColumnRef{Table: temp2, Column: names2[aggCol]},
			As:  aggName,
		})
	} else {
		// ---- Step 3 (non-COUNT): a regular join of TEMP1 with the
		// inner relation suffices (section 5.3.1); the join carries the
		// original operator so the temp table aggregates over the proper
		// *range* of join-column values.
		for _, tr := range info.inner.From {
			if strings.EqualFold(tr.Binding(), temp1) {
				return nil, notTransformable("inner binding %s collides with generated temp name", tr.Binding())
			}
		}
		innerFrom := append([]ast.TableRef(nil), info.inner.From...)
		def3.From = append([]ast.TableRef{{Relation: temp1}}, innerFrom...)
		for _, lp := range info.locals {
			def3.Where = append(def3.Where, ast.ClonePredicate(lp))
		}
		for _, j := range info.joins {
			def3.Where = append(def3.Where, &ast.Comparison{
				Left:  ast.ColumnRef{Table: temp1, Column: j.outer.Column},
				Op:    j.op.Flip(),
				Right: j.local,
			})
		}
		def3.Select = append(def3.Select, ast.SelectItem{
			Agg: info.agg.Agg,
			Col: info.agg.Col,
			As:  aggName,
		})
	}
	temp3 := t.freshTempName()
	t.addTemp(temp3, cols3, def3)

	// ---- Step 4: the nested predicate becomes scalar against TEMP3's
	// aggregate column, and the correlated join predicates become
	// equality joins with TEMP3 ("the join predicate in the original
	// query must be changed to =").
	for _, tr := range qb.From {
		if strings.EqualFold(tr.Binding(), temp3) {
			return nil, notTransformable("outer binding %s collides with generated temp name", tr.Binding())
		}
	}
	conjs := []ast.Predicate{&ast.Comparison{
		Left:  info.outerExpr,
		Op:    info.op0,
		Right: ast.ColumnRef{Table: temp3, Column: aggName},
	}}
	for _, c := range outerCols {
		// The back-join must be NULL-safe: in the COUNT path TEMP3 holds a
		// CT=0 group for NULL-keyed outer rows (nested iteration counts an
		// empty set for them), and a plain = would drop that group — the
		// original COUNT bug resurfacing one join later. In the non-COUNT
		// path TEMP3 has no NULL group keys (step 3's regular join drops
		// them), so <=> coincides with = there.
		conjs = append(conjs, &ast.Comparison{
			Left:  ast.ColumnRef{Table: temp3, Column: c.Column},
			Op:    value.OpEqNull,
			Right: c,
		})
	}
	qb.From = append(qb.From, ast.TableRef{Relation: temp3})
	t.addStep("NEST-JA2", "type-JA predicate reduced to joins with %s: %s", temp3, predsString(conjs))
	return conjs, nil
}

func predsString(ps []ast.Predicate) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}
