package transform

import (
	"strings"

	"repro/internal/ast"
	"repro/internal/value"
)

// rewriteExtended implements the section 8 extensions, rewriting EXISTS /
// NOT EXISTS / ANY / ALL predicates of qb into forms the core algorithms
// handle. Predicates that are not extended forms, or that qb retains, pass
// through unchanged.
func (t *Transformer) rewriteExtended(qb *ast.QueryBlock, p ast.Predicate) (ast.Predicate, error) {
	if t.retained(qb, p) {
		return p, nil
	}
	switch p := p.(type) {
	case *ast.ExistsPred:
		return t.rewriteExists(p), nil
	case *ast.QuantPred:
		return t.rewriteQuant(p)
	default:
		return p, nil
	}
}

// rewriteExists turns EXISTS into 0 < (SELECT COUNT ...) and NOT EXISTS
// into 0 = (SELECT COUNT ...) (section 8.1). The resulting predicate is
// then handled as type-A or type-JA depending on the inner block.
//
// The paper writes COUNT(selitems); we emit COUNT(*) because existence
// must count rows, not non-NULL values of the selected column — NEST-JA2's
// COUNT(*) rule (section 5.2.1) then converts it to a COUNT over the inner
// join column, which is exactly the existence witness.
func (t *Transformer) rewriteExists(p *ast.ExistsPred) ast.Predicate {
	count := p.Sub.Clone()
	count.Select = []ast.SelectItem{{Agg: value.AggCountStar}}
	count.Distinct = false
	op := value.OpLt // 0 < COUNT(...)
	name := "EXISTS"
	if p.Negated {
		op = value.OpEq // 0 = COUNT(...)
		name = "NOT EXISTS"
	}
	out := &ast.Comparison{
		Left:  ast.Const{Val: value.NewInt(0)},
		Op:    op,
		Right: &ast.Subquery{Block: count},
	}
	t.addStep("EXTEND", name+" rewritten to ", out)
	return out
}

// rewriteQuant implements section 8.2:
//
//	x <  ANY S  ->  x <  (SELECT MAX(item) ...)      (likewise <=)
//	x >  ANY S  ->  x >  (SELECT MIN(item) ...)      (likewise >=)
//	x <  ALL S  ->  x <  (SELECT MIN(item) ...)      (likewise <=)
//	x >  ALL S  ->  x >  (SELECT MAX(item) ...)      (likewise >=)
//	x =  ANY S  ->  x IN S
//	x != ANY S  ->  x NOT IN S
//	x != ALL S  ->  x NOT IN S
//
// The paper calls these "logically (but not necessarily semantically)
// equivalent": over an empty set, x < ALL S is TRUE but x < MIN(S) is
// unknown (MIN({}) = NULL). This reproduction follows the paper; the
// engine's differential tests document the divergence explicitly.
//
// x = ALL has no aggregate form and is rejected (callers fall back to
// nested iteration).
func (t *Transformer) rewriteQuant(p *ast.QuantPred) (ast.Predicate, error) {
	if p.Op == value.OpEq && p.Quant == ast.Any {
		out := &ast.InPred{Left: p.Left, Sub: p.Sub}
		t.addStep("EXTEND", "= ANY rewritten to IN")
		return out, nil
	}
	if p.Op == value.OpNe && (p.Quant == ast.Any || p.Quant == ast.All) {
		out := &ast.InPred{Left: p.Left, Sub: p.Sub, Negated: true}
		t.addStep("EXTEND", "!= "+p.Quant.String()+" rewritten to NOT IN")
		return out, nil
	}
	if p.Op == value.OpEq && p.Quant == ast.All {
		return nil, notTransformable("= ALL has no aggregate rewrite")
	}

	item := p.Sub.Select[0]
	if item.IsAggregate() {
		return nil, notTransformable("quantified subquery already aggregates")
	}
	var fn value.AggFunc
	switch {
	case (p.Op == value.OpLt || p.Op == value.OpLe) && p.Quant == ast.Any:
		fn = value.AggMax
	case (p.Op == value.OpGt || p.Op == value.OpGe) && p.Quant == ast.Any:
		fn = value.AggMin
	case (p.Op == value.OpLt || p.Op == value.OpLe) && p.Quant == ast.All:
		fn = value.AggMin
	case (p.Op == value.OpGt || p.Op == value.OpGe) && p.Quant == ast.All:
		fn = value.AggMax
	default:
		return nil, notTransformable("unsupported quantified predicate %s", p.String())
	}
	agg := p.Sub.Clone()
	agg.Select = []ast.SelectItem{{Agg: fn, Col: item.Col}}
	agg.Distinct = false
	out := &ast.Comparison{Left: p.Left, Op: p.Op, Right: &ast.Subquery{Block: agg}}
	t.addStep("EXTEND", p.Op.String()+" "+p.Quant.String()+" rewritten to "+p.Op.String()+" against "+fn.String())
	return out, nil
}

// retained reports whether nested predicate p of qb stays in the canonical
// form, for the planner to decide as one quantified join (an extension
// beyond the paper) instead of through a temp, a grouped join and a
// back-join: a NOT IN always, and outside the plan the paper costs
// (AsPaper) and Kim's NEST-JA an EXISTS, NOT EXISTS or x θ ANY for θ an
// ordering — each over a flat inner block. EXISTS and θ ANY are retained
// only when a correlation conjunct equates an inner column with one of
// qb's, the join key: range-only correlation and uncorrelated blocks keep
// section 8's rewrite, whose plans cost less than a quantified join
// without a key. ALL and IN are not retained: either would change how many
// rows some queries return against what the rewrites return today.
func (t *Transformer) retained(qb *ast.QueryBlock, p ast.Predicate) bool {
	switch p := p.(type) {
	case *ast.InPred:
		return p.Negated && flat(p.Sub)
	case *ast.ExistsPred:
		return t.retains() && flat(p.Sub) && keyed(qb, p.Sub)
	case *ast.QuantPred:
		_, lsub := p.Left.(*ast.Subquery)
		switch p.Op {
		case value.OpLt, value.OpLe, value.OpGt, value.OpGe:
			return p.Quant == ast.Any && !lsub && t.retains() && flat(p.Sub) && keyed(qb, p.Sub)
		}
	}
	return false
}

func (t *Transformer) retains() bool { return !t.asPaper && t.variant == JA2 }

// flat reports whether an inner block is one select-project-join block: no
// nested predicate, aggregate, GROUP BY, DISTINCT or OR.
func flat(sub *ast.QueryBlock) bool {
	return !sub.HasNestedPredicate() && !sub.Distinct && !sub.HasAggregate() && len(sub.GroupBy) == 0 && !sub.HasDisjunction()
}

// keyed reports whether a conjunct of sub equates (= or <=>) a column of
// sub's own FROM with a column of qb's.
func keyed(qb, sub *ast.QueryBlock) bool {
	inner, outer := bindingSet(sub), bindingSet(qb)
	for _, c := range sub.Where {
		cmp, ok := c.(*ast.Comparison)
		if !ok || (cmp.Op != value.OpEq && cmp.Op != value.OpEqNull) {
			continue
		}
		l, lok := cmp.Left.(ast.ColumnRef)
		r, rok := cmp.Right.(ast.ColumnRef)
		if !lok || !rok {
			continue
		}
		li, ri := inner[strings.ToUpper(l.Table)], inner[strings.ToUpper(r.Table)]
		if li && !ri && outer[strings.ToUpper(r.Table)] || ri && !li && outer[strings.ToUpper(l.Table)] {
			return true
		}
	}
	return false
}

func bindingSet(qb *ast.QueryBlock) map[string]bool {
	set := make(map[string]bool, len(qb.From))
	for _, b := range qb.Bindings() {
		set[strings.ToUpper(b)] = true
	}
	return set
}
