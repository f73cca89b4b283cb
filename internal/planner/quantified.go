package planner

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/trace"
	"repro/internal/value"
)

// quantifiedJoin compiles a nested predicate the transformation retained —
// EXISTS, NOT EXISTS or x θ ANY over a flat inner block correlated by an
// equality, and NOT IN (an extension beyond the paper, noted in the
// transformation trace) — into one quantified join of cur with the inner
// block: its local predicates restrict the inner side, its correlation
// equalities with a column of cur are the join key and its other
// correlation predicates filter each key match, and the membership column
// of θ ANY and NOT IN is folded by exec.Quantifier. The form follows the
// rule join uses: a keyed inner side that fits B−1 pages is hashed from its
// stream, a bigger one or one under a forced merge (SpillForced) is
// sort-merged, and with no key or under a forced nested-loops join it is
// materialized and re-scanned per outer row.
func (p *Planner) quantifiedJoin(cur input, q *exec.Quantifier, sub *ast.QueryBlock, operand ast.Expr, force JoinMethod, label string) (input, error) {
	local := make(map[string]bool)
	for _, b := range sub.Bindings() {
		local[strings.ToUpper(b)] = true
	}
	isLocalPred := func(c ast.Predicate) bool {
		for _, ref := range ast.PredicateRefs(c) {
			if ref.Table != "" && !local[strings.ToUpper(ref.Table)] {
				return false
			}
		}
		return len(ast.SubqueriesOf(c)) == 0
	}
	var localPreds, corrPreds []ast.Predicate
	for _, c := range sub.Where {
		if isLocalPred(c) {
			localPreds = append(localPreds, c)
		} else {
			corrPreds = append(corrPreds, c)
		}
	}

	// Project the membership column (first) plus every local column the
	// correlation predicates need.
	var needed []ast.ColumnRef
	if operand != nil {
		if len(sub.Select) != 1 || sub.Select[0].IsAggregate() {
			return input{}, fmt.Errorf("planner: %s inner block must select one plain column", q.Form)
		}
		needed = append(needed, sub.Select[0].Col)
	}
	for _, c := range corrPreds {
		for _, ref := range ast.PredicateRefs(c) {
			if local[strings.ToUpper(ref.Table)] {
				needed = append(needed, ref)
			}
		}
	}
	needed = ast.UniqueRefs(needed)
	proj := &ast.QueryBlock{From: sub.From, Where: localPreds}
	for _, ref := range needed {
		proj.Select = append(proj.Select, ast.SelectItem{Col: ref})
	}
	right, err := p.planBlock(proj, JoinAuto, label+"-anti")
	if err != nil {
		return input{}, err
	}
	if operand != nil {
		if q.Operand, err = exec.Operand(operand, cur.op.Schema()); err != nil {
			return input{}, err
		}
	}

	keys, rest := p.mergeKeys(cur, right, corrPreds)
	if len(keys) == 0 || force == JoinNL {
		return p.rescan(cur, right, q, corrPreds, label)
	}
	if len(rest) > 0 {
		if q.Corr, err = exec.CompileConjuncts(rest, cur.op.Schema().Concat(right.op.Schema())); err != nil {
			return input{}, err
		}
	}
	var in input
	if force == JoinMerge || !p.fitsPool(right) {
		in, err = p.mergeJoin(cur, right, keys, nil, false, q, label)
	} else {
		in, err = p.hashJoin(cur, right, keys, nil, false, 1, q, label)
	}
	in.tuples = cur.tuples
	return in, err
}

// rescan is the quantified join without a key: the inner side is
// materialized and every correlation predicate is checked per pair.
func (p *Planner) rescan(cur, right input, q *exec.Quantifier, corrPreds []ast.Predicate, label string) (input, error) {
	file, err := p.materialize(right.op)
	if err != nil {
		return input{}, err
	}
	if len(corrPreds) > 0 {
		if q.Corr, err = exec.CompileConjuncts(corrPreds, cur.op.Schema().Concat(right.op.Schema())); err != nil {
			return input{}, err
		}
	}
	p.note(label, trace.Event{Kind: trace.AntiJoin, N: int64(file.NumPages()), Text: q.Form})
	return input{
		op:       &exec.AntiJoin{Left: cur.op, Right: file, RightSch: right.op.Schema(), Quant: q, QC: p.opts.QC},
		pages:    cur.pages + right.pages,
		tuples:   cur.tuples,
		sortedOn: cur.sortedOn, // a rescan preserves left order
	}, nil
}

// quantifier reads conjunct c as a nested predicate the transformation
// retained (nil when it is not one): its quantifier, without Corr and
// Operand, the inner block, and the operand x (nil for EXISTS and NOT
// EXISTS). The membership column is projected first, at 0.
func quantifier(c ast.Predicate) (*exec.Quantifier, *ast.QueryBlock, ast.Expr) {
	switch c := c.(type) {
	case *ast.ExistsPred:
		q := &exec.Quantifier{Negated: c.Negated, Form: "EXISTS"}
		if c.Negated {
			q.Form = "NOT EXISTS"
		}
		return q, c.Sub, nil
	case *ast.QuantPred:
		if c.Quant == ast.Any {
			return &exec.Quantifier{Op: c.Op, Form: c.Op.String() + " ANY"}, c.Sub, c.Left
		}
	case *ast.InPred:
		if c.Negated {
			return &exec.Quantifier{Op: value.OpEq, Negated: true, Form: "NOT IN"}, c.Sub, c.Left
		}
	}
	return nil, nil, nil
}
