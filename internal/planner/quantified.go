package planner

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/value"
)

// quantifiedJoin compiles a nested predicate the transformation retained —
// EXISTS, NOT EXISTS or x θ ANY over a flat inner block correlated by an
// equality, and NOT IN (an extension beyond the paper, noted in the
// transformation trace) — into one quantified join of cur with the inner
// block: its local predicates restrict the inner side, its correlation
// equalities with a column of cur are the join key and its other
// correlation predicates filter each key match, and the membership column
// of θ ANY and NOT IN is folded by exec.Quantifier. join chooses the form
// as for any join: hash, merge or nested loops. A quantified join filters
// its left side and never widens it, so it reports the left side's size.
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
	right, err := p.planBlock(proj, JoinAuto, label+"-inner")
	if err != nil {
		return input{}, err
	}
	if operand != nil {
		if q.Operand, err = exec.Operand(operand, cur.op.Schema()); err != nil {
			return input{}, err
		}
	}

	in, err := p.join(cur, right, corrPreds, false, force, q, label)
	in.tuples, in.pages = cur.tuples, cur.pages
	return in, err
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
