package planner

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/trace"
)

// antiJoin compiles a retained NOT IN conjunct (the beyond-paper extension
// noted in the transformation trace) into a NULL-aware anti-join: the
// inner block's local predicates restrict a materialized right side, its
// correlated predicates become the relevance condition, and the membership
// column drives the three-valued NOT IN semantics.
func (p *Planner) antiJoin(cur input, ip *ast.InPred, outerFrom []ast.TableRef, label string) (input, error) {
	sub := ip.Sub
	if len(sub.Select) != 1 || sub.Select[0].IsAggregate() {
		return input{}, fmt.Errorf("planner: NOT IN inner block must select one plain column")
	}
	local := make(map[string]bool)
	for _, b := range sub.Bindings() {
		local[strings.ToUpper(b)] = true
	}
	isLocalPred := func(c ast.Predicate) bool {
		holder := &ast.QueryBlock{Where: []ast.Predicate{c}}
		for _, ref := range holder.LocalColumnRefs() {
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

	// Project the membership column plus every local column the
	// correlation predicates need.
	needed := []ast.ColumnRef{sub.Select[0].Col}
	for _, c := range corrPreds {
		holder := &ast.QueryBlock{Where: []ast.Predicate{c}}
		for _, ref := range holder.LocalColumnRefs() {
			if local[strings.ToUpper(ref.Table)] {
				needed = append(needed, ref)
			}
		}
	}
	needed = dedupeRefs(needed)
	proj := &ast.QueryBlock{From: sub.From, Where: localPreds}
	for _, ref := range needed {
		proj.Select = append(proj.Select, ast.SelectItem{Col: ref})
	}

	right, err := p.planBlock(proj, JoinAuto, label+"-anti")
	if err != nil {
		return input{}, err
	}
	file, err := p.materialize(right.op)
	if err != nil {
		return input{}, err
	}

	combined := cur.op.Schema().Concat(right.op.Schema())
	var corr exec.RowPred
	if len(corrPreds) > 0 {
		corr, err = exec.CompileConjuncts(corrPreds, combined)
		if err != nil {
			return input{}, err
		}
	}
	leftVal, err := exec.Operand(ip.Left, cur.op.Schema())
	if err != nil {
		return input{}, err
	}
	p.note(label, trace.Event{Kind: trace.AntiJoin, N: int64(file.NumPages())})
	return input{
		op: &exec.AntiJoin{
			Left:      cur.op,
			Right:     file,
			RightSch:  right.op.Schema(),
			Corr:      corr,
			LeftVal:   leftVal,
			MemberCol: 0, // the membership column is projected first
			QC:        p.opts.QC,
		},
		pages:    cur.pages + right.pages,
		tuples:   cur.tuples,
		sortedOn: cur.sortedOn, // anti-join preserves left order
	}, nil
}

func dedupeRefs(refs []ast.ColumnRef) []ast.ColumnRef {
	seen := make(map[ast.ColumnRef]bool, len(refs))
	out := refs[:0:0]
	for _, r := range refs {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}
