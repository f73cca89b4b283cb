package ast

import "repro/internal/value"

// Traversal and rewrite helpers shared by resolution, classification, and
// the transformation algorithms.

// VisitBlocks walks the query block tree in preorder, calling fn for each
// block together with its nesting depth (0 for the root). Returning false
// from fn stops descent into that block's children.
func VisitBlocks(qb *QueryBlock, fn func(b *QueryBlock, depth int) bool) {
	visitBlocks(qb, 0, fn)
}

func visitBlocks(qb *QueryBlock, depth int, fn func(b *QueryBlock, depth int) bool) {
	if qb == nil || !fn(qb, depth) {
		return
	}
	for _, p := range qb.Where {
		visitPredBlocks(p, depth, fn)
	}
}

func visitPredBlocks(p Predicate, depth int, fn func(b *QueryBlock, depth int) bool) {
	switch p := p.(type) {
	case *OrPred:
		visitPredBlocks(p.Left, depth, fn)
		visitPredBlocks(p.Right, depth, fn)
	case *AndPred:
		visitPredBlocks(p.Left, depth, fn)
		visitPredBlocks(p.Right, depth, fn)
	case *NotPred:
		visitPredBlocks(p.P, depth, fn)
	default:
		if sub := SubqueryOf(p); sub != nil {
			visitBlocks(sub, depth+1, fn)
		}
	}
}

// MaxDepth returns the nesting depth of the query: 0 for a flat query, 1
// for a single level of nesting, and so on.
func (qb *QueryBlock) MaxDepth() int {
	max := 0
	VisitBlocks(qb, func(_ *QueryBlock, d int) bool {
		if d > max {
			max = d
		}
		return true
	})
	return max
}

// LocalColumnRefs returns every column reference that belongs to the block
// itself: its SELECT items, GROUP BY columns, and the scalar sides of its
// WHERE conjuncts — not the contents of nested query blocks, which have
// their own scopes.
func (qb *QueryBlock) LocalColumnRefs() []ColumnRef {
	var out []ColumnRef
	for _, s := range qb.Select {
		if s.Agg != value.AggCountStar && s.Col != (ColumnRef{}) {
			out = append(out, s.Col)
		}
	}
	out = append(out, qb.GroupBy...)
	for _, p := range qb.Where {
		out = append(out, predLocalRefs(p)...)
	}
	return out
}

func predLocalRefs(p Predicate) []ColumnRef {
	var out []ColumnRef
	switch p := p.(type) {
	case *Comparison:
		out = append(out, exprRefs(p.Left)...)
		out = append(out, exprRefs(p.Right)...)
	case *InPred:
		out = append(out, exprRefs(p.Left)...)
	case *QuantPred:
		out = append(out, exprRefs(p.Left)...)
	case *ExistsPred:
		// no scalar side
	case *OrPred:
		out = append(out, predLocalRefs(p.Left)...)
		out = append(out, predLocalRefs(p.Right)...)
	case *AndPred:
		out = append(out, predLocalRefs(p.Left)...)
		out = append(out, predLocalRefs(p.Right)...)
	case *NotPred:
		out = append(out, predLocalRefs(p.P)...)
	}
	return out
}

func exprRefs(e Expr) []ColumnRef {
	if c, ok := e.(ColumnRef); ok {
		return []ColumnRef{c}
	}
	return nil
}

// RewriteLocalColumns applies fn to every column reference local to the
// block (see LocalColumnRefs), replacing each with fn's result. Nested
// blocks are left untouched.
func (qb *QueryBlock) RewriteLocalColumns(fn func(ColumnRef) ColumnRef) {
	for i := range qb.Select {
		if qb.Select[i].Agg != value.AggCountStar && qb.Select[i].Col != (ColumnRef{}) {
			qb.Select[i].Col = fn(qb.Select[i].Col)
		}
	}
	for i := range qb.GroupBy {
		qb.GroupBy[i] = fn(qb.GroupBy[i])
	}
	for _, p := range qb.Where {
		rewritePredLocal(p, fn)
	}
}

func rewritePredLocal(p Predicate, fn func(ColumnRef) ColumnRef) {
	switch p := p.(type) {
	case *Comparison:
		p.Left = rewriteExpr(p.Left, fn)
		p.Right = rewriteExpr(p.Right, fn)
	case *InPred:
		p.Left = rewriteExpr(p.Left, fn)
	case *QuantPred:
		p.Left = rewriteExpr(p.Left, fn)
	case *OrPred:
		rewritePredLocal(p.Left, fn)
		rewritePredLocal(p.Right, fn)
	case *AndPred:
		rewritePredLocal(p.Left, fn)
		rewritePredLocal(p.Right, fn)
	case *NotPred:
		rewritePredLocal(p.P, fn)
	}
}

func rewriteExpr(e Expr, fn func(ColumnRef) ColumnRef) Expr {
	if c, ok := e.(ColumnRef); ok {
		return fn(c)
	}
	return e
}

// HasDisjunction reports whether any WHERE conjunct (at this block level)
// contains OR or NOT, which the transformation algorithms cannot handle.
func (qb *QueryBlock) HasDisjunction() bool {
	for _, p := range qb.Where {
		if predHasDisjunction(p) {
			return true
		}
	}
	return false
}

func predHasDisjunction(p Predicate) bool {
	switch p.(type) {
	case *OrPred, *NotPred, *AndPred:
		return true
	}
	return false
}
