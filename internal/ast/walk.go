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
		for _, sub := range SubqueriesOf(p) {
			visitBlocks(sub, depth+1, fn)
		}
	}
}

// Leaves calls fn on each leaf of p — a Comparison, InPred, ExistsPred or
// QuantPred — under OR, AND and NOT, left to right, until fn returns
// false, and reports whether it never did. It is the one walk of a
// predicate's boolean structure: every reader that wants a predicate's
// columns or nested blocks asks it. The readers that combine a value at
// each node (the evaluator, selectivity) or copy the tree (ClonePredicate)
// keep their own switches.
func Leaves(p Predicate, fn func(leaf Predicate) bool) bool {
	switch p := p.(type) {
	case *OrPred:
		return Leaves(p.Left, fn) && Leaves(p.Right, fn)
	case *AndPred:
		return Leaves(p.Left, fn) && Leaves(p.Right, fn)
	case *NotPred:
		return Leaves(p.P, fn)
	}
	return fn(p)
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
		out = append(out, PredicateRefs(p)...)
	}
	return out
}

// PredicateRefs returns the column references of one predicate's scalar
// sides, as LocalColumnRefs collects them from a WHERE conjunct — not
// the contents of nested query blocks.
func PredicateRefs(p Predicate) []ColumnRef {
	var out []ColumnRef
	Leaves(p, func(leaf Predicate) bool {
		sides, _ := operands(leaf)
		for _, e := range sides {
			if c, ok := (*e).(ColumnRef); ok {
				out = append(out, c)
			}
		}
		return true
	})
	return out
}

// UniqueRefs returns refs without repeats, in first-seen order.
func UniqueRefs(refs []ColumnRef) []ColumnRef {
	var out []ColumnRef
	seen := make(map[ColumnRef]bool, len(refs))
	for _, r := range refs {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
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
		Leaves(p, func(leaf Predicate) bool {
			sides, _ := operands(leaf)
			for _, e := range sides {
				if c, ok := (*e).(ColumnRef); ok {
					*e = fn(c)
				}
			}
			return true
		})
	}
}

// operands splits a leaf into its expression operands and the block it
// nests: both sides of a comparison; the left of IN or of a quantified
// comparison, and its block; EXISTS's block.
func operands(leaf Predicate) ([]*Expr, *QueryBlock) {
	switch l := leaf.(type) {
	case *Comparison:
		return []*Expr{&l.Left, &l.Right}, nil
	case *InPred:
		return []*Expr{&l.Left}, l.Sub
	case *QuantPred:
		return []*Expr{&l.Left}, l.Sub
	case *ExistsPred:
		return nil, l.Sub
	}
	return nil, nil
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
