package ast

import "strings"

// Free-variable analysis. A subquery is correlated exactly when some
// column reference inside it binds to a FROM clause outside it — the
// paper's "join predicate which references the relation of an outer query
// block". This analysis requires a resolved tree (every reference
// qualified by its binding, as produced by schema.Resolve); unqualified
// references are treated as local.

// FreeRefs returns the column references anywhere inside the block subtree
// whose table binding is not defined by the subtree itself. Each reference
// is reported once per occurrence, in traversal order.
func FreeRefs(qb *QueryBlock) []ColumnRef {
	var out []ColumnRef
	collectFree(qb, nil, &out)
	return out
}

func collectFree(qb *QueryBlock, visible []string, out *[]ColumnRef) {
	vis := append(visible, qb.Bindings()...)
	for _, ref := range qb.LocalColumnRefs() {
		if ref.Table == "" {
			continue
		}
		bound := false
		for _, b := range vis {
			if strings.EqualFold(b, ref.Table) {
				bound = true
				break
			}
		}
		if !bound {
			*out = append(*out, ref)
		}
	}
	for _, p := range qb.Where {
		for _, sub := range SubqueriesOf(p) {
			collectFree(sub, vis, out)
		}
	}
}

// SubqueriesOf returns every nested query block of a predicate's leaves
// (see Leaves), in order: a leaf's subquery operands, then the block it
// nests — both subqueries of (SELECT …) = (SELECT …).
func SubqueriesOf(p Predicate) []*QueryBlock {
	var out []*QueryBlock
	Leaves(p, func(leaf Predicate) bool {
		sides, sub := operands(leaf)
		for _, e := range sides {
			if sq, ok := (*e).(*Subquery); ok {
				out = append(out, sq.Block)
			}
		}
		if sub != nil {
			out = append(out, sub)
		}
		return true
	})
	return out
}

// IsCorrelated reports whether the block subtree references any binding
// defined outside it. An uncorrelated subquery can be evaluated once,
// independently of the outer block (Kim's type-A and type-N nesting);
// a correlated one is type-J or type-JA.
func IsCorrelated(qb *QueryBlock) bool { return len(FreeRefs(qb)) > 0 }
