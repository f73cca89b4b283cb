package transform

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/value"
)

// nestNJ applies Kim's algorithm NEST-N-J (section 3.1) to one type-N or
// type-J nested predicate of qb:
//
//  1. Combine the FROM clauses of the two blocks into one (aliasing merged
//     tables whose binding collides with one already present).
//  2. AND the inner block's WHERE conjuncts into the outer's, replacing
//     IS IN by =.
//  3. Retain the outer SELECT clause.
//
// It returns the conjuncts that replace the nested predicate, having
// already appended the inner FROM entries to qb.
//
// Known scope note, inherited from Kim's Lemma 1: the join form can
// duplicate outer tuples when the inner column is not unique per match;
// the lemma (and this reproduction) treat the query result as a set.
func (t *Transformer) nestNJ(qb *ast.QueryBlock, p ast.Predicate, kind classify.NestType) ([]ast.Predicate, error) {
	var left ast.Expr
	var op value.CompareOp
	var sub *ast.QueryBlock
	switch p := p.(type) {
	case *ast.InPred:
		if p.Negated {
			// A flat NOT IN is retained (nestG); anything fancier falls back.
			return nil, notTransformable("NOT IN over a non-flat inner block")
		}
		left, op, sub = p.Left, value.OpEq, p.Sub
	case *ast.Comparison:
		sq, ok := p.Right.(*ast.Subquery)
		if !ok {
			return nil, notTransformable("nested comparison without right-hand subquery: %s", p.String())
		}
		left, op, sub = p.Left, p.Op, sq.Block
	default:
		return nil, notTransformable("unsupported nested predicate %s", p.String())
	}
	if sub.Distinct {
		return nil, notTransformable("DISTINCT inner block cannot be merged as a join")
	}
	if len(sub.GroupBy) > 0 || sub.HasAggregate() {
		return nil, notTransformable("aggregate inner block reached NEST-N-J")
	}
	// Kim's Lemma 1 equates the nested predicate with a join as *sets*:
	// the join repeats an outer tuple once per matching inner tuple. That
	// is harmless for a query result treated as a set and for MAX/MIN,
	// but it corrupts COUNT/SUM/AVG when the enclosing block aggregates
	// over the merged rows — unless the merged column is a declared key
	// (at most one match per value) the merge must be refused and the
	// query falls back to nested iteration.
	if multiplicitySensitive(qb) && !t.uniqueSelectColumn(sub) {
		return nil, notTransformable(
			"merging %s under COUNT/SUM/AVG can change row multiplicity", p.String())
	}

	// Step 1: merge FROM clauses, renaming colliding bindings.
	taken := make(map[string]bool)
	for _, tr := range qb.From {
		taken[strings.ToUpper(tr.Binding())] = true
	}
	for i := range sub.From {
		tr := sub.From[i]
		if taken[strings.ToUpper(tr.Binding())] {
			old := tr.Binding()
			alias := t.freshAlias(old, taken)
			sub.From[i].Alias = alias
			renameBinding(sub, old, alias)
			t.addStep("NEST-N-J", "alias "+old+" as "+alias+" to merge FROM clauses")
		}
		taken[strings.ToUpper(sub.From[i].Binding())] = true
	}
	// renameBinding has already rewritten the select column if needed.
	selCol := sub.Select[0].Col
	qb.From = append(qb.From, sub.From...)

	// Step 2: the nested predicate becomes an explicit join predicate,
	// ANDed with the inner WHERE clause.
	join := &ast.Comparison{Left: left, Op: op, Right: selCol}
	conjs := append([]ast.Predicate{join}, sub.Where...)
	t.addStep("NEST-N-J", kind.String()+" predicate becomes join: ", join)
	return conjs, nil
}

// multiplicitySensitive reports whether the block computes an aggregate
// whose value changes if input rows are duplicated (COUNT, SUM, AVG —
// MAX and MIN are duplicate-insensitive).
func multiplicitySensitive(qb *ast.QueryBlock) bool {
	for _, s := range qb.Select {
		switch s.Agg {
		case value.AggCount, value.AggCountStar, value.AggSum, value.AggAvg:
			return true
		}
	}
	return false
}

// uniqueSelectColumn reports whether the inner block's selected column is
// the declared key of its single relation, guaranteeing at most one match
// per outer value and therefore a multiplicity-safe merge.
func (t *Transformer) uniqueSelectColumn(sub *ast.QueryBlock) bool {
	if len(sub.From) != 1 || len(sub.Select) != 1 {
		return false
	}
	rel, ok := t.lookupRel(sub.From[0].Relation)
	if !ok {
		return false
	}
	col := sub.Select[0].Col
	return strings.EqualFold(col.Table, sub.From[0].Binding()) && rel.IsKey(col.Column)
}

// freshAlias generates an alias not yet taken, derived from the base name.
func (t *Transformer) freshAlias(base string, taken map[string]bool) string {
	for {
		t.nAlias++
		alias := base + "_" + strconv.Itoa(t.nAlias)
		if !taken[strings.ToUpper(alias)] {
			return alias
		}
	}
}

// renameBinding rewrites references Table==old to Table==new throughout
// the block subtree, stopping at any descendant block whose own FROM
// clause re-binds the old name (shadowing). It rewrites copies of the
// block's predicates: the steps recorded before it print the originals.
func renameBinding(qb *ast.QueryBlock, old, new string) {
	for i, p := range qb.Where {
		qb.Where[i] = ast.ClonePredicate(p)
	}
	ast.VisitBlocks(qb, func(b *ast.QueryBlock, depth int) bool {
		if depth > 0 && slices.ContainsFunc(b.From, func(tr ast.TableRef) bool { return strings.EqualFold(tr.Binding(), old) }) {
			return false // shadowed
		}
		b.RewriteLocalColumns(func(c ast.ColumnRef) ast.ColumnRef {
			if strings.EqualFold(c.Table, old) {
				c.Table = new
			}
			return c
		})
		return true
	})
}
