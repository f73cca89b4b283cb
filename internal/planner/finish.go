package planner

import (
	"fmt"
	"slices"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/trace"
	"repro/internal/value"
)

// finish applies grouping or projection and DISTINCT to a joined subtree,
// tracking the output ordering so later steps can elide sorts (section
// 7.4: the temp table is created in GROUP BY order, which is its join
// column order).
func (p *Planner) finish(cur input, qb *ast.QueryBlock, label string) (input, error) {
	out, err := p.finishShape(cur, qb, label)
	if err != nil {
		return input{}, err
	}
	return p.orderBy(out, qb, label), nil
}

// orderBy sorts a block's finished output on its ORDER BY keys.
func (p *Planner) orderBy(out input, qb *ast.QueryBlock, label string) input {
	if len(qb.OrderBy) == 0 {
		return out
	}
	keys := make([]int, len(qb.OrderBy))
	desc := make([]bool, len(qb.OrderBy))
	for i, o := range qb.OrderBy {
		keys[i], desc[i] = o.Pos, o.Desc
	}
	out.op = p.sort(out.op, keys, desc)
	out.sortedOn = -1
	if !desc[0] {
		out.sortedOn = keys[0]
	}
	p.note(label, trace.Event{Kind: trace.OrderBy, N: int64(len(keys))})
	return out
}

// having filters a grouping operator's groups by the block's HAVING.
func (p *Planner) having(op exec.Operator, qb *ast.QueryBlock, label string) exec.Operator {
	if len(qb.Having) == 0 {
		return op
	}
	p.note(label, trace.Event{Kind: trace.Having, N: int64(len(qb.Having))})
	return &exec.Filter{Child: op, Pred: exec.Having(qb.Having)}
}

// sort places an external sort of child on keys (desc nil = all
// ascending), wired to this plan's store, temp page size, query context
// spill session and AsPaper: one wiring for every sort it plans.
func (p *Planner) sort(child exec.Operator, keys []int, desc []bool) *exec.Sort {
	return &exec.Sort{Child: child, Keys: keys, Desc: desc, Store: p.store,
		TuplesPerPage: p.opts.TempTuplesPerPage, QC: p.opts.QC, Spill: p.opts.Spill,
		WriteLastPass: p.opts.AsPaper}
}

func (p *Planner) finishShape(cur input, qb *ast.QueryBlock, label string) (input, error) {
	if qb.HasAggregate() {
		return p.finishGroup(cur, qb, label)
	}
	sch := cur.op.Schema()
	cols := make([]int, len(qb.Select))
	names := make([]exec.ColID, len(qb.Select))
	for i, item := range qb.Select {
		idx := sch.Index(item.Col)
		if idx < 0 {
			return input{}, fmt.Errorf("planner: select column %s not produced by plan", item.Col)
		}
		cols[i] = idx
		if item.As != "" {
			names[i] = exec.ColID{Column: item.As}
		}
	}
	out := cur
	out.sortedOn, out.unique = -1, qb.Distinct
	for i, c := range cols {
		if c == cur.sortedOn {
			out.sortedOn = i
			break
		}
	}
	if emitOnly(cur.op, cols) {
		cols = exec.Identity(len(cols))
	}
	out.op = exec.NewProject(cur.op, cols, names)
	if qb.Distinct {
		// Duplicate elimination by (B−1)-way merge sort over all output
		// columns, as in section 7.1; the result emerges in join-column
		// (first-column) order.
		keys := exec.Identity(len(qb.Select))
		out.op = &exec.Distinct{Child: p.sort(out.op, keys, nil)}
		out.sortedOn = 0
		p.note(label, trace.Event{Kind: trace.DistinctSort, N: int64(len(keys))})
	}
	return out, nil
}

// emitOnly is the one rule that decides which columns a join builds: the
// join that is op emits only columns cols of its output, in that order, so
// its consumer reads its column cols[i] at i. It reports whether op is
// such a join; anything else — a residual Filter, whose compiled predicate
// is opaque, among them — keeps every column.
func emitOnly(op exec.Operator, cols []int) bool {
	switch j := op.(type) {
	case *exec.MergeJoin:
		j.Out = cols
	case *exec.ParallelHashJoin:
		j.Out = cols
	case *exec.NestedLoopJoin:
		j.Out = cols
	default:
		return false
	}
	return true
}

// finishGroup builds the GROUP BY aggregation. The input must arrive in
// group-key order; a merge join keyed on the grouping column already
// provides it, otherwise a sort is inserted.
func (p *Planner) finishGroup(cur input, qb *ast.QueryBlock, label string) (input, error) {
	groupCols, items, err := groupItems(cur.op.Schema(), qb)
	if err != nil {
		return input{}, err
	}
	// Under Parallelism, real grouping over an unordered input is a hash
	// aggregation, which needs no GROUP BY sort and emits its groups in
	// first-seen order, not key order.
	inOrder := len(groupCols) == 1 && cur.sortedOn == groupCols[0]
	hashGroup := len(groupCols) > 0 && p.opts.Parallelism > 1 && !inOrder
	sortedOut := -1
	if len(groupCols) > 0 {
		sortedOut = itemOf(items, groupCols[0])
	}
	// The join below builds only the columns the aggregation reads, in
	// their order, before any GROUP BY sort is placed over it.
	reads := append(make([]int, 0, len(groupCols)+len(items)), groupCols...)
	for _, it := range items {
		if it.Col >= 0 {
			reads = append(reads, it.Col)
		}
	}
	slices.Sort(reads)
	if reads = slices.Compact(reads); emitOnly(cur.op, reads) {
		for i, c := range groupCols {
			groupCols[i], _ = slices.BinarySearch(reads, c)
		}
		for i, it := range items {
			if it.Col >= 0 {
				items[i].Col, _ = slices.BinarySearch(reads, it.Col)
			}
		}
	}
	op := cur.op
	if len(groupCols) > 0 && !hashGroup {
		if inOrder {
			p.note(label, trace.Event{Kind: trace.GroupOrdered})
		} else {
			op = p.sort(op, groupCols, nil)
			p.note(label, trace.Event{Kind: trace.GroupSort})
		}
	}
	var out exec.Operator
	if hashGroup {
		out, sortedOut = &exec.ParallelHashGroup{Child: op, GroupCols: groupCols, Items: items, QC: p.opts.QC}, -1
		p.note(label, trace.Event{Kind: trace.HashGroup, N: int64(len(groupCols))})
	} else {
		out = &exec.GroupAgg{Child: op, GroupCols: groupCols, Items: items, QC: p.opts.QC}
	}
	return input{
		op:       p.having(out, qb, label),
		pages:    cur.pages,
		tuples:   cur.tuples,
		sortedOn: sortedOut,
	}, nil
}

// groupItems resolves a grouped block's GROUP BY columns and select items
// against sch, the schema of the rows it groups.
func groupItems(sch exec.RowSchema, qb *ast.QueryBlock) ([]int, []exec.GroupItem, error) {
	groupCols := make([]int, len(qb.GroupBy))
	for i, g := range qb.GroupBy {
		if groupCols[i] = sch.Index(g); groupCols[i] < 0 {
			return nil, nil, fmt.Errorf("planner: GROUP BY column %s not produced by plan", g)
		}
	}
	items := make([]exec.GroupItem, len(qb.Select))
	for i, sel := range qb.Select {
		items[i] = exec.GroupItem{Agg: sel.Agg, Col: -1, Out: exec.ColID{Column: sel.OutputName()}}
		if sel.Agg == value.AggCountStar {
			continue
		}
		if items[i].Col = sch.Index(sel.Col); items[i].Col < 0 {
			return nil, nil, fmt.Errorf("planner: select item %s not produced by plan", sel)
		}
	}
	return groupCols, items, nil
}

// itemOf is the position of the grouping column col among items, -1 when
// none passes it through.
func itemOf(items []exec.GroupItem, col int) int {
	return slices.IndexFunc(items, func(it exec.GroupItem) bool { return it.Agg == value.AggNone && it.Col == col })
}
