package planner

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/storage"
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
	if len(qb.OrderBy) > 0 {
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
		p.notef("%s: ORDER BY sort over %d key(s)", label, len(keys))
	}
	return out, nil
}

// sort places an external sort of child on keys (desc nil = all
// ascending), wired to this plan's store, temp page size, query context
// and spill session.
func (p *Planner) sort(child exec.Operator, keys []int, desc []bool) *exec.Sort {
	return &exec.Sort{Child: child, Keys: keys, Desc: desc, Store: p.store,
		TuplesPerPage: p.opts.TempTuplesPerPage, QC: p.opts.QC, Spill: p.opts.Spill}
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
	out.op = exec.NewProject(cur.op, projectJoin(cur.op, cols), names)
	out.sortedOn = -1
	for i, c := range cols {
		if c == cur.sortedOn {
			out.sortedOn = i
			break
		}
	}
	if qb.Distinct {
		// Duplicate elimination by (B−1)-way merge sort over all output
		// columns, as in section 7.1; the result emerges in join-column
		// (first-column) order.
		keys := exec.Identity(len(qb.Select))
		out.op = &exec.Distinct{Child: p.sort(out.op, keys, nil)}
		out.sortedOn = 0
		p.notef("%s: duplicates removed by sort over %d column(s)", label, len(keys))
	}
	return out, nil
}

// projectJoin hands a join op the Project's cols, returning the Project's new ones.
func projectJoin(op exec.Operator, cols []int) []int {
	if ex, ok := op.(*exec.ExchangeMerge); ok {
		op, _ = ex.Source.(exec.Operator)
	}
	switch j := op.(type) {
	case *exec.MergeJoin:
		j.Out = cols
	case *exec.ParallelHashJoin:
		j.Out = cols
	case *exec.NestedLoopJoin:
		j.Out = cols
	default:
		return cols
	}
	return exec.Identity(len(cols))
}

// finishGroup builds the GROUP BY aggregation. The input must arrive in
// group-key order; a merge join keyed on the grouping column already
// provides it, otherwise a sort is inserted.
func (p *Planner) finishGroup(cur input, qb *ast.QueryBlock, label string) (input, error) {
	sch := cur.op.Schema()
	groupCols := make([]int, len(qb.GroupBy))
	for i, g := range qb.GroupBy {
		idx := sch.Index(g)
		if idx < 0 {
			return input{}, fmt.Errorf("planner: GROUP BY column %s not produced by plan", g)
		}
		groupCols[i] = idx
	}
	// A parallel hash aggregation needs no GROUP BY sort at all: the
	// distributor partitions rows by the full group key, so each group is
	// aggregated on exactly one worker. It only applies to real grouping
	// (a global aggregate has one group and cannot be partitioned) and its
	// output order is nondeterministic.
	parallelGroup := len(groupCols) > 0 && p.parallelOK(cur.tuples) &&
		!(len(groupCols) == 1 && cur.sortedOn == groupCols[0])
	op := cur.op
	if len(groupCols) > 0 && !parallelGroup {
		if len(groupCols) == 1 && cur.sortedOn == groupCols[0] {
			p.notef("%s: input already in GROUP BY order, sort elided", label)
		} else {
			op = p.sort(op, groupCols, nil)
			p.notef("%s: sort for GROUP BY", label)
		}
	}
	items := make([]exec.GroupItem, len(qb.Select))
	sortedOut := -1
	for i, sel := range qb.Select {
		out := exec.ColID{Column: sel.OutputName()}
		if sel.Agg == value.AggNone {
			idx := sch.Index(sel.Col)
			if idx < 0 {
				return input{}, fmt.Errorf("planner: select column %s not produced by plan", sel.Col)
			}
			items[i] = exec.GroupItem{Agg: value.AggNone, Col: idx, Out: out}
			if len(groupCols) > 0 && idx == groupCols[0] {
				sortedOut = i
			}
			continue
		}
		idx := -1
		if sel.Agg != value.AggCountStar {
			idx = sch.Index(sel.Col)
			if idx < 0 {
				return input{}, fmt.Errorf("planner: aggregate argument %s not produced by plan", sel.Col)
			}
		}
		items[i] = exec.GroupItem{Agg: sel.Agg, Col: idx, Out: out}
	}
	var out exec.Operator
	if parallelGroup {
		w := p.opts.workers()
		out = &exec.ExchangeMerge{Source: &exec.ParallelHashGroup{
			Child:     op,
			GroupCols: groupCols,
			Items:     items,
			Workers:   w,
			QC:        p.opts.QC,
			Spill:     p.opts.Spill,
		}, QC: p.opts.QC}
		sortedOut = -1 // worker output interleaves nondeterministically
		p.notef("%s: parallel hash aggregation over %d group column(s) (%d workers)", label, len(groupCols), w)
	} else {
		out = &exec.GroupAgg{Child: op, GroupCols: groupCols, Items: items, QC: p.opts.QC}
	}
	if len(qb.Having) > 0 {
		having := append([]ast.HavingPred(nil), qb.Having...)
		out = &exec.Filter{Child: out, Pred: func(t storage.Tuple) (value.Tri, error) {
			res := value.True
			for _, h := range having {
				tri, err := h.Op.Apply(t[h.Pos], h.Val)
				if err != nil {
					return value.Unknown, err
				}
				res = res.And(tri)
			}
			return res, nil
		}}
		p.notef("%s: HAVING filter over %d conjunct(s)", label, len(having))
	}
	return input{
		op:       out,
		pages:    cur.pages,
		tuples:   cur.tuples,
		sortedOn: sortedOut,
	}, nil
}
