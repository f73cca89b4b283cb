package planner

import (
	"repro/internal/ast"
	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/value"
)

// join combines the current subtree with the next FROM entry, choosing the
// join method by forced option or by cost.
func (p *Planner) join(cur, right input, tr ast.TableRef, conjs []ast.Predicate, used []bool, force JoinMethod, label string) (input, error) {
	// Restrict the right side first: for the outer joins of NEST-JA2 this
	// ordering is a correctness requirement, not an optimization —
	// section 5.2: "the condition which applies to only one relation ...
	// must be applied before the join is performed".
	right, err := p.applyLocal(right, conjs, used)
	if err != nil {
		return input{}, err
	}

	combined := cur.op.Schema().Concat(right.op.Schema())
	var joinConjs []ast.Predicate
	outer := false
	for i, c := range conjs {
		if used[i] || !predCompilable(c, combined) {
			continue
		}
		joinConjs = append(joinConjs, c)
		used[i] = true
		if hasOuterFlag(c) {
			outer = true
		}
	}
	if len(joinConjs) == 0 {
		// Cartesian product: only nested loops applies.
		return p.nlJoin(cur, right, tr, nil, false, label)
	}

	// A merge join needs a single equality conjunct relating the two
	// sides (extra equality conjuncts can post-filter an inner join, but
	// an outer join's match condition must be evaluated in one place).
	lkey, rkey, nullEq, rest := p.mergeKeys(cur, right, joinConjs, outer)
	canMerge := lkey >= 0 && (!outer || len(rest) == 0)

	// A parallel hash join has the same applicability shape as a merge
	// join (one equality key; an outer join's condition evaluated in one
	// place). It is considered only under JoinAuto — a forced method
	// reproduces the paper's sequential experiments exactly.
	if force == JoinAuto && canMerge && p.parallelOK(cur.tuples+right.tuples) {
		return p.parallelHashJoin(cur, right, lkey, rkey, nullEq, rest, outer, label)
	}

	method := force
	if method == JoinAuto {
		method = p.chooseMethod(cur, right)
	}
	if method == JoinMerge && !canMerge {
		p.notef("%s: merge join not applicable to %s; using nested loops", label, predsText(joinConjs))
		method = JoinNL
	}
	if method == JoinMerge {
		return p.mergeJoin(cur, right, tr, lkey, rkey, nullEq, rest, outer, label)
	}
	return p.nlJoin(cur, right, tr, joinConjs, outer, label)
}

// mergeKeys picks the equality conjunct to use as the merge key, returning
// the key positions, whether the key comparison is NULL-safe (OpEqNull, the
// NEST-JA2 back-join), and the remaining conjuncts. Among the candidates it
// prefers a key that matches an input's existing sort order, which both
// elides a sort and realizes the section 7.4 plan (joining the grouped
// temp table on its join column rather than on the scalar aggregate
// comparison).
func (p *Planner) mergeKeys(cur, right input, joinConjs []ast.Predicate, outer bool) (lkey, rkey int, nullEq bool, rest []ast.Predicate) {
	type candidate struct {
		idx        int
		lkey, rkey int
		nullEq     bool
		score      int
	}
	var candidates []candidate
	for i, c := range joinConjs {
		cmp, ok := c.(*ast.Comparison)
		if !ok || (cmp.Op != value.OpEq && cmp.Op != value.OpEqNull) {
			continue
		}
		lc, lok := cmp.Left.(ast.ColumnRef)
		rc, rok := cmp.Right.(ast.ColumnRef)
		if !lok || !rok {
			continue
		}
		li, ri := cur.op.Schema().Index(lc), right.op.Schema().Index(rc)
		if li < 0 || ri < 0 {
			li, ri = cur.op.Schema().Index(rc), right.op.Schema().Index(lc)
		}
		if li < 0 || ri < 0 {
			continue
		}
		score := 0
		if ri == right.sortedOn {
			score += 2
		}
		if li == cur.sortedOn {
			score++
		}
		candidates = append(candidates, candidate{idx: i, lkey: li, rkey: ri, nullEq: cmp.Op == value.OpEqNull, score: score})
	}
	best := -1
	for i, c := range candidates {
		if best < 0 || c.score > candidates[best].score {
			best = i
		}
	}
	lkey, rkey = -1, -1
	chosen := -1
	if best >= 0 {
		lkey, rkey, nullEq, chosen = candidates[best].lkey, candidates[best].rkey, candidates[best].nullEq, candidates[best].idx
	}
	for i, c := range joinConjs {
		if i != chosen {
			rest = append(rest, c)
		}
	}
	return lkey, rkey, nullEq, rest
}

// parallelOK reports whether a parallel operator over an input of the
// given estimated cardinality should be used: parallelism must be enabled
// and the input large enough to amortize the per-worker setup cost (or the
// gate overridden for tests).
func (p *Planner) parallelOK(tuples float64) bool {
	w := p.opts.workers()
	if w <= 1 {
		return false
	}
	return p.opts.ForceParallel || costmodel.ParallelWorthwhile(tuples, w)
}

// parallelHashJoin builds a hash join partitioned across workers behind an
// ExchangeMerge. Workers interleave nondeterministically, so the result
// reports no sort order: GROUP BY, DISTINCT, merge joins, and ORDER BY
// above it keep their sorts (no section 7.4 elision applies).
func (p *Planner) parallelHashJoin(cur, right input, lkey, rkey int, nullEq bool, rest []ast.Predicate, outer bool, label string) (input, error) {
	w := p.opts.workers()
	src := &exec.ParallelHashJoin{
		Left:     cur.op,
		Right:    right.op,
		LeftKey:  lkey,
		RightKey: rkey,
		Outer:    outer,
		NullEq:   nullEq,
		Workers:  w,
		QC:       p.opts.QC,
		Spill:    p.opts.Spill,
	}
	kind := "parallel hash join"
	if outer {
		kind = "outer parallel hash join"
	}
	p.notef("%s: %s %s with %s (%d workers)", label, kind, cur.op.Schema()[lkey], right.op.Schema()[rkey], w)
	var op exec.Operator = &exec.ExchangeMerge{Source: src, QC: p.opts.QC}
	if len(rest) > 0 {
		pred, err := exec.CompileConjuncts(rest, op.Schema())
		if err != nil {
			return input{}, err
		}
		op = &exec.Filter{Child: op, Pred: pred}
	}
	return input{
		op:       op,
		pages:    cur.pages + right.pages,
		tuples:   p.keyCardinality(cur, right, lkey, rkey),
		sortedOn: -1, // exchange output order is nondeterministic
	}, nil
}

// chooseMethod estimates both join methods with the section 7 cost model
// and picks the cheaper, as the optimizer the paper defers to would.
func (p *Planner) chooseMethod(cur, right input) JoinMethod {
	b := p.store.BufferPages()
	mergeCost := cur.pages + right.pages + costmodel.SortCost(right.pages, b)
	if cur.sortedOn < 0 {
		mergeCost += costmodel.SortCost(cur.pages, b)
	}
	nlCost := cur.pages + right.pages
	if right.pages > float64(b-1) {
		nlCost = cur.pages + cur.tuples*right.pages
	}
	if nlCost <= mergeCost {
		return JoinNL
	}
	return JoinMerge
}

// mergeJoin builds a sort-merge join, eliminating sorts on inputs already
// in key order (the section 7.4 optimizations).
func (p *Planner) mergeJoin(cur, right input, tr ast.TableRef, lkey, rkey int, nullEq bool, rest []ast.Predicate, outer bool, label string) (input, error) {
	b := p.store.BufferPages()
	left := cur.op
	if cur.sortedOn != lkey {
		left = &exec.Sort{Child: left, Keys: []int{lkey}, Store: p.store, TuplesPerPage: p.opts.TempTuplesPerPage, QC: p.opts.QC, Spill: p.opts.Spill}
		p.notef("%s: sort left input on %s", label, cur.op.Schema()[lkey])
	} else {
		p.notef("%s: left input already in join-column order, sort elided", label)
	}
	rightOp := right.op
	if right.sortedOn != rkey {
		rightOp = &exec.Sort{Child: rightOp, Keys: []int{rkey}, Store: p.store, TuplesPerPage: p.opts.TempTuplesPerPage, QC: p.opts.QC, Spill: p.opts.Spill}
		p.notef("%s: sort right input on %s", label, right.op.Schema()[rkey])
	} else {
		p.notef("%s: right input already in join-column order, sort elided", label)
	}
	kind := "merge join"
	if outer {
		kind = "outer merge join"
	}
	p.notef("%s: %s %s with %s (B=%d)", label, kind, cur.op.Schema()[lkey], right.op.Schema()[rkey], b)
	var op exec.Operator = &exec.MergeJoin{Left: left, Right: rightOp, LeftKey: lkey, RightKey: rkey, Outer: outer, NullEq: nullEq, QC: p.opts.QC, Spill: p.opts.Spill}
	if len(rest) > 0 {
		pred, err := exec.CompileConjuncts(rest, op.Schema())
		if err != nil {
			return input{}, err
		}
		op = &exec.Filter{Child: op, Pred: pred}
	}
	return input{
		op:       op,
		pages:    cur.pages + right.pages,
		tuples:   p.keyCardinality(cur, right, lkey, rkey),
		sortedOn: lkey,
	}, nil
}

// keyCardinality estimates a merge join's output size from the key
// columns' distinct-value statistics.
func (p *Planner) keyCardinality(cur, right input, lkey, rkey int) float64 {
	if p.opts.Stats == nil {
		return maxf(cur.tuples, right.tuples)
	}
	lc, rc := cur.op.Schema()[lkey], right.op.Schema()[rkey]
	dl := p.opts.Stats.DistinctValues(ast.ColumnRef{Table: lc.Table, Column: lc.Column}, p.curFrom)
	dr := p.opts.Stats.DistinctValues(ast.ColumnRef{Table: rc.Table, Column: rc.Column}, p.curFrom)
	return stats.JoinCardinality(cur.tuples, right.tuples, dl, dr)
}

// joinCardinality estimates the joined row count: with statistics, the
// System R formula n_l·n_r / max(distinct); without, the larger input.
func (p *Planner) joinCardinality(cur, right input, conjs []ast.Predicate) float64 {
	if p.opts.Stats == nil {
		return maxf(cur.tuples, right.tuples)
	}
	for _, c := range conjs {
		cmp, ok := c.(*ast.Comparison)
		if !ok || (cmp.Op != value.OpEq && cmp.Op != value.OpEqNull) {
			continue
		}
		lc, lok := cmp.Left.(ast.ColumnRef)
		rc, rok := cmp.Right.(ast.ColumnRef)
		if !lok || !rok {
			continue
		}
		dl := p.opts.Stats.DistinctValues(lc, p.curFrom)
		dr := p.opts.Stats.DistinctValues(rc, p.curFrom)
		return stats.JoinCardinality(cur.tuples, right.tuples, dl, dr)
	}
	return maxf(cur.tuples, right.tuples)
}

// nlJoin builds a nested-loops join; the right side must be a stored file
// (a bare scan serves directly, anything else is materialized first,
// which also enforces restriction-before-join for outer joins).
func (p *Planner) nlJoin(cur, right input, tr ast.TableRef, joinConjs []ast.Predicate, outer bool, label string) (input, error) {
	var file *storage.HeapFile
	if scan, ok := right.op.(*exec.SeqScan); ok {
		file = scan.File
	} else {
		f, err := p.materialize(right.op)
		if err != nil {
			return input{}, err
		}
		file = f
		p.notef("%s: right side restricted and materialized (%d pages)", label, file.NumPages())
	}
	combined := cur.op.Schema().Concat(right.op.Schema())
	pred, err := exec.CompileConjuncts(stripOuterFlags(joinConjs), combined)
	if err != nil {
		return input{}, err
	}
	kind := "nested-loops join"
	if outer {
		kind = "outer nested-loops join"
	}
	p.notef("%s: %s on %s", label, kind, predsText(joinConjs))
	op := &exec.NestedLoopJoin{
		Left:     cur.op,
		Right:    file,
		RightSch: right.op.Schema(),
		Pred:     pred,
		Outer:    outer,
		QC:       p.opts.QC,
	}
	return input{
		op:       op,
		pages:    cur.pages + right.pages,
		tuples:   p.joinCardinality(cur, right, joinConjs),
		sortedOn: cur.sortedOn, // nested loops preserves left order
	}, nil
}

// stripOuterFlags clones comparisons without their outer-join marker so
// they compile as ordinary match conditions; the join operator itself
// implements the preservation semantics.
func stripOuterFlags(preds []ast.Predicate) []ast.Predicate {
	out := make([]ast.Predicate, len(preds))
	for i, p := range preds {
		if cmp, ok := p.(*ast.Comparison); ok && cmp.LeftOuter {
			c := *cmp
			c.LeftOuter = false
			out[i] = &c
			continue
		}
		out[i] = p
	}
	return out
}

func predsText(ps []ast.Predicate) string {
	if len(ps) == 0 {
		return "(cartesian)"
	}
	s := ""
	for i, p := range ps {
		if i > 0 {
			s += " AND "
		}
		s += p.String()
	}
	return s
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
