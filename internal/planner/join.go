package planner

import (
	"cmp"
	"slices"

	"repro/internal/ast"
	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/value"
)

// join combines the current subtree with the next FROM entry, restricted,
// on joinConjs (an outer join when outer), choosing the join method by
// forced option or by cost. With q it decides q instead of joining
// (quantifiedJoin), by the same choice, except that it hashes on one
// goroutine whatever the parallelism.
func (p *Planner) join(cur, right input, joinConjs []ast.Predicate, outer bool, force JoinMethod, q *exec.Quantifier, label string) (input, error) {
	if len(joinConjs) == 0 {
		// Cartesian product: only nested loops applies.
		return p.nlJoin(cur, right, nil, nil, false, q, label)
	}

	// The join key is every equality conjunct relating the two sides; what
	// is left over filters an inner join's output, but an outer join's
	// match condition must be evaluated in one place, inside the operator.
	keys, rest := p.mergeKeys(cur, right, joinConjs)
	keyed := len(keys) > 0 && (!outer || len(rest) == 0)

	// The hash join is considered only under JoinAuto — a forced method
	// reproduces the paper's sequential experiments exactly: across the
	// workers when the inputs are worth partitioning, and inline, as its
	// one-worker case, where the section 7 rule picks nested loops because
	// the right side fits the pool — the build side is then what nested
	// loops would have kept resident.
	method := force
	if method == JoinAuto {
		if keyed && q == nil && p.parallelOK(cur.tuples+right.tuples) {
			return p.hashJoin(cur, right, keys, rest, outer, p.opts.Parallelism, nil, label)
		}
		if method = p.chooseMethod(cur, right); method == JoinNL && keyed && p.fitsPool(right) {
			return p.hashJoin(cur, right, keys, rest, outer, 1, q, label)
		}
	}
	if method == JoinMerge && !keyed {
		p.note(label, trace.Event{Kind: trace.MergeInapplicable, Detail: &trace.Detail{Preds: joinConjs}})
		method = JoinNL
	}
	if method == JoinMerge {
		return p.mergeJoin(cur, right, keys, rest, outer, q, label)
	}
	return p.nlJoin(cur, right, joinConjs, keys, outer, q, label)
}

// joinConjuncts takes every unused conjunct that relates cur and right as
// their join's, reporting whether one carries the outer-join marker.
func joinConjuncts(cur, right input, conjs []ast.Predicate, used []bool) (joinConjs []ast.Predicate, outer bool) {
	combined := cur.op.Schema().Concat(right.op.Schema())
	for i, c := range conjs {
		if used[i] || !predCompilable(c, combined) {
			continue
		}
		joinConjs = append(joinConjs, c)
		used[i] = true
		outer = outer || hasOuterFlag(c)
	}
	return joinConjs, outer
}

// groupJoin plans a two-entry grouped block — NEST-JA2's temp join of
// TEMP1 and the restricted inner relation — as one GroupJoin, which reads
// each input once (section 7.2's favorable case), when its first entry is
// unique (DISTINCT) and fits B−1 pages, an equality key over all of that
// entry's columns is the whole join and the GROUP BY, the aggregates read
// only the second entry and no conjunct is left for after the join (a NOT
// IN). A forced method, AsPaper and a parallel hash join's place keep the
// generic join and grouping, as does any other shape.
func (p *Planner) groupJoin(cur, right input, joinConjs []ast.Predicate, outer bool, qb *ast.QueryBlock, used []bool, force JoinMethod, label string) (input, bool) {
	if force != JoinAuto || p.opts.AsPaper || len(qb.From) != 2 || !qb.HasAggregate() || !cur.unique || !p.fitsPool(cur) ||
		p.parallelOK(cur.tuples+right.tuples) || slices.Contains(used, false) {
		return input{}, false
	}
	keys, rest := p.mergeKeys(cur, right, joinConjs)
	nl := len(cur.op.Schema())
	groupCols, items, err := groupItems(cur.op.Schema().Concat(right.op.Schema()), qb)
	ok := err == nil && len(keys) > 0 && len(rest) == 0 && len(groupCols) == nl
	for c := 0; ok && c < nl; c++ {
		ok = slices.ContainsFunc(keys, func(k exec.KeyPair) bool { return k.Left == c }) && slices.Contains(groupCols, c)
	}
	for i := 0; ok && i < len(items); i++ {
		if items[i].Agg == value.AggNone {
			ok = items[i].Col < nl
		} else if items[i].Col >= 0 {
			ok, items[i].Col = items[i].Col >= nl, items[i].Col-nl
		}
	}
	if !ok {
		return input{}, false
	}
	p.note(label, trace.Event{Kind: trace.GroupJoin, Outer: outer, Cols: keyCols(cur, right, keys),
		B: int32(p.store.BufferPages()), N: int64(cur.tuples), M: int64(cur.pages)})
	op := &exec.GroupJoin{Left: cur.op, Right: right.op, LeftKey: keys[0].Left, RightKey: keys[0].Right, NullEq: keys[0].NullEq,
		More: keys[1:], Outer: outer, Items: items, QC: p.opts.QC}
	return p.orderBy(input{op: p.having(op, qb, label), pages: cur.pages, tuples: cur.tuples, sortedOn: itemOf(items, cur.sortedOn)}, qb, label), true
}

// mergeKeys splits the join conjuncts into the join key — every = or <=>
// between a column of each side, <=> (OpEqNull, the NEST-JA2 back-join)
// making its pair NULL-safe — and the remaining conjuncts. The pairs come
// in an order the conjuncts' order does not influence: first a pair that
// matches an input's existing sort order, which both elides a sort and
// realizes the section 7.4 plan (joining the grouped temp table on its
// join column rather than on the scalar aggregate comparison), then by
// column position.
func (p *Planner) mergeKeys(cur, right input, joinConjs []ast.Predicate) (keys []exec.KeyPair, rest []ast.Predicate) {
	ls, rs := cur.op.Schema(), right.op.Schema()
	for _, c := range joinConjs {
		if k, ok := keyPair(c, ls, rs); ok {
			keys = append(keys, k)
		} else {
			rest = append(rest, c)
		}
	}
	score := func(k exec.KeyPair) int {
		s := 0
		if k.Right == right.sortedOn {
			s += 2
		}
		if k.Left == cur.sortedOn {
			s++
		}
		return s
	}
	slices.SortStableFunc(keys, func(a, b exec.KeyPair) int {
		return cmp.Or(cmp.Compare(score(b), score(a)), cmp.Compare(a.Left, b.Left), cmp.Compare(a.Right, b.Right))
	})
	return keys, rest
}

// keyPair reads conjunct c as an equality between a column of each side.
func keyPair(c ast.Predicate, left, right exec.RowSchema) (exec.KeyPair, bool) {
	cmp, ok := c.(*ast.Comparison)
	if !ok || (cmp.Op != value.OpEq && cmp.Op != value.OpEqNull) {
		return exec.KeyPair{}, false
	}
	lc, lok := cmp.Left.(ast.ColumnRef)
	rc, rok := cmp.Right.(ast.ColumnRef)
	if !lok || !rok {
		return exec.KeyPair{}, false
	}
	li, ri := left.Index(lc), right.Index(rc)
	if li < 0 || ri < 0 {
		li, ri = left.Index(rc), right.Index(lc)
	}
	return exec.KeyPair{Left: li, Right: ri, NullEq: cmp.Op == value.OpEqNull}, li >= 0 && ri >= 0
}

// parallelOK reports whether a parallel operator over an input of the
// given estimated cardinality should be used: parallelism must be enabled
// and the input large enough to amortize the per-worker setup cost (or the
// gate overridden for tests).
func (p *Planner) parallelOK(tuples float64) bool {
	w := p.opts.Parallelism
	return w > 1 && (p.opts.ForceParallel || costmodel.ParallelWorthwhile(tuples, w))
}

// hashJoin builds a hash join on keys. With several workers it is
// partitioned across them behind an ExchangeMerge; workers interleave
// nondeterministically, so the result reports no sort order: GROUP BY,
// DISTINCT, merge joins, and ORDER BY above it keep their sorts (no section
// 7.4 elision applies). With one worker it runs inline and streams the
// left input in order, like the nested-loops join whose place it takes.
// With q it decides q instead of joining.
func (p *Planner) hashJoin(cur, right input, keys []exec.KeyPair, rest []ast.Predicate, outer bool, w int, q *exec.Quantifier, label string) (input, error) {
	join := &exec.ParallelHashJoin{
		Left:     cur.op,
		Right:    right.op,
		LeftKey:  keys[0].Left,
		RightKey: keys[0].Right,
		NullEq:   keys[0].NullEq,
		More:     keys[1:],
		Outer:    outer,
		Workers:  w,
		Quant:    q,
		QC:       p.opts.QC,
	}
	var op exec.Operator = join
	sortedOn := cur.sortedOn
	if w > 1 {
		sortedOn = -1
		op = &exec.ExchangeMerge{Source: join, QC: p.opts.QC}
	}
	p.note(label, trace.Event{Kind: trace.HashJoin, Outer: outer, Cols: keyCols(cur, right, keys), N: int64(w), Text: q.String()})
	op, err := residual(op, cur, right, rest, q)
	return input{
		op:       op,
		pages:    cur.pages + right.pages,
		tuples:   p.keyCardinality(cur, right, keys),
		sortedOn: sortedOn,
	}, err
}

// residual filters a keyed join's output by the conjuncts its key does not
// cover — non-equalities only; every equality is in the key. A quantified
// join checks them on each key match instead, as q.Corr.
func residual(op exec.Operator, cur, right input, rest []ast.Predicate, q *exec.Quantifier) (exec.Operator, error) {
	if len(rest) == 0 {
		return op, nil
	}
	pred, err := exec.CompileConjuncts(rest, cur.op.Schema().Concat(right.op.Schema()))
	if q != nil {
		q.Corr = pred
		return op, err
	}
	return &exec.Filter{Child: op, Pred: pred}, err
}

// keyCols lists a join key's columns for its plan note, each pair's left
// column before its right.
func keyCols(cur, right input, keys []exec.KeyPair) []exec.ColID {
	ls, rs, cols := cur.op.Schema(), right.op.Schema(), make([]exec.ColID, 0, 2*len(keys))
	for _, k := range keys {
		cols = append(cols, ls[k.Left], rs[k.Right])
	}
	return cols
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
	if !p.fitsPool(right) {
		nlCost = cur.pages + cur.tuples*right.pages
	}
	if nlCost <= mergeCost {
		return JoinNL
	}
	return JoinMerge
}

// fitsPool reports whether in stays resident in B−1 pages while another
// input streams past it: the favorable nested-loops case of section 7.2.
func (p *Planner) fitsPool(in input) bool { return in.pages <= float64(p.store.BufferPages()-1) }

// mergeJoin builds a sort-merge join, eliminating sorts on inputs already
// in key order (the section 7.4 optimizations). A merge join never sorts
// where a single-column key would not: when an input already arrives in
// the leading key column's order the merge runs on that column and the
// operator checks the other pairs row by row; only when both inputs are
// sorted anyway are they sorted on the whole key. With q it decides q
// instead of joining.
func (p *Planner) mergeJoin(cur, right input, keys []exec.KeyPair, rest []ast.Predicate, outer bool, q *exec.Quantifier, label string) (input, error) {
	lead := keys[0]
	full := len(keys) > 1 && cur.sortedOn != lead.Left && right.sortedOn != lead.Right
	lcols, rcols := []int{lead.Left}, []int{lead.Right}
	if full {
		for _, k := range keys[1:] {
			lcols, rcols = append(lcols, k.Left), append(rcols, k.Right)
		}
	}
	sorted := func(in input, cols []int, side string) exec.Operator {
		if in.sortedOn == cols[0] {
			p.note(label, trace.Event{Kind: trace.SortElided, Text: side})
			return in.op
		}
		p.note(label, trace.Event{Kind: trace.SortInput, Text: side, Cols: in.op.Schema()[cols[0]:][:1]})
		return p.sort(in.op, cols, nil)
	}
	left, rightOp := sorted(cur, lcols, "left"), sorted(right, rcols, "right")
	p.note(label, trace.Event{Kind: trace.MergeJoin, Outer: outer, Cols: keyCols(cur, right, keys), N: int64(p.store.BufferPages()), Text: q.String()})
	op, err := residual(&exec.MergeJoin{Left: left, Right: rightOp, LeftKey: lead.Left, RightKey: lead.Right, NullEq: lead.NullEq,
		More: keys[1:], FullOrder: full, Outer: outer, Quant: q, QC: p.opts.QC, Spill: p.opts.Spill}, cur, right, rest, q)
	return input{
		op:       op,
		pages:    cur.pages + right.pages,
		tuples:   p.keyCardinality(cur, right, keys),
		sortedOn: lead.Left,
	}, err
}

// keyCardinality estimates a join's output size: with statistics, the
// System R formula n_l·n_r / max(distinct) over the most selective key
// pair; without statistics or a key, the larger input.
func (p *Planner) keyCardinality(cur, right input, keys []exec.KeyPair) float64 {
	if p.opts.Stats == nil || len(keys) == 0 {
		return max(cur.tuples, right.tuples)
	}
	distinct := func(c exec.ColID) int {
		return p.opts.Stats.DistinctValues(ast.ColumnRef{Table: c.Table, Column: c.Column}, p.curFrom)
	}
	d := 0
	for _, k := range keys {
		d = max(d, distinct(cur.op.Schema()[k.Left]), distinct(right.op.Schema()[k.Right]))
	}
	return stats.JoinCardinality(cur.tuples, right.tuples, d, d)
}

// nlJoin builds a nested-loops join; the right side must be a stored file
// (a bare scan serves directly, anything else is materialized first,
// which also enforces restriction-before-join for outer joins). With q it
// decides q instead of joining, on q.Corr.
func (p *Planner) nlJoin(cur, right input, joinConjs []ast.Predicate, keys []exec.KeyPair, outer bool, q *exec.Quantifier, label string) (input, error) {
	var file *storage.HeapFile
	var name string
	if scan, ok := right.op.(*exec.SeqScan); ok {
		file, name = scan.File, scan.Name
	} else {
		f, err := p.materialize(right.op)
		if err != nil {
			return input{}, err
		}
		file = f
		p.note(label, trace.Event{Kind: trace.RightMaterialized, N: int64(file.NumPages())})
	}
	combined := cur.op.Schema().Concat(right.op.Schema())
	pred, err := exec.CompileConjuncts(stripOuterFlags(joinConjs), combined)
	if err != nil {
		return input{}, err
	}
	if q != nil && len(joinConjs) > 0 {
		q.Corr = pred
	}
	p.note(label, trace.Event{Kind: trace.NestedLoops, Outer: outer, Text: q.String(), Detail: &trace.Detail{Preds: joinConjs}})
	op := &exec.NestedLoopJoin{
		Left:      cur.op,
		Right:     file,
		RightSch:  right.op.Schema(),
		RightName: name,
		Pred:      pred,
		Outer:     outer,
		Quant:     q,
		QC:        p.opts.QC,
	}
	return input{
		op:       op,
		pages:    cur.pages + right.pages,
		tuples:   p.keyCardinality(cur, right, keys),
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
