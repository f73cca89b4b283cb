package engine

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/storage"
)

// This file implements the sequential-vs-parallel differential oracle.
// Parallel aggregation is exactly where the paper's COUNT bug would
// resurface — a partition with no matching inner tuples must still produce
// COUNT = 0 after the outer join — so a parallel plan is never trusted on
// its own: with Options.VerifyParallel set, its result is re-derived by
// the sequential plan (bag equality) and by nested iteration (set
// equality, the engine's semantic ground truth), and any disagreement
// fails the query.

// parallelRequested reports whether the planner options enable parallel
// operators (Parallelism < 0 means one worker per CPU, > 1 that many
// workers).
func parallelRequested(opts Options) bool {
	p := opts.Planner.Parallelism
	return p < 0 || p > 1
}

// verifyParallel cross-checks a parallel result. The sequential re-run of
// the same strategy must match as a bag — parallelism may only reorder
// rows, never change their multiplicities. Nested iteration must match as
// a set, and only for NEST-JA2: Kim's NEST-JA reproduces the COUNT bug by
// design, and ALL-quantifier rewrites deliberately diverge from nested
// iteration on empty subquery results.
func (db *DB) verifyParallel(qb *ast.QueryBlock, opts Options, res *Result) error {
	seqOpts := opts
	seqOpts.VerifyParallel = false
	seqOpts.Planner.Parallelism = 0
	seqOpts.Planner.ForceParallel = false
	// Oracle re-runs happen inside an already-admitted query: going back
	// through the gateway would deadlock against our own ticket and skew
	// the admission counters.
	seqOpts.noAdmission = true
	seqOpts.ticket = nil
	seq, err := db.queryBlock(qb, seqOpts)
	if err != nil {
		return fmt.Errorf("engine: parallel oracle: sequential re-run failed: %w", err)
	}
	if diff := diffRows(rowBag(res.Rows), rowBag(seq.Rows)); diff != "" {
		return fmt.Errorf("engine: parallel oracle: parallel and sequential plans disagree: %s", diff)
	}
	res.Trace = append(res.Trace, "parallel oracle: bag-equal to sequential plan")
	if opts.Strategy != TransformJA2 || hasAllQuantifier(qb) {
		return nil
	}
	ni, err := db.queryBlock(qb, Options{Strategy: NestedIteration, noAdmission: true})
	if err != nil {
		return fmt.Errorf("engine: parallel oracle: nested-iteration re-run failed: %w", err)
	}
	if diff := diffRows(rowSet(res.Rows), rowSet(ni.Rows)); diff != "" {
		return fmt.Errorf("engine: parallel oracle: parallel plan and nested iteration disagree: %s", diff)
	}
	res.Trace = append(res.Trace, "parallel oracle: set-equal to nested iteration")
	return nil
}

// rowBag renders rows as a sorted multiset of printed tuples.
func rowBag(rows []storage.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// rowSet is rowBag with duplicates removed.
func rowSet(rows []storage.Tuple) []string {
	bag := rowBag(rows)
	out := bag[:0]
	for i, s := range bag {
		if i == 0 || s != bag[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// diffRows compares two sorted row renderings, returning "" when equal and
// a short description of the first difference otherwise.
func diffRows(a, b []string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := range n {
		if a[i] != b[i] {
			return fmt.Sprintf("%d vs %d rows; first difference: %s vs %s", len(a), len(b), a[i], b[i])
		}
	}
	if len(a) != len(b) {
		extra := a
		if len(b) > len(a) {
			extra = b
		}
		return fmt.Sprintf("%d vs %d rows; first unmatched: %s", len(a), len(b), extra[n])
	}
	return ""
}

// hasAllQuantifier reports whether any predicate in the query (at any
// nesting level) uses the ALL quantifier.
func hasAllQuantifier(qb *ast.QueryBlock) bool {
	found := false
	ast.VisitBlocks(qb, func(b *ast.QueryBlock, _ int) bool {
		for _, p := range b.Where {
			if predHasAll(p) {
				found = true
			}
		}
		return !found
	})
	return found
}

func predHasAll(p ast.Predicate) bool {
	switch p := p.(type) {
	case *ast.QuantPred:
		return p.Quant == ast.All
	case *ast.OrPred:
		return predHasAll(p.Left) || predHasAll(p.Right)
	case *ast.AndPred:
		return predHasAll(p.Left) || predHasAll(p.Right)
	case *ast.NotPred:
		return predHasAll(p.P)
	}
	return false
}
