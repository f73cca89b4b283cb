package engine

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/storage"
	"repro/internal/trace"
)

// This file is the differential oracle: the one statement of which
// results of a query must agree and how. Every correctness claim of the
// paper is a comparison against nested iteration, and two of its own
// rewrites agree with it only conditionally; VerifyParallel below, the
// metamorphic runner and the package tests all ask AgreementWithNI and
// AcrossRegimes, and compare rows through storage.Diff — nothing else in
// the tree decides either.

// AcrossRegimes is the first half of the rule: any two executions of one
// query under one strategy — sequential, parallel, spilling, networked,
// sharded — must agree as bags. A regime may reorder rows, never change
// their multiplicities.
const AcrossRegimes = storage.AgreeBag

// AgreementWithNI is the second half: how the result of qb under strategy
// s must compare with nested iteration's, the semantic ground truth.
// NEST-JA2 agrees as a set — Kim's Lemma 1 equates IN with a join as sets
// (section 3.1), so a merged type-N/J block may carry join-multiplicity
// duplicates — unless the query holds an ALL quantifier anywhere, whose
// section 8 rewrite deliberately diverges over an empty inner block.
// Kim's NEST-JA owes nested iteration nothing: it has the COUNT bug by
// design.
func AgreementWithNI(qb *ast.QueryBlock, s Strategy) storage.Agreement {
	switch {
	case s == NestedIteration:
		return AcrossRegimes
	case s == TransformJA2 && !hasAllQuantifier(qb):
		return storage.AgreeSet
	default:
		return storage.AgreeNone
	}
}

// verifyParallel applies the rule to a parallel result. Parallel
// aggregation is exactly where the paper's COUNT bug would resurface — a
// partition with no matching inner tuples must still produce COUNT = 0
// after the outer join — so with Options.VerifyParallel a parallel plan is
// re-derived by the sequential plan of the same strategy and by nested
// iteration, and any disagreement fails the query. The caller holds the
// commit-order lock; the re-runs carry no admission ticket.
func (db *DB) verifyParallel(qb *ast.QueryBlock, opts Options, res *Result) error {
	seqOpts := opts
	seqOpts.VerifyParallel = false
	seqOpts.Planner.Parallelism = 0
	seqOpts.Planner.ForceParallel = false
	seqOpts.ticket = nil
	seq, err := db.execute(qb, seqOpts)
	if err != nil {
		return fmt.Errorf("engine: parallel oracle: sequential re-run failed: %w", err)
	}
	if diff := storage.Diff(AcrossRegimes, res.Rows, seq.Rows); diff != "" {
		return fmt.Errorf("engine: parallel oracle: parallel and sequential plans disagree: %s", diff)
	}
	res.Trace = append(res.Trace, trace.Event{Kind: trace.OracleSequential, Agree: AcrossRegimes})
	how := AgreementWithNI(qb, opts.Strategy)
	if how == storage.AgreeNone {
		return nil
	}
	ni, err := db.execute(qb, Options{Strategy: NestedIteration})
	if err != nil {
		return fmt.Errorf("engine: parallel oracle: nested-iteration re-run failed: %w", err)
	}
	if diff := storage.Diff(how, res.Rows, ni.Rows); diff != "" {
		return fmt.Errorf("engine: parallel oracle: parallel plan and nested iteration disagree: %s", diff)
	}
	res.Trace = append(res.Trace, trace.Event{Kind: trace.OracleNestedIteration, Agree: how})
	return nil
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
