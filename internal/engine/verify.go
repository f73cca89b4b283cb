package engine

import (
	"repro/internal/ast"
	"repro/internal/storage"
)

// This file is the differential oracle: the one statement of which
// results of a query must agree and how. Every correctness claim of the
// paper is a comparison against nested iteration, and two of its own
// rewrites agree with it only conditionally; the metamorphic runner and
// the package tests all ask AgreementWithNI and AcrossRegimes, and
// compare rows through storage.Diff — nothing else in the tree decides
// either.

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

// hasAllQuantifier reports whether any predicate in the query (at any
// nesting level) uses the ALL quantifier.
func hasAllQuantifier(qb *ast.QueryBlock) bool {
	found := false
	ast.VisitBlocks(qb, func(b *ast.QueryBlock, _ int) bool {
		for _, p := range b.Where {
			found = found || !ast.Leaves(p, func(leaf ast.Predicate) bool {
				q, ok := leaf.(*ast.QuantPred)
				return !ok || q.Quant != ast.All
			})
		}
		return !found
	})
	return found
}
