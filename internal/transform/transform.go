// Package transform implements the paper's query transformation
// algorithms, which rewrite nested SQL queries into canonical (flat) form
// so that a cost-based optimizer can choose join methods instead of being
// forced into nested iteration:
//
//   - NEST-N-J (Kim): merges type-N and type-J nested blocks into the outer
//     block as explicit joins (section 3.1).
//   - NEST-JA (Kim, kept for the bug demonstrations): transforms a type-JA
//     block via a grouped temporary table built from the inner relation
//     alone — unsound for COUNT (section 5.1) and for non-equality
//     correlated operators (section 5.3).
//   - NEST-JA2 (this paper): the corrected algorithm — project the outer
//     join column DISTINCT with the outer block's simple predicates, join
//     it with the (restricted, projected) inner relation — an outer join
//     when the aggregate is COUNT, converting COUNT(*) to COUNT of the
//     inner join column — group by the outer column, and rewrite the
//     original correlated operator to equality (section 6).
//   - The section 8 extensions rewriting EXISTS / NOT EXISTS / ANY / ALL
//     into aggregate or IN predicates.
//   - The recursive, postorder general procedure nest_g of section 9.1,
//     which applies the above to nesting of arbitrary depth and shape.
//
// Transformation works on resolved query trees and never mutates its
// input; the engine keeps the original for nested-iteration execution.
// Queries outside the algorithms' scope (disjunctions over subqueries,
// anti-joins, multi-relation correlation) fail with ErrNotTransformable,
// and the engine falls back to nested iteration.
package transform

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/schema"
	"repro/internal/value"
)

// ErrNotTransformable marks queries the transformation algorithms do not
// cover; callers fall back to nested iteration.
var ErrNotTransformable = errors.New("not transformable")

func notTransformable(format string, args ...any) error {
	return fmt.Errorf("transform: %s: %w", fmt.Sprintf(format, args...), ErrNotTransformable)
}

// Variant selects which type-JA algorithm the transformer applies.
type Variant uint8

const (
	// JA2 is the paper's corrected algorithm NEST-JA2 (the default).
	JA2 Variant = iota
	// KimJA is Kim's original NEST-JA, which exhibits the COUNT bug and
	// the non-equality bug. It exists to reproduce the paper's
	// counterexamples and the experiments that contrast the algorithms.
	KimJA
)

// String names the variant.
func (v Variant) String() string {
	if v == KimJA {
		return "NEST-JA (Kim)"
	}
	return "NEST-JA2"
}

// TempTable is one temporary relation the transformed query depends on.
// Temps are materialized in order before the final query runs; a
// definition may reference earlier temps.
type TempTable struct {
	Name string
	Rel  *schema.Relation
	Def  *ast.QueryBlock
}

// Step records one rule application for EXPLAIN traces, mirroring how the
// paper presents each transformation as SQL text. It keeps the rule's
// operands, not their text: trace.StepText renders them when read.
type Step struct {
	Rule string
	// Text is the step's prose, printed before its operands.
	Text string
	// Rel and Block are a CREATE step's temp and its definition.
	Rel   *schema.Relation
	Block *ast.QueryBlock
	// Preds are printed after Text, joined by AND.
	Preds []ast.Predicate
}

// Result is a completed transformation: the canonical query plus the
// temporary tables it references.
type Result struct {
	Temps []TempTable
	Query *ast.QueryBlock
	Steps []Step
}

// Transformer rewrites nested queries. A Transformer is single-use: create
// one per query.
type Transformer struct {
	cat     *schema.Catalog
	variant Variant

	temps   []TempTable
	tempRel map[string]*schema.Relation // temp name -> schema (overlay over cat)
	steps   []Step
	nAlias  int
	nTemp   int
}

// New creates a transformer over the catalog using the given type-JA
// variant.
func New(cat *schema.Catalog, variant Variant) *Transformer {
	return &Transformer{cat: cat, variant: variant, tempRel: make(map[string]*schema.Relation)}
}

// Transform applies the recursive general procedure (nest_g, section 9.1)
// to a resolved query and returns its canonical form. The input is not
// modified.
func (t *Transformer) Transform(orig *ast.QueryBlock) (*Result, error) {
	qb := orig.Clone()
	if err := t.nestG(qb); err != nil {
		return nil, err
	}
	return &Result{Temps: t.temps, Query: qb, Steps: t.steps}, nil
}

// addStep records a step of rule: its prose, then preds.
func (t *Transformer) addStep(rule, text string, preds ...ast.Predicate) {
	t.steps = append(t.steps, Step{Rule: rule, Text: text, Preds: preds})
}

// lookupRel resolves a relation name against temps first, then the
// catalog.
func (t *Transformer) lookupRel(name string) (*schema.Relation, bool) {
	if r, ok := t.tempRel[strings.ToUpper(name)]; ok {
		return r, true
	}
	return t.cat.Lookup(name)
}

// freshTempName allocates the next TEMPn name that collides with nothing.
func (t *Transformer) freshTempName() string {
	for {
		t.nTemp++
		name := fmt.Sprintf("TEMP%d", t.nTemp)
		if _, ok := t.lookupRel(name); !ok {
			return name
		}
	}
}

// addTemp registers a new temporary table.
func (t *Transformer) addTemp(name string, cols []schema.Column, def *ast.QueryBlock) {
	rel := &schema.Relation{Name: name, Columns: cols}
	t.tempRel[strings.ToUpper(name)] = rel
	t.temps = append(t.temps, TempTable{Name: name, Rel: rel, Def: def})
	t.steps = append(t.steps, Step{Rule: "CREATE " + name, Rel: rel, Block: def})
}

// nestG is the recursive postorder procedure of section 9.1: descend to
// the innermost blocks, then transform on the way back up, so that a
// type-JA block whose correlated join predicate originated levels below
// has already inherited it ("trans-aggregate" predicates) by the time its
// own level is processed.
func (t *Transformer) nestG(qb *ast.QueryBlock) error {
	var out []ast.Predicate
	for _, p := range qb.Where {
		// Subqueries hidden under OR / AND-under-OR / NOT cannot be
		// unnested (the algorithms require conjunctive WHERE clauses);
		// disjunctions over simple predicates are fine and kept as-is.
		switch p.(type) {
		case *ast.OrPred, *ast.NotPred, *ast.AndPred:
			if len(ast.SubqueriesOf(p)) > 0 {
				return notTransformable("subquery under OR/NOT")
			}
			out = append(out, p)
			continue
		}

		p, err := t.rewriteExtended(p)
		if err != nil {
			return err
		}
		p, err = normalizeComparison(p)
		if err != nil {
			return err
		}
		sub := ast.SubqueryOf(p)
		if sub == nil {
			out = append(out, p)
			continue
		}
		if err := t.nestG(sub); err != nil {
			return err
		}

		switch kind := classify.Classify(p); kind {
		case classify.TypeA:
			// The inner block is independent and aggregates to a single
			// constant; System R evaluates it once ([SEL 79:33]). The
			// engine replaces it with its value before planning.
			np, err := t.typeAPredicate(p)
			if err != nil {
				return err
			}
			t.addStep("NEST-A", "independent aggregate block evaluates to a constant: ", np)
			out = append(out, np)
		case classify.TypeN, classify.TypeJ:
			conjs, err := t.nestNJ(qb, p, kind)
			if err != nil {
				return err
			}
			out = append(out, conjs...)
		case classify.TypeJA:
			var conjs []ast.Predicate
			var err error
			if t.variant == KimJA {
				conjs, err = t.nestJAKim(qb, p)
			} else {
				conjs, err = t.nestJA2(qb, p)
			}
			if err != nil {
				return err
			}
			out = append(out, conjs...)
		default:
			return notTransformable("unclassifiable nested predicate %s", p.String())
		}
	}
	qb.Where = out
	return nil
}

// normalizeComparison places the subquery operand of a comparison on the
// right-hand side (flipping the operator), the form the algorithms expect.
// A subquery on both sides of a comparison or of IN (where = ANY lands) is
// left to nested iteration.
func normalizeComparison(p ast.Predicate) (ast.Predicate, error) {
	switch p := p.(type) {
	case *ast.Comparison:
		_, lsub := p.Left.(*ast.Subquery)
		_, rsub := p.Right.(*ast.Subquery)
		switch {
		case lsub && rsub:
			return nil, notTransformable("comparison between two subqueries")
		case lsub:
			return &ast.Comparison{Left: p.Right, Op: p.Op.Flip(), Right: p.Left}, nil
		}
	case *ast.InPred:
		if _, lsub := p.Left.(*ast.Subquery); lsub {
			return nil, notTransformable("IN between two subqueries")
		}
	}
	return p, nil
}

// typeAPredicate converts type-A predicates to scalar-comparison form. An
// IN over a single-row aggregate block is equivalent to = (NOT IN to !=).
func (t *Transformer) typeAPredicate(p ast.Predicate) (ast.Predicate, error) {
	switch p := p.(type) {
	case *ast.Comparison:
		return p, nil
	case *ast.InPred:
		op := value.OpEq
		if p.Negated {
			op = value.OpNe
		}
		return &ast.Comparison{Left: p.Left, Op: op, Right: &ast.Subquery{Block: p.Sub}}, nil
	default:
		return nil, notTransformable("unsupported type-A predicate %s", p.String())
	}
}
