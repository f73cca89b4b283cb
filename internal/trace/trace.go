// Package trace is a query's EXPLAIN trace as typed events: the
// transformation steps, the planner's decisions and plan outlines, and the
// engine's fallback and degradation lines. Every query records its
// events; none formats them. Text exists only when someone reads it —
// Event.String renders one line, and a reader that wants to know what
// happened asks an event's Kind and fields, never its text.
//
// An event holds values, not the machinery that produced them: a plan is
// an exec.Plan snapshot, a join key is its columns, an error is the error.
// So a finished Result pins no temp pages or hash tables, and nothing that
// runs after the query can change what its trace says.
package trace

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/value"
)

// Kind says which line an event is and which of its fields that line
// reads. Planner events carry their plan block (TEMPn or final, or either
// with -inner for a quantified join's inner block) in Label.
type Kind uint8

const (
	// Step is a transformation step: Label is its rule, Text its prose,
	// and Detail, when set, its operands (see StepText).
	Step Kind = iota + 1
	// NestedIteration: the query was evaluated by nested iteration.
	NestedIteration
	// Fallback: the query was not transformable (Err says why) and ran
	// by nested iteration.
	Fallback
	// SequentialRerun: a plan with Parallelism's hash operators failed with
	// Err and runs again without them, sort-merging.
	SequentialRerun
	// ForcedSpillRerun: a plan exceeded its memory budget with Err and
	// runs again refusing every reservation.
	ForcedSpillRerun
	// TransientRetry: a transient failure Err (an injected fault or a
	// corrupt spill run, qctx.Retryable); retry N after a backoff of Delay.
	TransientRetry
	// Spill: the query wrote N spill runs of M bytes.
	Spill

	// Plan is the outline of Label's plan.
	Plan
	// Materialized: temp table Label holds N tuples in M pages.
	Materialized
	// Resident: temp table Label is held in memory, never written: N
	// tuples, which its file would hold in M pages.
	Resident
	// Streamed: temp table Text is never materialized; block Label plans
	// its definition as the subtree it reads, estimated at N tuples in M
	// pages.
	Streamed
	// Constant: a type-A subquery evaluated to Val.
	Constant
	// IndexScan: Cols[0] is read through its index for Op Val, about N
	// matches.
	IndexScan
	// HashJoin joins on the key Cols (left and right columns
	// alternating), inline; Outer for the outer join. A Text
	// names the predicate a quantified join decides instead (EXISTS,
	// NOT EXISTS, < ANY, NOT IN).
	HashJoin
	// MergeJoin joins on the key Cols in a pool of N pages; Text as
	// HashJoin's.
	MergeJoin
	// GroupJoin joins on the key Cols and groups by its left side, resident
	// in M of the pool's B pages, into about N groups; Outer for ⟕.
	GroupJoin
	// NestedLoops joins on Preds, a cartesian product when there are none;
	// Text as HashJoin's.
	NestedLoops
	// MergeInapplicable: Preds hold no key, so nested loops replace a
	// forced merge join.
	MergeInapplicable
	// SortElided: the Text (left or right) input is in join-column order.
	SortElided
	// SortInput: the Text input is sorted on Cols[0].
	SortInput
	// RightMaterialized: nested loops' right side was restricted into N
	// pages.
	RightMaterialized
	// OrderBy sorts over N keys.
	OrderBy
	// DistinctSort removes duplicates by sorting over N columns.
	DistinctSort
	// GroupOrdered: the input is in GROUP BY order already.
	GroupOrdered
	// GroupSort sorts for GROUP BY.
	GroupSort
	// HashGroup aggregates over N group columns in one hash table.
	HashGroup
	// Having filters groups by N conjuncts.
	Having
)

// Event is one line of a trace. Kind names the fields it sets; the rest
// are zero. The lines every transformed query records keep their fields
// inline and the rarer ones share one Detail, so that an event stays at
// 112 bytes: a query's events take no more memory than its rendered
// text would.
type Event struct {
	Kind   Kind
	Outer  bool            // the join is an outer join
	Op     value.CompareOp // an index scan's comparison
	B      int32           // a group join's buffer pool pages
	N, M   int64
	Label  string
	Text   string
	Cols   []exec.ColID
	Plan   exec.Plan
	Detail *Detail
}

// Detail holds the fields of the rarer lines: the engine's fallback,
// rerun and retry lines, a transformation step's operands, a nested-loops
// join, a constant and an index scan's key.
type Detail struct {
	Err   error
	Delay time.Duration
	Preds []ast.Predicate
	Val   value.Value
	// Rel and Block are a CREATE step's temp and its definition.
	Rel   *schema.Relation
	Block *ast.QueryBlock
}

// String renders the event as its EXPLAIN line.
func (e Event) String() string {
	switch e.Kind {
	case Step:
		return e.Label + ": " + StepText(e.Text, e.Detail)
	case NestedIteration:
		return "evaluated by nested iteration"
	case Fallback:
		return fmt.Sprintf("fallback to nested iteration: %v", e.Detail.Err)
	case SequentialRerun:
		return fmt.Sprintf("hash plan failed (%v); retrying with the sequential plan", e.Detail.Err)
	case ForcedSpillRerun:
		return fmt.Sprintf("memory budget exceeded (%v); retrying with forced spill", e.Detail.Err)
	case TransientRetry:
		return fmt.Sprintf("transient fault (%v); retry %d after %v", e.Detail.Err, e.N, e.Detail.Delay)
	case Spill:
		return fmt.Sprintf("spill: %d run(s), %d bytes", e.N, e.M)
	case Plan:
		return e.Label + " plan:\n" + exec.Describe(e.Plan)
	case Materialized:
		return fmt.Sprintf("%s materialized: %d tuples, %d pages", e.Label, e.N, e.M)
	case Resident:
		return fmt.Sprintf("%s held in memory, not materialized: %d tuples, %d pages", e.Label, e.N, e.M)
	case Streamed:
		return fmt.Sprintf("%s: %s streamed, not materialized (estimated %d tuples, %d pages)", e.Label, e.Text, e.N, e.M)
	case Constant:
		return "type-A subquery evaluated to constant " + e.Detail.Val.String()
	case IndexScan:
		return fmt.Sprintf("%s: index scan on %s.%s (%s %s, ~%d matches)",
			e.Label, e.Cols[0].Table, e.Cols[0].Column, e.Op, e.Detail.Val, e.N)
	case HashJoin:
		return e.Label + ": " + e.outer() + "hash join " + e.keys() + e.deciding()
	case MergeJoin:
		return fmt.Sprintf("%s: %smerge join %s (B=%d)%s", e.Label, e.outer(), e.keys(), e.N, e.deciding())
	case GroupJoin:
		return fmt.Sprintf("%s: %sgroup join %s, left resident in %d of B=%d pages (estimated %d groups)", e.Label, e.outer(), e.keys(), e.M, e.B, e.N)
	case NestedLoops:
		return e.Label + ": " + e.outer() + "nested-loops join on " + e.preds() + e.deciding()
	case MergeInapplicable:
		return e.Label + ": merge join not applicable to " + e.preds() + "; using nested loops"
	case SortElided:
		return e.Label + ": " + e.Text + " input already in join-column order, sort elided"
	case SortInput:
		return e.Label + ": sort " + e.Text + " input on " + e.Cols[0].String()
	case RightMaterialized:
		return fmt.Sprintf("%s: right side restricted and materialized (%d pages)", e.Label, e.N)
	case OrderBy:
		return fmt.Sprintf("%s: ORDER BY sort over %d key(s)", e.Label, e.N)
	case DistinctSort:
		return fmt.Sprintf("%s: duplicates removed by sort over %d column(s)", e.Label, e.N)
	case GroupOrdered:
		return e.Label + ": input already in GROUP BY order, sort elided"
	case GroupSort:
		return e.Label + ": sort for GROUP BY"
	case HashGroup:
		return fmt.Sprintf("%s: hash aggregation over %d group column(s)", e.Label, e.N)
	case Having:
		return fmt.Sprintf("%s: HAVING filter over %d conjunct(s)", e.Label, e.N)
	}
	return fmt.Sprintf("trace.Event(kind=%d)", e.Kind)
}

func (e Event) outer() string {
	if e.Outer {
		return "outer "
	}
	return ""
}

// deciding renders the predicate a quantified join decides.
func (e Event) deciding() string {
	if e.Text != "" {
		return " deciding " + e.Text
	}
	return ""
}

// keys renders a join key's column pairs.
func (e Event) keys() string {
	parts := make([]string, 0, len(e.Cols)/2)
	for i := 0; i+1 < len(e.Cols); i += 2 {
		parts = append(parts, e.Cols[i].String()+" with "+e.Cols[i+1].String())
	}
	return strings.Join(parts, " and ")
}

// preds renders a nested-loops join's conjuncts.
func (e Event) preds() string {
	if len(e.Detail.Preds) == 0 {
		return "(cartesian)"
	}
	return StepText("", e.Detail)
}

// StepText renders a transformation step from its prose and operands
// (nil when it has none): a CREATE step's temp as NAME(columns) = its
// definition, then the predicates joined by AND.
func StepText(text string, d *Detail) string {
	if d == nil {
		return text
	}
	var b strings.Builder
	b.WriteString(text)
	if d.Rel != nil {
		b.WriteString(d.Rel.Name + "(" + strings.Join(d.Rel.ColumnNames(), ", ") + ") = " + d.Block.String())
	}
	for i, p := range d.Preds {
		if i > 0 {
			b.WriteString(" AND ")
		}
		b.WriteString(p.String())
	}
	return b.String()
}

// Lines renders every event, one string each: the text form of a trace.
func Lines(events []Event) []string {
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = e.String()
	}
	return out
}
