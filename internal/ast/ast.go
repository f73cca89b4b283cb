// Package ast defines the abstract syntax tree for the SQL subset of the
// paper "Optimization of Nested SQL Queries Revisited" (Ganski & Wong,
// SIGMOD 1987): query blocks with SELECT / FROM / WHERE / GROUP BY, nested
// query blocks appearing inside predicates to arbitrary depth, aggregate
// functions, and the predicate forms IN, EXISTS, and quantified comparisons
// (ANY / ALL).
//
// A query block's WHERE clause is a list of conjuncts; the transformation
// algorithms of the paper operate by moving, rewriting, and merging
// conjuncts across blocks. OR and NOT are representable (the nested
// iteration executor evaluates them) but make a block non-transformable,
// mirroring how the paper restricts itself to conjunctive WHERE clauses.
package ast

import (
	"repro/internal/value"
)

// QueryBlock is one SQL query block: the unit of nesting in the paper. The
// outermost block of a statement is the root of a multi-way tree whose
// children are the blocks nested inside its predicates (the paper's Figure 2
// models a query exactly this way).
type QueryBlock struct {
	Distinct bool
	Select   []SelectItem
	From     []TableRef
	Where    []Predicate // conjuncts, implicitly ANDed
	GroupBy  []ColumnRef
	// Having filters groups after aggregation. Its predicates reference
	// the block's output columns (by name or alias); resolution rewrites
	// them to positional form.
	Having []HavingPred
	// OrderBy sorts the block's output. Only the outermost block of a
	// statement may carry it; the resolver rejects it inside subqueries,
	// where ordering is meaningless.
	OrderBy []OrderItem
}

// HavingPred is one HAVING conjunct: an output column (a grouping column
// or an aggregate, referenced by output name) compared to a constant. Pos
// is the select-list position, filled in by resolution.
type HavingPred struct {
	Col ColumnRef
	Pos int
	Op  value.CompareOp
	Val value.Value
}

// String renders the HAVING conjunct.
func (h HavingPred) String() string {
	return h.Col.String() + " " + h.Op.String() + " " + h.Val.Literal()
}

// OrderItem is one ORDER BY key: a position into the block's SELECT list
// plus a direction. Resolution maps the written column reference to the
// select position, so both executors sort the same way.
type OrderItem struct {
	Col  ColumnRef // as written
	Pos  int       // select-list position, filled in by resolution
	Desc bool
}

// SelectItem is one output of a query block: either a plain column or a
// single aggregate function application. Kim's classification hinges on
// whether the inner block's SELECT clause "consists of an aggregate
// function over a column in an inner relation".
type SelectItem struct {
	Agg value.AggFunc // AggNone for a plain column reference
	Col ColumnRef     // ignored when Agg == AggCountStar
	As  string        // optional output column name (used for temp tables)
}

// IsAggregate reports whether the item applies an aggregate function.
func (s SelectItem) IsAggregate() bool { return s.Agg != value.AggNone }

// OutputName returns the name under which the item appears in the block's
// result schema.
func (s SelectItem) OutputName() string {
	if s.As != "" {
		return s.As
	}
	if s.Agg == value.AggCountStar {
		return "COUNT"
	}
	if s.Agg != value.AggNone {
		return s.Agg.String()
	}
	return s.Col.Column
}

// HasAggregate reports whether any select item of the block applies an
// aggregate function.
func (qb *QueryBlock) HasAggregate() bool {
	for _, s := range qb.Select {
		if s.IsAggregate() {
			return true
		}
	}
	return false
}

// TableRef names a relation in a FROM clause, optionally under an alias.
// Column references bind to the alias (or the relation name when no alias
// is given). NEST-N-J merges FROM clauses, so the transformer may introduce
// fresh aliases to keep bindings unambiguous.
type TableRef struct {
	Relation string
	Alias    string
}

// Binding returns the name columns use to refer to this table.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Relation
}

// ColumnRef names a column, optionally qualified by a table binding.
// Unqualified references are resolved against the enclosing FROM clauses
// (innermost first, then outward through enclosing blocks — the rule that
// makes SP.ORIGIN = S.CITY in the paper's example 4 a correlated
// reference).
type ColumnRef struct {
	Table  string // table binding, "" if unqualified
	Column string
}

// Expr is a scalar expression: a column reference, a literal constant, or a
// scalar subquery. The dialect has no arithmetic; the paper's queries never
// need it.
type Expr interface {
	isExpr()
	String() string
}

// Const is a literal value.
type Const struct {
	Val value.Value
}

// Subquery is a query block used as a scalar expression (the Q in the
// paper's nested predicate form [Ri.Ck op Q]).
type Subquery struct {
	Block *QueryBlock
}

func (ColumnRef) isExpr() {}
func (Const) isExpr()     {}
func (*Subquery) isExpr() {}

// Predicate is one conjunct of a WHERE clause.
type Predicate interface {
	isPred()
	String() string
}

// Comparison is a scalar comparison Left Op Right. Either side may be a
// subquery; a comparison whose right side is a subquery is the paper's
// nested predicate [Ri.Ck op Q].
//
// LeftOuter marks the paper's outer-join comparison operator (written =+ in
// section 5.2): the join must preserve every row of the left operand's
// relation, padding the right side with NULLs when no match exists. The
// transformer emits it when building NEST-JA2's temporary table for COUNT.
type Comparison struct {
	Left      Expr
	Op        value.CompareOp
	Right     Expr
	LeftOuter bool
}

// InPred is Left [NOT] IN (subquery). The parser also accepts the System R
// spelling "IS IN".
type InPred struct {
	Left    Expr
	Sub     *QueryBlock
	Negated bool
}

// ExistsPred is [NOT] EXISTS (subquery), one of the section 8 extensions.
type ExistsPred struct {
	Sub     *QueryBlock
	Negated bool
}

// Quantifier distinguishes ANY from ALL in quantified comparisons.
type Quantifier uint8

// The quantifiers of section 8.
const (
	Any Quantifier = iota
	All
)

// String renders the quantifier keyword.
func (q Quantifier) String() string {
	if q == All {
		return "ALL"
	}
	return "ANY"
}

// QuantPred is Left Op ANY|ALL (subquery), one of the section 8 extensions.
type QuantPred struct {
	Left  Expr
	Op    value.CompareOp
	Quant Quantifier
	Sub   *QueryBlock
}

// OrPred is a disjunction. Blocks containing one are evaluated by nested
// iteration only; the paper's transformations require conjunctive WHERE
// clauses.
type OrPred struct {
	Left, Right Predicate
}

// AndPred is a conjunction that could not be flattened into the block's
// conjunct list because it appears under OR or NOT.
type AndPred struct {
	Left, Right Predicate
}

// NotPred is a negation of an arbitrary predicate.
type NotPred struct {
	P Predicate
}

func (*Comparison) isPred() {}
func (*InPred) isPred()     {}
func (*ExistsPred) isPred() {}
func (*QuantPred) isPred()  {}
func (*OrPred) isPred()     {}
func (*AndPred) isPred()    {}
func (*NotPred) isPred()    {}

// SubqueryOf returns the nested query block inside a predicate, if any.
// A Comparison contributes a block only when one side is a subquery.
func SubqueryOf(p Predicate) *QueryBlock {
	switch p := p.(type) {
	case *Comparison:
		if sq, ok := p.Right.(*Subquery); ok {
			return sq.Block
		}
		if sq, ok := p.Left.(*Subquery); ok {
			return sq.Block
		}
	case *InPred:
		return p.Sub
	case *ExistsPred:
		return p.Sub
	case *QuantPred:
		return p.Sub
	}
	return nil
}

// IsNested reports whether the predicate contains a nested query block.
func IsNested(p Predicate) bool { return SubqueryOf(p) != nil }

// HasNestedPredicate reports whether any conjunct of the block's WHERE
// clause is a nested predicate.
func (qb *QueryBlock) HasNestedPredicate() bool {
	for _, p := range qb.Where {
		if IsNested(p) {
			return true
		}
	}
	return false
}

// Bindings returns the table binding names visible inside the block's own
// FROM clause, in FROM order.
func (qb *QueryBlock) Bindings() []string {
	out := make([]string, len(qb.From))
	for i, t := range qb.From {
		out[i] = t.Binding()
	}
	return out
}
