package ast

import (
	"strings"

	"repro/internal/value"
)

// This file renders AST nodes back to SQL text. The output is used by
// EXPLAIN traces (the paper presents every transformation as SQL text, and
// our traces mirror its presentation), by error messages, and by tests that
// check transformations produce exactly the queries the paper prints.

// String renders the column reference, qualified if it has a table binding.
func (c ColumnRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// String renders the literal as SQL the lexer reads back unchanged.
func (c Const) String() string { return c.Val.Literal() }

// String renders the subquery in parentheses.
func (s *Subquery) String() string { return "(" + s.Block.String() + ")" }

// String renders the select item.
func (s SelectItem) String() string {
	var b strings.Builder
	switch {
	case s.Agg == value.AggCountStar:
		b.WriteString("COUNT(*)")
	case s.Agg != value.AggNone:
		b.WriteString(s.Agg.String())
		b.WriteByte('(')
		b.WriteString(s.Col.String())
		b.WriteByte(')')
	default:
		b.WriteString(s.Col.String())
	}
	if s.As != "" {
		b.WriteString(" AS ")
		b.WriteString(s.As)
	}
	return b.String()
}

// String renders the table reference.
func (t TableRef) String() string {
	if t.Alias != "" && t.Alias != t.Relation {
		return t.Relation + " " + t.Alias
	}
	return t.Relation
}

// String renders the comparison; the outer-join form uses the paper's "=+"
// style operator suffix (section 5.2).
func (c *Comparison) String() string {
	op := c.Op.String()
	if c.LeftOuter {
		op += "+"
	}
	return c.Left.String() + " " + op + " " + c.Right.String()
}

// String renders the IN predicate.
func (p *InPred) String() string {
	neg := ""
	if p.Negated {
		neg = "NOT "
	}
	return p.Left.String() + " " + neg + "IN (" + p.Sub.String() + ")"
}

// String renders the EXISTS predicate.
func (p *ExistsPred) String() string {
	neg := ""
	if p.Negated {
		neg = "NOT "
	}
	return neg + "EXISTS (" + p.Sub.String() + ")"
}

// String renders the quantified comparison.
func (p *QuantPred) String() string {
	return p.Left.String() + " " + p.Op.String() + " " + p.Quant.String() +
		" (" + p.Sub.String() + ")"
}

// String renders the disjunction with explicit parentheses.
func (p *OrPred) String() string {
	return "(" + p.Left.String() + " OR " + p.Right.String() + ")"
}

// String renders the conjunction with explicit parentheses.
func (p *AndPred) String() string {
	return "(" + p.Left.String() + " AND " + p.Right.String() + ")"
}

// String renders the negation.
func (p *NotPred) String() string { return "NOT (" + p.P.String() + ")" }

// String renders the whole block as a single-line SQL statement.
func (qb *QueryBlock) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if qb.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, s := range qb.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
	}
	b.WriteString(" FROM ")
	for i, t := range qb.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	if len(qb.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range qb.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	if len(qb.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, c := range qb.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	if len(qb.Having) > 0 {
		b.WriteString(" HAVING ")
		for i, h := range qb.Having {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(h.String())
		}
	}
	if len(qb.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range qb.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Col.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	return b.String()
}

// Pretty renders the block as indented, multi-line SQL in the style the
// paper uses to present queries, with nested blocks indented under the
// predicate that contains them.
func (qb *QueryBlock) Pretty() string {
	var b strings.Builder
	qb.pretty(&b, 0)
	return b.String()
}

func indent(b *strings.Builder, depth int) {
	for range depth {
		b.WriteString("    ")
	}
}

func (qb *QueryBlock) pretty(b *strings.Builder, depth int) {
	indent(b, depth)
	b.WriteString("SELECT ")
	if qb.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, s := range qb.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
	}
	b.WriteByte('\n')
	indent(b, depth)
	b.WriteString("FROM   ")
	for i, t := range qb.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	if len(qb.Where) > 0 {
		b.WriteByte('\n')
		indent(b, depth)
		b.WriteString("WHERE  ")
		for i, p := range qb.Where {
			if i > 0 {
				b.WriteString(" AND\n")
				indent(b, depth)
				b.WriteString("       ")
			}
			prettyPred(b, p, depth)
		}
	}
	if len(qb.GroupBy) > 0 {
		b.WriteByte('\n')
		indent(b, depth)
		b.WriteString("GROUP BY ")
		for i, c := range qb.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	if len(qb.Having) > 0 {
		b.WriteByte('\n')
		indent(b, depth)
		b.WriteString("HAVING ")
		for i, h := range qb.Having {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(h.String())
		}
	}
	if len(qb.OrderBy) > 0 {
		b.WriteByte('\n')
		indent(b, depth)
		b.WriteString("ORDER BY ")
		for i, o := range qb.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Col.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
}

func prettyPred(b *strings.Builder, p Predicate, depth int) {
	sub := SubqueryOf(p)
	if sub == nil {
		b.WriteString(p.String())
		return
	}
	switch p := p.(type) {
	case *Comparison:
		if sq, ok := p.Right.(*Subquery); ok {
			op := p.Op.String()
			if p.LeftOuter {
				op += "+"
			}
			b.WriteString(p.Left.String() + " " + op + " (\n")
			sq.Block.pretty(b, depth+1)
			b.WriteString(")")
			return
		}
		b.WriteString(p.String())
	case *InPred:
		neg := ""
		if p.Negated {
			neg = "NOT "
		}
		b.WriteString(p.Left.String() + " " + neg + "IN (\n")
		sub.pretty(b, depth+1)
		b.WriteString(")")
	case *ExistsPred:
		neg := ""
		if p.Negated {
			neg = "NOT "
		}
		b.WriteString(neg + "EXISTS (\n")
		sub.pretty(b, depth+1)
		b.WriteString(")")
	case *QuantPred:
		b.WriteString(p.Left.String() + " " + p.Op.String() + " " + p.Quant.String() + " (\n")
		sub.pretty(b, depth+1)
		b.WriteString(")")
	default:
		b.WriteString(p.String())
	}
}
