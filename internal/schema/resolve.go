package schema

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/value"
)

// OutputCol describes one column of a query block's result.
type OutputCol struct {
	Name string
	Type value.Kind
}

// Resolve binds every column reference in the query block tree to a table
// binding that is in scope, rewriting each reference to its fully qualified
// form, and type-checks predicates. SQL scoping applies: an unqualified
// name binds in the innermost enclosing FROM clause that defines it; a
// qualified name binds to the nearest enclosing FROM clause with that
// binding. A reference that binds outside its own block is a correlated
// (outer) reference — exactly the situation that makes a nested predicate
// type-J or type-JA in Kim's classification.
//
// Resolve mutates qb in place. It returns the result schema of the
// outermost block.
func Resolve(cat *Catalog, qb *ast.QueryBlock) ([]OutputCol, error) {
	r := &resolver{cat: cat}
	return r.block(qb)
}

// resolveOrderBy maps each ORDER BY key to a SELECT-list position: by
// output name first (covering AS aliases and aggregate names), then by
// resolving the reference and matching it against the selected columns.
func (r *resolver) resolveOrderBy(qb *ast.QueryBlock, out []OutputCol) error {
	for i := range qb.OrderBy {
		item := &qb.OrderBy[i]
		pos := -1
		if item.Col.Table == "" {
			for j, c := range out {
				if strings.EqualFold(c.Name, item.Col.Column) {
					pos = j
					break
				}
			}
		}
		if pos < 0 {
			col, _, err := r.column(item.Col)
			if err != nil {
				return fmt.Errorf("schema: ORDER BY: %w", err)
			}
			for j, sel := range qb.Select {
				if !sel.IsAggregate() && sel.Col == col {
					pos = j
					break
				}
			}
			item.Col = col
		}
		if pos < 0 {
			return fmt.Errorf("schema: ORDER BY column %s must appear in the SELECT list", item.Col)
		}
		item.Pos = pos
	}
	return nil
}

type frame struct {
	bindings []string
	rels     []*Relation
}

type resolver struct {
	cat    *Catalog
	scopes []frame // innermost last
}

// depth is the current nesting level (0 at the outermost block).
func (r *resolver) depth() int { return len(r.scopes) }

func (r *resolver) block(qb *ast.QueryBlock) ([]OutputCol, error) {
	if len(qb.From) == 0 {
		return nil, fmt.Errorf("schema: query block has no FROM clause")
	}
	if len(qb.OrderBy) > 0 && r.depth() > 0 {
		return nil, fmt.Errorf("schema: ORDER BY is only valid on the outermost query block")
	}
	var f frame
	seen := make(map[string]bool)
	for _, t := range qb.From {
		rel, ok := r.cat.Lookup(t.Relation)
		if !ok {
			return nil, fmt.Errorf("schema: unknown relation %s", t.Relation)
		}
		b := strings.ToUpper(t.Binding())
		if seen[b] {
			return nil, fmt.Errorf("schema: duplicate table binding %s in FROM clause", t.Binding())
		}
		seen[b] = true
		f.bindings = append(f.bindings, t.Binding())
		f.rels = append(f.rels, rel)
	}
	r.scopes = append(r.scopes, f)
	defer func() { r.scopes = r.scopes[:len(r.scopes)-1] }()

	hasAgg := false
	var out []OutputCol
	for i := range qb.Select {
		item := &qb.Select[i]
		var typ value.Kind
		if item.Agg == value.AggCountStar {
			typ = value.KindInt
		} else {
			col, ctyp, err := r.column(item.Col)
			if err != nil {
				return nil, err
			}
			item.Col = col
			typ = ctyp
			switch item.Agg {
			case value.AggCount:
				typ = value.KindInt
			case value.AggAvg:
				typ = value.KindFloat
			case value.AggSum, value.AggMax, value.AggMin:
				// result type follows the argument
			}
		}
		if item.IsAggregate() {
			hasAgg = true
		}
		out = append(out, OutputCol{Name: item.OutputName(), Type: typ})
	}
	outNames := make(map[string]bool, len(out))
	for _, c := range out {
		if outNames[strings.ToUpper(c.Name)] {
			return nil, fmt.Errorf("schema: duplicate output column %s; use AS to disambiguate", c.Name)
		}
		outNames[strings.ToUpper(c.Name)] = true
	}

	for i := range qb.GroupBy {
		col, _, err := r.column(qb.GroupBy[i])
		if err != nil {
			return nil, err
		}
		qb.GroupBy[i] = col
	}
	if hasAgg {
		// Every plain select column must appear in GROUP BY.
		for _, item := range qb.Select {
			if item.IsAggregate() {
				continue
			}
			found := false
			for _, g := range qb.GroupBy {
				if g == item.Col {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("schema: column %s must appear in GROUP BY when aggregates are selected", item.Col)
			}
		}
	} else if len(qb.GroupBy) > 0 {
		return nil, fmt.Errorf("schema: GROUP BY without an aggregate in the SELECT clause is not supported")
	}

	for _, p := range qb.Where {
		if err := r.predicate(p); err != nil {
			return nil, err
		}
	}
	if err := r.resolveHaving(qb, out, hasAgg); err != nil {
		return nil, err
	}
	if err := r.resolveOrderBy(qb, out); err != nil {
		return nil, err
	}
	return out, nil
}

// resolveHaving maps each HAVING key to a SELECT-list position by output
// name and type-checks the literal.
func (r *resolver) resolveHaving(qb *ast.QueryBlock, out []OutputCol, hasAgg bool) error {
	if len(qb.Having) == 0 {
		return nil
	}
	if !hasAgg {
		return fmt.Errorf("schema: HAVING requires an aggregate query")
	}
	for i := range qb.Having {
		h := &qb.Having[i]
		if h.Col.Table != "" {
			return fmt.Errorf("schema: HAVING references output columns by name; %s is qualified", h.Col)
		}
		pos := -1
		for j, c := range out {
			if strings.EqualFold(c.Name, h.Col.Column) {
				pos = j
				break
			}
		}
		if pos < 0 {
			return fmt.Errorf("schema: HAVING column %s must name an output column", h.Col)
		}
		h.Pos = pos
		if typeClass(out[pos].Type) != typeClass(h.Val.Kind()) && h.Val.Kind() != value.KindNull {
			return fmt.Errorf("schema: HAVING cannot compare %s with %s", out[pos].Type, h.Val.Kind())
		}
	}
	return nil
}

// column resolves a reference to its qualified form and type.
func (r *resolver) column(c ast.ColumnRef) (ast.ColumnRef, value.Kind, error) {
	if c.Column == "" {
		return c, 0, fmt.Errorf("schema: empty column reference")
	}
	if c.Table != "" {
		for i := len(r.scopes) - 1; i >= 0; i-- {
			f := r.scopes[i]
			for j, b := range f.bindings {
				if strings.EqualFold(b, c.Table) {
					idx := f.rels[j].ColumnIndex(c.Column)
					if idx < 0 {
						return c, 0, fmt.Errorf("schema: relation %s has no column %s", b, c.Column)
					}
					return ast.ColumnRef{Table: b, Column: f.rels[j].Columns[idx].Name},
						f.rels[j].Columns[idx].Type, nil
				}
			}
		}
		return c, 0, fmt.Errorf("schema: unknown table %s in reference %s", c.Table, c)
	}
	for i := len(r.scopes) - 1; i >= 0; i-- {
		f := r.scopes[i]
		var hit ast.ColumnRef
		var typ value.Kind
		matches := 0
		for j, b := range f.bindings {
			if idx := f.rels[j].ColumnIndex(c.Column); idx >= 0 {
				matches++
				hit = ast.ColumnRef{Table: b, Column: f.rels[j].Columns[idx].Name}
				typ = f.rels[j].Columns[idx].Type
			}
		}
		if matches > 1 {
			return c, 0, fmt.Errorf("schema: ambiguous column %s", c.Column)
		}
		if matches == 1 {
			return hit, typ, nil
		}
	}
	return c, 0, fmt.Errorf("schema: unknown column %s", c.Column)
}

func (r *resolver) predicate(p ast.Predicate) (err error) {
	ast.Leaves(p, func(leaf ast.Predicate) bool {
		err = r.leaf(leaf)
		return err == nil
	})
	return err
}

// leaf resolves one leaf of a predicate (see ast.Leaves) in place.
func (r *resolver) leaf(p ast.Predicate) error {
	switch p := p.(type) {
	case *ast.Comparison:
		lt, err := r.expr(&p.Left)
		if err != nil {
			return err
		}
		rt, err := r.expr(&p.Right)
		if err != nil {
			return err
		}
		return r.checkComparable(&p.Left, lt, &p.Right, rt)
	case *ast.InPred:
		return r.setComparison(&p.Left, p.Sub, "IN")
	case *ast.ExistsPred:
		_, err := r.block(p.Sub)
		return err
	case *ast.QuantPred:
		return r.setComparison(&p.Left, p.Sub, "quantified")
	default:
		return fmt.Errorf("schema: unknown predicate type %T", p)
	}
}

// setComparison resolves the left operand of IN or of a quantified
// comparison, and the block it is compared with, which must select one
// column of a comparable type.
func (r *resolver) setComparison(left *ast.Expr, sub *ast.QueryBlock, what string) error {
	lt, err := r.expr(left)
	if err != nil {
		return err
	}
	out, err := r.block(sub)
	if err != nil {
		return err
	}
	if len(out) != 1 {
		return fmt.Errorf("schema: %s subquery must select exactly one column, got %d", what, len(out))
	}
	var dummy ast.Expr = ast.Const{Val: value.Null}
	return r.checkComparable(left, lt, &dummy, out[0].Type)
}

// expr resolves an expression in place and returns its type.
func (r *resolver) expr(e *ast.Expr) (value.Kind, error) {
	switch ex := (*e).(type) {
	case ast.ColumnRef:
		col, typ, err := r.column(ex)
		if err != nil {
			return 0, err
		}
		*e = col
		return typ, nil
	case ast.Const:
		return ex.Val.Kind(), nil
	case *ast.Subquery:
		out, err := r.block(ex.Block)
		if err != nil {
			return 0, err
		}
		if len(out) != 1 {
			return 0, fmt.Errorf("schema: scalar subquery must select exactly one column, got %d", len(out))
		}
		return out[0].Type, nil
	default:
		return 0, fmt.Errorf("schema: unknown expression type %T", ex)
	}
}

// typeClass groups kinds into comparability classes.
func typeClass(k value.Kind) string {
	switch k {
	case value.KindInt, value.KindFloat:
		return "numeric"
	case value.KindString:
		return "string"
	case value.KindDate:
		return "date"
	case value.KindNull:
		return "null"
	default:
		return "?"
	}
}

// checkComparable verifies two expression types can be compared, coercing a
// string literal to a date when compared against a date (the paper writes
// dates bare, but users may quote them).
func (r *resolver) checkComparable(le *ast.Expr, lt value.Kind, re *ast.Expr, rt value.Kind) error {
	coerce := func(e *ast.Expr, k value.Kind) value.Kind {
		c, ok := (*e).(ast.Const)
		if !ok || c.Val.Kind() != value.KindString || k != value.KindDate {
			return 0
		}
		d, err := value.ParseDate(c.Val.Str())
		if err != nil {
			return 0
		}
		*e = ast.Const{Val: value.NewDateValue(d)}
		return value.KindDate
	}
	if k := coerce(le, rt); k != 0 {
		lt = k
	}
	if k := coerce(re, lt); k != 0 {
		rt = k
	}
	lc, rc := typeClass(lt), typeClass(rt)
	if lc == "null" || rc == "null" || lc == rc {
		return nil
	}
	return fmt.Errorf("schema: cannot compare %s with %s", lt, rt)
}
