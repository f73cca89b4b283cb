package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/value"
)

// Parse parses a single SQL statement (optionally terminated by a
// semicolon) into a query block tree. It never panics on any input: deep
// nesting is rejected by maxParseDepth and residual parser bugs are
// converted to errors by recoverParse.
func Parse(src string) (qb *ast.QueryBlock, err error) {
	defer recoverParse(&err)
	p := &parser{lx: &lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	qb, err = p.parseQueryBlock()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokSemi {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("unexpected %s after end of statement", p.tok.kind)
	}
	return qb, nil
}

// MustParse is Parse for statically-known query text; it panics on error.
// Tests and the workload generators use it for the paper's literal queries.
func MustParse(src string) *ast.QueryBlock {
	qb, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return qb
}

type parser struct {
	lx    *lexer
	tok   token
	depth int
}

// maxParseDepth bounds subquery/predicate nesting and AND/OR chain length
// (a long chain builds an equally deep left-leaning tree that later tree
// walks recurse over). Go cannot recover from stack overflow, so input
// like a megabyte of '(' must be rejected by budget, not contained.
const maxParseDepth = 512

// enter charges one level of nesting; exit with p.depth-- or by restoring
// a saved depth.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return p.errorf("query exceeds maximum nesting depth %d", maxParseDepth)
	}
	return nil
}

// recoverParse converts a parser panic into an error at the public entry
// points. No code path is known to panic — the depth budget handles the
// one class recover cannot (stack overflow) — but user input must never
// take the process down, so the net stays.
func recoverParse(err *error) {
	if v := recover(); v != nil {
		*err = fmt.Errorf("sql: internal parser error: %v", v)
	}
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return p.lx.errorAt(p.tok.pos, format, args...)
}

// expectKeyword consumes the given keyword or fails.
func (p *parser) expectKeyword(kw string) error {
	if p.tok.kind != tokKeyword || p.tok.text != kw {
		return p.errorf("expected %s, found %q", kw, p.tok.text)
	}
	return p.advance()
}

func (p *parser) atKeyword(kw string) bool {
	return p.tok.kind == tokKeyword && p.tok.text == kw
}

// parseQueryBlock parses SELECT [DISTINCT] items FROM tables
// [WHERE predicates] [GROUP BY columns].
func (p *parser) parseQueryBlock() (*ast.QueryBlock, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	qb := &ast.QueryBlock{}
	if p.atKeyword("DISTINCT") {
		qb.Distinct = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		qb.Select = append(qb.Select, item)
		if p.tok.kind != tokComma {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		qb.From = append(qb.From, tr)
		if p.tok.kind != tokComma {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.atKeyword("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		preds, err := p.parseWhere()
		if err != nil {
			return nil, err
		}
		qb.Where = preds
	}
	if p.atKeyword("GROUP") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			qb.GroupBy = append(qb.GroupBy, col)
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.atKeyword("HAVING") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			h, err := p.parseHavingPred()
			if err != nil {
				return nil, err
			}
			qb.Having = append(qb.Having, h)
			if !p.atKeyword("AND") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.atKeyword("ORDER") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			item := ast.OrderItem{Col: col}
			if p.atKeyword("ASC") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else if p.atKeyword("DESC") {
				item.Desc = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			qb.OrderBy = append(qb.OrderBy, item)
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	return qb, nil
}

// parseHavingPred parses one HAVING conjunct: COLUMN op LITERAL, where
// COLUMN names an output column of the block (alias, aggregate name, or
// grouping column).
func (p *parser) parseHavingPred() (ast.HavingPred, error) {
	col, err := p.parseColumnRef()
	if err != nil {
		return ast.HavingPred{}, err
	}
	if p.tok.kind != tokOp {
		return ast.HavingPred{}, p.errorf("expected comparison operator in HAVING, found %q", p.tok.text)
	}
	op, err := compareOpOf(strings.TrimSuffix(p.tok.text, "+"))
	if err != nil {
		return ast.HavingPred{}, p.errorf("%v", err)
	}
	if err := p.advance(); err != nil {
		return ast.HavingPred{}, err
	}
	if p.atKeyword("NULL") {
		if err := p.advance(); err != nil {
			return ast.HavingPred{}, err
		}
		return ast.HavingPred{Col: col, Op: op, Val: value.Null}, nil
	}
	operand, err := p.parseOperand()
	if err != nil {
		return ast.HavingPred{}, err
	}
	c, ok := operand.(ast.Const)
	if !ok {
		return ast.HavingPred{}, p.errorf("HAVING compares an output column to a literal")
	}
	return ast.HavingPred{Col: col, Op: op, Val: c.Val}, nil
}

// parseSelectItem parses a plain column or an aggregate call, with an
// optional AS alias.
func (p *parser) parseSelectItem() (ast.SelectItem, error) {
	var item ast.SelectItem
	if p.tok.kind != tokIdent {
		return item, p.errorf("expected select item, found %q", p.tok.text)
	}
	name := p.tok.text
	if err := p.advance(); err != nil {
		return item, err
	}
	if p.tok.kind == tokLParen {
		fn, ok := value.AggFuncByName(name)
		if !ok {
			return item, p.errorf("unknown function %q", name)
		}
		if err := p.advance(); err != nil {
			return item, err
		}
		if p.tok.kind == tokStar {
			if fn != value.AggCount {
				return item, p.errorf("%s(*) is not valid; only COUNT(*) is", strings.ToUpper(name))
			}
			item.Agg = value.AggCountStar
			if err := p.advance(); err != nil {
				return item, err
			}
		} else {
			col, err := p.parseColumnRef()
			if err != nil {
				return item, err
			}
			item.Agg = fn
			item.Col = col
		}
		if p.tok.kind != tokRParen {
			return item, p.errorf("expected ')' after aggregate argument, found %q", p.tok.text)
		}
		if err := p.advance(); err != nil {
			return item, err
		}
	} else {
		col := ast.ColumnRef{Column: name}
		if p.tok.kind == tokDot {
			if err := p.advance(); err != nil {
				return item, err
			}
			if p.tok.kind != tokIdent {
				return item, p.errorf("expected column name after '.', found %q", p.tok.text)
			}
			col = ast.ColumnRef{Table: name, Column: p.tok.text}
			if err := p.advance(); err != nil {
				return item, err
			}
		}
		item.Col = col
	}
	if p.atKeyword("AS") {
		if err := p.advance(); err != nil {
			return item, err
		}
		if p.tok.kind != tokIdent {
			return item, p.errorf("expected alias after AS, found %q", p.tok.text)
		}
		item.As = p.tok.text
		if err := p.advance(); err != nil {
			return item, err
		}
	}
	return item, nil
}

// parseTableRef parses a relation name with an optional alias.
func (p *parser) parseTableRef() (ast.TableRef, error) {
	if p.tok.kind != tokIdent {
		return ast.TableRef{}, p.errorf("expected table name, found %q", p.tok.text)
	}
	tr := ast.TableRef{Relation: p.tok.text}
	if err := p.advance(); err != nil {
		return tr, err
	}
	if p.tok.kind == tokIdent {
		// "FROM M M" binds exactly as "FROM M" does and renders as it.
		if p.tok.text != tr.Relation {
			tr.Alias = p.tok.text
		}
		if err := p.advance(); err != nil {
			return tr, err
		}
	}
	return tr, nil
}

// parseColumnRef parses NAME or TABLE.NAME.
func (p *parser) parseColumnRef() (ast.ColumnRef, error) {
	if p.tok.kind != tokIdent {
		return ast.ColumnRef{}, p.errorf("expected column reference, found %q", p.tok.text)
	}
	first := p.tok.text
	if err := p.advance(); err != nil {
		return ast.ColumnRef{}, err
	}
	if p.tok.kind == tokDot {
		if err := p.advance(); err != nil {
			return ast.ColumnRef{}, err
		}
		if p.tok.kind != tokIdent {
			return ast.ColumnRef{}, p.errorf("expected column name after '.', found %q", p.tok.text)
		}
		col := ast.ColumnRef{Table: first, Column: p.tok.text}
		return col, p.advance()
	}
	return ast.ColumnRef{Column: first}, nil
}

// parseWhere parses the WHERE clause: a disjunction of conjunctions, with
// top-level ANDs flattened into the conjunct list the transformation
// algorithms operate on. AND under OR or NOT stays as an AndPred node.
func (p *parser) parseWhere() ([]ast.Predicate, error) {
	pred, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	return flattenAnd(pred), nil
}

func flattenAnd(p ast.Predicate) []ast.Predicate {
	if a, ok := p.(*ast.AndPred); ok {
		return append(flattenAnd(a.Left), flattenAnd(a.Right)...)
	}
	return []ast.Predicate{p}
}

func (p *parser) parseOr() (ast.Predicate, error) {
	start := p.depth
	defer func() { p.depth = start }()
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("OR") {
		if err := p.enter(); err != nil { // each chain link deepens the tree
			return nil, err
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &ast.OrPred{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (ast.Predicate, error) {
	start := p.depth
	defer func() { p.depth = start }()
	left, err := p.parsePrimaryPred()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("AND") {
		if err := p.enter(); err != nil { // each chain link deepens the tree
			return nil, err
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parsePrimaryPred()
		if err != nil {
			return nil, err
		}
		left = &ast.AndPred{Left: left, Right: right}
	}
	return left, nil
}

// parsePrimaryPred parses NOT pred, a parenthesized predicate, EXISTS, or a
// comparison / IN predicate.
func (p *parser) parsePrimaryPred() (ast.Predicate, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	if p.atKeyword("NOT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.atKeyword("EXISTS") {
			ex, err := p.parseExists()
			if err != nil {
				return nil, err
			}
			ex.(*ast.ExistsPred).Negated = true
			return ex, nil
		}
		inner, err := p.parsePrimaryPred()
		if err != nil {
			return nil, err
		}
		return &ast.NotPred{P: inner}, nil
	}
	if p.atKeyword("EXISTS") {
		return p.parseExists()
	}
	if p.tok.kind == tokLParen {
		// Either a parenthesized predicate or a subquery as the left
		// operand of a comparison. Distinguish by peeking for SELECT.
		save := *p.lx
		savedTok := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.atKeyword("SELECT") {
			*p.lx = save
			p.tok = savedTok
			left, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			return p.parsePredTail(left)
		}
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, p.errorf("expected ')', found %q", p.tok.text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return inner, nil
	}
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return p.parsePredTail(left)
}

func (p *parser) parseExists() (ast.Predicate, error) {
	if err := p.advance(); err != nil { // consume EXISTS
		return nil, err
	}
	sub, err := p.parseSubquery()
	if err != nil {
		return nil, err
	}
	return &ast.ExistsPred{Sub: sub}, nil
}

// parsePredTail parses the operator and right side of a predicate whose
// left operand is already parsed: a comparison (possibly quantified with
// ANY/ALL), or [IS] [NOT] IN (subquery).
func (p *parser) parsePredTail(left ast.Expr) (ast.Predicate, error) {
	// IS [NOT] IN — the System R spelling used throughout the paper.
	if p.atKeyword("IS") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		negated := false
		if p.atKeyword("NOT") {
			negated = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if !p.atKeyword("IN") {
			return nil, p.errorf("expected IN after IS, found %q", p.tok.text)
		}
		return p.parseIn(left, negated)
	}
	if p.atKeyword("NOT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.atKeyword("IN") {
			return nil, p.errorf("expected IN after NOT, found %q", p.tok.text)
		}
		return p.parseIn(left, true)
	}
	if p.atKeyword("IN") {
		return p.parseIn(left, false)
	}
	if p.tok.kind != tokOp {
		return nil, p.errorf("expected comparison operator or IN, found %q", p.tok.text)
	}
	opText := p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	outer := strings.HasSuffix(opText, "+")
	op, err := compareOpOf(strings.TrimSuffix(opText, "+"))
	if err != nil {
		return nil, p.errorf("%v", err)
	}
	if p.atKeyword("ANY") || p.atKeyword("ALL") {
		quant := ast.Any
		if p.tok.text == "ALL" {
			quant = ast.All
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if outer {
			return nil, p.errorf("outer-join operator cannot be quantified")
		}
		sub, err := p.parseSubquery()
		if err != nil {
			return nil, err
		}
		return &ast.QuantPred{Left: left, Op: op, Quant: quant, Sub: sub}, nil
	}
	right, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return &ast.Comparison{Left: left, Op: op, Right: right, LeftOuter: outer}, nil
}

func (p *parser) parseIn(left ast.Expr, negated bool) (ast.Predicate, error) {
	if err := p.advance(); err != nil { // consume IN
		return nil, err
	}
	sub, err := p.parseSubquery()
	if err != nil {
		return nil, err
	}
	return &ast.InPred{Left: left, Sub: sub, Negated: negated}, nil
}

// parseSubquery parses '(' query block ')'.
func (p *parser) parseSubquery() (*ast.QueryBlock, error) {
	if p.tok.kind != tokLParen {
		return nil, p.errorf("expected '(' before subquery, found %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	qb, err := p.parseQueryBlock()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokRParen {
		return nil, p.errorf("expected ')' after subquery, found %q", p.tok.text)
	}
	return qb, p.advance()
}

// parseOperand parses a scalar operand: column reference, literal, or
// parenthesized scalar subquery.
func (p *parser) parseOperand() (ast.Expr, error) {
	switch p.tok.kind {
	case tokIdent:
		return p.parseColumnRef()
	case tokNumber:
		text := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if strings.Contains(text, ".") {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: bad number %q: %v", text, err)
			}
			return ast.Const{Val: value.NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad number %q: %v", text, err)
		}
		return ast.Const{Val: value.NewInt(n)}, nil
	case tokString:
		text := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		// A quoted literal that parses as a date is a date (the paper
		// quotes part numbers like 'P2' but writes dates bare; accepting
		// quoted dates too costs nothing and reads naturally).
		if d, err := value.ParseDate(text); err == nil {
			return ast.Const{Val: value.NewDateValue(d)}, nil
		}
		return ast.Const{Val: value.NewString(text)}, nil
	case tokDate:
		d, err := value.ParseDate(p.tok.text)
		if err != nil {
			return nil, p.errorf("bad date literal %q: %v", p.tok.text, err)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return ast.Const{Val: value.NewDateValue(d)}, nil
	case tokLParen:
		sub, err := p.parseSubquery()
		if err != nil {
			return nil, err
		}
		return &ast.Subquery{Block: sub}, nil
	default:
		return nil, p.errorf("expected operand, found %q", p.tok.text)
	}
}

func compareOpOf(s string) (value.CompareOp, error) {
	switch s {
	case "=":
		return value.OpEq, nil
	case "!=":
		return value.OpNe, nil
	case "<":
		return value.OpLt, nil
	case "<=":
		return value.OpLe, nil
	case ">":
		return value.OpGt, nil
	case ">=":
		return value.OpGe, nil
	case "<=>":
		return value.OpEqNull, nil
	default:
		return 0, fmt.Errorf("unknown comparison operator %q", s)
	}
}
