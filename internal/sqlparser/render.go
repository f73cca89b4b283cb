package sqlparser

import (
	"strings"

	"repro/internal/ast"
)

// DML statements render back to parseable SQL text: the write-ahead log
// stores DELETE and UPDATE records logically (the statement, not the
// row images), and replays them by re-parsing. Predicates reuse the ast
// String renderers the EXPLAIN traces use, and every literal — in a
// predicate, a SET clause or a VALUES row — goes through
// value.Value.Literal, the one form the lexer reads back unchanged.

// String renders the statement as parseable SQL.
func (s *DeleteStmt) String() string {
	var b strings.Builder
	b.WriteString("DELETE FROM ")
	b.WriteString(s.Table)
	writeWhere(&b, s.Where)
	return b.String()
}

// String renders the statement as parseable SQL.
func (s *UpdateStmt) String() string {
	var b strings.Builder
	b.WriteString("UPDATE ")
	b.WriteString(s.Table)
	b.WriteString(" SET ")
	for i, sc := range s.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(sc.Column)
		b.WriteString(" = ")
		b.WriteString(sc.Val.Literal())
	}
	writeWhere(&b, s.Where)
	return b.String()
}

// String renders the statement as parseable SQL.
func (s *DropTableStmt) String() string {
	return "DROP TABLE " + s.Table
}

// String renders the statement as parseable SQL.
func (s *InsertStmt) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(s.Table)
	b.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, v := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(v.Literal())
		}
		b.WriteByte(')')
	}
	return b.String()
}

func writeWhere(b *strings.Builder, where []ast.Predicate) {
	for i, p := range where {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		b.WriteString(p.String())
	}
}
