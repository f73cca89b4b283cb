package engine

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
)

// Exec runs a script of semicolon-separated statements: CREATE TABLE,
// INSERT INTO, DELETE FROM, UPDATE, and SELECT. The returned result is
// the last SELECT's (with Affected accumulating every DML statement's
// row count), or a bare Result carrying only Affected when the script
// has no SELECT. DDL and DML take effect immediately; a failing
// statement aborts the script with prior statements applied (no
// transactional rollback — the paper's world has none either). With
// durability enabled each DML statement is acknowledged only once its
// commit record is durable.
func (db *DB) Exec(script string, opts Options) (*Result, error) {
	stmts, err := sqlparser.ParseScript(script)
	if err != nil {
		return nil, err
	}
	return db.execStmts(stmts, opts)
}

// ExecSQL is the statement entry point for the network server: it
// accepts any statement kind, and a lone SELECT streams through the
// query path (admission, sinks, strategies) exactly as Query runs it.
func (db *DB) ExecSQL(sql string, opts Options) (*Result, error) {
	return db.Exec(sql, opts)
}

// execStmts runs parsed statements in order; SELECTs go to the query
// path as the blocks they already are.
func (db *DB) execStmts(stmts []sqlparser.Statement, opts Options) (*Result, error) {
	var last *Result
	var affected int64
	for _, stmt := range stmts {
		var n int
		var err error
		dml := func(fn func() (int, error)) {
			err = contain(func() (e error) { n, e = fn(); return e })
		}
		switch stmt := stmt.(type) {
		case *sqlparser.CreateTableStmt:
			err = db.CreateRelation(stmt.Relation, 0)
		case *sqlparser.InsertStmt:
			dml(func() (int, error) { return db.execInsert(stmt) })
		case *sqlparser.DeleteStmt:
			dml(func() (int, error) { return db.execDelete(stmt) })
		case *sqlparser.UpdateStmt:
			dml(func() (int, error) { return db.execUpdate(stmt) })
		case *sqlparser.DropTableStmt:
			err = contain(func() error { return db.DropRelation(stmt.Table) })
		case *sqlparser.SelectStmt:
			last, err = db.queryBlock(stmt.Query, opts)
		default:
			err = fmt.Errorf("engine: unsupported statement %T", stmt)
		}
		if err != nil {
			return nil, err
		}
		affected += int64(n)
	}
	if last == nil {
		last = &Result{Strategy: opts.Strategy}
	}
	last.Affected = affected
	return last, nil
}

// execInsert coerces every row's literals against the table schema and
// appends the rows as one batch — with durability enabled, one commit
// record.
func (db *DB) execInsert(stmt *sqlparser.InsertStmt) (int, error) {
	rel, ok := db.cat.Lookup(stmt.Table)
	if !ok {
		return 0, fmt.Errorf("engine: unknown relation %s", stmt.Table)
	}
	rows := make([]storage.Tuple, len(stmt.Rows))
	for ri, row := range stmt.Rows {
		t, err := CoerceInsertRow(rel, row)
		if err != nil {
			return 0, err
		}
		rows[ri] = t
	}
	if err := db.Insert(rel.Name, rows...); err != nil {
		return 0, err
	}
	return len(rows), db.Seal(stmt.Table)
}

// CoerceInsertRow is INSERT literal coercion: one row of literals becomes
// the tuple rel stores (string→date for DATE columns, int→float for FLOAT
// ones), or an error naming the column that cannot hold its literal. A
// cluster coordinator calls it before hashing a row for placement: the
// hash must be taken over the value a worker will store, not the raw
// literal, or co-location silently breaks for DATE keys.
func CoerceInsertRow(rel *schema.Relation, row []value.Value) (storage.Tuple, error) {
	if len(row) != len(rel.Columns) {
		return nil, fmt.Errorf("engine: INSERT row has %d values, %s has %d columns",
			len(row), rel.Name, len(rel.Columns))
	}
	t := make(storage.Tuple, len(row))
	for i, v := range row {
		cv, err := coerceInsertValue(v, rel.Columns[i].Type)
		if err != nil {
			return nil, fmt.Errorf("engine: column %s of %s: %w", rel.Columns[i].Name, rel.Name, err)
		}
		t[i] = cv
	}
	return t, nil
}

// Load appends already-typed rows on behalf of a peer node: a
// coordinator's routed INSERT, shuffle landing and snapshot re-ship
// arrive as rows (a wire Load frame), not as SQL to lex, parse and
// coerce. The batch is outside input, so it is checked against the
// catalog first — the table's column names in order, every value NULL
// or of its column's kind — and then commits and seals exactly as an
// INSERT statement does.
func (db *DB) Load(table string, cols []string, rows []storage.Tuple) error {
	rel, ok := db.cat.Lookup(table)
	if !ok {
		return fmt.Errorf("engine: unknown relation %s", table)
	}
	if len(cols) != len(rel.Columns) {
		return fmt.Errorf("engine: load names %d columns, %s has %d", len(cols), rel.Name, len(rel.Columns))
	}
	for i, c := range rel.Columns {
		if !strings.EqualFold(cols[i], c.Name) {
			return fmt.Errorf("engine: load column %d is %s, %s has %s", i, cols[i], rel.Name, c.Name)
		}
	}
	for _, row := range rows {
		for i, v := range row {
			if i < len(rel.Columns) && !v.IsNull() && v.Kind() != rel.Columns[i].Type {
				return fmt.Errorf("engine: column %s of %s: cannot store %s into %s column",
					rel.Columns[i].Name, rel.Name, v.Kind(), rel.Columns[i].Type)
			}
		}
	}
	return contain(func() error {
		if err := db.Insert(rel.Name, rows...); err != nil {
			return err
		}
		return db.Seal(rel.Name)
	})
}

// resolveDMLWhere resolves a DELETE/UPDATE WHERE clause by wrapping it in
// a synthetic SELECT over the target relation, returning the relation, its
// row schema, and the resolved predicates.
func (db *DB) resolveDMLWhere(table string, where []ast.Predicate) (*schema.Relation, exec.RowSchema, []ast.Predicate, error) {
	rel, ok := db.cat.Lookup(table)
	if !ok {
		return nil, nil, nil, fmt.Errorf("engine: unknown relation %s", table)
	}
	qb := &ast.QueryBlock{
		Select: []ast.SelectItem{{Col: ast.ColumnRef{Table: rel.Name, Column: rel.Columns[0].Name}}},
		From:   []ast.TableRef{{Relation: rel.Name}},
		Where:  where,
	}
	if _, err := schema.Resolve(db.cat, qb); err != nil {
		return nil, nil, nil, err
	}
	sch := make(exec.RowSchema, len(rel.Columns))
	for i, c := range rel.Columns {
		sch[i] = exec.ColID{Table: rel.Name, Column: c.Name}
	}
	return rel, sch, qb.Where, nil
}

// execDelete removes the rows matching the WHERE clause (all rows when it
// is absent), returning the count.
func (db *DB) execDelete(stmt *sqlparser.DeleteStmt) (int, error) {
	drop := func(storage.Tuple) (storage.Tuple, bool) { return nil, false }
	return db.applyDML(stmt.Table, stmt.Where, wal.RecDelete, stmt.String, drop)
}

// execUpdate assigns the SET literals to the rows matching the WHERE
// clause, returning the count.
func (db *DB) execUpdate(stmt *sqlparser.UpdateStmt) (int, error) {
	rel, ok := db.cat.Lookup(stmt.Table)
	if !ok {
		return 0, fmt.Errorf("engine: unknown relation %s", stmt.Table)
	}
	type setIdx struct {
		pos int
		val value.Value
	}
	sets := make([]setIdx, len(stmt.Set))
	for i, sc := range stmt.Set {
		pos := rel.ColumnIndex(sc.Column)
		if pos < 0 {
			return 0, fmt.Errorf("engine: relation %s has no column %s", rel.Name, sc.Column)
		}
		v, err := coerceInsertValue(sc.Val, rel.Columns[pos].Type)
		if err != nil {
			return 0, fmt.Errorf("engine: column %s: %w", sc.Column, err)
		}
		sets[i] = setIdx{pos: pos, val: v}
	}
	assign := func(t storage.Tuple) (storage.Tuple, bool) {
		nt := t.Clone()
		for _, si := range sets {
			nt[si.pos] = si.val
		}
		return nt, true
	}
	return db.applyDML(stmt.Table, stmt.Where, wal.RecUpdate, stmt.String, assign)
}

// applyDML is the one DELETE/UPDATE body: every row the WHERE clause
// selects (the full dialect, nested subqueries included, evaluated by
// nested iteration) is handed to change, which returns the row that takes
// its place or false to drop it. Decide, apply and log append all happen
// under one hold of the commit lock (see commit), the statement's text
// being what the log replays. It is two-phase — every row is decided
// before Replace swaps the heap file — so an evaluation error or an
// injected storage fault mid-decision leaves the table untouched instead
// of half-rewritten. Statements that touched no rows are not logged.
func (db *DB) applyDML(table string, where []ast.Predicate, rt wal.RecType, sql func() string,
	change func(storage.Tuple) (storage.Tuple, bool)) (n int, err error) {
	rel, sch, where, err := db.resolveDMLWhere(table, where)
	if err != nil {
		return 0, err
	}
	err = db.commit(func() (*wal.Record, error) {
		f, _ := db.store.Lookup(rel.Name)
		ev := exec.NewEvaluator(db.cat, db.store)
		defer ev.Close()
		matches, evalErr := ev.CompileFilter(where, sch)
		if evalErr != nil {
			return nil, evalErr
		}
		var rows []storage.Tuple
		f.Scan(func(t storage.Tuple) bool {
			match, err := matches(t)
			if err != nil {
				evalErr = err
				return false
			}
			keep := true
			if match {
				n++
				t, keep = change(t)
			} else {
				t = t.Clone()
			}
			if keep {
				rows = append(rows, t)
			}
			return true
		})
		if evalErr != nil || n == 0 {
			return nil, evalErr
		}
		f.Replace(rows)
		db.indexes.DropRelation(rel.Name)
		return &wal.Record{Type: rt, SQL: sql()}, nil
	})
	return n, err
}

func coerceInsertValue(v value.Value, want value.Kind) (value.Value, error) {
	if v.IsNull() || v.Kind() == want {
		return v, nil
	}
	switch {
	case want == value.KindDate && v.Kind() == value.KindString:
		d, err := value.ParseDate(v.Str())
		if err != nil {
			return value.Null, err
		}
		return value.NewDateValue(d), nil
	case want == value.KindFloat && v.Kind() == value.KindInt:
		return value.NewFloat(float64(v.Int())), nil
	default:
		return value.Null, fmt.Errorf("cannot store %s into %s column", v.Kind(), want)
	}
}
