package exec

import (
	"repro/internal/ast"
	"repro/internal/qctx"
	"repro/internal/storage"
	"repro/internal/value"
)

// Quantifier is a nested predicate a plan keeps — EXISTS, NOT EXISTS,
// x θ ANY S or x NOT IN S over a flat inner block — decided by a
// quantified join: for each left row, the relevant right rows are those
// matching its join key (if the join has one) and satisfying Corr, and the
// join emits the left row alone, exactly once, when the predicate is TRUE
// over them. The rows are folded by nested iteration's own rule
// (quantified): EXISTS holds once a relevant row exists, x θ ANY S once
// some x θ s is TRUE, and NOT IN S is NOT (x = ANY S), so it is TRUE over
// no relevant rows, even for a NULL operand, and UNKNOWN, rejecting the
// row, when nothing matches but a NULL is involved.
//
// The forms are ParallelHashJoin (the inner side hashed on the key),
// MergeJoin (both sides sorted on it) and AntiJoin (no key: the inner side
// re-scanned per left row); each sets its Quant.
type Quantifier struct {
	// Corr filters a key match (or, in an AntiJoin, any right row) to the
	// relevant ones, evaluated over the concatenated (left ++ right) row;
	// nil means every one is relevant. UNKNOWN is not relevant.
	Corr RowPred
	// Operand extracts x from a left row for θ ANY and NOT IN; nil for
	// EXISTS and NOT EXISTS.
	Operand func(storage.Tuple) value.Value
	// Op is θ (= for NOT IN), comparing x with column Member of a right
	// row.
	Op     value.CompareOp
	Member int
	// Negated is NOT EXISTS and NOT IN.
	Negated bool
	// Form names the predicate for EXPLAIN: EXISTS, NOT EXISTS, < ANY, NOT IN.
	Form string
}

// decision folds the relevant right rows of one left row: start it per
// left row, offer it the candidate rows with see until see reports the
// predicate decided, then ask keep.
type decision struct {
	q    *Quantifier
	left storage.Tuple
	x    value.Value
	fold quantified    // x θ ANY the relevant members; EXISTS: any relevant row
	pair storage.Tuple // scratch: left ++ the right row under Corr
}

func (d *decision) start(l storage.Tuple) {
	d.left, d.fold = l, quantified{}
	if d.q.Operand != nil {
		d.x = d.q.Operand(l)
	}
	if d.q.Corr != nil {
		d.pair = append(d.pair[:0], l...)
	}
}

// see folds right row r when it is relevant, and reports whether the
// predicate is decided: a TRUE member (or, for EXISTS, a relevant row)
// settles it whatever rows follow.
func (d *decision) see(r storage.Tuple) (bool, error) {
	if d.q.Corr != nil {
		d.pair = append(d.pair[:len(d.left)], r...)
		if ok, err := d.q.Corr(d.pair); err != nil || !ok {
			return false, err
		}
	}
	if d.q.Operand == nil {
		d.fold.anyTrue = true
	} else if err := d.fold.see(&d.x, d.q.Op, &r[d.q.Member]); err != nil {
		return false, err
	}
	return d.fold.anyTrue, nil
}

// keep reports whether the predicate is TRUE for the left row.
func (d *decision) keep() bool {
	t := d.fold.tri(ast.Any)
	if d.q.Negated {
		t = t.Not()
	}
	return t.IsTrue()
}

// AntiJoin is the quantified join with no key: the right side is a
// materialized file re-scanned per left row through the buffer pool, like
// NestedLoopJoin. It decides NOT IN against an uncorrelated inner block or
// one correlated by range only, and any quantified predicate under a
// forced nested-loops join. NOT IN is an extension beyond the paper, which
// leaves anti-joins out of its algorithms (section 8 rewrites != ANY to
// NOT IN and stops there).
type AntiJoin struct {
	Left     Operator
	Right    *storage.HeapFile
	RightSch RowSchema
	Quant    *Quantifier
	// QC, when set, is checked once per left row — each left row can cost
	// a full scan of the right side.
	QC *qctx.QueryContext

	d decision
}

// Open prepares the left child.
func (a *AntiJoin) Open() error {
	a.d = decision{q: a.Quant}
	return a.Left.Open()
}

// Next emits the next qualifying left row.
func (a *AntiJoin) Next() (storage.Tuple, bool, error) {
	for {
		if err := a.QC.Check(); err != nil {
			return nil, false, err
		}
		l, ok, err := a.Left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		keep, err := a.qualifies(l)
		if err != nil {
			return nil, false, err
		}
		if keep {
			return l, true, nil
		}
	}
}

// qualifies decides l's predicate, reading the right side up to the page
// that settled it.
func (a *AntiJoin) qualifies(l storage.Tuple) (bool, error) {
	a.d.start(l)
	for pg := 0; pg < a.Right.NumPages(); pg++ {
		for _, r := range a.Right.ReadPage(pg) {
			if done, err := a.d.see(r); err != nil || done {
				return a.d.keep(), err
			}
		}
	}
	return a.d.keep(), nil
}

// Close closes the left child.
func (a *AntiJoin) Close() error { return a.Left.Close() }

// Schema is the left schema: a quantified join filters, never widens.
func (a *AntiJoin) Schema() RowSchema { return a.Left.Schema() }

// quantRows builds a quantified join's rows: columns out (nil: all) of
// the left row alone, which an append copies.
func quantRows(out []int, left RowSchema) rowBuilder {
	if out == nil {
		out = Identity(len(left))
	}
	return newRowBuilder(out, left, nil)
}

// quantSchema is the schema of a quantified join's rows.
func quantSchema(out []int, left RowSchema) RowSchema {
	if out == nil {
		return left
	}
	return outSchema(out, left, nil)
}

// String is q's Form, "" for no quantifier.
func (q *Quantifier) String() string {
	if q == nil {
		return ""
	}
	return q.Form
}
