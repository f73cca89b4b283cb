package exec

import (
	"repro/internal/ast"
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
// MergeJoin (both sides sorted on it) and NestedLoopJoin (the inner side
// stored and re-read per left row, with or without a key); each sets its
// Quant.
type Quantifier struct {
	// Corr filters a key match (or, in a NestedLoopJoin, any right row) to
	// the relevant ones, evaluated over the concatenated (left ++ right) row;
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
