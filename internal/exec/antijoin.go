package exec

import (
	"repro/internal/ast"
	"repro/internal/qctx"
	"repro/internal/storage"
	"repro/internal/value"
)

// AntiJoin implements NOT IN with full SQL three-valued semantics — an
// extension beyond the paper, which leaves anti-joins out of its
// algorithms (section 8 rewrites != ANY to NOT IN and stops there). For
// each left row, the relevant right rows are those satisfying the
// correlation predicate, and the left row qualifies exactly when its
// operand NOT IN their membership values is definitely true, folded by
// nested iteration's own rule: TRUE over no relevant rows (even for a
// NULL operand), UNKNOWN (rejecting the row) when nothing matches but a
// NULL is involved.
//
// The right side is a materialized file re-scanned per left row through
// the buffer pool, like NestedLoopJoin.
type AntiJoin struct {
	Left     Operator
	Right    *storage.HeapFile
	RightSch RowSchema
	// Corr filters relevant right rows, evaluated over the concatenated
	// (left ++ right) row; nil means every right row is relevant.
	Corr RowPred
	// LeftVal extracts the membership operand from a left row.
	LeftVal func(storage.Tuple) value.Value
	// MemberCol is the right column holding membership values.
	MemberCol int
	// QC, when set, is checked once per left row — each left row can cost
	// a full scan of the right side.
	QC *qctx.QueryContext

	pair storage.Tuple // scratch: the left row ++ the right row under Corr
}

// Open prepares the left child.
func (a *AntiJoin) Open() error { return a.Left.Open() }

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

// qualifies reports whether l's operand NOT IN its relevant right rows is
// definitely true. It stops reading the right side after the page that
// held a match.
func (a *AntiJoin) qualifies(l storage.Tuple) (bool, error) {
	lv := a.LeftVal(l)
	a.pair = append(a.pair[:0], l...)
	var in quantified // lv = ANY the relevant members
	for pg := 0; pg < a.Right.NumPages() && !in.anyTrue; pg++ {
		for _, r := range a.Right.ReadPage(pg) {
			if a.Corr != nil {
				a.pair = append(a.pair[:len(l)], r...)
				ok, err := a.Corr(a.pair)
				if err != nil {
					return false, err
				}
				if !ok {
					continue
				}
			}
			if err := in.see(&lv, value.OpEq, &r[a.MemberCol]); err != nil {
				return false, err
			}
		}
	}
	return in.tri(ast.Any).Not().IsTrue(), nil
}

// Close closes the left child.
func (a *AntiJoin) Close() error { return a.Left.Close() }

// Schema is the left schema: an anti-join filters, never widens.
func (a *AntiJoin) Schema() RowSchema { return a.Left.Schema() }
