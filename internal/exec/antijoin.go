package exec

import (
	"repro/internal/qctx"
	"repro/internal/storage"
	"repro/internal/value"
)

// AntiJoin implements NOT IN with full SQL three-valued semantics — an
// extension beyond the paper, which leaves anti-joins out of its
// algorithms (section 8 rewrites != ANY to NOT IN and stops there). For
// each left row, the relevant right rows are those satisfying the
// correlation predicate; the left row qualifies exactly when
//
//   - there are no relevant right rows (NOT IN over the empty set is
//     TRUE, even for a NULL operand), or
//   - the membership operand is non-NULL, matches no relevant membership
//     value, and no relevant membership value is NULL (a NULL member
//     makes the predicate UNKNOWN, rejecting the row).
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

func (a *AntiJoin) qualifies(l storage.Tuple) (bool, error) {
	lv := a.LeftVal(l)
	a.pair = append(a.pair[:0], l...)
	relevant, matched, sawNull := 0, false, false
	for pg := 0; pg < a.Right.NumPages(); pg++ {
		for _, r := range a.Right.ReadPage(pg) {
			if a.Corr != nil {
				a.pair = append(a.pair[:len(l)], r...)
				tri, err := a.Corr(a.pair)
				if err != nil {
					return false, err
				}
				if !tri.IsTrue() {
					continue
				}
			}
			relevant++
			mv := r[a.MemberCol]
			if mv.IsNull() {
				sawNull = true
				continue
			}
			if lv.IsNull() {
				continue
			}
			tri, err := value.OpEq.Apply(lv, mv)
			if err != nil {
				return false, err
			}
			if tri.IsTrue() {
				matched = true
			}
		}
		if matched {
			break
		}
	}
	if relevant == 0 {
		return true, nil
	}
	return !matched && !sawNull && !lv.IsNull(), nil
}

// Close closes the left child.
func (a *AntiJoin) Close() error { return a.Left.Close() }

// Schema is the left schema: an anti-join filters, never widens.
func (a *AntiJoin) Schema() RowSchema { return a.Left.Schema() }
