package exec

import (
	"fmt"

	"repro/internal/qctx"
	"repro/internal/spill"
	"repro/internal/storage"
	"repro/internal/value"
)

// concat builds the joined row left ++ right; every join goes through it.
func concat(left, right storage.Tuple) storage.Tuple {
	out := make(storage.Tuple, 0, len(left)+len(right))
	out = append(out, left...)
	return append(out, right...)
}

// padNull builds the outer-join row for an unmatched left row: left
// followed by width NULLs — the row that makes COUNT(col) yield 0.
func padNull(left storage.Tuple, width int) storage.Tuple {
	out := make(storage.Tuple, 0, len(left)+width)
	out = append(out, left...)
	for range width {
		out = append(out, value.Null)
	}
	return out
}

// MergeJoin is a sort-merge equality join over children sorted on the join
// keys. With Outer set it is the left outer merge join of section 5.2: the
// paper notes its cost function is "identical to that for a standard join,
// since the two relations are scanned in sorted order, and no extra cost is
// involved in determining which tuples have no matching tuples".
//
// Rows whose join key is NULL match nothing; under Outer they are emitted
// NULL-padded, preserving every left row as the =+ operator requires. With
// NullEq set the key comparison is NULL-safe (value.OpEqNull): NULL keys
// join with NULL keys, which NEST-JA2's back-join needs so the COUNT=0
// groups materialized for NULL-keyed outer rows are not dropped. The sort
// order both sides arrive in (TotalCompare, NULLs first) already groups
// NULL keys, so the merge needs no extra passes.
type MergeJoin struct {
	Left, Right       Operator
	LeftKey, RightKey int
	Outer             bool
	NullEq            bool
	// QC, when set, charges the buffered right-side group against the
	// memory budget — the sequential join's only unbounded buffer is a
	// run of duplicate right keys.
	QC *qctx.QueryContext
	// Spill, when set, lets an over-budget group spill to a run file that
	// is re-read once per duplicate left key instead of failing the query.
	Spill *spill.Session

	rightWidth int

	cur      storage.Tuple   // current left row, nil when exhausted/consumed
	group    []storage.Tuple // right rows matching groupKey (resident case)
	groupKey value.Value
	groupSet bool
	gi       int

	groupCharged int64      // bytes charged for group
	groupRun     *spill.Run // spilled group, nil when resident
	groupSrc     source     // scan of groupRun for the current left row
	groupLen     int        // rows in the current group, resident or spilled

	pendRight storage.Tuple // lookahead right row
	rightEOF  bool
}

// Open prepares both children.
func (m *MergeJoin) Open() error {
	if err := m.Left.Open(); err != nil {
		return err
	}
	if err := m.Right.Open(); err != nil {
		return err
	}
	m.rightWidth = len(m.Right.Schema())
	m.cur, m.group, m.groupSet, m.gi = nil, nil, false, 0
	m.groupCharged, m.groupRun, m.groupSrc, m.groupLen = 0, nil, source{}, 0
	m.pendRight, m.rightEOF = nil, false
	return nil
}

// dropGroup releases the current group's budget charge and spill state.
func (m *MergeJoin) dropGroup() {
	m.QC.ReleaseBuffered(m.groupCharged)
	m.groupCharged = 0
	m.group = m.group[:0]
	m.groupSrc.close()
	removeRuns(m.groupRun)
	m.groupRun = nil
	m.groupLen = 0
}

func (m *MergeJoin) nextRight() (storage.Tuple, bool, error) {
	if m.pendRight != nil {
		t := m.pendRight
		m.pendRight = nil
		return t, true, nil
	}
	if m.rightEOF {
		return nil, false, nil
	}
	t, ok, err := m.Right.Next()
	if err != nil {
		return nil, false, err
	}
	if !ok {
		m.rightEOF = true
		return nil, false, nil
	}
	return t, true, nil
}

// loadGroup positions the right side at key and buffers the rows equal to
// it. The buffered group is reused for consecutive left rows with the same
// key (duplicate outer values).
func (m *MergeJoin) loadGroup(key value.Value) (err error) {
	if m.groupSet && m.groupKey.Equal(key) {
		return nil
	}
	m.dropGroup()
	m.groupKey, m.groupSet = key, true
	var wr *spill.Writer // set once the group has outgrown memory
	defer func() {
		if err != nil {
			abortWriters(wr)
		}
	}()
	for {
		t, ok, err := m.nextRight()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		rk := t[m.RightKey]
		if rk.IsNull() && !m.NullEq {
			continue // NULL keys can never match
		}
		c, err := value.TotalCompare(rk, key)
		if err != nil {
			return err // incomparable join keys: a per-query type error
		}
		if c < 0 {
			continue // smaller keys can never match again
		}
		if c > 0 {
			m.pendRight = t // beyond the group; keep for the next key
			break
		}
		if wr == nil {
			n := tupleBytes(t)
			fits, err := reserve(m.QC, m.Spill, n, 0)
			if err != nil {
				return err
			}
			if fits {
				m.groupCharged += n
				m.group = append(m.group, t)
				m.groupLen++
				continue
			}
			// The group no longer fits: move what is buffered to a run
			// file and divert the rest of the group there.
			if wr, err = m.Spill.NewWriter(); err != nil {
				return err
			}
			for _, r := range m.group {
				if err := wr.Append(r); err != nil {
					return err
				}
			}
			m.QC.ReleaseBuffered(m.groupCharged)
			m.groupCharged = 0
			m.group = m.group[:0]
		}
		if err := wr.Append(t); err != nil {
			return err
		}
		m.groupLen++
	}
	if wr != nil {
		m.groupRun, err = wr.Finish()
	}
	return err
}

// Next produces the next joined row.
func (m *MergeJoin) Next() (storage.Tuple, bool, error) {
	for {
		if m.cur == nil {
			t, ok, err := m.Left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			m.cur, m.gi = t, 0
		}
		key := m.cur[m.LeftKey]
		matched := m.NullEq || !key.IsNull() // a NULL key matches nothing unless NULL-safe
		if matched {
			if err := m.loadGroup(key); err != nil {
				return nil, false, err
			}
			matched = m.groupLen > 0
		}
		if !matched {
			left := m.cur
			m.cur = nil
			if m.Outer {
				return padNull(left, m.rightWidth), true, nil
			}
			continue
		}
		var right storage.Tuple
		if m.groupRun != nil {
			// Spilled group: stream the run, re-opened once per left row
			// with this key.
			if m.gi == 0 {
				var err error
				if m.groupSrc, err = openRun(m.QC, m.groupRun); err != nil {
					return nil, false, err
				}
			}
			t, ok, err := m.groupSrc.next()
			if err == nil && !ok {
				err = fmt.Errorf("merge join: spill group shorter than written: %w", qctx.ErrSpillCorrupt)
			}
			if err != nil {
				return nil, false, err
			}
			right = t
		} else {
			right = m.group[m.gi]
		}
		out := concat(m.cur, right)
		m.gi++
		if m.gi == m.groupLen {
			m.groupSrc.close()
			m.cur = nil
		}
		return out, true, nil
	}
}

// Close releases the buffered group and closes both children.
func (m *MergeJoin) Close() error {
	m.dropGroup()
	m.group = nil
	err := m.Left.Close()
	if err2 := m.Right.Close(); err == nil {
		err = err2
	}
	return err
}

// Schema is the concatenation of the children's schemas.
func (m *MergeJoin) Schema() RowSchema { return m.Left.Schema().Concat(m.Right.Schema()) }

// NestedLoopJoin joins a streamed left side against a stored right side,
// re-scanning the right heap file once per left row through the buffer
// pool: if the right side fits in B−1 pages it is effectively read once
// (the favorable case of section 7.2), otherwise every left row pays a
// full re-read (the Nt2·Pt3 term).
//
// The join predicate is arbitrary, which is how NEST-JA2 builds temporary
// tables for non-equality correlated operators (section 5.3.1: SUPPLY.PNUM
// < PARTS.PNUM). With Outer set, left rows with no match are emitted
// NULL-padded — the outer theta-join used when the aggregate is COUNT and
// the operator is not equality.
type NestedLoopJoin struct {
	Left     Operator
	Right    *storage.HeapFile
	RightSch RowSchema
	// Pred sees the concatenated (left ++ right) row.
	Pred  RowPred
	Outer bool
	// QC, when set, is checked once per left row — each left row costs a
	// full scan of the right side, so that is the natural morsel.
	QC *qctx.QueryContext

	cur     storage.Tuple
	matched bool
	pageIdx int
	tuples  []storage.Tuple
	tupIdx  int
}

// Open prepares the left child.
func (n *NestedLoopJoin) Open() error {
	if err := n.Left.Open(); err != nil {
		return err
	}
	n.cur = nil
	return nil
}

// Next produces the next joined row.
func (n *NestedLoopJoin) Next() (storage.Tuple, bool, error) {
	for {
		if n.cur == nil {
			if err := n.QC.Check(); err != nil {
				return nil, false, err
			}
			t, ok, err := n.Left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			n.cur, n.matched = t, false
			n.pageIdx, n.tupIdx, n.tuples = 0, 0, nil
		}
		for {
			for n.tupIdx >= len(n.tuples) {
				if n.pageIdx >= n.Right.NumPages() {
					n.tuples = nil
					goto rightDone
				}
				n.tuples = n.Right.ReadPage(n.pageIdx)
				n.pageIdx++
				n.tupIdx = 0
			}
			r := n.tuples[n.tupIdx]
			n.tupIdx++
			out := concat(n.cur, r)
			tri, err := n.Pred(out)
			if err != nil {
				return nil, false, err
			}
			if tri.IsTrue() {
				n.matched = true
				return out, true, nil
			}
		}
	rightDone:
		left, matched := n.cur, n.matched
		n.cur = nil
		if n.Outer && !matched {
			return padNull(left, len(n.RightSch)), true, nil
		}
	}
}

// Close closes the left child.
func (n *NestedLoopJoin) Close() error { return n.Left.Close() }

// Schema is the concatenation of left and right schemas.
func (n *NestedLoopJoin) Schema() RowSchema { return n.Left.Schema().Concat(n.RightSch) }
