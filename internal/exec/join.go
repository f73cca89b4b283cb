package exec

import (
	"fmt"
	"slices"

	"repro/internal/qctx"
	"repro/internal/rowcodec"
	"repro/internal/spill"
	"repro/internal/storage"
	"repro/internal/value"
)

// rowBuilder makes every row a join or a Project emits: columns cols (nil:
// all) of left ++ right, a nil right row being an outer join's NULLs, or the
// left row itself, resliced and capped so an append copies, when cols is one
// ascending run within it. Built rows are carved from vals, whose chunks
// belong to the one goroutine emitting the rows; rows are immutable and
// chunks never reused (DESIGN.md §7 rule 6).
type rowBuilder struct {
	cols               []int
	sch                RowSchema // the rows' schema
	rightWidth, lo, hi int       // hi > 0: cols is lo, …, hi−1
	vals               rowcodec.Chunks
}

// newRowBuilder decides once how rows are built for out (nil: all columns).
func newRowBuilder(out []int, left, right RowSchema) rowBuilder {
	b, n := rowBuilder{cols: out, sch: outSchema(out, left, right), rightWidth: len(right)}, len(out)
	if n > 0 && slices.IsSorted(out) && out[n-1]-out[0] == n-1 && out[n-1] < len(left) {
		b.lo, b.hi = out[0], out[n-1]+1
	}
	return b
}

// outSchema is the schema of columns out (nil: all) of left ++ right.
func outSchema(out []int, left, right RowSchema) RowSchema {
	if out == nil {
		return left.Concat(right)
	}
	sch := make(RowSchema, len(out))
	for i, c := range out {
		if c < len(left) {
			sch[i] = left[c]
		} else {
			sch[i] = right[c-len(left)]
		}
	}
	return sch
}

func (b *rowBuilder) build(left, right storage.Tuple) storage.Tuple {
	switch {
	case b.hi > 0:
		return left[b.lo:b.hi:b.hi]
	case b.cols == nil:
		out := b.vals.Row(len(left) + b.rightWidth)
		copy(out[copy(out, left):], right)
		return out
	}
	out := b.vals.Row(len(b.cols))
	for i, c := range b.cols {
		if c < len(left) {
			out[i] = left[c]
		} else if right != nil {
			out[i] = right[c-len(left)]
		}
	}
	return out
}

// Identity is the column list 0, 1, …, n−1.
func Identity(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// KeyPair is one equality conjunct of a join key: left column Left equals
// right column Right, NULL-safely (<=>, value.OpEqNull) when NullEq is set.
type KeyPair struct {
	Left, Right int
	NullEq      bool
}

// joinKey is a join's whole key: every equality conjunct relating the two
// sides, the leading pair first. A row holding NULL in a column whose pair
// is not NULL-safe matches nothing.
type joinKey struct {
	left, right []int
	nullEq      []bool
}

// newJoinKey assembles the key from an operator's leading pair and the
// pairs beside it. The zero-value operator joins column 0 with column 0;
// a join always has a key.
func newJoinKey(lkey, rkey int, nullEq bool, more []KeyPair) joinKey {
	n := 1 + len(more)
	cols := make([]int, 2*n)
	k := joinKey{left: cols[:n], right: cols[n:], nullEq: make([]bool, n)}
	k.left[0], k.right[0], k.nullEq[0] = lkey, rkey, nullEq
	for i, p := range more {
		k.left[i+1], k.right[i+1], k.nullEq[i+1] = p.Left, p.Right, p.NullEq
	}
	return k
}

// dead reports whether t, a row of the side whose key columns are cols,
// holds a NULL that no row of the other side can match.
func (k joinKey) dead(t storage.Tuple, cols []int) bool {
	for i, c := range cols {
		if !k.nullEq[i] && t[c].IsNull() {
			return true
		}
	}
	return false
}

// equal reports whether live rows l and r agree on the pairs from index
// from on (NULL meets NULL only in a NULL-safe pair, which dead has
// already established).
func (k joinKey) equal(l, r storage.Tuple, from int) bool {
	for i := from; i < len(k.left); i++ {
		if !l[k.left[i]].Equal(r[k.right[i]]) {
			return false
		}
	}
	return true
}

// compare orders right row r against left row l on the first n pairs, in
// the total order both inputs are sorted in.
func (k joinKey) compare(r, l storage.Tuple, n int) (int, error) {
	for i := range n {
		if c, err := value.TotalCompareRef(&r[k.right[i]], &l[k.left[i]]); c != 0 || err != nil {
			return c, err // incomparable join keys: a per-query type error
		}
	}
	return 0, nil
}

// String renders the key pairs for EXPLAIN.
func (k joinKey) String() string {
	s := ""
	for i := range k.left {
		op := "="
		if k.nullEq[i] {
			op = "<=>"
		}
		s += fmt.Sprintf(", left#%d %s right#%d", k.left[i], op, k.right[i])
	}
	return s[2:]
}

// MergeJoin is a sort-merge equality join over children sorted on the join
// key. With Outer set it is the left outer merge join of section 5.2: the
// paper notes its cost function is "identical to that for a standard join,
// since the two relations are scanned in sorted order, and no extra cost is
// involved in determining which tuples have no matching tuples".
//
// The key is every equality conjunct of the join: the leading pair
// (LeftKey, RightKey, NullEq) and More. Both inputs arrive ordered on the
// leading pair's columns and the remaining pairs are checked on each
// candidate pair of rows before it is built — or, with FullOrder, ordered
// on all key columns in key order, and the merge runs on the whole key.
//
// Rows whose join key is NULL match nothing; under Outer they are emitted
// NULL-padded, preserving every left row as the =+ operator requires. A
// NULL-safe pair (value.OpEqNull) joins NULL keys with NULL keys, which
// NEST-JA2's back-join needs so the COUNT=0 groups materialized for
// NULL-keyed outer rows are not dropped. The sort order both sides arrive
// in (TotalCompare, NULLs first) already groups NULL keys, so the merge
// needs no extra passes.
//
// With Quant set it is the merge form of a quantified join: each left row
// folds its group of right rows, resident or spilled, until its decision
// is settled, and is emitted alone, once, when the predicate holds.
type MergeJoin struct {
	Left, Right       Operator
	LeftKey, RightKey int
	NullEq            bool
	More              []KeyPair
	FullOrder         bool
	Outer             bool
	Out               []int // the columns of left ++ right it emits, nil for all
	// Quant, when set, is decided per left row over its group, and Out
	// names columns of the left row alone; Outer is unused then.
	Quant *Quantifier
	// QC, when set, charges the buffered right-side group against the
	// memory budget — the sequential join's only unbounded buffer is a
	// run of duplicate right keys.
	QC *qctx.QueryContext
	// Spill, when set, lets an over-budget group spill to a run file that
	// is re-read once per duplicate left key instead of failing the query.
	Spill *spill.Session

	key    joinKey
	merged int // leading key pairs the merge runs on
	rows   rowBuilder

	cur     storage.Tuple   // current left row, nil when exhausted/consumed
	live    bool            // cur can match: no NULL a pair cannot meet
	matched bool            // cur has been joined to a right row
	group   []storage.Tuple // right rows equal to groupOf on the merged pairs (resident case)
	groupOf storage.Tuple   // the left row the group was loaded for
	gi      int

	groupCharged int64      // bytes charged for group
	groupRun     *spill.Run // spilled group, nil when resident
	groupSrc     source     // scan of groupRun for the current left row
	groupLen     int        // rows in the current group, resident or spilled

	pendRight storage.Tuple // lookahead right row
	rightEOF  bool

	d decision // the left row's, under Quant
}

// Open prepares both children.
func (m *MergeJoin) Open() error {
	if err := m.Left.Open(); err != nil {
		return err
	}
	if err := m.Right.Open(); err != nil {
		return err
	}
	m.key, m.merged = newJoinKey(m.LeftKey, m.RightKey, m.NullEq, m.More), 1
	if m.FullOrder {
		m.merged = len(m.key.left)
	}
	if m.Quant != nil {
		m.rows = quantRows(m.Out, m.Left.Schema())
	} else {
		m.rows = newRowBuilder(m.Out, m.Left.Schema(), m.Right.Schema())
	}
	m.cur, m.group, m.groupOf, m.gi = nil, nil, nil, 0
	m.groupCharged, m.groupRun, m.groupSrc, m.groupLen = 0, nil, source{}, 0
	m.pendRight, m.rightEOF = nil, false
	m.d = decision{q: m.Quant}
	return nil
}

// dropGroup releases the current group's budget charge and spill state.
func (m *MergeJoin) dropGroup() {
	m.QC.ReleaseBuffered(m.groupCharged)
	m.groupCharged = 0
	m.group = m.group[:0]
	m.groupSrc.close()
	if m.groupRun != nil {
		m.groupRun.Remove()
		m.groupRun = nil
	}
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

// loadGroup positions the right side at left row l's merged key columns
// and buffers the rows equal to them. The buffered group is reused for
// consecutive left rows with the same key (duplicate outer values).
func (m *MergeJoin) loadGroup(l storage.Tuple) (err error) {
	same := m.groupOf != nil
	for _, c := range m.key.left[:m.merged] {
		same = same && m.groupOf[c].Equal(l[c])
	}
	if same {
		return nil
	}
	m.dropGroup()
	m.groupOf = l
	var wr *spill.Writer // set once the group has outgrown memory
	defer func() {
		if err != nil && wr != nil {
			wr.Abort()
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
		if m.key.dead(t, m.key.right) {
			continue // NULL keys can never match
		}
		c, err := m.key.compare(t, l, m.merged)
		if err != nil {
			return err
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
			fits, err := reserve(m.QC, m.Spill, n)
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

// nextInGroup returns the group's next row for the current left row: from
// memory, or from the spilled run, whose one reader is rewound per left
// row and closed with the group.
func (m *MergeJoin) nextInGroup() (storage.Tuple, error) {
	m.gi++
	if m.groupRun == nil {
		return m.group[m.gi-1], nil
	}
	if m.gi == 1 && m.groupSrc.rd != nil {
		m.groupSrc.rd.Rewind()
	} else if m.gi == 1 {
		var err error
		if m.groupSrc, err = openRun(m.QC, m.groupRun); err != nil {
			return nil, err
		}
	}
	// groupLen is the run's row count: a run that ends before it is the
	// reader's ErrSpillCorrupt.
	t, _, err := m.groupSrc.next()
	return t, err
}

// Next produces the next joined row.
func (m *MergeJoin) Next() (storage.Tuple, bool, error) {
	if m.Quant != nil {
		return m.nextQuant()
	}
	for {
		if m.cur == nil {
			t, ok, err := m.Left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			m.cur, m.gi, m.matched = t, 0, false
			if m.live = !m.key.dead(t, m.key.left); m.live {
				if err := m.loadGroup(t); err != nil {
					return nil, false, err
				}
			}
		}
		for m.live && m.gi < m.groupLen {
			right, err := m.nextInGroup()
			if err != nil {
				return nil, false, err
			}
			if m.key.equal(m.cur, right, m.merged) {
				m.matched = true
				return m.rows.build(m.cur, right), true, nil
			}
		}
		left := m.cur
		m.cur = nil
		if m.Outer && !m.matched {
			return m.rows.build(left, nil), true, nil
		}
	}
}

// nextQuant is Next under Quant: a left row folds its group until one
// row settles its decision, and is emitted alone when the predicate holds.
func (m *MergeJoin) nextQuant() (storage.Tuple, bool, error) {
	for {
		t, ok, err := m.Left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		m.gi = 0
		if m.live = !m.key.dead(t, m.key.left); m.live {
			if err := m.loadGroup(t); err != nil {
				return nil, false, err
			}
		}
		m.d.start(t)
		for m.live && m.gi < m.groupLen {
			right, err := m.nextInGroup()
			if err != nil {
				return nil, false, err
			}
			if !m.key.equal(t, right, m.merged) {
				continue
			}
			if done, err := m.d.see(right); err != nil {
				return nil, false, err
			} else if done {
				break
			}
		}
		if m.d.keep() {
			return m.rows.build(t, nil), true, nil
		}
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

// Schema is the Out columns of the children's concatenated schemas, or
// the left schema under Quant.
func (m *MergeJoin) Schema() RowSchema {
	if m.Quant != nil {
		return quantSchema(m.Out, m.Left.Schema())
	}
	return outSchema(m.Out, m.Left.Schema(), m.Right.Schema())
}

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
//
// With Quant set it is the nested-loops form of a quantified join: each
// left row reads the right side only up to the page whose row settles its
// decision, and is emitted alone, once, when the predicate holds.
type NestedLoopJoin struct {
	Left      Operator
	Right     *storage.HeapFile
	RightSch  RowSchema
	RightName string // as SeqScan.Name
	// Pred sees the concatenated (left ++ right) row.
	Pred  RowPred
	Outer bool
	Out   []int // as in MergeJoin
	// Quant, when set, is decided per left row over the right rows, whose
	// predicate is Quant.Corr (Pred is unused), and Out names columns of
	// the left row alone; Outer is unused then.
	Quant *Quantifier
	// QC, when set, is checked once per left row — each left row costs a
	// full scan of the right side, so that is the natural morsel.
	QC *qctx.QueryContext

	rows    rowBuilder
	cur     storage.Tuple
	pair    storage.Tuple // scratch: cur ++ the right row under test
	matched bool
	pageIdx int
	tuples  []storage.Tuple
	tupIdx  int

	d decision // the left row's, under Quant
}

// Open prepares the left child.
func (n *NestedLoopJoin) Open() error {
	if err := n.Left.Open(); err != nil {
		return err
	}
	if n.Quant != nil {
		n.rows = quantRows(n.Out, n.Left.Schema())
	} else {
		n.rows = newRowBuilder(n.Out, n.Left.Schema(), n.RightSch)
	}
	n.cur = nil
	n.d = decision{q: n.Quant}
	return nil
}

// Next produces the next joined row.
func (n *NestedLoopJoin) Next() (storage.Tuple, bool, error) {
	if n.Quant != nil {
		return n.nextQuant()
	}
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
			n.pair = append(n.pair[:0], t...)
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
			// The predicate sees the pair in the scratch row; only a pair
			// that holds is built.
			n.pair = append(n.pair[:len(n.cur)], r...)
			ok, err := n.Pred(n.pair)
			if err != nil {
				return nil, false, err
			}
			if ok {
				n.matched = true
				return n.rows.build(n.cur, r), true, nil
			}
		}
	rightDone:
		left, matched := n.cur, n.matched
		n.cur = nil
		if n.Outer && !matched {
			return n.rows.build(left, nil), true, nil
		}
	}
}

// nextQuant is Next under Quant: a left row folds the right rows, page by
// page, until one settles its decision, and is emitted alone when the
// predicate holds.
func (n *NestedLoopJoin) nextQuant() (storage.Tuple, bool, error) {
	for {
		if err := n.QC.Check(); err != nil {
			return nil, false, err
		}
		l, ok, err := n.Left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		n.d.start(l)
	scan:
		for pg := 0; pg < n.Right.NumPages(); pg++ {
			for _, r := range n.Right.ReadPage(pg) {
				if done, err := n.d.see(r); err != nil {
					return nil, false, err
				} else if done {
					break scan
				}
			}
		}
		if n.d.keep() {
			return n.rows.build(l, nil), true, nil
		}
	}
}

// Close closes the left child.
func (n *NestedLoopJoin) Close() error { return n.Left.Close() }

// Schema is the Out columns of the left and right schemas concatenated,
// or the left schema under Quant.
func (n *NestedLoopJoin) Schema() RowSchema {
	if n.Quant != nil {
		return quantSchema(n.Out, n.Left.Schema())
	}
	return outSchema(n.Out, n.Left.Schema(), n.RightSch)
}
