package exec

import (
	"repro/internal/qctx"
	"repro/internal/rowcodec"
	"repro/internal/storage"
	"repro/internal/value"
)

// GroupItem describes one output of a grouping operator: either a grouping
// column passed through, or an aggregate over a child column.
type GroupItem struct {
	Agg value.AggFunc // AggNone for a grouping column
	Col int           // child column position; ignored for AggCountStar
	Out ColID         // output column identity
}

// aggSchema lists the items' output columns.
func aggSchema(items []GroupItem) RowSchema {
	sch := make(RowSchema, len(items))
	for i, it := range items {
		sch[i] = it.Out
	}
	return sch
}

// hashKey combines the hashes of t's key columns; over one column it is
// that column's hash, over none it is 0. Values that are Equal (NULL with
// NULL, int with equal float) hash identically, so they meet in one
// bucket.
func hashKey(t storage.Tuple, cols []int) uint64 {
	var h uint64
	for _, c := range cols {
		h = h*1099511628211 + t[c].Hash()
	}
	return h
}

// sameKey reports whether t's columns cols hold key (NULL equal to NULL),
// compared in place: a row finds its group without its key extracted.
func sameKey(key []value.Value, t storage.Tuple, cols []int) bool {
	for i, c := range cols {
		if !key[i].Equal(t[c]) {
			return false
		}
	}
	return true
}

// groupBytes is the budget charge for one live group: its key, t's
// grouping columns as a tuple, plus accumulator state.
func groupBytes(t storage.Tuple, cols []int, items []GroupItem) int64 {
	n := int64(24) + 64*int64(len(items))
	for _, c := range cols {
		n += tupleBytes(t[c:c+1]) - 24 // one value's share
	}
	return n
}

// groupTable is the one way to hold groups: GroupAgg's (one at a time),
// each ParallelHashGroup level's, nested iteration's aggregates and
// DISTINCT. Groups are numbered in first-seen order and held by value —
// group g's key at keys[g*len(cols):], its accumulators at accs[g*aggs:] —
// and indexed by their key hashes in a hashTable grown by insertion; with
// no grouping columns there is one group and no index. Rows are carved
// from chunks (DESIGN.md §7 rule 6).
type groupTable struct {
	cols    []int // the grouping columns of the rows folded in
	items   []GroupItem
	aggs, n int // accumulators per group; groups held
	keys    []value.Value
	accs    []value.Accumulator
	index   hashTable // over group numbers; rows unused
	out     rowcodec.Chunks
}

// reset drops every group but keeps the storage (never the rows' chunks).
func (g *groupTable) reset() {
	g.n, g.keys, g.accs = 0, g.keys[:0], g.accs[:0]
	g.index.hashes, g.index.next = g.index.hashes[:0], g.index.next[:0]
	clear(g.index.heads)
}

// key is group i's key.
func (g *groupTable) key(i int) []value.Value { return g.keys[i*len(g.cols) : (i+1)*len(g.cols)] }

// find returns t's group, -1 when it has none yet, and the hash of t's key.
func (g *groupTable) find(t storage.Tuple) (int, uint64) {
	if len(g.cols) == 0 || g.n == 0 { // one group at most, or none yet
		return g.n - 1, hashKey(t, g.cols)
	}
	h, x := hashKey(t, g.cols), &g.index
	for at := x.heads[x.slot(h)]; at != 0; at = x.next[at-1] {
		if i := int(at - 1); x.hashes[i] == h && sameKey(g.key(i), t, g.cols) { // else a bucket-mate or a collision
			return i, h
		}
	}
	return -1, h
}

// insert opens t's group, indexed under h (find's hash), and returns it.
func (g *groupTable) insert(t storage.Tuple, h uint64) int {
	if len(g.cols) > 0 {
		g.index.insert(h)
	}
	return g.open(t)
}

// open starts a group keyed by t's grouping columns, unindexed.
func (g *groupTable) open(t storage.Tuple) int {
	for _, c := range g.cols {
		g.keys = append(g.keys, t[c])
	}
	a := len(g.accs)
	for _, it := range g.items {
		if it.Agg != value.AggNone {
			g.accs = append(g.accs, value.NewAccumulator(it.Agg))
		}
	}
	g.aggs, g.n = len(g.accs)-a, g.n+1
	return g.n - 1
}

// add folds t into group i's accumulators.
func (g *groupTable) add(i int, t storage.Tuple) error {
	acc := g.accs[i*g.aggs:]
	for _, it := range g.items {
		if it.Agg == value.AggNone {
			continue
		}
		v := value.Null // COUNT(*) counts rows, not values
		if it.Agg != value.AggCountStar {
			v = t[it.Col]
		}
		if err := acc[0].Add(v); err != nil {
			return err
		}
		acc = acc[1:]
	}
	return nil
}

// row renders finished group i as an output row.
func (g *groupTable) row(i int) storage.Tuple {
	out, key, acc := g.out.Row(len(g.items)), g.key(i), g.accs[i*g.aggs:]
	for j, it := range g.items {
		if it.Agg != value.AggNone {
			out[j], acc = acc[0].Result(), acc[1:]
			continue
		}
		// A grouping column: constant within the group.
		for c, gc := range g.cols {
			if gc == it.Col {
				out[j] = key[c]
				break
			}
		}
	}
	return out
}

// GroupAgg implements GROUP BY aggregation over an input sorted on the
// grouping columns — the paper's temp tables are created with the GROUP BY
// column being the join/sort column, so no extra sort is needed (section
// 7.2). On a group-key change it emits the finished group.
//
// With no grouping columns it is a global aggregate, emitting exactly one
// row even over empty input (COUNT = 0, MAX = NULL) — the nested-iteration
// semantics that NEST-JA loses and NEST-JA2 restores.
type GroupAgg struct {
	Child Operator
	// GroupCols are child column positions forming the group key, in the
	// child's sort order.
	GroupCols []int
	Items     []GroupItem
	// QC, when set, charges the in-flight group's key and accumulator
	// state against the memory budget. The operator is streaming — one
	// group at a time — so the charge is small but honest.
	QC *qctx.QueryContext

	groups  groupTable // the in-flight group, none before the first row
	charged int64
	eof     bool
}

// Open prepares the child.
func (g *GroupAgg) Open() error {
	g.groups, g.charged, g.eof = groupTable{cols: g.GroupCols, items: g.Items}, 0, false
	return g.Child.Open()
}

// Next emits one group per call.
func (g *GroupAgg) Next() (storage.Tuple, bool, error) {
	for !g.eof {
		t, ok, err := g.Child.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			if g.eof = true; g.groups.n == 0 && len(g.GroupCols) == 0 {
				g.groups.open(nil) // a global aggregate over empty input
			}
			if g.groups.n == 0 {
				break
			}
			return g.groups.row(0), true, nil
		}
		var out storage.Tuple
		if g.groups.n == 0 || !sameKey(g.groups.key(0), t, g.GroupCols) {
			// Group boundary: the finished group is emitted once the new
			// one is charged and has taken this row.
			if g.groups.n > 0 {
				out = g.groups.row(0)
				g.groups.reset()
			}
			g.QC.ReleaseBuffered(g.charged)
			g.charged = groupBytes(t, g.GroupCols, g.Items)
			if _, err := reserve(g.QC, nil, g.charged); err != nil {
				g.charged = 0 // refused, so not counted
				return nil, false, err
			}
			g.groups.open(t)
		}
		if err := g.groups.add(0, t); err != nil {
			return nil, false, err
		}
		if out != nil {
			return out, true, nil
		}
	}
	return nil, false, nil
}

// Close releases the in-flight group's charge and closes the child.
func (g *GroupAgg) Close() error {
	g.QC.ReleaseBuffered(g.charged)
	g.charged = 0
	return g.Child.Close()
}

// Schema lists the configured output columns.
func (g *GroupAgg) Schema() RowSchema { return aggSchema(g.Items) }

// GroupJoin is the groupjoin of Moerkotte and Neumann (VLDB 2011): GROUP BY
// the left input's key over left ⟕ right (⋈ without Outer), reading each
// input once. The left input must be unique on its key and small enough to
// stay resident: Open holds a group per left row, charged as
// ParallelHashGroup charges one and indexed by the join's hashTable, and
// folds every live right row into the group whose key it equals (a NULL
// meets nothing unless its pair is NULL-safe). Next emits the groups in
// left order; under Outer an unmatched group first takes one all-NULL right
// row (COUNT(col) 0, COUNT(*) 1, MAX NULL, as ⟕ then GROUP BY gives),
// without it an unmatched group is dropped.
type GroupJoin struct {
	Left, Right       Operator
	LeftKey, RightKey int
	NullEq            bool
	More              []KeyPair
	Outer             bool
	// Items' grouping columns are left columns, every one a key column;
	// their aggregates read right columns.
	Items []GroupItem
	// QC, when set, hard-charges the groups against the memory budget.
	QC *qctx.QueryContext

	key     joinKey
	left    hashTable // the left rows by key; group i is row i
	groups  groupTable
	matched []uint64      // a bit per group a right row reached
	null    storage.Tuple // the right row of an unmatched group under Outer
	charged int64
	at      int // the next group Next considers
}

// Open holds the left input as groups and folds the right input into them.
func (g *GroupJoin) Open() error {
	if err := g.Left.Open(); err != nil {
		return err
	}
	if err := g.Right.Open(); err != nil {
		return err
	}
	g.key, g.at = newJoinKey(g.LeftKey, g.RightKey, g.NullEq, g.More), 0
	var held rowChunks
	for {
		t, ok, err := g.Left.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n := groupBytes(t, g.key.left, g.Items)
		if _, err := reserve(g.QC, nil, n); err != nil {
			return err
		}
		g.charged += n
		held.add(t)
	}
	// Every buffer is sized once, from the left's row count.
	rows, aggs := held.flatten(), 0
	for _, it := range g.Items {
		if it.Agg != value.AggNone {
			aggs++
		}
	}
	g.left = newHashTable(rows, g.key.left)
	g.groups = groupTable{cols: g.key.left, items: g.Items,
		keys: make([]value.Value, 0, len(rows)*len(g.key.left)), accs: make([]value.Accumulator, 0, len(rows)*aggs)}
	for _, t := range rows {
		g.groups.open(t)
	}
	g.matched = make([]uint64, (len(rows)+63)/64)
	if g.Outer {
		g.null = make(storage.Tuple, len(g.Right.Schema()))
	}
	k, x := g.key, &g.left
	for {
		r, ok, err := g.Right.Next()
		if err != nil || !ok {
			return err
		}
		if k.dead(r, k.right) {
			continue // a NULL key meets no group
		}
		h := hashKey(r, k.right)
		for at := x.heads[x.slot(h)]; at != 0; at = x.next[at-1] {
			if i := int(at - 1); x.hashes[i] == h && k.equal(x.rows[i], r, 0) { // else a bucket-mate or a collision
				g.matched[i/64] |= 1 << (i % 64)
				if err := g.groups.add(i, r); err != nil {
					return err
				}
				break // the left is unique on its key
			}
		}
	}
}

// Next emits the next group, in left order.
func (g *GroupJoin) Next() (storage.Tuple, bool, error) {
	for g.at < g.groups.n {
		i := g.at
		g.at++
		if g.matched[i/64]&(1<<(i%64)) == 0 {
			if !g.Outer {
				continue
			}
			if err := g.groups.add(i, g.null); err != nil {
				return nil, false, err
			}
		}
		return g.groups.row(i), true, nil
	}
	return nil, false, nil
}

// Close releases the groups' charge and closes both children.
func (g *GroupJoin) Close() error {
	g.QC.ReleaseBuffered(g.charged)
	g.charged = 0
	err := g.Left.Close()
	if err2 := g.Right.Close(); err == nil {
		err = err2
	}
	return err
}

// Schema lists the configured output columns.
func (g *GroupJoin) Schema() RowSchema { return aggSchema(g.Items) }
