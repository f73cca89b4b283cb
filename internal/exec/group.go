package exec

import (
	"repro/internal/qctx"
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

// The aggregation kernel: what GroupAgg and every level of
// ParallelHashGroup do with a (group columns, items) pair — schema, key
// extraction and hashing, accumulator construction, accumulate, output
// row. The operators differ only in how they find a row's group.

// groupState is one group's key and accumulators (nil for the items that
// pass a grouping column through).
type groupState struct {
	key  []value.Value
	accs []*value.Accumulator
}

// aggSchema lists the items' output columns.
func aggSchema(items []GroupItem) RowSchema {
	sch := make(RowSchema, len(items))
	for i, it := range items {
		sch[i] = it.Out
	}
	return sch
}

// groupKey extracts t's grouping columns.
func groupKey(t storage.Tuple, cols []int) []value.Value {
	key := make([]value.Value, len(cols))
	for i, c := range cols {
		key[i] = t[c]
	}
	return key
}

// hashKey combines the hashes of t's key columns; over one column it is
// that column's hash, over none it is 0. Values that are Equal (NULL with
// NULL, int with equal float) hash identically, so a key never splits
// across partitions.
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

// groupBytes is the budget charge for one live group: its key plus
// accumulator state.
func groupBytes(key []value.Value, items []GroupItem) int64 {
	return tupleBytes(storage.Tuple(key)) + 64*int64(len(items))
}

// newGroup allocates the accumulators of the group keyed by key.
func newGroup(key []value.Value, items []GroupItem) *groupState {
	accs := make([]*value.Accumulator, len(items))
	for i, it := range items {
		if it.Agg != value.AggNone {
			accs[i] = value.NewAccumulator(it.Agg)
		}
	}
	return &groupState{key: key, accs: accs}
}

// add folds one input row into the group's accumulators.
func (gs *groupState) add(t storage.Tuple, items []GroupItem) error {
	for i, it := range items {
		if it.Agg == value.AggNone {
			continue
		}
		v := value.NewInt(1)
		if it.Agg != value.AggCountStar {
			v = t[it.Col]
		}
		if err := gs.accs[i].Add(v); err != nil {
			return err
		}
	}
	return nil
}

// row renders the finished group as an output row.
func (gs *groupState) row(groupCols []int, items []GroupItem) storage.Tuple {
	out := make(storage.Tuple, len(items))
	for i, it := range items {
		if it.Agg != value.AggNone {
			out[i] = gs.accs[i].Result()
			continue
		}
		// A grouping column: constant within the group.
		for j, gc := range groupCols {
			if gc == it.Col {
				out[i] = gs.key[j]
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

	cur     *groupState // the in-flight group, nil before the first row
	charged int64
	eof     bool
}

// Open prepares the child.
func (g *GroupAgg) Open() error {
	g.cur, g.charged, g.eof = nil, 0, false
	return g.Child.Open()
}

// Next emits one group per call.
func (g *GroupAgg) Next() (storage.Tuple, bool, error) {
	if g.eof {
		return nil, false, nil
	}
	for {
		t, ok, err := g.Child.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			g.eof = true
			if g.cur == nil && len(g.GroupCols) == 0 {
				// Global aggregate over empty input.
				g.cur = newGroup(nil, g.Items)
			}
			if g.cur == nil {
				return nil, false, nil
			}
			return g.cur.row(g.GroupCols, g.Items), true, nil
		}
		var out storage.Tuple
		if g.cur == nil || !sameKey(g.cur.key, t, g.GroupCols) {
			// Group boundary: the finished group is emitted once the new
			// one is charged and has taken this row.
			if g.cur != nil {
				out = g.cur.row(g.GroupCols, g.Items)
			}
			key := groupKey(t, g.GroupCols)
			g.QC.ReleaseBuffered(g.charged)
			g.charged = groupBytes(key, g.Items)
			if _, err := reserve(g.QC, nil, g.charged, 0); err != nil {
				return nil, false, err
			}
			g.cur = newGroup(key, g.Items)
		}
		if err := g.cur.add(t, g.Items); err != nil {
			return nil, false, err
		}
		if out != nil {
			return out, true, nil
		}
	}
}

// Close releases the in-flight group's charge and closes the child.
func (g *GroupAgg) Close() error {
	g.QC.ReleaseBuffered(g.charged)
	g.charged = 0
	return g.Child.Close()
}

// Schema lists the configured output columns.
func (g *GroupAgg) Schema() RowSchema { return aggSchema(g.Items) }
