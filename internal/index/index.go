// Package index implements secondary indexes at the granularity the
// paper's cost model needs: a dense, sorted array of (key, page, slot)
// entries over one column of a heap file, charged like System R index
// pages — scanning a key range reads the covering index pages plus the
// base pages of the matching tuples.
//
// The paper itself assumes sequential scans "for simplicity" (section 7),
// but mentions indexes where they matter: a system might perform a join
// first "to take advantage of indices on the join columns", the evaluation
// order NEST-JA2's step 2 exists to prevent. Indexes here give the planner
// a selective access path for restrictions and preserve the indexed
// column's order, so an index scan can feed a merge join without a sort.
package index

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/storage"
	"repro/internal/value"
)

// entriesPerPageFactor relates index page capacity to tuple page capacity:
// an index entry is a key plus a tuple pointer, several times smaller than
// a full tuple.
const entriesPerPageFactor = 4

// Entry locates one tuple by key.
type Entry struct {
	Key  value.Value
	Page int
	Slot int
}

// Index is a sorted dense index over one column. NULL keys are excluded
// (no comparison predicate matches NULL).
type Index struct {
	Relation string
	Column   string

	store          *storage.Store
	file           *storage.HeapFile
	entries        []Entry
	entriesPerPage int
}

// Build scans the heap file once (charged) and constructs the index on
// column colIdx.
func Build(store *storage.Store, file *storage.HeapFile, relation, column string, colIdx int) *Index {
	idx := &Index{
		Relation:       relation,
		Column:         column,
		store:          store,
		file:           file,
		entriesPerPage: file.TuplesPerPage() * entriesPerPageFactor,
	}
	for p := 0; p < file.NumPages(); p++ {
		tuples := file.ReadPage(p)
		for s, t := range tuples {
			if t[colIdx].IsNull() {
				continue
			}
			idx.entries = append(idx.entries, Entry{Key: t[colIdx], Page: p, Slot: s})
		}
	}
	slices.SortStableFunc(idx.entries, func(a, b Entry) int {
		c, _ := value.TotalCompareRef(&a.Key, &b.Key) // cannot fail: see keyLess
		return c
	})
	return idx
}

// keyLess orders two index keys. Keys come from one typed column, so they
// are homogeneous non-NULL values and the comparison cannot fail; span
// pre-validates probe values before any lookup relies on this.
func keyLess(a, b value.Value) bool {
	c, _ := value.TotalCompare(a, b)
	return c < 0
}

// Entries returns the total entry count.
func (idx *Index) Entries() int { return len(idx.entries) }

// Pages returns the index size in index pages.
func (idx *Index) Pages() int {
	if len(idx.entries) == 0 {
		return 0
	}
	return (len(idx.entries) + idx.entriesPerPage - 1) / idx.entriesPerPage
}

// span computes the half-open entry range [lo, hi) matching key op val,
// where op relates the indexed column (left) to val.
func (idx *Index) span(op value.CompareOp, val value.Value) (lo, hi int, ok bool) {
	if val.IsNull() {
		return 0, 0, false
	}
	// A probe value of a kind incomparable with the key column (e.g. a
	// string literal against an integer index) cannot use the index; the
	// planner then falls back to a scan whose filter reports the type
	// error through the normal eval path.
	if len(idx.entries) > 0 {
		if _, err := value.TotalCompare(val, idx.entries[0].Key); err != nil {
			return 0, 0, false
		}
	}
	lower := sort.Search(len(idx.entries), func(i int) bool {
		return !keyLess(idx.entries[i].Key, val) // first >= val
	})
	upper := sort.Search(len(idx.entries), func(i int) bool {
		return keyLess(val, idx.entries[i].Key) // first > val
	})
	switch op {
	case value.OpEq:
		return lower, upper, true
	case value.OpLt:
		return 0, lower, true
	case value.OpLe:
		return 0, upper, true
	case value.OpGt:
		return upper, len(idx.entries), true
	case value.OpGe:
		return lower, len(idx.entries), true
	default: // != scans almost everything; an index does not help
		return 0, 0, false
	}
}

// EstimateMatches returns how many entries op/val selects, without
// charging any I/O (the planner's costing probe).
func (idx *Index) EstimateMatches(op value.CompareOp, val value.Value) (int, bool) {
	lo, hi, ok := idx.span(op, val)
	if !ok {
		return 0, false
	}
	return hi - lo, true
}

// Cursor iterates the matching entries of one lookup. Creating it charges
// the covering index pages (plus one descent page) as direct reads.
type Cursor struct {
	idx    *Index
	pos    int
	end    int
	handed int
}

// Lookup opens a cursor over the entries matching op/val, charging the
// index page reads. ok is false when the operator cannot use the index.
func (idx *Index) Lookup(op value.CompareOp, val value.Value) (*Cursor, bool) {
	lo, hi, ok := idx.span(op, val)
	if !ok {
		return nil, false
	}
	pages := 1 // descent to the first leaf
	if hi > lo {
		pages += (hi - lo - 1) / idx.entriesPerPage
	}
	idx.store.ChargeReads(int64(pages))
	return &Cursor{idx: idx, pos: lo, end: hi}, true
}

// Next returns the next matching tuple in key order, fetching its base
// page through the buffer pool.
func (c *Cursor) Next() (storage.Tuple, bool) {
	if c.pos >= c.end {
		return nil, false
	}
	e := c.idx.entries[c.pos]
	c.pos++
	c.handed++
	return c.idx.file.ReadPage(e.Page)[e.Slot], true
}

// Registry holds the indexes of a database, keyed by relation and column.
type Registry struct {
	byKey map[string]*Index
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*Index)}
}

func regKey(relation, column string) string {
	return strings.ToUpper(relation) + "." + strings.ToUpper(column)
}

// Add registers an index; one index per (relation, column).
func (r *Registry) Add(idx *Index) error {
	k := regKey(idx.Relation, idx.Column)
	if _, ok := r.byKey[k]; ok {
		return fmt.Errorf("index: %s already indexed", k)
	}
	r.byKey[k] = idx
	return nil
}

// On returns the index on relation.column, if any.
func (r *Registry) On(relation, column string) *Index {
	if r == nil {
		return nil
	}
	return r.byKey[regKey(relation, column)]
}

// DropRelation removes every index of a relation (used when its data
// changes; indexes here are build-once snapshots).
func (r *Registry) DropRelation(relation string) {
	prefix := strings.ToUpper(relation) + "."
	for k := range r.byKey {
		if strings.HasPrefix(k, prefix) {
			delete(r.byKey, k)
		}
	}
}

// Names lists the registered indexes as REL.COL strings, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.byKey))
	for k := range r.byKey {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
