package exec

import (
	"math/bits"
	"sync"

	"repro/internal/qctx"
	"repro/internal/storage"
)

// This file holds the two hash operators, ParallelHashJoin and
// ParallelHashGroup, and their kernels: the hash-probe loop (prober.next)
// and the group-admit loop (ParallelHashGroup.admit). Both run inline, on
// the caller's goroutine, whatever the planner's Parallelism; the
// executor starts no goroutine. Kernels hold their state in memory and
// hard-charge it against the query's budget (see budget.go): they never
// spill.

// Morsel is a pooled buffer of row headers: a page writer's stage, a
// chunk of collected rows.
type Morsel []storage.Tuple

// MorselSize is a morsel's capacity, and the number of rows between two
// context checks of the hash aggregation.
const MorselSize = 256

// morselPool recycles morsel buffers. A morsel holds row headers only: it
// goes back once its consumer has moved past it, and the rows it pointed
// at are never recycled.
var morselPool = sync.Pool{New: func() any { return new([MorselSize]storage.Tuple) }}

// newMorsel returns an empty morsel of capacity MorselSize.
func newMorsel() Morsel { return morselPool.Get().(*[MorselSize]storage.Tuple)[:0] }

// recycle hands m's buffer back to the pool, its headers cleared so the
// pool keeps no row alive.
func recycle(m Morsel) {
	clear(m)
	if cap(m) == MorselSize {
		morselPool.Put((*[MorselSize]storage.Tuple)(m[:MorselSize]))
	}
}

// rowChunks collects rows of unknown count into pooled morsels, so no
// buffer of row headers is regrown: flatten copies them out once at their
// exact length.
type rowChunks struct {
	chunks []Morsel
	n      int
}

func (c *rowChunks) add(t storage.Tuple) {
	if c.n%MorselSize == 0 {
		c.chunks = append(c.chunks, newMorsel())
	}
	c.chunks[len(c.chunks)-1] = append(c.chunks[len(c.chunks)-1], t)
	c.n++
}

// flatten returns the collected rows in one slice (nil when there are
// none) and recycles the chunks.
func (c *rowChunks) flatten() (rows []storage.Tuple) {
	if c.n > 0 {
		rows = make([]storage.Tuple, 0, c.n)
	}
	for _, m := range c.chunks {
		rows = append(rows, m...)
		recycle(m)
	}
	*c = rowChunks{}
	return rows
}

// ExchangeMerge passes its Source through unchanged. No plan places it: it
// stays only because bench/'s exec.par_* probes build it around the hash
// operators, and goes once they stop.
type ExchangeMerge struct{ Source Operator }

func (e *ExchangeMerge) Open() error                        { return e.Source.Open() }
func (e *ExchangeMerge) Next() (storage.Tuple, bool, error) { return e.Source.Next() }
func (e *ExchangeMerge) Close() error                       { return e.Source.Close() }
func (e *ExchangeMerge) Schema() RowSchema                  { return e.Source.Schema() }

// ParallelHashJoin is an equality hash join on every equality conjunct of
// the join — the leading pair (LeftKey, RightKey, NullEq) and More. Open
// drains the Right (build) side, hard-charging it against the memory
// budget: a build side that does not fit fails the query with
// ErrMemoryBudget, and the engine's rerun sort-merges instead (hash
// operators never spill). Next streams the probe side through the probe
// kernel, so the output keeps the left input's order.
//
// Semantics match MergeJoin: a row holding NULL in a key column matches
// nothing unless that pair is NULL-safe, and with Outer set every unmatched
// left row is emitted NULL-padded — the left outer join NEST-JA2's COUNT fix
// depends on. NULL hashes like any other value (to a fixed bucket), so
// under a NULL-safe pair NULL build and probe keys meet and join with each
// other. With Quant set it is the hash form of a quantified join, as
// MergeJoin's Quant.
type ParallelHashJoin struct {
	Left, Right       Operator
	LeftKey, RightKey int
	NullEq            bool
	More              []KeyPair
	Outer             bool
	Out               []int // as in MergeJoin
	// Quant, when set, is decided per left row over the key's matches, and
	// Out names columns of the left row alone; Outer is unused then.
	Quant *Quantifier
	// Workers is ignored: the join runs on the caller's goroutine. It
	// stays only while bench/'s probes set it.
	Workers int
	// QC, when set, governs the build scan (cancellation + memory budget
	// for the buffered build side).
	QC *qctx.QueryContext

	key     joinKey
	rows    rowBuilder
	build   []storage.Tuple // the build rows
	charged int64           // their budget charge, released by Close
	probe   *prober         // the probe of Left, nil until the first Next
}

// Open opens both children and collects the build rows from the right
// side, hashing none of them: the hash table hashes them once.
func (j *ParallelHashJoin) Open() error {
	if err := j.Left.Open(); err != nil {
		return err
	}
	if err := j.Right.Open(); err != nil {
		j.Left.Close()
		return err
	}
	j.key = newJoinKey(j.LeftKey, j.RightKey, j.NullEq, j.More)
	if j.Quant != nil {
		j.rows = quantRows(j.Out, j.Left.Schema())
	} else {
		j.rows = newRowBuilder(j.Out, j.Left.Schema(), j.Right.Schema())
	}
	var build rowChunks
	for {
		t, ok, err := j.Right.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := j.QC.Check(); err != nil {
			return err
		}
		if j.key.dead(t, j.key.right) {
			continue // NULL build keys can never match
		}
		n := tupleBytes(t)
		if _, err := reserve(j.QC, nil, n); err != nil {
			return err
		}
		j.charged += n
		build.add(t)
	}
	j.build = build.flatten()
	return nil
}

// hashTable is the one hashed row index, flat: each position's key hash,
// and per bucket a chain of positions through next. heads, a power of two
// at least twice the positions long, is indexed by the top bits of the
// Fibonacci-mixed hash. Positions are stored +1, so 0 ends a chain and a
// fresh table needs no fill. A join's build rows are chained from last to
// first, so a chain visits the rows of one key in build order; a
// groupTable's groups are inserted one by one.
type hashTable struct {
	rows   []storage.Tuple // a join's build side; nil under a groupTable
	hashes []uint64
	next   []int32
	heads  []int32
	shift  uint
}

func newHashTable(rows []storage.Tuple, cols []int) hashTable {
	t := hashTable{rows: rows, hashes: make([]uint64, len(rows))}
	for i, r := range rows {
		t.hashes[i] = hashKey(r, cols)
	}
	t.relink()
	return t
}

// relink sizes heads for the positions and chains them in position order.
func (t *hashTable) relink() {
	b := bits.Len(uint(max(2*len(t.hashes)-1, 0)))
	t.heads, t.shift = make([]int32, 1<<b), uint(64-b)
	t.next = append(t.next[:0], make([]int32, len(t.hashes))...)
	for i := len(t.hashes) - 1; i >= 0; i-- {
		head := &t.heads[t.slot(t.hashes[i])]
		t.next[i], *head = *head, int32(i+1)
	}
}

// insert chains one more position, hashed h, at the head of its bucket or,
// once the positions pass half the buckets, relinks all into twice as many.
func (t *hashTable) insert(h uint64) {
	t.hashes = append(t.hashes, h)
	if n := len(t.hashes); 2*n > len(t.heads) {
		t.relink()
	} else {
		head := &t.heads[t.slot(h)]
		t.next, *head = append(t.next, *head), int32(n)
	}
}

// slot is h's bucket (shift 64, a one-bucket table, yields 0).
func (t *hashTable) slot(h uint64) uint64 { return (h * 0x9E3779B97F4A7C15) >> t.shift }

// prober is the one hash-probe loop, in pull form: every tuple of the
// join's Left against table, matches joined, unmatched tuples NULL-padded
// when Outer. A joined row is built only once the whole key is known to
// match. Under Quant it emits a probe tuple alone when its decision,
// folded over its matches until one settles it, holds.
type prober struct {
	j     *ParallelHashJoin
	table hashTable
	cur   storage.Tuple // the probe tuple being matched, nil between tuples
	h     uint64        // cur's key hash
	at    int32         // the chain position to try next, +1; 0 when none is left
	found bool
	d     decision // the probe tuple's, under Quant
}

func newProber(j *ParallelHashJoin) *prober {
	return &prober{j: j, table: newHashTable(j.build, j.key.right), d: decision{q: j.Quant}}
}

func (p *prober) next() (storage.Tuple, bool, error) {
	if p.j.Quant != nil {
		return p.nextQuant()
	}
	k, t := p.j.key, &p.table
	for {
		if p.cur == nil {
			l, ok, err := p.j.Left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			p.cur, p.at, p.found = l, 0, false
			if !k.dead(l, k.left) {
				p.h = hashKey(l, k.left)
				p.at = t.heads[t.slot(p.h)]
			}
		}
		for p.at != 0 {
			i := p.at - 1
			p.at = t.next[i]
			if t.hashes[i] == p.h && k.equal(p.cur, t.rows[i], 0) { // else a bucket-mate or a collision
				p.found = true
				return p.j.rows.build(p.cur, t.rows[i]), true, nil
			}
		}
		l := p.cur
		p.cur = nil
		if !p.found && p.j.Outer {
			return p.j.rows.build(l, nil), true, nil
		}
	}
}

// nextQuant is next under Quant: a probe tuple folds its matches until one
// settles its decision, and is emitted alone when the predicate holds.
func (p *prober) nextQuant() (storage.Tuple, bool, error) {
	k, t := p.j.key, &p.table
	for {
		l, ok, err := p.j.Left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		p.d.start(l)
		if !k.dead(l, k.left) {
			h := hashKey(l, k.left)
			for at := t.heads[t.slot(h)]; at != 0; at = t.next[at-1] {
				if r := t.rows[at-1]; t.hashes[at-1] == h && k.equal(l, r, 0) {
					if done, err := p.d.see(r); err != nil {
						return nil, false, err
					} else if done {
						break
					}
				}
			}
		}
		if p.d.keep() {
			return p.j.rows.build(l, nil), true, nil
		}
	}
}

// Next runs the probe kernel: the first call hashes the build rows.
func (j *ParallelHashJoin) Next() (storage.Tuple, bool, error) {
	if j.probe == nil {
		j.probe = newProber(j)
	}
	return j.probe.next()
}

// Close releases the build rows and their charge and closes both
// children.
func (j *ParallelHashJoin) Close() error {
	j.probe, j.build = nil, nil
	j.QC.ReleaseBuffered(j.charged)
	j.charged = 0
	err := j.Left.Close()
	if err2 := j.Right.Close(); err == nil {
		err = err2
	}
	return err
}

// Schema is the Out columns of the children's concatenated schemas, or
// the left schema under Quant.
func (j *ParallelHashJoin) Schema() RowSchema {
	if j.Quant != nil {
		return quantSchema(j.Out, j.Left.Schema())
	}
	return outSchema(j.Out, j.Left.Schema(), j.Right.Schema())
}

// ParallelHashGroup is GROUP BY aggregation over an unsorted input, in one
// groupTable: the first Next admits the whole child, and Next emits the
// groups in first-seen order. With no grouping columns it is a global
// aggregate, which emits exactly one row even over empty input (COUNT =
// 0), the nested-iteration semantics NEST-JA2 must preserve.
type ParallelHashGroup struct {
	Child     Operator
	GroupCols []int
	Items     []GroupItem
	// Workers is ignored: the aggregation runs on the caller's goroutine.
	// It stays only while bench/'s probes set it.
	Workers int
	// QC, when set, governs cancellation and hard-charges the groups
	// against the memory budget.
	QC *qctx.QueryContext

	groups  *groupTable // nil until the first Next
	charged int64       // their budget charge, released by Close
	at      int         // the next group Next emits
}

// Open opens the child.
func (g *ParallelHashGroup) Open() error { return g.Child.Open() }

// admit is the one group-admit loop: every row of the child joins its
// group, a new group charged as it opens, the context checked once per
// morsel. A global aggregate holds its one group even over empty input
// (COUNT = 0).
func (g *ParallelHashGroup) admit() (*groupTable, error) {
	groups := &groupTable{cols: g.GroupCols, items: g.Items}
	for seen := 0; ; seen++ {
		if seen%MorselSize == 0 {
			if err := g.QC.Check(); err != nil {
				return nil, err
			}
		}
		t, ok, err := g.Child.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		i, h := groups.find(t)
		if i < 0 {
			n := groupBytes(t, g.GroupCols, g.Items)
			if _, err := reserve(g.QC, nil, n); err != nil {
				return nil, err
			}
			g.charged += n
			i = groups.insert(t, h)
		}
		if err := groups.add(i, t); err != nil {
			return nil, err
		}
	}
	if len(g.GroupCols) == 0 && groups.n == 0 {
		groups.open(nil)
	}
	return groups, nil
}

// Next emits the next group, checking the context once per morsel of
// groups; the first call admits the whole child.
func (g *ParallelHashGroup) Next() (storage.Tuple, bool, error) {
	if g.groups == nil {
		groups, err := g.admit()
		if err != nil {
			return nil, false, err
		}
		g.groups, g.at = groups, 0
	}
	var err error
	if g.at%MorselSize == 0 {
		err = g.QC.Check()
	}
	if err != nil || g.at >= g.groups.n {
		return nil, false, err
	}
	g.at++
	return g.groups.row(g.at - 1), true, nil
}

// Close releases the groups' charge and closes the child.
func (g *ParallelHashGroup) Close() error {
	g.groups = nil
	g.QC.ReleaseBuffered(g.charged)
	g.charged = 0
	return g.Child.Close()
}

// Schema lists the configured output columns.
func (g *ParallelHashGroup) Schema() RowSchema { return aggSchema(g.Items) }
