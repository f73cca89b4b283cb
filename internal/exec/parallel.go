package exec

import (
	"errors"
	"math/bits"
	"sync"

	"repro/internal/qctx"
	"repro/internal/storage"
)

// This file holds the hash operators' kernels, the hash-probe loop of
// ParallelHashJoin and the group-admit loop of ParallelHashGroup. The
// planner runs both inline, on the query's goroutine, whatever the
// parallelism. The morsel-driven exchange below them — a distributor
// goroutine hash-partitioning the child's tuples into per-worker channels
// of morsels, workers running a kernel on their partition, ExchangeMerge
// draining the workers' output back into the pull-iterator model — is
// built only by bench/'s exec.par_* probes, and goes once they stop.
// Kernels hold their state in memory and hard-charge it against the
// query's budget (see budget.go): they never spill. Partitioning by key
// hash keeps every row of a key on one worker, so an outer-join pad and a
// group's accumulators never need cross-worker merging; the exchange's
// output order is nondeterministic.

// Morsel is a batch of tuples moved between parallel workers.
type Morsel []storage.Tuple

// MorselSize is the batch size used by distributors and workers.
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

// exchange carries worker output back to the consuming goroutine, plus the
// control channels that make early Close safe: closing stop unblocks any
// producer waiting to send, and wg tracks producer goroutines so Close can
// wait for all of them to exit before returning (no goroutine leaks).
type exchange struct {
	out  chan Morsel
	errc chan error
	stop chan struct{}
	wg   sync.WaitGroup
}

// fail records the first error; later errors are dropped.
func (ex *exchange) fail(err error) {
	select {
	case ex.errc <- err:
	default:
	}
}

// guard is the deferred panic handler of every producer goroutine: a
// panic in the distributor or a worker (a storage fault, a bug) becomes a
// recorded exchange error instead of killing the process. Register it
// LAST among a goroutine's defers, so it runs before wg.Done and before
// the distributor closes its worker channels. A worker passes its input
// channel so the guard can drain it — otherwise the distributor could
// block forever on the dead worker's full channel.
func (ex *exchange) guard(in <-chan Morsel) {
	if v := recover(); v != nil {
		ex.fail(qctx.Recovered(v))
		if in != nil {
			for range in {
			}
		}
	}
}

// partitioning describes what the exchange's distributor routes: child's
// tuples, by the hash of their key columns (no columns: all to worker 0),
// to one of workers goroutines.
type partitioning struct {
	child   Operator
	keys    []int
	workers int
	qc      *qctx.QueryContext
}

// start runs the exchange below ex: one distributor and p.workers workers,
// each running work over its partition's tuples (src) and emitting through
// out. Every goroutine is registered with ex.wg before start returns.
func (ex *exchange) start(p partitioning, work func(id int, src *source, out *emitter) error) {
	inputs := make([]chan Morsel, p.workers)
	for i := range inputs {
		// Two morsels of slack let the distributor run ahead of a busy
		// worker without buffering unboundedly.
		inputs[i] = make(chan Morsel, 2)
	}
	ex.wg.Add(p.workers + 1)
	go ex.distribute(p, inputs)
	for i, in := range inputs {
		go ex.worker(i, in, p.qc, work)
	}
}

// distribute is the one distributor loop: pull the child, route by key
// hash, buffer a morsel per worker, flush.
func (ex *exchange) distribute(p partitioning, inputs []chan Morsel) {
	defer ex.wg.Done()
	defer func() {
		for _, ch := range inputs {
			close(ch)
		}
	}()
	defer ex.guard(nil) // runs first: recover, then close inputs, then Done
	bufs := make([]Morsel, len(inputs))
	flush := func(i int) bool {
		if len(bufs[i]) == 0 {
			return true
		}
		m := bufs[i]
		bufs[i] = nil
		select {
		case inputs[i] <- m:
			return true
		case <-ex.stop:
			return false
		}
	}
	for {
		if err := p.qc.Check(); err != nil {
			ex.fail(err)
			return
		}
		t, ok, err := p.child.Next()
		if err != nil {
			ex.fail(err)
			return
		}
		if !ok {
			break
		}
		i := int(hashKey(t, p.keys) % uint64(len(inputs)))
		if bufs[i] == nil {
			bufs[i] = newMorsel()
		}
		bufs[i] = append(bufs[i], t)
		if len(bufs[i]) >= MorselSize && !flush(i) {
			return
		}
	}
	for i := range bufs {
		if !flush(i) {
			return
		}
	}
}

// worker runs one worker goroutine: work over the partition's input, then
// the trailing output morsel. After any failure it keeps consuming its
// channel so the distributor is never left blocked on it.
func (ex *exchange) worker(id int, in <-chan Morsel, qc *qctx.QueryContext, work func(int, *source, *emitter) error) {
	defer ex.wg.Done()
	defer ex.guard(in) // runs first: recover + drain, then Done
	out := emitter{ex: ex}
	err := work(id, &source{qc: qc, in: in}, &out)
	if err == nil {
		err = out.flush()
	}
	if err != nil {
		if err != errExchangeStopped {
			ex.fail(err)
		}
		for range in {
		}
	}
}

// errExchangeStopped aborts a worker when the consumer has closed the
// exchange; it is never surfaced to the query.
var errExchangeStopped = errors.New("exchange stopped")

// emitter batches a worker's output rows into morsels for the consumer.
type emitter struct {
	ex  *exchange
	buf Morsel
}

func (e *emitter) emit(t storage.Tuple) error {
	if e.buf == nil {
		e.buf = newMorsel()
	}
	e.buf = append(e.buf, t)
	if len(e.buf) < MorselSize {
		return nil
	}
	return e.flush()
}

func (e *emitter) flush() error {
	if len(e.buf) == 0 {
		return nil
	}
	m := e.buf
	e.buf = nil
	select {
	case e.ex.out <- m:
		return nil
	case <-e.ex.stop:
		return errExchangeStopped
	}
}

// ParallelSource is a plan fragment that produces rows through worker
// goroutines. ExchangeMerge is its only consumer; run must register every
// goroutine it starts with ex.wg before returning.
type ParallelSource interface {
	Open() error
	Close() error
	Schema() RowSchema
	// NumWorkers reports the worker count (for sizing the exchange).
	NumWorkers() int
	run(ex *exchange)
}

// ExchangeMerge adapts a ParallelSource back into the pull-based Operator
// interface: Open starts the source's goroutines, Next drains their merged
// output one tuple at a time, Close stops and joins them. No plan places
// it: bench/'s exec.par_* probes build it, and it goes once they stop.
type ExchangeMerge struct {
	Source ParallelSource
	// QC, when set, wakes Next on cancellation even while all workers
	// are stalled (e.g. injected latency), and is checked per morsel.
	QC *qctx.QueryContext

	ex     *exchange
	src    source // the workers' merged output
	closed bool
}

// Open opens the source and starts its distributor and workers.
func (e *ExchangeMerge) Open() error {
	if err := e.Source.Open(); err != nil {
		return err
	}
	w := e.Source.NumWorkers()
	ex := &exchange{
		out:  make(chan Morsel, 2*w),
		errc: make(chan error, w+1),
		stop: make(chan struct{}),
	}
	e.ex, e.src, e.closed = ex, source{qc: e.QC, in: ex.out}, false
	e.Source.run(ex)
	go func() {
		ex.wg.Wait()
		close(ex.out)
	}()
	return nil
}

// Next returns the next tuple from any worker, in arrival order.
func (e *ExchangeMerge) Next() (storage.Tuple, bool, error) {
	if e.ex == nil {
		return nil, false, nil
	}
	t, ok, err := e.src.next()
	if !ok && err == nil {
		// All producers exited; surface a recorded error, if any.
		select {
		case err = <-e.ex.errc:
		default:
		}
	}
	return t, ok, err
}

// Close signals producers to stop, waits for every goroutine to exit, and
// closes the source. It is safe to call before the output is fully drained
// (e.g. a LIMIT-style consumer) and safe to call more than once.
func (e *ExchangeMerge) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	if e.ex != nil {
		close(e.ex.stop)
		// Drain until the closer goroutine closes out (after wg.Wait), so
		// no producer is left blocked on a full channel.
		for m := range e.ex.out {
			recycle(m)
		}
		e.ex.wg.Wait()
		e.ex = nil
	}
	return e.Source.Close()
}

// Schema is the source's schema.
func (e *ExchangeMerge) Schema() RowSchema { return e.Source.Schema() }

// ParallelHashJoin is an equality hash join on every equality conjunct of
// the join — the leading pair (LeftKey, RightKey, NullEq) and More. Open
// drains the Right (build) side sequentially, hard-charging it against the
// memory budget: a build side that does not fit fails the query with
// ErrMemoryBudget, and the engine's rerun sort-merges instead (hash
// operators never spill).
//
// Used as an Operator itself it runs inline, as the planner places it:
// Next streams the probe side through the probe kernel on the calling
// goroutine — no goroutine, no channel — so the output keeps the left
// input's order. Under an ExchangeMerge (bench/'s probes only) Workers
// goroutines probe, each its own hash partition of both sides.
//
// Semantics match MergeJoin: a row holding NULL in a key column matches
// nothing unless that pair is NULL-safe, and with Outer set every unmatched
// left row is emitted NULL-padded — the left outer join NEST-JA2's COUNT fix
// depends on. NULL hashes like any other value (to a fixed bucket), so
// under a NULL-safe pair NULL build and probe keys meet on one worker and
// join with each other. With Quant set it is the hash form of a
// quantified join, as MergeJoin's Quant.
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
	// Workers is the worker-goroutine count under an ExchangeMerge; < 1 runs one.
	Workers int
	// QC, when set, governs the build scan (cancellation + memory budget
	// for the buffered build side) and is checked by every goroutine.
	QC *qctx.QueryContext

	key     joinKey
	rows    rowBuilder
	parts   [][]storage.Tuple // the build rows; under run, one hash partition per worker
	charged int64             // the build rows' budget charge, released by Close
	inline  *prober           // the inline join's probe of Left, nil until the first Next
}

// NumWorkers reports the resolved worker count.
func (j *ParallelHashJoin) NumWorkers() int { return max(j.Workers, 1) }

// Open opens both children and collects the build rows from the right
// side, hashing none of them: the hash table hashes them once. The build
// scan happens on the calling goroutine, so storage access stays
// sequential.
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
	j.parts = [][]storage.Tuple{build.flatten()}
	return nil
}

// run partitions the build rows by key hash, one part per worker, and
// starts the workers.
func (j *ParallelHashJoin) run(ex *exchange) {
	if w := j.NumWorkers(); w > 1 {
		rows := j.parts[0]
		j.parts = make([][]storage.Tuple, w)
		for _, t := range rows {
			i := hashKey(t, j.key.right) % uint64(w)
			j.parts[i] = append(j.parts[i], t)
		}
	}
	ex.start(partitioning{child: j.Left, keys: j.key.left, workers: len(j.parts), qc: j.QC}, j.work)
}

// work is one worker: probe the partition's build rows with its input,
// emitting everything the kernel yields.
func (j *ParallelHashJoin) work(id int, src *source, out *emitter) error {
	p := newProber(j, j.parts[id], src)
	for {
		t, ok, err := p.next()
		if err != nil || !ok {
			return err
		}
		if err := out.emit(t); err != nil {
			return err
		}
	}
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

// prober is the one hash-probe loop, in pull form: every tuple of src
// against table, matches joined, unmatched tuples NULL-padded when Outer.
// A joined row is built only once the whole key is known to match, by the
// prober's own copy of the join's builder: its chunks are this goroutine's.
// Under Quant it emits a probe tuple alone when its decision, folded over
// its matches until one settles it, holds.
type prober struct {
	j     *ParallelHashJoin
	rows  rowBuilder
	table hashTable
	src   *source
	cur   storage.Tuple // the probe tuple being matched, nil between tuples
	h     uint64        // cur's key hash
	at    int32         // the chain position to try next, +1; 0 when none is left
	found bool
	d     decision // the probe tuple's, under Quant
}

func newProber(j *ParallelHashJoin, rows []storage.Tuple, src *source) *prober {
	return &prober{j: j, rows: j.rows, table: newHashTable(rows, j.key.right), src: src, d: decision{q: j.Quant}}
}

func (p *prober) next() (storage.Tuple, bool, error) {
	if p.j.Quant != nil {
		return p.nextQuant()
	}
	k, t := p.j.key, &p.table
	for {
		if p.cur == nil {
			l, ok, err := p.src.next()
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
				return p.rows.build(p.cur, t.rows[i]), true, nil
			}
		}
		l := p.cur
		p.cur = nil
		if !p.found && p.j.Outer {
			return p.rows.build(l, nil), true, nil
		}
	}
}

// nextQuant is next under Quant: a probe tuple folds its matches until one
// settles its decision, and is emitted alone when the predicate holds.
func (p *prober) nextQuant() (storage.Tuple, bool, error) {
	k, t := p.j.key, &p.table
	for {
		l, ok, err := p.src.next()
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
			return p.rows.build(l, nil), true, nil
		}
	}
}

// Next drives the kernel inline, on the caller's goroutine.
func (j *ParallelHashJoin) Next() (storage.Tuple, bool, error) {
	if j.inline == nil {
		j.inline = newProber(j, j.parts[0], &source{op: j.Left})
	}
	return j.inline.next()
}

// Close releases the build rows and their charge and closes both
// children. Under an ExchangeMerge it runs after every goroutine has been
// joined.
func (j *ParallelHashJoin) Close() error {
	j.inline, j.parts = nil, nil
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

// ParallelHashGroup is GROUP BY aggregation over an unsorted input, one
// groupTable per worker. Used as an Operator itself, with Workers = 1, it
// runs inline, as the planner places it: the first Next drains the child
// into one table on the calling goroutine, and Next emits the groups in
// first-seen order. Under an ExchangeMerge (bench/'s probes only) the
// exchange routes every row of a group key to the same worker (hash
// partitioning on the full key), so each group is aggregated entirely on
// one worker and no accumulator merging — with its COUNT-vs-COUNT(*) and
// MAX({}) = NULL subtleties — is ever needed.
//
// With no grouping columns it is a global aggregate: all rows go to worker
// 0, which emits exactly one row even over empty input (COUNT = 0), the
// nested-iteration semantics NEST-JA2 must preserve.
type ParallelHashGroup struct {
	Child     Operator
	GroupCols []int
	Items     []GroupItem
	// Workers is the worker-goroutine count; < 1 runs one.
	Workers int
	// QC, when set, governs cancellation and hard-charges each worker's
	// groups against the memory budget.
	QC *qctx.QueryContext

	inline  *groupTable // the inline aggregation's groups, nil until the first Next
	charged int64       // their budget charge, released by Close
	at      int         // the next group Next emits
}

// NumWorkers reports the resolved worker count.
func (g *ParallelHashGroup) NumWorkers() int { return max(g.Workers, 1) }

// Open opens the child.
func (g *ParallelHashGroup) Open() error { return g.Child.Open() }

func (g *ParallelHashGroup) run(ex *exchange) {
	ex.start(partitioning{child: g.Child, keys: g.GroupCols, workers: g.NumWorkers(), qc: g.QC}, g.work)
}

// work is one worker: admit its partition, then emit the finished groups
// and release their charge.
func (g *ParallelHashGroup) work(id int, src *source, out *emitter) error {
	var charged int64
	defer func() { g.QC.ReleaseBuffered(charged) }()
	groups, err := g.admit(src, id == 0, &charged)
	for i := 0; err == nil && i < groups.n; i++ {
		err = out.emit(groups.row(i))
	}
	return err
}

// admit is the one group-admit loop: every row of src joins its group, a
// new group charged to *charged as it opens, the context checked once per
// morsel. The first partition of a global aggregate holds its one group
// even over empty input (COUNT = 0).
func (g *ParallelHashGroup) admit(src *source, first bool, charged *int64) (*groupTable, error) {
	groups := &groupTable{cols: g.GroupCols, items: g.Items}
	for seen := 0; ; seen++ {
		if seen%MorselSize == 0 {
			if err := g.QC.Check(); err != nil {
				return groups, err
			}
		}
		t, ok, err := src.next()
		if err != nil {
			return groups, err
		}
		if !ok {
			break
		}
		i, h := groups.find(t)
		if i < 0 {
			n := groupBytes(t, g.GroupCols, g.Items)
			if _, err := reserve(g.QC, nil, n); err != nil {
				return groups, err
			}
			*charged += n
			i = groups.insert(t, h)
		}
		if err := groups.add(i, t); err != nil {
			return groups, err
		}
	}
	if first && len(g.GroupCols) == 0 && groups.n == 0 {
		groups.open(nil)
	}
	return groups, nil
}

// Next runs the aggregation inline, on the caller's goroutine: the first
// call admits the whole child, every call emits the next group, checking
// the context once per morsel of groups.
func (g *ParallelHashGroup) Next() (storage.Tuple, bool, error) {
	if g.inline == nil {
		groups, err := g.admit(&source{op: g.Child}, true, &g.charged)
		if err != nil {
			return nil, false, err
		}
		g.inline, g.at = groups, 0
	}
	var err error
	if g.at%MorselSize == 0 {
		err = g.QC.Check()
	}
	if err != nil || g.at >= g.inline.n {
		return nil, false, err
	}
	g.at++
	return g.inline.row(g.at - 1), true, nil
}

// Close releases the inline groups' charge and closes the child.
func (g *ParallelHashGroup) Close() error {
	g.inline = nil
	g.QC.ReleaseBuffered(g.charged)
	g.charged = 0
	return g.Child.Close()
}

// Schema lists the configured output columns.
func (g *ParallelHashGroup) Schema() RowSchema { return aggSchema(g.Items) }
