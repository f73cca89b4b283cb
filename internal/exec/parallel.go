package exec

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/qctx"
	"repro/internal/spill"
	"repro/internal/storage"
)

// This file implements morsel-driven parallel execution. There is one
// partitioning exchange: a distributor goroutine pulls the
// (single-threaded) child iterator and hash-partitions its tuples by
// join/group key into per-worker channels of "morsels" — batches of tuples
// that amortize channel synchronization. Workers run an operator kernel
// (the hash-probe kernel of ParallelHashJoin, the group-admit kernel of
// ParallelHashGroup) on their partition and push output morsels into a
// shared channel; ExchangeMerge drains that channel back into the
// pull-iterator model. Under memory pressure a kernel's overflow goes to
// spill runs, and the same kernel then reads those runs instead of the
// channel (see budget.go for the reserve-or-spill rule).
//
// Partitioning by key hash is what preserves the paper's COUNT-bug
// semantics under parallelism: every row of a given key lands on exactly
// one worker, so an outer-join pad (the NULL row that makes COUNT(col)
// yield 0 for an empty group) is emitted by exactly one worker, and a
// group's accumulators never need cross-worker merging.
//
// Output order is nondeterministic — workers interleave. Plan builders must
// treat exchange output as unsorted (sort above it for ORDER BY, GROUP BY
// on sorted streams, or merge joins).

// Morsel is a batch of tuples moved between parallel workers.
type Morsel []storage.Tuple

// MorselSize is the batch size used by distributors and workers.
const MorselSize = 256

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
	// divert, when set, is offered every routed tuple and reports whether
	// it took it — a partition whose state lives on disk has its input
	// diverted there too. seal then runs after the last tuple, before the
	// worker channels close: the close is the happens-before edge that
	// publishes what divert wrote to the workers.
	divert func(part int, t storage.Tuple) (bool, error)
	seal   func() error
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
		if p.divert != nil {
			taken, err := p.divert(i, t)
			if err != nil {
				ex.fail(err)
				return
			}
			if taken {
				continue
			}
		}
		bufs[i] = append(bufs[i], t)
		if len(bufs[i]) >= MorselSize && !flush(i) {
			return
		}
	}
	if p.seal != nil {
		if err := p.seal(); err != nil {
			ex.fail(err)
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
// output one tuple at a time, Close stops and joins them. It is the
// single synchronization point between the parallel fragment below and the
// sequential plan above.
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
	e.start()
	return nil
}

// start runs the already open source's goroutines.
func (e *ExchangeMerge) start() {
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
	e.stop()
	return e.Source.Close()
}

// stop signals producers to stop and waits for every goroutine to exit.
func (e *ExchangeMerge) stop() {
	if e.ex != nil {
		close(e.ex.stop)
		// Drain until the closer goroutine closes out (after wg.Wait), so
		// no producer is left blocked on a full channel.
		for range e.ex.out {
		}
		e.ex.wg.Wait()
		e.ex = nil
	}
}

// Schema is the source's schema.
func (e *ExchangeMerge) Schema() RowSchema { return e.Source.Schema() }

// defaultWorkers resolves a configured worker count: non-positive means
// one worker per CPU.
func defaultWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// ParallelHashJoin is an equality hash join on every equality conjunct of
// the join — the leading pair (LeftKey, RightKey, NullEq) and More. Open
// drains the Right (build) side sequentially, partitioning it by key hash.
//
// Under an ExchangeMerge it is executed by Workers goroutines: run starts
// the exchange that partitions the Left (probe) side the same way, so
// matching keys meet on the same worker. Used as an Operator itself, with
// Workers = 1, it runs inline: Next streams the probe side through the
// same probe kernel on the calling goroutine — no goroutine, no channel —
// so the output keeps the left input's order. Only when the build side
// has spilled does the inline join hand over to an exchange of its own,
// which owns Grace spilling; its output is then in no particular order.
//
// Semantics match MergeJoin: a row holding NULL in a key column matches
// nothing unless that pair is NULL-safe, and with Outer set every unmatched
// left row is emitted NULL-padded — the left outer join NEST-JA2's COUNT fix
// depends on. NULL hashes like any other value (to a fixed bucket), so
// under a NULL-safe pair NULL build and probe keys meet on one worker and
// join with each other.
type ParallelHashJoin struct {
	Left, Right       Operator
	LeftKey, RightKey int
	NullEq            bool
	More              []KeyPair
	Outer             bool
	Out               []int // as in MergeJoin
	// Workers is the worker-goroutine count; <= 0 means runtime.NumCPU().
	Workers int
	// QC, when set, governs the build scan (cancellation + memory budget
	// for the buffered build side) and is checked by every goroutine.
	QC *qctx.QueryContext
	// Spill, when set, enables Grace-style degradation: a build partition
	// whose reservation is refused spills to a run file, its probe tuples
	// are diverted to a probe run, and the pair is joined in a post-pass
	// on the owning worker (recursively sub-partitioned if still too big).
	Spill *spill.Session

	key     joinKey
	rows    rowBuilder
	parts   []joinPart
	inline  *prober        // the inline join's probe of Left, nil until the first Next
	handoff *ExchangeMerge // the inline join's exchange once the build side spilled
}

// The two sides of a spilled partition's state.
const (
	buildSide = iota
	probeSide
)

// joinPart is one hash partition of the build side: its rows while it is
// resident, its (build, probe) run pair once it has been evicted. The
// probe writer is touched only by the distributor goroutine, and the
// probe run is published to the worker by the channel close.
type joinPart struct {
	rows    []storage.Tuple
	bytes   int64 // charged for rows, released on eviction or Close
	spilled bool
	wr      [2]*spill.Writer
	run     [2]*spill.Run
}

// seal finishes the side's writer, if any, into its run.
func (p *joinPart) seal(side int) (err error) {
	if wr := p.wr[side]; wr != nil {
		p.wr[side] = nil
		p.run[side], err = wr.Finish()
	}
	return err
}

// NumWorkers reports the resolved worker count.
func (j *ParallelHashJoin) NumWorkers() int { return defaultWorkers(j.Workers) }

// Open opens both children and builds the partitioned hash-table input
// from the right side. The build scan happens on the calling goroutine, so
// storage access stays sequential.
func (j *ParallelHashJoin) Open() error {
	if err := j.Left.Open(); err != nil {
		return err
	}
	if err := j.Right.Open(); err != nil {
		j.Left.Close()
		return err
	}
	j.key = newJoinKey(j.LeftKey, j.RightKey, j.NullEq, j.More)
	j.rows = newRowBuilder(j.Out, j.Left.Schema(), j.Right.Schema())
	j.parts = make([]joinPart, j.NumWorkers())
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
		p := &j.parts[hashKey(t, j.key.right)%uint64(len(j.parts))]
		// On refusal evict the largest resident partition to disk until
		// the reservation fits or this tuple's own partition has spilled.
		n := tupleBytes(t)
		for !p.spilled {
			fits, err := reserve(j.QC, j.Spill, n, 0)
			if err != nil {
				return err
			}
			if fits {
				p.bytes += n
				p.rows = append(p.rows, t)
				break
			}
			if err := j.spillPartition(j.largestResident(p)); err != nil {
				return err
			}
		}
		if p.spilled {
			if err := p.wr[buildSide].Append(t); err != nil {
				return err
			}
		}
	}
	// Seal the build runs; probe runs are written during distribution.
	for i := range j.parts {
		if err := j.parts[i].seal(buildSide); err != nil {
			return err
		}
	}
	return nil
}

// largestResident picks the spill victim: the resident partition holding
// the most charged bytes (fallback, the requesting partition itself).
func (j *ParallelHashJoin) largestResident(p *joinPart) *joinPart {
	for i := range j.parts {
		if q := &j.parts[i]; !q.spilled && q.bytes > p.bytes {
			p = q
		}
	}
	return p
}

// spillPartition evicts one build partition: its tuples move to a fresh
// run file, its budget charge is released, and all later build and probe
// tuples for the partition divert to runs.
func (j *ParallelHashJoin) spillPartition(p *joinPart) error {
	wr, err := j.Spill.NewWriter()
	if err != nil {
		return err
	}
	p.wr[buildSide], p.spilled = wr, true
	for _, t := range p.rows {
		if err := wr.Append(t); err != nil {
			return err
		}
	}
	p.rows = nil
	j.QC.ReleaseBuffered(p.bytes)
	p.bytes = 0
	return nil
}

func (j *ParallelHashJoin) run(ex *exchange) {
	ex.start(partitioning{child: j.Left, keys: j.key.left, workers: len(j.parts), qc: j.QC,
		divert: j.divertProbe, seal: j.sealProbes}, j.work)
}

// divertProbe takes the probe tuples of partitions whose build side lives
// on disk and appends them to the partition's probe run, for the owning
// worker's post-pass.
func (j *ParallelHashJoin) divertProbe(part int, t storage.Tuple) (bool, error) {
	p := &j.parts[part]
	if !p.spilled {
		return false, nil
	}
	if p.wr[probeSide] == nil {
		wr, err := j.Spill.NewWriter()
		if err != nil {
			return false, err
		}
		p.wr[probeSide] = wr
	}
	return true, p.wr[probeSide].Append(t)
}

func (j *ParallelHashJoin) sealProbes() error {
	for i := range j.parts {
		if err := j.parts[i].seal(probeSide); err != nil {
			return err
		}
	}
	return nil
}

// work is one worker: probe the resident build rows with the partition's
// input, then join the partition's spilled pair, if any.
func (j *ParallelHashJoin) work(id int, src *source, out *emitter) error {
	p := &j.parts[id]
	table := make(map[uint64][]storage.Tuple)
	for _, r := range p.rows {
		j.insert(table, r)
	}
	if err := j.probe(out, table, src); err != nil || !p.spilled {
		return err
	}
	// The input channel is closed, so the distributor has sealed and
	// published the probe run.
	return j.joinSpilled(out, p.run, 1)
}

func (j *ParallelHashJoin) insert(table map[uint64][]storage.Tuple, r storage.Tuple) {
	h := hashKey(r, j.key.right)
	table[h] = append(table[h], r)
}

// prober is the one hash-probe loop, in pull form: every tuple of src
// against table, matches joined, unmatched tuples NULL-padded when Outer.
// A joined row is built only once the whole key is known to match.
type prober struct {
	j      *ParallelHashJoin
	table  map[uint64][]storage.Tuple
	src    *source
	cur    storage.Tuple   // the probe tuple being matched, nil between tuples
	bucket []storage.Tuple // build rows sharing cur's key hash, not yet tried
	found  bool
}

func (p *prober) next() (storage.Tuple, bool, error) {
	k := p.j.key
	for {
		if p.cur == nil {
			l, ok, err := p.src.next()
			if err != nil || !ok {
				return nil, false, err
			}
			p.cur, p.bucket, p.found = l, nil, false
			if !k.dead(l, k.left) {
				p.bucket = p.table[hashKey(l, k.left)]
			}
		}
		for len(p.bucket) > 0 {
			r := p.bucket[0]
			p.bucket = p.bucket[1:]
			if k.equal(p.cur, r, 0) { // else a hash collision
				p.found = true
				return p.j.rows.build(p.cur, r), true, nil
			}
		}
		l := p.cur
		p.cur = nil
		if !p.found && p.j.Outer {
			return p.j.rows.build(l, nil), true, nil
		}
	}
}

// probe drives the kernel for a worker: everything it yields is emitted.
func (j *ParallelHashJoin) probe(out *emitter, table map[uint64][]storage.Tuple, src *source) error {
	p := prober{j: j, table: table, src: src}
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

// Next drives the kernel inline, on the caller's goroutine.
func (j *ParallelHashJoin) Next() (storage.Tuple, bool, error) {
	if j.inline == nil && j.handoff == nil {
		switch {
		case len(j.parts) != 1:
			return nil, false, fmt.Errorf("exec: inline hash join over %d partitions; it needs Workers = 1", len(j.parts))
		case j.parts[0].spilled:
			j.handoff = &ExchangeMerge{Source: j, QC: j.QC}
			j.handoff.start()
		default:
			j.inline = &prober{j: j, table: make(map[uint64][]storage.Tuple), src: &source{op: j.Left}}
			for _, r := range j.parts[0].rows {
				j.insert(j.inline.table, r)
			}
		}
	}
	if j.handoff != nil {
		return j.handoff.Next()
	}
	return j.inline.next()
}

// joinSpilled joins one spilled (build run, probe run) pair at the given
// level and removes both runs: it rebuilds the hash table from the build
// run under reservation and probes it with the probe run. If the build
// side is refused memory again, both runs are sub-partitioned and joined
// recursively.
func (j *ParallelHashJoin) joinSpilled(out *emitter, runs [2]*spill.Run, depth int) error {
	defer removeRuns(runs[:]...)
	if runs[probeSide] == nil {
		// No probe rows reached this partition: inner and left-outer
		// joins emit nothing (Outer pads probe rows, and there are none).
		return nil
	}
	var charged int64
	defer func() { j.QC.ReleaseBuffered(charged) }()
	table := make(map[uint64][]storage.Tuple)
	if runs[buildSide] != nil {
		build, err := openRun(j.QC, runs[buildSide])
		if err != nil {
			return err
		}
		defer build.close()
		for {
			t, ok, err := build.next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			n := tupleBytes(t)
			fits, err := reserve(j.QC, j.Spill, n, depth)
			if err != nil {
				return err
			}
			if !fits {
				build.close()
				j.QC.ReleaseBuffered(charged)
				charged = 0
				return j.splitSpilled(out, runs, depth)
			}
			charged += n
			j.insert(table, t)
		}
	}
	probe, err := openRun(j.QC, runs[probeSide])
	if err != nil {
		return err
	}
	defer probe.close()
	return j.probe(out, table, &probe)
}

// spillFanout is how many sub-runs one level of splitting cuts a spilled
// run into.
const spillFanout = 4

// rehashSpill re-salts a key hash for sub-partitioning at the given
// level, so each level cuts along an independent boundary.
func rehashSpill(h uint64, depth int) uint64 {
	h ^= uint64(depth+1) * 0x9E3779B97F4A7C15
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// splitSpilled sub-partitions a too-large spilled pair by a re-salted
// hash and joins each sub-pair one level down.
func (j *ParallelHashJoin) splitSpilled(out *emitter, runs [2]*spill.Run, depth int) error {
	var subs [2][spillFanout]*spill.Run
	var err error
	for side, key := range [2][]int{buildSide: j.key.right, probeSide: j.key.left} {
		if err == nil {
			subs[side], err = j.splitRun(runs[side], key, depth)
		}
	}
	// The parents are fully rewritten into the children (or the split
	// failed); drop them now so peak disk stays proportional to one level
	// of the recursion.
	removeRuns(runs[:]...)
	for i := range spillFanout {
		pair := [2]*spill.Run{subs[buildSide][i], subs[probeSide][i]}
		if err == nil {
			err = j.joinSpilled(out, pair, depth+1)
		} else {
			removeRuns(pair[:]...)
		}
	}
	return err
}

// splitRun rewrites run (nil: nothing to do) into up to spillFanout
// sub-runs by the re-salted hash of columns key. On failure none survive.
func (j *ParallelHashJoin) splitRun(run *spill.Run, key []int, depth int) (subs [spillFanout]*spill.Run, err error) {
	if run == nil {
		return subs, nil
	}
	var wrs [spillFanout]*spill.Writer
	defer func() {
		if err != nil {
			abortWriters(wrs[:]...)
			removeRuns(subs[:]...)
			subs = [spillFanout]*spill.Run{}
		}
	}()
	src, err := openRun(j.QC, run)
	if err != nil {
		return subs, err
	}
	defer src.close()
	for {
		t, ok, err := src.next()
		if err != nil {
			return subs, err
		}
		if !ok {
			break
		}
		b := rehashSpill(hashKey(t, key), depth) % spillFanout
		if wrs[b] == nil {
			if wrs[b], err = j.Spill.NewWriter(); err != nil {
				return subs, err
			}
		}
		if err := wrs[b].Append(t); err != nil {
			return subs, err
		}
	}
	for i, wr := range wrs {
		if wr != nil {
			wrs[i] = nil
			if subs[i], err = wr.Finish(); err != nil {
				return subs, err
			}
		}
	}
	return subs, nil
}

// Close releases the build partitions, drops any spill state the workers
// did not consume (error and early-close paths), and closes both
// children. It runs after ExchangeMerge has joined every goroutine (the
// inline join stops its own exchange first), so touching the writers and
// runs is race-free.
func (j *ParallelHashJoin) Close() error {
	if j.handoff != nil {
		j.handoff.stop()
	}
	j.inline, j.handoff = nil, nil
	for i := range j.parts {
		p := &j.parts[i]
		j.QC.ReleaseBuffered(p.bytes)
		abortWriters(p.wr[:]...)
		removeRuns(p.run[:]...)
	}
	j.parts = nil
	err := j.Left.Close()
	if err2 := j.Right.Close(); err == nil {
		err = err2
	}
	return err
}

// Schema is the Out columns of the children's concatenated schemas.
func (j *ParallelHashJoin) Schema() RowSchema {
	return newRowBuilder(j.Out, j.Left.Schema(), j.Right.Schema()).sch
}

// ParallelHashGroup is GROUP BY aggregation executed by Workers goroutines
// over an unsorted input. The exchange routes every row of a group key to
// the same worker (hash partitioning on the full key), so each group is
// aggregated entirely on one worker and no accumulator merging — with its
// COUNT-vs-COUNT(*) and MAX({}) = NULL subtleties — is ever needed.
//
// With no grouping columns it is a global aggregate: all rows go to worker
// 0, which emits exactly one row even over empty input (COUNT = 0), the
// nested-iteration semantics NEST-JA2 must preserve.
type ParallelHashGroup struct {
	Child     Operator
	GroupCols []int
	Items     []GroupItem
	// Workers is the worker-goroutine count; <= 0 means runtime.NumCPU().
	Workers int
	// QC, when set, governs cancellation and charges buffered group state
	// against the memory budget.
	QC *qctx.QueryContext
	// Spill, when set, enables hybrid aggregation: once a worker's group
	// table cannot grow, rows for unseen keys are diverted to a spill run
	// (resident keys keep accumulating) and the run is aggregated in
	// further passes after the input drains.
	Spill *spill.Session
}

// NumWorkers reports the resolved worker count.
func (g *ParallelHashGroup) NumWorkers() int { return defaultWorkers(g.Workers) }

// Open opens the child.
func (g *ParallelHashGroup) Open() error { return g.Child.Open() }

func (g *ParallelHashGroup) run(ex *exchange) {
	ex.start(partitioning{child: g.Child, keys: g.GroupCols, workers: g.NumWorkers(), qc: g.QC}, g.work)
}

// work is one worker: level 0 aggregates the partition's input, and every
// level that overflowed into a spill run is followed by one that reads it.
func (g *ParallelHashGroup) work(id int, src *source, out *emitter) error {
	var run *spill.Run
	for depth := 0; ; depth++ {
		next, err := g.aggregate(out, src, depth, id == 0)
		// This level's run is fully read (or the level failed); drop it
		// so peak disk stays proportional to one level.
		src.close()
		removeRuns(run)
		if err != nil || next == nil {
			return err
		}
		run = next
		level, err := openRun(g.QC, run)
		if err != nil {
			removeRuns(run)
			return err
		}
		src = &level
	}
}

// aggregate is the one group-admit loop, run once per level: it admits
// groups from src while the budget allows and folds their rows in; from
// the first refusal on the table is frozen — rows of unseen keys go to a
// next-level run, rows of resident keys keep accumulating, so the keys of
// this level and the next stay disjoint. It emits the finished groups and
// returns the next-level run, nil when nothing overflowed. The level's
// charge is released on return, handing the budget to the next level,
// which holds strictly fewer keys; past maxSpillDepth reserve stops
// refusing, so the levels terminate — or surface ErrMemoryBudget if the
// data truly cannot fit.
func (g *ParallelHashGroup) aggregate(out *emitter, src *source, depth int, first bool) (*spill.Run, error) {
	var charged int64
	defer func() { g.QC.ReleaseBuffered(charged) }()
	var overflow *spill.Writer
	defer func() { abortWriters(overflow) }()
	groups := make(map[uint64][]*groupState)
	var order []*groupState
	for {
		t, ok, err := src.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		h := hashKey(t, g.GroupCols)
		var gs *groupState
		for _, cand := range groups[h] {
			if sameKey(cand.key, t, g.GroupCols) {
				gs = cand
				break
			}
		}
		if gs == nil && overflow == nil {
			key := groupKey(t, g.GroupCols)
			n := groupBytes(key, g.Items)
			fits, err := reserve(g.QC, g.Spill, n, depth)
			if err != nil {
				return nil, err
			}
			if fits {
				charged += n
				gs = newGroup(key, g.Items)
				order = append(order, gs)
				groups[h] = append(groups[h], gs)
			} else if overflow, err = g.Spill.NewWriter(); err != nil {
				return nil, err
			}
		}
		if gs == nil {
			if err := overflow.Append(t); err != nil {
				return nil, err
			}
			continue
		}
		if err := gs.add(t, g.Items); err != nil {
			return nil, err
		}
	}
	if first && depth == 0 && len(g.GroupCols) == 0 && len(order) == 0 && overflow == nil {
		// Global aggregate over empty input: one row, COUNT = 0.
		order = append(order, newGroup(nil, g.Items))
	}
	for _, gs := range order {
		if err := out.emit(gs.row(g.GroupCols, g.Items)); err != nil {
			return nil, err
		}
	}
	if overflow == nil {
		return nil, nil
	}
	wr := overflow
	overflow = nil
	return wr.Finish()
}

// Close closes the child.
func (g *ParallelHashGroup) Close() error { return g.Child.Close() }

// Schema lists the configured output columns.
func (g *ParallelHashGroup) Schema() RowSchema { return aggSchema(g.Items) }
