package exec

import (
	"runtime"
	"slices"

	"repro/internal/qctx"
	"repro/internal/spill"
	"repro/internal/storage"
	"repro/internal/value"
)

// Sort is an external (B−1)-way merge sort, the sorting method of the
// paper's cost model (section 7): initial runs of B pages are formed in
// memory, then merged B−1 at a time, costing about 2·P·log_{B−1}(P) page
// I/Os for a P-page input. The last pass is not written: Next merges the
// last ≤ B−1 runs as the consumer pulls, saving the P writes and P reads
// the model charges for it (WriteLastPass keeps them). Run files bypass
// the buffer pool — the sorter owns its buffers — so measured I/O follows
// the model rather than LRU caching. An input that fits entirely in B
// pages sorts in memory with no I/O beyond the child's own reads.
//
// Under memory pressure (a refused qctx reservation) with a spill
// session attached, the in-memory buffer is cut short and written as a
// checksummed spill run on real disk instead of failing the query with
// ErrMemoryBudget; from then on every initial run spills. Heap-file
// runs and spill runs are kept in creation order and merged together,
// so the output is byte-identical to the unspilled sort (the merge is
// stable: ties resolve to the earliest run).
//
// NULLs sort first and compare equal to each other, so a Sort feeds both
// Distinct and GroupAgg directly.
type Sort struct {
	Child Operator
	// Keys are child column positions ordered by significance. Remaining
	// columns do not participate in the order.
	Keys []int
	// Desc flips the direction per key (nil = all ascending).
	Desc []bool
	// Store provides temp run files; TuplesPerPage sizes their pages
	// (callers pass the source relation's page capacity so run pages
	// match the cost model's page counts).
	Store         *storage.Store
	TuplesPerPage int
	// QC, when set, is checked while draining the child and merging runs,
	// and charged for tuples buffered in memory.
	QC *qctx.QueryContext
	// Spill, when set, enables degradation to spill runs instead of
	// ErrMemoryBudget when a buffer reservation is refused.
	Spill *spill.Session
	// WriteLastPass merges down to one written run before Next streams it
	// back, the last pass the paper's cost model charges, instead of
	// merging the last ≤ B−1 runs as Next pulls.
	WriteLastPass bool

	mem       []keyed   // in-memory result when input fits in B pages
	pos       int       // cursor into mem
	runs      []sortRun // initial/merged runs in creation order
	last      *merger   // merges the runs left after Open; nil when mem holds the result
	kinds     []uint8   // per key column, a bit 1<<Kind for each kind the runs hold
	cmpErr    error     // first key-comparison type error, surfaced by Open
	charged   int64     // bytes currently charged against the memory budget
	spillMode bool      // a reservation was refused; all new runs spill
}

// sortRun is one sorted run, on the paged heap "disk" or in a spill
// file. Exactly one field is set.
type sortRun struct {
	heap *storage.HeapFile
	sp   *spill.Run
}

// keyed is a buffered row and its position in the buffer, the last
// tie-break: with it the unstable slices.SortFunc leaves rows of equal
// keys in input order, which is what makes a sort's output the same bytes
// whether it ran in memory, through heap runs or through spill runs. k is
// the radix's digit source: the key column it is sorting on, as unsigned.
type keyed struct {
	t   storage.Tuple
	k   uint64
	seq int
}

// sortBufs is a free list of run buffers, kept at the capacity they grew
// to. Unlike a sync.Pool it survives a GC, so a sort's buffer and its
// radix scratch half are allocated once, not once per collection. One
// buffer per P covers every sort that can run at once without a wait:
// get and put never block, and a sort that finds the list empty
// allocates.
var sortBufs = make(chan []keyed, runtime.GOMAXPROCS(0))

// getBuf takes a run buffer off the free list, or nil when it is empty.
func getBuf() []keyed {
	select {
	case buf := <-sortBufs:
		return buf
	default:
		return nil
	}
}

// putBuf returns a run buffer, whose current extent is buf, to the free
// list, cleared so the list keeps no row alive.
func putBuf(buf []keyed) {
	if cap(buf) == 0 {
		return
	}
	clearRun(buf)
	select {
	case sortBufs <- buf[:0]:
	default:
	}
}

// clearRun zeroes a run's rows and the radix scratch half behind them.
func clearRun(buf []keyed) { clear(buf[:min(2*len(buf), cap(buf))]) }

// compareRows orders a against b on the key columns in the total order
// (NULLs first), desc flipping the direction per key (nil = all
// ascending). A comparator cannot return an error, so the first
// incomparable pair of keys is recorded in *cmpErr for the caller to
// report once the sort or merge step is done.
func compareRows(a, b storage.Tuple, keys []int, desc []bool, cmpErr *error) int {
	for i, k := range keys {
		c, err := value.TotalCompareRef(&a[k], &b[k])
		if err != nil {
			if *cmpErr == nil {
				*cmpErr = err
			}
			return 0
		}
		if c != 0 {
			if desc != nil && desc[i] {
				return -c
			}
			return c
		}
	}
	return 0
}

// sortBuf sorts one run's rows by key, ties by arrival, and returns the
// run, which moves when the radix grows the buffer for its scratch half.
// The keys of the run's longest prefix of columns that are INTEGER
// throughout or DATE throughout, where the payloads' order is the total
// order, sort by a stable LSD radix; compareRows orders the remaining keys
// only within each group of rows the prefix ties. A run with no such
// prefix (a NULL, a FLOAT, a string or mixed kinds in the leading key) is
// one such group.
func (s *Sort) sortBuf(buf []keyed) ([]keyed, error) {
	p := s.intPrefix(buf)
	if p > 0 {
		buf = s.radix(buf, p)
	}
	if p == len(s.Keys) {
		return buf, nil
	}
	keys, desc := s.Keys[p:], s.Desc
	if desc != nil {
		desc = desc[p:]
	}
	for lo := 0; lo < len(buf); {
		hi := lo + 1
		for hi < len(buf) && s.prefixTies(buf[lo].t, buf[hi].t, p) {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(buf[lo:hi], func(a, b keyed) int {
				if c := compareRows(a.t, b.t, keys, desc, &s.cmpErr); c != 0 {
					return c
				}
				return a.seq - b.seq
			})
		}
		lo = hi
	}
	return buf, s.cmpErr
}

// intPrefix counts the leading key columns that hold INTEGERs throughout
// or DATEs throughout the run.
func (s *Sort) intPrefix(buf []keyed) int {
	if len(buf) < 2 {
		return 0 // nothing to order, and no pair to compare
	}
	for p, col := range s.Keys {
		_, kind := value.IntKey(&buf[0].t[col])
		if kind != value.KindInt && kind != value.KindDate {
			return p
		}
		for i := range buf {
			if _, kd := value.IntKey(&buf[i].t[col]); kd != kind {
				return p
			}
		}
	}
	return len(s.Keys)
}

// prefixTies reports whether a and b agree on the first p keys, which
// intPrefix found to hold one integer kind per column.
func (s *Sort) prefixTies(a, b storage.Tuple, p int) bool {
	for _, col := range s.Keys[:p] {
		ka, _ := value.IntKey(&a[col])
		kb, _ := value.IntKey(&b[col])
		if ka != kb {
			return false
		}
	}
	return true
}

// shortRun is the longest run radix sorts by insertion: below it a
// 256-bucket counting pass costs more than the whole sort.
const shortRun = 16

// radix stably sorts buf on its first p keys, least significant column
// first. A short run sorts each column by insertion on k, a longer one by
// one counting pass per byte in which the run's values differ, scattering
// into the buffer's second half, grown once to 2n.
func (s *Sort) radix(buf []keyed, p int) []keyed {
	n := len(buf)
	if n <= shortRun {
		for i := p - 1; i >= 0; i-- {
			s.loadKeys(buf, i)
			for j := 1; j < n; j++ {
				r, m := buf[j], j
				for ; m > 0 && buf[m-1].k > r.k; m-- {
					buf[m] = buf[m-1]
				}
				buf[m] = r
			}
		}
		return buf
	}
	if cap(buf) < 2*n {
		buf = slices.Grow(buf, n)
	}
	src, dst := buf[:n], buf[n:2*n]
	for i := p - 1; i >= 0; i-- {
		diff := s.loadKeys(src, i)
		for shift := 0; diff>>shift != 0; shift += 8 {
			if diff>>shift&0xff == 0 {
				continue
			}
			var at [256]int
			for j := range src {
				at[src[j].k>>shift&0xff]++
			}
			sum := 0
			for d, c := range at {
				at[d], sum = sum, sum+c
			}
			for j := range src {
				d := src[j].k >> shift & 0xff
				dst[at[d]] = src[j]
				at[d]++
			}
			src, dst = dst, src
		}
	}
	if &src[0] != &buf[0] {
		copy(buf, src)
	}
	return buf
}

// loadKeys sets each row's k to its i-th key's payload with the sign bit
// flipped, which orders as unsigned the way the signed payloads do,
// complemented for a descending key to reverse that order. It returns
// the bits in which the run's keys differ.
func (s *Sort) loadKeys(buf []keyed, i int) (diff uint64) {
	col, flip := s.Keys[i], uint64(1)<<63
	if s.Desc != nil && s.Desc[i] {
		flip = ^flip
	}
	k0, _ := value.IntKey(&buf[0].t[col])
	for j := range buf {
		k, _ := value.IntKey(&buf[j].t[col])
		buf[j].k = uint64(k) ^ flip
		diff |= uint64(k ^ k0)
	}
	return diff
}

// Open drains the child, forms sorted runs, and merges them until at most
// B−1 are left for Next to merge — down to one when WriteLastPass is set
// or the runs' key kinds could meet in a type error, which must come from
// Open.
func (s *Sort) Open() error {
	if err := s.Child.Open(); err != nil {
		return err
	}
	defer s.Child.Close()
	s.mem, s.pos, s.runs, s.last = nil, 0, nil, nil
	s.cmpErr, s.charged, s.spillMode = nil, 0, false
	clear(s.kinds)

	tpp := s.TuplesPerPage
	if tpp <= 0 {
		tpp = storage.DefaultTuplesPerPage
	}
	b := s.Store.BufferPages()
	if b < 3 {
		b = 3 // a merge sort needs at least two inputs and one output frame
	}
	runCap := b * tpp
	// Once spilling, cut runs at a morsel of tuples, which bounds the
	// uncharged slack between flushes; a run costs only the bytes it holds.
	spillBatch := min(MorselSize, runCap)

	buf := getBuf()    // one buffer serves every run: flush clears it
	var bufBytes int64 // charged bytes in buf
	// flush sorts buf and writes it as the next run, returning its bytes
	// to the budget: the run now lives on "disk".
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		var err error
		if buf, err = s.sortBuf(buf); err != nil {
			return err
		}
		s.noteKinds(buf)
		run, err := s.writeRun(tpp, len(buf), func(w *runWriter) error {
			for _, it := range buf {
				if err := w.append(it.t); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		s.runs = append(s.runs, run)
		clearRun(buf) // the rows belong to the run now
		buf = buf[:0]
		s.QC.ReleaseBuffered(bufBytes)
		s.charged -= bufBytes
		bufBytes = 0
		return nil
	}

	for {
		t, ok, err := s.Child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := s.QC.Check(); err != nil {
			return err
		}
		if !s.spillMode {
			n := tupleBytes(t)
			fits, err := reserve(s.QC, s.Spill, n)
			if err != nil {
				return err
			}
			if fits {
				s.charged += n
				bufBytes += n
				buf = append(buf, keyed{t: t, seq: len(buf)})
				if len(buf) == runCap {
					if err := flush(); err != nil {
						return err
					}
				}
				continue
			}
			// Memory pressure: degrade to spill runs from here on.
			s.spillMode = true
		}
		// Tuples between spill flushes ride uncharged; the batch cap
		// bounds the slack to one morsel. Charged tuples still in buf
		// when the sort degrades are spilled at once.
		buf = append(buf, keyed{t: t, seq: len(buf)})
		if len(buf) >= spillBatch || bufBytes > 0 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if len(s.runs) == 0 {
		// Entire input fits in the sort's memory: no run I/O. The charge
		// for buf, and buf itself, stay until Close: the rows remain buffered.
		var err error
		s.mem, err = s.sortBuf(buf)
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	putBuf(buf)

	// Merge passes, B-1 runs at a time, over adjacent runs in creation
	// order (stability: earlier runs hold earlier input rows), until the
	// runs left are few enough for Next to merge.
	left := b - 1
	if s.WriteLastPass || !s.kindsCompare() {
		left = 1
	}
	for len(s.runs) > left {
		var next []sortRun
		for i := 0; i < len(s.runs); i += b - 1 {
			group := s.runs[i:min(i+b-1, len(s.runs))]
			merged := group[0] // a lone trailing run passes through as it is
			if len(group) > 1 {
				var err error
				if merged, err = s.mergeRuns(group, tpp); err != nil {
					// Close drops s.runs: the inputs and the runs merged
					// so far alike (dropping a run twice is harmless).
					s.runs = append(s.runs, next...)
					return err
				}
				for _, r := range group {
					s.dropRun(r)
				}
			}
			next = append(next, merged)
		}
		s.runs = next
	}
	var err error
	s.last, err = s.newMerger(s.runs)
	return err
}

// noteKinds adds the kinds of a run's key columns to s.kinds.
func (s *Sort) noteKinds(buf []keyed) {
	if s.kinds == nil {
		s.kinds = make([]uint8, len(s.Keys))
	}
	for i, col := range s.Keys {
		m := s.kinds[i]
		for j := range buf {
			m |= 1 << buf[j].t[col].Kind()
		}
		s.kinds[i] = m
	}
}

// kindsCompare reports whether every pair of values the runs hold in one
// key column compares without a type error: NULLs meet anything, INTEGERs
// meet FLOATs, and any other kind only itself.
func (s *Sort) kindsCompare() bool {
	const nums = 1<<value.KindInt | 1<<value.KindFloat
	for _, m := range s.kinds {
		m &^= 1 << value.KindNull
		if m&^nums != 0 && m&(m-1) != 0 {
			return false
		}
	}
	return true
}

// runWriter writes one run: a heap temp file a page at a time normally,
// a checksummed spill run once the sort is in spill mode. Exactly one of
// heap.f and sp is set.
type runWriter struct {
	heap pageWriter
	sp   *spill.Writer
}

func (w *runWriter) append(t storage.Tuple) error {
	if w.sp != nil {
		return w.sp.Append(t)
	}
	w.heap.append(t)
	return nil
}

// writeRun creates a run, has fill write its n tuples in sorted order,
// and seals it; a heap run's pages come from one slab sized for n. On any
// failure — an error, or a panic (torn-write fault) unwinding through an
// append — the partial run is dropped. Heap run pages are produced in
// memory, so their writes are the whole cost; reads during merging use
// ReadPageDirect.
func (s *Sort) writeRun(tpp, n int, fill func(*runWriter) error) (run sortRun, err error) {
	var w runWriter
	if !s.spillMode {
		f := s.Store.CreateTemp(tpp)
		f.Grow(n)
		w.heap = newPageWriter(f)
	} else if w.sp, err = s.Spill.NewWriter(); err != nil {
		return run, err
	}
	done := false
	defer func() {
		if done {
			return
		}
		if w.heap.f != nil {
			s.Store.Drop(w.heap.f.Name())
		} else {
			w.sp.Abort()
		}
	}()
	if err = fill(&w); err != nil {
		return run, err
	}
	if w.heap.f != nil {
		w.heap.seal()
		run.heap = w.heap.f
	} else if run.sp, err = w.sp.Finish(); err != nil {
		return run, err
	}
	done = true
	return run, nil
}

func (s *Sort) dropRun(r sortRun) {
	if r.heap != nil {
		s.Store.Drop(r.heap.Name())
	}
	if r.sp != nil {
		r.sp.Remove()
	}
}

// runCursor reads one run sequentially: heap runs with direct
// (always-counted) page I/O, spill runs through the checked iterator.
type runCursor struct {
	file    *storage.HeapFile
	src     source // the spill run when file is nil
	pages   int    // file's length
	pageIdx int
	tuples  []storage.Tuple
	tupIdx  int
	cur     storage.Tuple
	k       uint64 // cur's leading key as the radix orders it, when the merger caches it
	done    bool
}

// merger merges sorted runs through a tree of losers (Knuth, TAOCP vol.
// 3, §5.4.1): each internal node keeps the run that lost the match played
// there, so the next row costs one match per level, ⌈log₂ k⌉ in all,
// where a scan of the k runs costs k−1. Runs are ordered by their rows'
// keys, and runs whose keys tie by run index — the earlier run wins — so
// the merge is stable. When the leading key is INTEGER throughout every
// run or DATE throughout, each cursor caches it as the radix's unsigned
// key and compareRows runs only on ties. The merger checks the query
// context once per page it reads; spill runs check it per row.
type merger struct {
	qc   *qctx.QueryContext
	cur  []runCursor
	tree []int // tree[0] is the winner; tree[p], p ≥ 1, the loser at node p
	// rest and restDesc are the keys compareRows orders on: those after
	// the cached leading key, or all of them.
	rest     []int
	restDesc []bool
	lead     int    // the leading key's column
	cache    bool   // cursors cache the leading key in k
	flip     uint64 // the sign bit, complemented for a DESC leading key
	started  bool   // the first tournament is played: each cursor holds its first row
	cmpErr   error  // first key-comparison type error
}

// newMerger opens a cursor on each run. It reads no page: the first call
// to next does, so a consumer that never pulls costs no I/O.
func (s *Sort) newMerger(runs []sortRun) (m *merger, err error) {
	m = &merger{qc: s.QC, cur: make([]runCursor, len(runs)), tree: make([]int, len(runs)),
		rest: s.Keys, restDesc: s.Desc}
	if len(s.Keys) > 0 && (s.kinds[0] == 1<<value.KindInt || s.kinds[0] == 1<<value.KindDate) {
		m.cache, m.lead, m.flip, m.rest = true, s.Keys[0], 1<<63, s.Keys[1:]
		if s.Desc != nil {
			m.restDesc = s.Desc[1:]
			if s.Desc[0] {
				m.flip = ^m.flip
			}
		}
	}
	for i, r := range runs {
		c := &m.cur[i]
		*c = runCursor{file: r.heap}
		if r.sp == nil {
			c.pages = r.heap.NumPages()
		} else if c.src, err = openRun(s.QC, r.sp); err != nil {
			m.close()
			return nil, err
		}
	}
	return m, nil
}

// start reads each run's first row and plays the first tournament: the
// first entrant from below waits at a node, the second plays it there,
// and the winner climbs on.
func (m *merger) start() error {
	m.started = true
	for i := range m.cur {
		if err := m.advance(&m.cur[i]); err != nil {
			return err
		}
	}
	k := len(m.cur)
	for p := range m.tree {
		m.tree[p] = -1
	}
	for i := k - 1; i >= 0; i-- {
		w := i
		for p := (i + k) / 2; p > 0 && w >= 0; p /= 2 {
			switch {
			case m.tree[p] < 0:
				m.tree[p], w = w, -1
			case m.less(m.tree[p], w):
				m.tree[p], w = w, m.tree[p]
			}
		}
		if w >= 0 {
			m.tree[0] = w
		}
	}
	return m.cmpErr
}

// advance moves c to its run's next row.
func (m *merger) advance(c *runCursor) error {
	if c.file == nil {
		t, ok, err := c.src.next()
		c.cur, c.done = t, !ok
		if err != nil {
			return err
		}
	} else {
		for c.tupIdx >= len(c.tuples) {
			if c.pageIdx >= c.pages {
				c.cur, c.done = nil, true
				return nil
			}
			if err := m.qc.Check(); err != nil {
				return err
			}
			c.tuples = c.file.ReadPageDirect(c.pageIdx)
			c.pageIdx++
			c.tupIdx = 0
		}
		c.cur = c.tuples[c.tupIdx]
		c.tupIdx++
	}
	if m.cache && !c.done {
		k, _ := value.IntKey(&c.cur[m.lead])
		c.k = uint64(k) ^ m.flip
	}
	return nil
}

// less reports whether run i's row leaves before run j's; an exhausted
// run leaves last.
func (m *merger) less(i, j int) bool {
	a, b := &m.cur[i], &m.cur[j]
	if a.done || b.done {
		return b.done && (!a.done || i < j)
	}
	if m.cache && a.k != b.k {
		return a.k < b.k
	}
	if c := compareRows(a.cur, b.cur, m.rest, m.restDesc, &m.cmpErr); c != 0 {
		return c < 0
	}
	return i < j
}

// next returns the least row left. The run that held the row returned
// before moves on only now, and the tournament is replayed on its path
// from leaf to root, so a consumer that stops pulling never makes a run
// read the page after the row it took.
func (m *merger) next() (storage.Tuple, bool, error) {
	if !m.started {
		if err := m.start(); err != nil {
			return nil, false, err
		}
	} else if w := m.tree[0]; !m.cur[w].done {
		if err := m.advance(&m.cur[w]); err != nil {
			return nil, false, err
		}
		for p := (w + len(m.cur)) / 2; p > 0; p /= 2 {
			if m.less(m.tree[p], w) {
				m.tree[p], w = w, m.tree[p]
			}
		}
		m.tree[0] = w
		if m.cmpErr != nil {
			return nil, false, m.cmpErr
		}
	}
	if c := &m.cur[m.tree[0]]; !c.done {
		return c.cur, true, nil
	}
	return nil, false, nil
}

// close releases the spill runs' file handles; the runs stay.
func (m *merger) close() {
	for i := range m.cur {
		m.cur[i].src.close() // a no-op on a cursor never opened
	}
}

// mergeRuns merges sorted runs into a single new run.
func (s *Sort) mergeRuns(runs []sortRun, tpp int) (sortRun, error) {
	m, err := s.newMerger(runs)
	if err != nil {
		return sortRun{}, err
	}
	defer m.close()
	n := 0 // the merged run's length, when it goes to the heap
	for _, r := range runs {
		if r.heap != nil {
			n += r.heap.NumTuples()
		}
	}
	return s.writeRun(tpp, n, func(w *runWriter) error {
		for {
			t, ok, err := m.next()
			if err != nil || !ok {
				return err
			}
			if err := w.append(t); err != nil {
				return err
			}
		}
	})
}

// Next streams the sorted rows.
func (s *Sort) Next() (storage.Tuple, bool, error) {
	if s.last != nil {
		return s.last.next()
	}
	if s.pos >= len(s.mem) {
		return nil, false, nil
	}
	t := s.mem[s.pos].t
	s.pos++
	return t, true, nil
}

// Close drops the remaining run files and returns any buffered-byte
// charge. It is safe to call before Open and more than once.
func (s *Sort) Close() error {
	if s.last != nil {
		s.last.close()
		s.last = nil
	}
	for _, r := range s.runs {
		s.dropRun(r)
	}
	putBuf(s.mem)
	s.runs, s.mem = nil, nil
	s.QC.ReleaseBuffered(s.charged)
	s.charged = 0
	return nil
}

// Schema returns the child's schema; sorting does not change columns.
func (s *Sort) Schema() RowSchema { return s.Child.Schema() }
