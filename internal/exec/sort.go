package exec

import (
	"slices"

	"repro/internal/qctx"
	"repro/internal/spill"
	"repro/internal/storage"
	"repro/internal/value"
)

// Sort is an external (B−1)-way merge sort, the sorting method of the
// paper's cost model (section 7): initial runs of B pages are formed in
// memory, then merged B−1 at a time, costing about 2·P·log_{B−1}(P) page
// I/Os for a P-page input. Run files bypass the buffer pool — the sorter
// owns its buffers — so measured I/O follows the model rather than LRU
// caching. An input that fits entirely in B pages sorts in memory with no
// I/O beyond the child's own reads.
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

	mem       []keyed    // in-memory result when input fits in B pages
	pos       int        // cursor into mem
	runs      []sortRun  // initial/merged runs in creation order
	final     *runCursor // streams the single fully-merged run; nil when mem holds the result
	cmpErr    error      // first key-comparison type error, surfaced by Open
	charged   int64      // bytes currently charged against the memory budget
	spillMode bool       // a reservation was refused; all new runs spill
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
// whether it ran in memory, through heap runs or through spill runs.
type keyed struct {
	t   storage.Tuple
	seq int
}

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

// sortBuf sorts one run's rows by key, ties by arrival.
func (s *Sort) sortBuf(buf []keyed) error {
	slices.SortFunc(buf, func(a, b keyed) int {
		if c := compareRows(a.t, b.t, s.Keys, s.Desc, &s.cmpErr); c != 0 {
			return c
		}
		return a.seq - b.seq
	})
	return s.cmpErr
}

// Open drains the child, forms sorted runs, and merges them down to one.
func (s *Sort) Open() error {
	if err := s.Child.Open(); err != nil {
		return err
	}
	defer s.Child.Close()
	s.mem, s.pos, s.runs, s.final = nil, 0, nil, nil
	s.cmpErr, s.charged, s.spillMode = nil, 0, false

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

	var buf []keyed    // one allocation serves every run: flush clears it
	var bufBytes int64 // charged bytes in buf
	// flush sorts buf and writes it as the next run, returning its bytes
	// to the budget: the run now lives on "disk".
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if err := s.sortBuf(buf); err != nil {
			return err
		}
		run, err := s.writeRun(tpp, func(w *runWriter) error {
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
		clear(buf) // the rows belong to the run now
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
			fits, err := reserve(s.QC, s.Spill, n, 0)
			if err != nil {
				return err
			}
			if fits {
				s.charged += n
				bufBytes += n
				buf = append(buf, keyed{t, len(buf)})
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
		buf = append(buf, keyed{t, len(buf)})
		if len(buf) >= spillBatch || bufBytes > 0 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if len(s.runs) == 0 {
		// Entire input fits in the sort's memory: no run I/O. The charge
		// for buf stays until Close — the rows remain buffered.
		s.mem = buf
		return s.sortBuf(buf)
	}
	if err := flush(); err != nil {
		return err
	}

	// Merge passes, B-1 runs at a time, over adjacent runs in creation
	// order (stability: earlier runs hold earlier input rows).
	for len(s.runs) > 1 {
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
	s.final, err = s.openCursor(s.runs[0])
	return err
}

// runWriter writes one run: a heap temp file normally, a checksummed
// spill run once the sort is in spill mode. Exactly one field is set.
type runWriter struct {
	heap *storage.HeapFile
	sp   *spill.Writer
}

func (w *runWriter) append(t storage.Tuple) error {
	if w.sp != nil {
		return w.sp.Append(t)
	}
	w.heap.Append(t)
	return nil
}

// writeRun creates a run, has fill write its tuples in sorted order, and
// seals it. On any failure — an error, or a panic (torn-write fault)
// unwinding through an append — the partial run is dropped. Heap run
// pages are produced in memory, so their writes are the whole cost; reads
// during merging use ReadPageDirect.
func (s *Sort) writeRun(tpp int, fill func(*runWriter) error) (run sortRun, err error) {
	var w runWriter
	if !s.spillMode {
		w.heap = s.Store.CreateTemp(tpp)
	} else if w.sp, err = s.Spill.NewWriter(); err != nil {
		return run, err
	}
	done := false
	defer func() {
		if done {
			return
		}
		if w.heap != nil {
			s.Store.Drop(w.heap.Name())
		} else {
			w.sp.Abort()
		}
	}()
	if err = fill(&w); err != nil {
		return run, err
	}
	if w.heap != nil {
		w.heap.Seal()
		run.heap = w.heap
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
	removeRuns(r.sp)
}

// runCursor reads one run sequentially: heap runs with direct
// (always-counted) page I/O, spill runs through the checked iterator.
type runCursor struct {
	file    *storage.HeapFile
	src     source // the spill run when file is nil
	pageIdx int
	tuples  []storage.Tuple
	tupIdx  int
	cur     storage.Tuple
	done    bool
}

func (s *Sort) openCursor(r sortRun) (*runCursor, error) {
	c := &runCursor{file: r.heap}
	if r.sp == nil {
		return c, nil
	}
	var err error
	c.src, err = openRun(s.QC, r.sp)
	return c, err
}

func (c *runCursor) advance() error {
	if c.file == nil {
		t, ok, err := c.src.next()
		c.cur, c.done = t, !ok
		return err
	}
	for c.tupIdx >= len(c.tuples) {
		if c.pageIdx >= c.file.NumPages() {
			c.cur, c.done = nil, true
			return nil
		}
		c.tuples = c.file.ReadPageDirect(c.pageIdx)
		c.pageIdx++
		c.tupIdx = 0
	}
	c.cur = c.tuples[c.tupIdx]
	c.tupIdx++
	return nil
}

// mergeRuns merges sorted runs into a single new run.
func (s *Sort) mergeRuns(runs []sortRun, tpp int) (sortRun, error) {
	cursors := make([]*runCursor, len(runs))
	defer func() {
		for _, c := range cursors {
			if c != nil {
				c.src.close()
			}
		}
	}()
	for i, r := range runs {
		c, err := s.openCursor(r)
		if err != nil {
			return sortRun{}, err
		}
		cursors[i] = c
		if err := c.advance(); err != nil {
			return sortRun{}, err
		}
	}
	return s.writeRun(tpp, func(w *runWriter) error {
		for {
			if err := s.QC.Check(); err != nil {
				return err
			}
			best := -1
			for i, c := range cursors {
				if c.done {
					continue
				}
				if best < 0 || compareRows(c.cur, cursors[best].cur, s.Keys, s.Desc, &s.cmpErr) < 0 {
					best = i
				}
			}
			if s.cmpErr != nil || best < 0 {
				return s.cmpErr
			}
			if err := w.append(cursors[best].cur); err != nil {
				return err
			}
			if err := cursors[best].advance(); err != nil {
				return err
			}
		}
	})
}

// Next streams the sorted rows.
func (s *Sort) Next() (storage.Tuple, bool, error) {
	if s.final != nil {
		if err := s.final.advance(); err != nil || s.final.done {
			return nil, false, err
		}
		return s.final.cur, true, nil
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
	if s.final != nil {
		s.final.src.close()
		s.final = nil
	}
	for _, r := range s.runs {
		s.dropRun(r)
	}
	s.runs, s.mem = nil, nil
	s.QC.ReleaseBuffered(s.charged)
	s.charged = 0
	return nil
}

// Schema returns the child's schema; sorting does not change columns.
func (s *Sort) Schema() RowSchema { return s.Child.Schema() }
