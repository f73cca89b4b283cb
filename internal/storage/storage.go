// Package storage implements the paged storage substrate: heap files made
// of fixed-capacity pages, an LRU buffer pool of B pages, and page-I/O
// accounting.
//
// The paper's performance metric is "the number of disk page I/O's
// required" with relations scanned sequentially and B pages of main-memory
// buffer space (section 7). This package makes that metric *measurable*
// rather than only computable: every page fetched through the buffer pool
// that is not resident counts as one read, and every page appended to a
// heap file counts as one write. The nested-iteration executor re-scans
// inner relations through the pool, so an inner relation that fits in B
// pages stays cached (System R's favorable case) while one that does not
// pays a full re-read per outer tuple (the worst case Kim's and the paper's
// analyses assume).
//
// Heap files are in-memory; "disk" is a slice of pages. That preserves the
// behavior under study — which pages move — without actual device I/O.
package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/value"
)

// Tuple is one row: a slice of values positionally matched to a relation's
// columns. Tuples are treated as immutable once appended.
type Tuple []value.Value

// Clone copies the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// String renders the tuple the way the paper prints table rows.
func (t Tuple) String() string {
	s := "("
	for i, v := range t {
		if i > 0 {
			s += ", "
		}
		s += v.String()
	}
	return s + ")"
}

// IOStats counts page movements. Reads are buffer-pool misses (and direct
// reads by the external sorter, which manages its own buffers); Writes are
// pages appended to heap files.
type IOStats struct {
	Reads  int64
	Writes int64
}

// Total returns reads plus writes — the paper's "page I/O's required".
func (s IOStats) Total() int64 { return s.Reads + s.Writes }

// Sub returns the difference s - o, used to measure a single query's cost
// as a delta between snapshots.
func (s IOStats) Sub(o IOStats) IOStats {
	return IOStats{Reads: s.Reads - o.Reads, Writes: s.Writes - o.Writes}
}

func (s IOStats) String() string {
	return fmt.Sprintf("%d page I/Os (%d reads + %d writes)", s.Total(), s.Reads, s.Writes)
}

// DefaultTuplesPerPage is the page capacity used when a relation does not
// specify one. Experiments set capacities explicitly to hit the paper's
// page counts (Pi, Pj, ...).
const DefaultTuplesPerPage = 32

// slabTuples caps an unhinted slab at about 4 KiB of 24-byte tuple
// headers.
const slabTuples = 170

// HeapFile is a relation's stored representation: an ordered sequence of
// pages, scanned sequentially as in the paper's analyses. A page is a
// slice of tuples carved, capped at the page capacity, from a slab the
// file owns (see newPage), so opening a page costs no allocation of its
// own and a page can never grow into its neighbour.
//
// A temp file is made per sort run and per materialized temporary, so the
// struct is kept within the 80-byte size class: the page capacity is an
// int32, and the tuple count is derived from the pages (every page but the
// last is full).
type HeapFile struct {
	store *Store
	name  string
	pages []pageRef
	// slab is the unused tail of the array the next pages are carved
	// from. It pins that whole array, so it belongs to this file alone:
	// Replace takes the shadow's, TruncateTo drops it.
	slab          []Tuple
	tuplesPerPage int32
	// sealed marks the final partial page as written; further appends
	// are a programming error.
	sealed bool
}

// Name returns the file's name.
func (f *HeapFile) Name() string { return f.name }

// NumPages returns the file's size in pages — the paper's Pk. Like
// NumTuples it takes the store mutex: a query may plan and scan a file
// while a DML statement appends to it.
func (f *HeapFile) NumPages() int {
	f.store.mu.Lock()
	defer f.store.mu.Unlock()
	return len(f.pages)
}

// NumTuples returns the number of stored tuples — the paper's Nk.
func (f *HeapFile) NumTuples() int {
	f.store.mu.Lock()
	defer f.store.mu.Unlock()
	return f.numTuples()
}

// numTuples is NumTuples for a caller holding the store mutex.
func (f *HeapFile) numTuples() int {
	k := len(f.pages)
	if k == 0 {
		return 0
	}
	return (k-1)*f.TuplesPerPage() + len(f.pages[k-1].t)
}

// TuplesPerPage returns the page capacity.
func (f *HeapFile) TuplesPerPage() int { return int(f.tuplesPerPage) }

// Append adds one tuple, counting a page write each time a page fills.
// Call Seal when the file is complete so the final partial page is
// accounted for. Appending to a sealed file reopens it: the next Seal
// re-counts the trailing partial page, modeling the rewrite of a page
// that had already gone to disk.
//
// A file has a single writer at a time, but the parallel executor lets one
// goroutine append to a temp file while another scans a different file, so
// the shared store state (I/O counters, buffer pool) is mutex-protected.
func (f *HeapFile) Append(t Tuple) {
	var tear *FaultError
	if in := f.store.faults.Load(); in != nil {
		in.Begin()
		defer in.End()
		// Fault decisions (and latency sleeps) happen before taking the
		// store mutex so a slow append does not stall unrelated I/O. A
		// torn write stores a truncated tuple, then panics below.
		if tear = onAppend(in, f.name); tear != nil && len(t) > 1 {
			t = t[:len(t)/2]
		}
	}
	f.store.mu.Lock()
	defer f.store.mu.Unlock()
	if tear != nil {
		defer panic(tear)
	}
	f.appendLocked(t)
}

// AppendAll adds ts in order under one acquisition of the store mutex,
// counting writes as Append would; writers that stage a page of tuples
// hand it over here, paying one lock per page rather than one per tuple.
// With a fault injector armed it appends tuple by tuple, so every tuple
// meets its own latency and torn-write decision.
func (f *HeapFile) AppendAll(ts []Tuple) {
	if f.store.faults.Load() != nil {
		for _, t := range ts {
			f.Append(t)
		}
		return
	}
	f.store.mu.Lock()
	defer f.store.mu.Unlock()
	f.appendLocked(ts...)
}

// appendLocked is Append's work for a caller holding the store mutex:
// it fills the open page and carves new ones, counting a write as each
// page fills.
func (f *HeapFile) appendLocked(ts ...Tuple) {
	f.sealed = false
	tpp := f.TuplesPerPage()
	for len(ts) > 0 {
		if len(f.pages) == 0 || len(f.pages[len(f.pages)-1].t) == tpp {
			f.pages = append(f.pages, pageRef{t: f.newPage()})
		}
		last := &f.pages[len(f.pages)-1].t
		n := min(len(ts), tpp-len(*last))
		*last, ts = append(*last, ts[:n]...), ts[n:]
		if len(*last) == tpp {
			f.store.stats.Writes++
		}
	}
}

// newPage carves an empty page from the slab, first replacing a slab with
// less than a page left by one holding as many pages as the file has so
// far, up to slabTuples (a Grow hint sizes it instead). The first slab is
// one page, so a small file allocates what it would page by page.
func (f *HeapFile) newPage() []Tuple {
	tpp := f.TuplesPerPage()
	if len(f.slab) < tpp {
		f.slab = make([]Tuple, max(1, min(len(f.pages), slabTuples/tpp))*tpp)
	}
	p := f.slab[:0:tpp]
	f.slab = f.slab[tpp:]
	return p
}

// Grow hints that n more tuples are about to be appended: the pages they
// need beyond the open one come from a single slab, and the page index is
// sized to hold them, so the appends allocate at most twice in all. A
// slab it makes is never smaller than the one newPage would make, so a
// short hint costs no more allocations than none.
func (f *HeapFile) Grow(n int) {
	f.store.mu.Lock()
	defer f.store.mu.Unlock()
	tpp := f.TuplesPerPage()
	if k := len(f.pages); k > 0 {
		n -= tpp - len(f.pages[k-1].t) // room left in the open page
	}
	need := (n + tpp - 1) / tpp
	if need <= 0 {
		return
	}
	f.pages = slices.Grow(f.pages, need)
	if len(f.slab) < need*tpp {
		f.slab = make([]Tuple, max(need, min(len(f.pages), slabTuples/tpp))*tpp)
	}
}

// Seal finishes the file: the trailing partial page, if any, is counted as
// one write. Seal is idempotent.
func (f *HeapFile) Seal() {
	f.store.mu.Lock()
	defer f.store.mu.Unlock()
	if f.sealed {
		return
	}
	f.sealed = true
	if n := len(f.pages); n > 0 && len(f.pages[n-1].t) < f.TuplesPerPage() {
		f.store.stats.Writes++
	}
}

// ReadPage fetches page i through the buffer pool, counting a read on a
// miss. The returned slice must not be mutated.
func (f *HeapFile) ReadPage(i int) []Tuple {
	if in := f.store.faults.Load(); in != nil {
		in.Begin()
		defer in.End()
		onRead(in, f.name)
	}
	f.store.mu.Lock()
	defer f.store.mu.Unlock()
	if i < 0 || i >= len(f.pages) {
		panic(fmt.Sprintf("storage: page %d out of range for %s (%d pages)", i, f.name, len(f.pages)))
	}
	f.store.pool.touch(f, i)
	return f.pages[i].t
}

// ReadPageDirect fetches page i bypassing the buffer pool, always counting
// one read. The external sorter uses it for run files: the sorter owns its
// merge buffers, so its I/O follows the 2·P·log_{B-1}(P) model rather than
// LRU caching.
func (f *HeapFile) ReadPageDirect(i int) []Tuple {
	if in := f.store.faults.Load(); in != nil {
		in.Begin()
		defer in.End()
		onRead(in, f.name)
	}
	f.store.mu.Lock()
	defer f.store.mu.Unlock()
	if i < 0 || i >= len(f.pages) {
		panic(fmt.Sprintf("storage: page %d out of range for %s (%d pages)", i, f.name, len(f.pages)))
	}
	f.store.stats.Reads++
	return f.pages[i].t
}

// Scan calls fn for every tuple in sequential page order, reading through
// the buffer pool. fn returning false stops the scan.
func (f *HeapFile) Scan(fn func(Tuple) bool) {
	for i := range f.pages {
		for _, t := range f.ReadPage(i) {
			if !fn(t) {
				return
			}
		}
	}
}

// Replace rebuilds the file from the given rows, invalidating its
// buffer frames and charging the rebuilt pages as writes (the file is
// rebuilt in sequential order, as a System R-era update-by-rewrite
// would). It takes a fully decided row set, so callers can evaluate
// predicates first (where faults may strike) and mutate only after
// every decision succeeded. The rebuild goes into a shadow file that is
// swapped in whole: an injected fault panic during the rebuild unwinds
// with the original contents intact and the shadow dropped — DML stays
// all-or-nothing under fault injection.
func (f *HeapFile) Replace(rows []Tuple) {
	shadow := f.store.CreateTemp(f.TuplesPerPage())
	defer f.store.Drop(shadow.name)
	shadow.Grow(len(rows))
	for _, t := range rows {
		shadow.Append(t)
	}
	shadow.Seal()
	f.store.mu.Lock()
	defer f.store.mu.Unlock()
	f.store.pool.invalidate(f)
	f.store.pool.invalidate(shadow)
	// The old slab goes with the old pages: its tail would pin their
	// tuples, deleted rows included.
	f.pages, f.slab = shadow.pages, shadow.slab
	f.sealed = true
	shadow.pages, shadow.slab = nil, nil
}

// TruncateTo discards every tuple appended after the first n, restoring
// the file to a prior boundary. Batch loaders use it to unwind a torn
// append so a failed batch leaves no partial rows behind. The dropped
// tuple slots are cleared and the slab dropped, so nothing the file no
// longer holds stays reachable through it.
func (f *HeapFile) TruncateTo(n int) {
	f.store.mu.Lock()
	defer f.store.mu.Unlock()
	if n < 0 || n >= f.numTuples() {
		return
	}
	f.store.pool.invalidate(f)
	full, rem := n/f.TuplesPerPage(), n%f.TuplesPerPage()
	if rem > 0 {
		clear(f.pages[full].t[rem:])
		f.pages[full].t = f.pages[full].t[:rem]
		full++
	}
	for _, p := range f.pages[full:] {
		clear(p.t)
	}
	clear(f.pages[full:])
	f.pages = f.pages[:full]
	f.slab = nil
	f.sealed = false
}

// pageRef is one entry of a file's page index: the page, and 1 + the
// number of the buffer frame it is resident in (0 = not resident), so the
// pool finds a page's frame without a lookup table. It is read and written
// under the store mutex.
type pageRef struct {
	t     []Tuple
	frame int32
}

// frame is one buffer frame: the page it holds and its neighbours in the
// pool's LRU list (frame numbers, -1 = none). A free frame holds no file
// and is linked through next.
type frame struct {
	file       *HeapFile
	idx        int
	prev, next int32
}

// bufferPool is an exact LRU cache of page identities. Because heap files
// are in memory, the pool tracks residency only — which pages would occupy
// buffer frames — and charges a read for each miss. The frames form a
// doubly linked list from the least recently used (head) to the most
// (tail), grown up to capacity as pages first become resident; frames an
// invalidation frees wait on a free list. A hit, a miss and an eviction
// are each O(1).
type bufferPool struct {
	capacity   int
	frames     []frame
	head, tail int32 // LRU order; -1 when empty
	free       int32 // free list; -1 when empty
	store      *Store
}

// unlink takes frame n out of the LRU list.
func (p *bufferPool) unlink(n int32) {
	fr := &p.frames[n]
	if fr.prev >= 0 {
		p.frames[fr.prev].next = fr.next
	} else {
		p.head = fr.next
	}
	if fr.next >= 0 {
		p.frames[fr.next].prev = fr.prev
	} else {
		p.tail = fr.prev
	}
}

// pushTail makes frame n the most recently used.
func (p *bufferPool) pushTail(n int32) {
	fr := &p.frames[n]
	fr.prev, fr.next = p.tail, -1
	if p.tail >= 0 {
		p.frames[p.tail].next = n
	} else {
		p.head = n
	}
	p.tail = n
}

// touch fetches page i of f through the pool, counting a read on a miss.
func (p *bufferPool) touch(f *HeapFile, i int) {
	if p.capacity <= 0 {
		p.store.stats.Reads++
		return
	}
	ref := &f.pages[i]
	if ref.frame != 0 {
		n := ref.frame - 1
		if n != p.tail {
			p.unlink(n)
			p.pushTail(n)
		}
		return
	}
	p.store.stats.Reads++
	var n int32
	switch {
	case p.free >= 0:
		n, p.free = p.free, p.frames[p.free].next
	case len(p.frames) < p.capacity:
		n = int32(len(p.frames))
		p.frames = append(p.frames, frame{})
	default: // evict the least recently used page
		n = p.head
		p.unlink(n)
		old := &p.frames[n]
		old.file.pages[old.idx].frame = 0
	}
	p.frames[n].file, p.frames[n].idx = f, i
	p.pushTail(n)
	ref.frame = n + 1
}

// invalidate drops all cached pages of a file (used when dropping temp
// tables so their frames free up), clearing their page-index slots.
func (p *bufferPool) invalidate(f *HeapFile) {
	for n := range p.frames {
		fr := &p.frames[n]
		if fr.file != f {
			continue
		}
		f.pages[fr.idx].frame = 0
		p.unlink(int32(n))
		*fr = frame{next: p.free}
		p.free = int32(n)
	}
}

// Store owns heap files, the buffer pool, and the I/O statistics. The
// mutex serializes access to the shared state (counters, pool residency,
// file map) so the parallel executor's distributor goroutine can scan one
// file while the consuming goroutine materializes another; page contents
// themselves still have a single writer per file.
type Store struct {
	mu    sync.Mutex
	pool  *bufferPool
	files map[string]*HeapFile
	stats IOStats
	tmpID int
	// faults is the armed injector (see fault.go); nil for normal
	// operation. Atomic so arming/disarming does not race the lock-free
	// fast-path check in page reads and appends.
	faults atomic.Pointer[fault.Injector]
}

// NewStore creates a store whose buffer pool holds bufferPages pages — the
// paper's B. A non-positive value disables caching (every page fetch
// counts).
func NewStore(bufferPages int) *Store {
	s := &Store{files: make(map[string]*HeapFile)}
	s.pool = &bufferPool{capacity: bufferPages, head: -1, tail: -1, free: -1, store: s}
	return s
}

// BufferPages returns the pool capacity B.
func (s *Store) BufferPages() int { return s.pool.capacity }

// Stats returns the cumulative I/O counters.
func (s *Store) Stats() IOStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats zeroes the I/O counters.
func (s *Store) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = IOStats{}
}

// ChargeReads adds n page reads to the counters. Access structures that
// manage their own pages (indexes) use it to charge their I/O.
func (s *Store) ChargeReads(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Reads += n
}

// Create makes a new, empty heap file. tuplesPerPage <= 0 uses the default.
func (s *Store) Create(name string, tuplesPerPage int) (*HeapFile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.create(name, tuplesPerPage)
}

func (s *Store) create(name string, tuplesPerPage int) (*HeapFile, error) {
	if _, ok := s.files[name]; ok {
		return nil, fmt.Errorf("storage: file %s already exists", name)
	}
	if tuplesPerPage <= 0 {
		tuplesPerPage = DefaultTuplesPerPage
	}
	f := &HeapFile{store: s, name: name, tuplesPerPage: int32(tuplesPerPage)}
	s.files[name] = f
	return f, nil
}

// CreateTemp makes an anonymous heap file for intermediate results (sort
// runs, materialized temporaries).
func (s *Store) CreateTemp(tuplesPerPage int) *HeapFile {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tmpID++
	f, err := s.create(fmt.Sprintf("$tmp%d", s.tmpID), tuplesPerPage)
	if err != nil {
		panic(err) // $tmp names are generated and cannot collide
	}
	return f
}

// Lookup finds a heap file by name.
func (s *Store) Lookup(name string) (*HeapFile, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[name]
	return f, ok
}

// Drop removes a heap file and releases its buffer frames.
func (s *Store) Drop(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[name]
	if !ok {
		return
	}
	s.pool.invalidate(f)
	delete(s.files, name)
}
