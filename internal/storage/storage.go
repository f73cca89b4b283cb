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

// page is one disk page: a bounded slice of tuples.
type page struct {
	tuples []Tuple
}

// HeapFile is a relation's stored representation: an ordered sequence of
// pages, scanned sequentially as in the paper's analyses.
type HeapFile struct {
	store         *Store
	name          string
	tuplesPerPage int
	pages         []*page
	nTuples       int
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
	return f.nTuples
}

// TuplesPerPage returns the page capacity.
func (f *HeapFile) TuplesPerPage() int { return f.tuplesPerPage }

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
	f.sealed = false
	if len(f.pages) == 0 || len(f.pages[len(f.pages)-1].tuples) == f.tuplesPerPage {
		f.pages = append(f.pages, &page{tuples: make([]Tuple, 0, f.tuplesPerPage)})
	}
	last := f.pages[len(f.pages)-1]
	last.tuples = append(last.tuples, t)
	f.nTuples++
	if len(last.tuples) == f.tuplesPerPage {
		f.store.stats.Writes++
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
	if n := len(f.pages); n > 0 && len(f.pages[n-1].tuples) < f.tuplesPerPage {
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
	f.store.pool.touch(pageID{file: f, idx: i})
	return f.pages[i].tuples
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
	return f.pages[i].tuples
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
	shadow := f.store.CreateTemp(f.tuplesPerPage)
	defer f.store.Drop(shadow.name)
	for _, t := range rows {
		shadow.Append(t)
	}
	shadow.Seal()
	f.store.mu.Lock()
	defer f.store.mu.Unlock()
	f.store.pool.invalidate(f)
	f.store.pool.invalidate(shadow)
	f.pages = shadow.pages
	f.nTuples = shadow.nTuples
	f.sealed = true
	shadow.pages = nil
	shadow.nTuples = 0
}

// TruncateTo discards every tuple appended after the first n, restoring
// the file to a prior boundary. Batch loaders use it to unwind a torn
// append so a failed batch leaves no partial rows behind.
func (f *HeapFile) TruncateTo(n int) {
	f.store.mu.Lock()
	defer f.store.mu.Unlock()
	if n < 0 || n >= f.nTuples {
		return
	}
	f.store.pool.invalidate(f)
	full, rem := n/f.tuplesPerPage, n%f.tuplesPerPage
	if rem > 0 {
		f.pages[full].tuples = f.pages[full].tuples[:rem]
		f.pages = f.pages[:full+1]
	} else {
		f.pages = f.pages[:full]
	}
	f.nTuples = n
	f.sealed = false
}

// pageID identifies a page for the buffer pool.
type pageID struct {
	file *HeapFile
	idx  int
}

// bufferPool is an LRU cache of page identities. Because heap files are in
// memory, the pool tracks residency only — which pages would occupy buffer
// frames — and charges a read for each miss.
type bufferPool struct {
	capacity int
	lru      []pageID // front = least recently used
	resident map[pageID]bool
	store    *Store
}

func (p *bufferPool) touch(id pageID) {
	if p.capacity <= 0 {
		p.store.stats.Reads++
		return
	}
	if p.resident[id] {
		// Move to back (most recently used).
		for i, e := range p.lru {
			if e == id {
				copy(p.lru[i:], p.lru[i+1:])
				p.lru[len(p.lru)-1] = id
				break
			}
		}
		return
	}
	p.store.stats.Reads++
	if len(p.lru) == p.capacity {
		evict := p.lru[0]
		copy(p.lru, p.lru[1:])
		p.lru = p.lru[:len(p.lru)-1]
		delete(p.resident, evict)
	}
	p.lru = append(p.lru, id)
	p.resident[id] = true
}

// invalidate drops all cached pages of a file (used when dropping temp
// tables so their frames free up).
func (p *bufferPool) invalidate(f *HeapFile) {
	out := p.lru[:0]
	for _, id := range p.lru {
		if id.file == f {
			delete(p.resident, id)
		} else {
			out = append(out, id)
		}
	}
	p.lru = out
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
	s.pool = &bufferPool{
		capacity: bufferPages,
		resident: make(map[pageID]bool),
		store:    s,
	}
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
	f := &HeapFile{store: s, name: name, tuplesPerPage: tuplesPerPage}
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
