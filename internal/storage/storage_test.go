package storage

import (
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/value"
)

func intTuple(vs ...int64) Tuple {
	t := make(Tuple, len(vs))
	for i, v := range vs {
		t[i] = value.NewInt(v)
	}
	return t
}

// fill appends n single-column tuples 0..n-1 and seals the file.
func fill(f *HeapFile, n int) {
	for i := range n {
		f.Append(intTuple(int64(i)))
	}
	f.Seal()
}

func TestHeapFilePaging(t *testing.T) {
	s := NewStore(4)
	f, err := s.Create("R", 10)
	if err != nil {
		t.Fatal(err)
	}
	fill(f, 25)
	if f.NumTuples() != 25 {
		t.Errorf("NumTuples = %d", f.NumTuples())
	}
	if f.NumPages() != 3 { // 10 + 10 + 5
		t.Errorf("NumPages = %d", f.NumPages())
	}
	if f.TuplesPerPage() != 10 {
		t.Errorf("TuplesPerPage = %d", f.TuplesPerPage())
	}
	if got := s.Stats().Writes; got != 3 {
		t.Errorf("Writes = %d, want 3 (two full pages + sealed partial)", got)
	}
}

func TestSealIdempotentAndExact(t *testing.T) {
	s := NewStore(4)
	f, _ := s.Create("R", 5)
	fill(f, 10) // exactly two full pages: seal must not double-count
	if got := s.Stats().Writes; got != 2 {
		t.Errorf("Writes = %d, want 2", got)
	}
	f.Seal()
	f.Seal()
	if got := s.Stats().Writes; got != 2 {
		t.Errorf("Writes after re-seal = %d, want 2", got)
	}
}

func TestAppendAfterSealRewritesPartialPage(t *testing.T) {
	s := NewStore(4)
	f, _ := s.Create("R", 5)
	fill(f, 1) // partial page sealed: 1 write
	if got := s.Stats().Writes; got != 1 {
		t.Fatalf("Writes = %d, want 1", got)
	}
	// Reopening and resealing rewrites the partial page.
	f.Append(intTuple(9))
	f.Seal()
	if got := s.Stats().Writes; got != 2 {
		t.Errorf("Writes after reopen = %d, want 2 (partial page rewritten)", got)
	}
	if f.NumTuples() != 2 || f.NumPages() != 1 {
		t.Errorf("file shape after reopen: %d tuples, %d pages", f.NumTuples(), f.NumPages())
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	s := NewStore(4)
	f, _ := s.Create("R", 3)
	fill(f, 10)
	var got []int64
	f.Scan(func(tu Tuple) bool {
		got = append(got, tu[0].Int())
		return tu[0].Int() < 6
	})
	if len(got) != 7 { // values 0..6; fn returns false on 6, stopping the scan
		t.Errorf("scanned %d tuples: %v", len(got), got)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Errorf("out of order at %d: %v", i, got)
		}
	}
}

func TestBufferPoolCachingAndLRU(t *testing.T) {
	s := NewStore(2) // B = 2 pages
	f, _ := s.Create("R", 1)
	fill(f, 3) // three pages: 0, 1, 2
	s.ResetStats()

	f.ReadPage(0) // miss
	f.ReadPage(1) // miss
	f.ReadPage(0) // hit
	if got := s.Stats().Reads; got != 2 {
		t.Fatalf("Reads = %d, want 2", got)
	}
	f.ReadPage(2) // miss, evicts LRU = page 1 (0 was touched more recently)
	f.ReadPage(0) // hit
	f.ReadPage(1) // miss again
	if got := s.Stats().Reads; got != 4 {
		t.Errorf("Reads = %d, want 4", got)
	}
}

func TestBufferPoolFitsWholeFile(t *testing.T) {
	// An inner relation that fits in B pages is read once no matter how
	// many times it is re-scanned — System R's favorable case.
	s := NewStore(10)
	f, _ := s.Create("INNER", 2)
	fill(f, 10) // 5 pages < B
	s.ResetStats()
	for range 100 {
		f.Scan(func(Tuple) bool { return true })
	}
	if got := s.Stats().Reads; got != 5 {
		t.Errorf("Reads = %d, want 5 (fully cached)", got)
	}
}

func TestBufferPoolThrashing(t *testing.T) {
	// An inner relation larger than B pays a full re-read per scan under
	// sequential LRU — the worst case of the paper's analyses.
	s := NewStore(3)
	f, _ := s.Create("INNER", 1)
	fill(f, 6) // 6 pages > B = 3
	s.ResetStats()
	const scans = 10
	for range scans {
		f.Scan(func(Tuple) bool { return true })
	}
	if got := s.Stats().Reads; got != scans*6 {
		t.Errorf("Reads = %d, want %d (thrash)", got, scans*6)
	}
}

func TestReadPageDirectAlwaysCounts(t *testing.T) {
	s := NewStore(100)
	f, _ := s.Create("R", 2)
	fill(f, 4)
	s.ResetStats()
	f.ReadPageDirect(0)
	f.ReadPageDirect(0)
	f.ReadPageDirect(1)
	if got := s.Stats().Reads; got != 3 {
		t.Errorf("direct Reads = %d, want 3", got)
	}
}

func TestZeroCapacityPoolCountsEverything(t *testing.T) {
	s := NewStore(0)
	f, _ := s.Create("R", 2)
	fill(f, 4)
	s.ResetStats()
	f.ReadPage(0)
	f.ReadPage(0)
	if got := s.Stats().Reads; got != 2 {
		t.Errorf("Reads = %d, want 2 with no buffer", got)
	}
}

func TestReadPageOutOfRange(t *testing.T) {
	s := NewStore(2)
	f, _ := s.Create("R", 2)
	fill(f, 2)
	for _, fn := range []func(){
		func() { f.ReadPage(-1) },
		func() { f.ReadPage(1) },
		func() { f.ReadPageDirect(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range page")
				}
			}()
			fn()
		}()
	}
}

func TestStoreCreateLookupDrop(t *testing.T) {
	s := NewStore(2)
	if _, err := s.Create("R", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("R", 2); err == nil {
		t.Error("duplicate Create must fail")
	}
	if _, ok := s.Lookup("R"); !ok {
		t.Error("Lookup failed")
	}
	s.Drop("R")
	if _, ok := s.Lookup("R"); ok {
		t.Error("Drop did not remove file")
	}
	s.Drop("R") // idempotent
}

func TestDropInvalidatesBufferFrames(t *testing.T) {
	s := NewStore(2)
	f, _ := s.Create("R", 1)
	fill(f, 2)
	g, _ := s.Create("G", 1)
	fill(g, 1)
	s.ResetStats()
	f.ReadPage(0)
	f.ReadPage(1) // pool now full with R's pages
	s.Drop("R")
	g.ReadPage(0) // must be a miss, then resident
	g.ReadPage(0) // hit
	if got := s.Stats().Reads; got != 3 {
		t.Errorf("Reads = %d, want 3", got)
	}
}

func TestCreateTempUnique(t *testing.T) {
	s := NewStore(2)
	a := s.CreateTemp(0)
	b := s.CreateTemp(0)
	if a.Name() == b.Name() {
		t.Errorf("temp names collide: %s", a.Name())
	}
	if a.TuplesPerPage() != DefaultTuplesPerPage {
		t.Errorf("default capacity = %d", a.TuplesPerPage())
	}
}

func TestIOStatsArithmetic(t *testing.T) {
	a := IOStats{Reads: 10, Writes: 4}
	b := IOStats{Reads: 3, Writes: 1}
	d := a.Sub(b)
	if d.Reads != 7 || d.Writes != 3 || d.Total() != 10 {
		t.Errorf("Sub = %+v", d)
	}
	want := "14 page I/Os (10 reads + 4 writes)"
	if a.String() != want {
		t.Errorf("String = %q", a.String())
	}
}

func TestTupleCloneAndString(t *testing.T) {
	tu := intTuple(1, 2)
	c := tu.Clone()
	c[0] = value.NewInt(9)
	if tu[0].Int() != 1 {
		t.Error("Clone shares backing array")
	}
	if got := tu.String(); got != "(1, 2)" {
		t.Errorf("String = %q", got)
	}
}

// Property: for any page capacity and tuple count, NumPages is
// ceil(n/capacity), total writes after Seal equals NumPages, and scanning
// returns the tuples in insertion order.
func TestHeapFileProperties(t *testing.T) {
	f := func(cap8 uint8, n16 uint16) bool {
		capacity := int(cap8%20) + 1
		n := int(n16 % 500)
		s := NewStore(4)
		hf, err := s.Create("R", capacity)
		if err != nil {
			return false
		}
		fill(hf, n)
		wantPages := (n + capacity - 1) / capacity
		if hf.NumPages() != wantPages || hf.NumTuples() != n {
			return false
		}
		if s.Stats().Writes != int64(wantPages) {
			return false
		}
		i := 0
		ok := true
		hf.Scan(func(tu Tuple) bool {
			if tu[0].Int() != int64(i) {
				ok = false
				return false
			}
			i++
			return true
		})
		return ok && i == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: with pool capacity >= file pages, repeated scans cost exactly
// NumPages reads; with capacity < pages, repeated sequential scans cost
// scans*NumPages reads.
func TestBufferPoolProperties(t *testing.T) {
	f := func(pages8, cap8 uint8) bool {
		pages := int(pages8%10) + 1
		capacity := int(cap8%12) + 1
		s := NewStore(capacity)
		hf, _ := s.Create("R", 1)
		fill(hf, pages)
		s.ResetStats()
		const scans = 4
		for range scans {
			hf.Scan(func(Tuple) bool { return true })
		}
		got := s.Stats().Reads
		if capacity >= pages {
			return got == int64(pages)
		}
		return got == int64(scans*pages)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func ExampleIOStats() {
	s := NewStore(2)
	f, _ := s.Create("R", 1)
	f.Append(Tuple{value.NewInt(1)})
	f.Seal()
	f.ReadPage(0)
	fmt.Println(s.Stats())
	// Output: 2 page I/Os (1 reads + 1 writes)
}

// replaceWith is the DML shape Replace exists for: decide every row by a
// scan first (nil drops the row), then swap the file.
func replaceWith(f *HeapFile, decide func(Tuple) Tuple) {
	var rows []Tuple
	f.Scan(func(t Tuple) bool {
		if nt := decide(t); nt != nil {
			rows = append(rows, nt)
		}
		return true
	})
	f.Replace(rows)
}

func TestReplaceDeleteAndUpdate(t *testing.T) {
	s := NewStore(4)
	f, _ := s.Create("R", 3)
	fill(f, 10) // values 0..9
	s.ResetStats()

	// Delete odd values.
	replaceWith(f, func(t Tuple) Tuple {
		if t[0].Int()%2 != 0 {
			return nil
		}
		return t
	})
	if f.NumTuples() != 5 || f.NumPages() != 2 {
		t.Errorf("after delete: %d tuples, %d pages", f.NumTuples(), f.NumPages())
	}
	// Reads: 4 pages in; writes: 2 pages out.
	st := s.Stats()
	if st.Reads != 4 || st.Writes != 2 {
		t.Errorf("replace I/O = %+v, want 4 reads + 2 writes", st)
	}
	if n := s.TempCount(); n != 0 {
		t.Errorf("%d shadow file(s) left behind", n)
	}

	// Update: double every remaining value.
	replaceWith(f, func(t Tuple) Tuple { return Tuple{value.NewInt(t[0].Int() * 2)} })
	var got []int64
	f.Scan(func(t Tuple) bool {
		got = append(got, t[0].Int())
		return true
	})
	want := []int64{0, 4, 8, 12, 16}
	if len(got) != len(want) {
		t.Fatalf("after update = %v, want %v", got, want)
	}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("after update = %v, want %v", got, want)
		}
	}
}

func TestReplaceInvalidatesBufferFrames(t *testing.T) {
	s := NewStore(4)
	f, _ := s.Create("R", 2)
	fill(f, 4)
	f.Scan(func(Tuple) bool { return true }) // warm the pool
	replaceWith(f, func(t Tuple) Tuple {
		if t[0].Int() == 0 {
			return nil
		}
		return t
	})
	s.ResetStats()
	f.Scan(func(Tuple) bool { return true })
	// Every page is a miss after the replace dropped the old frames.
	if got := s.Stats().Reads; got != int64(f.NumPages()) {
		t.Errorf("post-replace scan reads = %d, want %d", got, f.NumPages())
	}
}

func TestChargeReads(t *testing.T) {
	s := NewStore(2)
	s.ChargeReads(7)
	if s.Stats().Reads != 7 {
		t.Errorf("ChargeReads = %+v", s.Stats())
	}
}

func TestReplaceEmptyFile(t *testing.T) {
	s := NewStore(2)
	f, _ := s.Create("R", 2)
	f.Seal()
	s.ResetStats()
	f.Replace(nil)
	if f.NumTuples() != 0 || f.NumPages() != 0 || s.Stats().Total() != 0 {
		t.Errorf("replace of an empty file: %d tuples, %d pages, %v", f.NumTuples(), f.NumPages(), s.Stats())
	}
}

// TestTruncateClearsDroppedSlots: pages share their file's slab, so a
// dropped tuple slot left set would keep its row alive through the page
// that is kept. Every slot past the cut, in the kept page and in the
// pages dropped whole, reads nil afterwards.
func TestTruncateClearsDroppedSlots(t *testing.T) {
	s := NewStore(4)
	f, _ := s.Create("R", 10)
	fill(f, 25)
	dropped := f.ReadPage(2)
	f.TruncateTo(13)
	if f.NumTuples() != 13 || f.NumPages() != 2 {
		t.Fatalf("after truncate: %d tuples, %d pages", f.NumTuples(), f.NumPages())
	}
	kept := f.ReadPage(1)
	for i, tu := range kept[:cap(kept)] {
		if (i < 3) != (tu != nil) {
			t.Errorf("kept page slot %d = %v after truncating to 3 of its tuples", i, tu)
		}
	}
	for i, tu := range dropped {
		if tu != nil {
			t.Errorf("dropped page slot %d = %v", i, tu)
		}
	}
	for i, p := range f.pages[:cap(f.pages)][f.NumPages():] {
		if p.t != nil {
			t.Errorf("page index slot %d still holds a dropped page", f.NumPages()+i)
		}
	}
	// The file refills past the cut exactly as if it had never held it.
	for i := range 12 {
		f.Append(intTuple(int64(100 + i)))
	}
	if f.NumTuples() != 25 || f.NumPages() != 3 || len(f.ReadPage(1)) != 10 {
		t.Errorf("after refill: %d tuples, %d pages", f.NumTuples(), f.NumPages())
	}
}

// TestReplaceTakesShadowSlab: the spare tail of a file's slab pins the
// whole array its old pages were carved from, deleted rows included, so
// Replace hands the file the shadow's slab and pages carved after it
// never come from the old array.
func TestReplaceTakesShadowSlab(t *testing.T) {
	s := NewStore(4)
	f, _ := s.Create("R", 10)
	fill(f, 25) // slabs of 1, 1 and 2 pages: one page spare
	old := f.slab
	if len(old) == 0 {
		t.Fatal("no spare slab to test with")
	}
	replaceWith(f, func(tu Tuple) Tuple {
		if tu[0].Int() >= 5 {
			return nil
		}
		return tu
	})
	fill(f, 40)
	for i, tu := range old[:cap(old)] {
		if tu != nil {
			t.Fatalf("page carved after Replace wrote slot %d of the old slab: %v", i, tu)
		}
	}
}

// TestGrowKeepsPagingAndIO: a Grow hint, short, exact or long, and given
// to an empty or a half-filled file, changes where pages are carved from
// and nothing else: the same pages, tuples and writes as no hint, and
// every page capped at its capacity.
func TestGrowKeepsPagingAndIO(t *testing.T) {
	for _, pre := range []int{0, 7} {
		for _, hint := range []int{0, 1, 13, 30, 100} {
			s := NewStore(4)
			f, _ := s.Create("R", 10)
			for i := range pre {
				f.Append(intTuple(int64(i)))
			}
			f.Grow(hint)
			for i := pre; i < 43; i++ {
				f.Append(intTuple(int64(i)))
			}
			f.Seal()
			if f.NumPages() != 5 || s.Stats().Writes != 5 {
				t.Errorf("pre %d, hint %d: %d pages, %d writes, want 5 and 5", pre, hint, f.NumPages(), s.Stats().Writes)
			}
			next := int64(0)
			for i := range f.NumPages() {
				p := f.ReadPage(i)
				if cap(p) != 10 {
					t.Errorf("pre %d, hint %d: page %d has capacity %d", pre, hint, i, cap(p))
				}
				for _, tu := range p {
					if tu[0].Int() != next {
						t.Fatalf("pre %d, hint %d: page %d holds %v, want %d", pre, hint, i, tu, next)
					}
					next++
				}
			}
		}
	}
}

// TestPageSlabAllocBudget: opening a page costs no allocation of its own.
// Appending n tuples to a file hinted with Grow(n) allocates at most
// twice, the slab and the page index; unhinted, a file allocates once per
// slab of up to slabTuples headers plus the page index's regrowths, not a
// page header and a tuple slice per page. A one-tuple hint before every
// append, as single-row INSERTs give, allocates no more than no hint.
// Budgets hold without the race detector: the alloc gate runs them so.
func TestPageSlabAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	if size := unsafe.Sizeof(HeapFile{}); size > 80 {
		t.Errorf("HeapFile is %d bytes: every temp file now allocates past the 80-byte size class", size)
	}
	const tpp, n, runs = 32, 200 * 32, 10
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = intTuple(int64(i))
	}
	// full slabs, then the first slabs' and the index's doublings
	unhinted := n/tpp/(slabTuples/tpp) + 2*bits.Len(n/tpp)
	for _, hint := range []struct {
		name   string
		whole  bool // Grow(n) once
		each   bool // Grow(1) before every append
		budget int
	}{
		{"Grow(n)", true, false, 2},
		{"Grow(1) per tuple", false, true, unhinted},
		{"no hint", false, false, unhinted},
	} {
		s := NewStore(4)
		files := make([]*HeapFile, runs+1)
		for i := range files {
			files[i], _ = s.Create(fmt.Sprint("R", i), tpp)
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			f := files[next]
			next++
			if hint.whole {
				f.Grow(n)
			}
			for _, tu := range tuples {
				if hint.each {
					f.Grow(1)
				}
				f.Append(tu)
			}
		})
		t.Logf("%s: %.0f allocations for %d pages", hint.name, allocs, n/tpp)
		if allocs > float64(hint.budget) {
			t.Errorf("%s: %.0f allocations for %d pages, budget %d", hint.name, allocs, n/tpp, hint.budget)
		}
	}
}

// TestAppendAllMatchesAppend: handing tuples over in batches, whole pages
// or not, into an empty, a half-filled or a sealed file, leaves the same
// pages, tuples and writes as appending them one at a time, and so does
// the Seal after it.
func TestAppendAllMatchesAppend(t *testing.T) {
	const tpp, n = 10, 43
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = intTuple(int64(i))
	}
	type shape struct {
		pages, writes int
		tuples        []string
	}
	build := func(pre int, seal bool, batch int) shape {
		s := NewStore(4)
		f, _ := s.Create("R", tpp)
		for _, tu := range tuples[:pre] {
			f.Append(tu)
		}
		if seal {
			f.Seal()
		}
		for lo := pre; lo < n; lo += batch {
			if batch == 1 {
				f.Append(tuples[lo])
			} else {
				f.AppendAll(tuples[lo:min(lo+batch, n)])
			}
		}
		f.Seal()
		sh := shape{pages: f.NumPages(), writes: int(s.Stats().Writes)}
		for i := range f.NumPages() {
			p := f.ReadPage(i)
			if cap(p) != tpp {
				t.Errorf("pre %d, batch %d: page %d has capacity %d", pre, batch, i, cap(p))
			}
			for _, tu := range p {
				sh.tuples = append(sh.tuples, tu.String())
			}
		}
		return sh
	}
	for _, pre := range []int{0, 7, 10} {
		for _, seal := range []bool{false, true} {
			want := build(pre, seal, 1)
			for _, batch := range []int{3, tpp, 25, n} {
				got := build(pre, seal, batch)
				if got.pages != want.pages || got.writes != want.writes || fmt.Sprint(got.tuples) != fmt.Sprint(want.tuples) {
					t.Errorf("pre %d, sealed %v, batch %d: %d pages, %d writes, %v; one at a time %d, %d, %v",
						pre, seal, batch, got.pages, got.writes, got.tuples, want.pages, want.writes, want.tuples)
				}
			}
		}
	}
}
