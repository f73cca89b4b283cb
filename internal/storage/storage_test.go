package storage

import (
	"fmt"
	"testing"
	"testing/quick"

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
