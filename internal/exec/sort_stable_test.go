package exec_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/qctx"
	"repro/internal/storage"
	"repro/internal/value"
)

// TestSortStableDifferential: exec.Sort must equal a stable reference sort
// row for row — rows with equal keys leave in input order — on every path
// a row can take: the in-memory sort, heap runs merged B−1 at a time, and
// spill runs under SpillForced. Inputs are dense in duplicate keys, and
// the last column carries the input position, so any pair of ties that
// swaps shows in the rendered row. The leading key columns cover both
// ways a run sorts: INTEGERs or DATEs throughout (sorted by radix) and
// NULLs among integers or integers mixed with floats (sorted on Values);
// a column mixing strings with integers must fail with the type error the
// reference comparator meets.
func TestSortStableDifferential(t *testing.T) {
	shapes := []struct {
		name string
		keys []int
		desc []bool
	}{
		{"one-key", []int{0}, nil},
		{"one-key-desc", []int{0}, []bool{true}},
		{"two-keys", []int{0, 1}, nil},
		{"two-keys-lead-desc", []int{0, 1}, []bool{true, false}},
		{"two-keys-mixed-desc", []int{1, 0}, []bool{true, false}},
	}
	paths := []struct {
		name   string
		frames int // store buffer pages B; a run is 16·B rows, past the 12 under which pdqsort is a (stable) insertion sort
		lim    qctx.Limits
		spill  bool
	}{
		{name: "memory", frames: 1024},
		{name: "heap-runs", frames: 3},
		{name: "forced-spill", frames: 3, lim: qctx.Limits{Spill: qctx.SpillForced, MaxBytes: 1 << 30}, spill: true},
	}
	date := func(day int) value.Value {
		d, err := value.NewDate(1980, 1, 1+day)
		if err != nil {
			t.Fatal(err)
		}
		return value.NewDateValue(d)
	}
	// Each input makes column 0 (and 1) from a key k drawn with duplicates.
	inputs := []struct {
		name       string
		lead, next func(rng *rand.Rand) value.Value
		typeErr    bool
	}{
		{name: "int", lead: func(rng *rand.Rand) value.Value {
			return intv([]int64{math.MinInt64, -2, -1, 0, 1, 2, 3, math.MaxInt64}[rng.Intn(8)])
		},
			next: func(rng *rand.Rand) value.Value { return intv(int64(rng.Intn(5))) }},
		{name: "date", lead: func(rng *rand.Rand) value.Value { return date(rng.Intn(6)) },
			next: func(rng *rand.Rand) value.Value { return date(rng.Intn(4)) }},
		{name: "null-lead", lead: func(rng *rand.Rand) value.Value {
			if rng.Intn(10) == 0 {
				return value.Null
			}
			return intv(int64(rng.Intn(6)))
		}, next: func(rng *rand.Rand) value.Value {
			if rng.Intn(10) == 0 {
				return value.Null
			}
			return intv(int64(rng.Intn(5)))
		}},
		{name: "int-float", lead: func(rng *rand.Rand) value.Value {
			k := rng.Intn(6)
			if rng.Intn(2) == 0 {
				return intv(int64(k))
			}
			return value.NewFloat(float64(k) / float64(1+rng.Intn(2))) // 2.0 ties 2, 1.5 falls between
		}, next: func(rng *rand.Rand) value.Value { return intv(int64(rng.Intn(5))) }},
		{name: "string-int", lead: func(rng *rand.Rand) value.Value {
			k := rng.Intn(6)
			if rng.Intn(2) == 0 {
				return intv(int64(k))
			}
			return value.NewString(fmt.Sprint(k))
		}, next: func(rng *rand.Rand) value.Value { return intv(int64(rng.Intn(5))) }, typeErr: true},
	}
	for _, in := range inputs {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			rows := make([]storage.Tuple, 300+rng.Intn(200))
			for i := range rows {
				rows[i] = storage.Tuple{in.lead(rng), in.next(rng), intv(int64(i))}
			}
			for _, sh := range shapes {
				if in.typeErr && sh.keys[0] != 0 {
					continue
				}
				ref := slices.Clone(rows)
				refErrs := map[string]bool{}
				slices.SortStableFunc(ref, func(a, b storage.Tuple) int {
					for i, k := range sh.keys {
						c, err := value.TotalCompare(a[k], b[k])
						if err != nil {
							refErrs[err.Error()] = true
							return 0
						}
						if sh.desc != nil && sh.desc[i] {
							c = -c
						}
						if c != 0 {
							return c
						}
					}
					return 0
				})
				if in.typeErr != (len(refErrs) > 0) {
					t.Fatalf("%s: reference sort errors %v", in.name, refErrs)
				}
				want := make([]string, len(ref))
				for i, r := range ref {
					want[i] = r.String()
				}
				for _, p := range paths {
					t.Run(fmt.Sprintf("%s/seed%d/%s/%s", in.name, seed, sh.name, p.name), func(t *testing.T) {
						e, m, done := newSpillEnv(t, spillRegime{lim: p.lim, spill: p.spill})
						defer done()
						e.s = storage.NewStore(p.frames)
						f := loadTuples(e.s, "R", 2, rows)
						e.s.ResetStats()
						got, err := renderAll(&exec.Sort{Child: scanOf(f, "R"), Keys: sh.keys, Desc: sh.desc,
							Store: e.s, TuplesPerPage: 16, QC: e.qc, Spill: e.sess})
						if n := m.LiveRuns(); n != 0 {
							t.Errorf("%d spill runs outlive Close", n)
						}
						if in.typeErr {
							if err == nil || !refErrs[err.Error()] {
								t.Fatalf("Sort = %v, want one of the reference's type errors %v", err, refErrs)
							}
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						if p.spill == (e.sess.Stats().Runs == 0) {
							t.Errorf("spilled %v, want spilling = %v", e.sess.Stats(), p.spill)
						}
						if w := e.s.Stats().Writes; (p.name == "heap-runs") != (w > 0) {
							t.Errorf("%d heap run pages written on the %s path", w, p.name)
						}
						if len(got) != len(want) {
							t.Fatalf("%d rows, want %d", len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("row %d of %d: got %s, want %s", i, len(want), got[i], want[i])
							}
						}
					})
				}
			}
		}
	}
}

// TestSortTypeErrorParity: a key column that mixes VARCHAR and INTEGER
// fails Open with the value package's type error wherever the first
// incomparable pair meets — in the in-memory sort, in the sort of a later
// run after one was flushed, inside a merge of two runs each of one kind —
// on heap runs and on spill runs, and leaves no temp file, no spill run
// and no budget charge behind.
func TestSortTypeErrorParity(t *testing.T) {
	ints := func(n int) (rows []storage.Tuple) {
		for i := range n {
			rows = append(rows, storage.Tuple{intv(int64(n - i)), intv(int64(i))})
		}
		return rows
	}
	strs := func(n int) (rows []storage.Tuple) {
		for i := range n {
			rows = append(rows, storage.Tuple{value.NewString(fmt.Sprint("s", n-i)), intv(int64(i))})
		}
		return rows
	}
	// With B = 3 frames of 2 tuples a run is 6 rows.
	cases := []struct {
		name   string
		frames int
		rows   []storage.Tuple
	}{
		{"in-memory", 1024, append(ints(5), strs(5)...)},
		{"after-flush", 3, append(ints(9), strs(3)...)},        // run 1 = 6 ints, run 2 = 3 ints + 3 strings
		{"merge", 3, append(ints(6), strs(6)...)},              // run 1 = ints, run 2 = strings: each sorts, the merge cannot
		{"second-merge-pass", 3, append(ints(18), strs(6)...)}, // 4 runs at fan-in 2: the passes' own outputs meet last
	}
	for _, c := range cases {
		for _, r := range []spillRegime{spillRegimes[0], spillRegimes[3]} {
			if c.frames > 3 && r.spill {
				continue // a forced sort never sorts in memory
			}
			t.Run(c.name+"/"+r.name, func(t *testing.T) {
				e, m, done := newSpillEnv(t, r)
				defer done() // no byte charged, no spill file
				e.s = storage.NewStore(c.frames)
				f := loadTuples(e.s, "R", 2, c.rows)
				srt := &exec.Sort{Child: scanOf(f, "R"), Keys: []int{0}, Store: e.s, TuplesPerPage: 2, QC: e.qc, Spill: e.sess}
				err := srt.Open()
				if err == nil || !strings.Contains(err.Error(), "value: cannot compare") {
					t.Errorf("Open = %v, want the value package's type error", err)
				}
				if err := srt.Close(); err != nil {
					t.Error(err)
				}
				if n := e.s.TempCount(); n != 0 {
					t.Errorf("%d temp files after Close", n)
				}
				if n := m.LiveRuns(); n != 0 {
					t.Errorf("%d spill runs after Close", n)
				}
			})
		}
	}
}

// TestRadixMatchesComparator: a run whose leading keys are INTEGER or
// DATE throughout sorts by radix, and must leave in exactly the order a
// stable sort by compareRows gives, on every path: in memory, through heap
// runs and through spill runs. Keys are one to three of two INTEGER
// columns and a DATE column, under every mix of DESC, and the INTEGER
// columns hold MinInt64, MaxInt64, negatives and values either side of
// each byte boundary, drawn from small sets so ties are dense. An INTEGER
// prefix followed by a STRING key leaves ties to compareRows within each
// group. Sizes are 0, 1, 2, either side of the longest run sorted by
// insertion, runCap−1, runCap (one full run) and several runs' worth; the
// last column is the arrival position, so a tie the radix reorders shows.
func TestRadixMatchesComparator(t *testing.T) {
	wide := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 32, -257, -256, -1, 0, 1, 255, 256, 1 << 32, math.MaxInt64 - 1, math.MaxInt64}
	row := func(rng *rand.Rand, i int) storage.Tuple {
		d, err := value.NewDate(1990+rng.Intn(40), 1+rng.Intn(12), 1)
		if err != nil {
			t.Fatal(err)
		}
		return storage.Tuple{
			intv(wide[rng.Intn(len(wide))]),
			value.NewDateValue(d),
			intv(int64(rng.Intn(3) - 1)),
			value.NewString(string(rune('a' + rng.Intn(3)))),
			intv(int64(i)),
		}
	}
	// 1–3 of the INTEGER/DATE columns, then an INTEGER prefix before the STRING.
	keySets := [][]int{{0}, {1}, {2}, {0, 1}, {2, 0}, {1, 2}, {0, 1, 2}, {2, 1, 0}, {0, 3}, {2, 0, 3}}
	paths := []struct {
		name   string
		frames int // runCap = 16·frames rows
		lim    qctx.Limits
		spill  bool
	}{
		{name: "memory", frames: 16},
		{name: "heap-runs", frames: 3},
		{name: "forced-spill", frames: 3, lim: qctx.Limits{Spill: qctx.SpillForced, MaxBytes: 1 << 30}, spill: true},
	}
	for _, keys := range keySets {
		for mix := 0; mix < 1<<len(keys); mix++ {
			desc := make([]bool, len(keys))
			for i := range desc {
				desc[i] = mix>>i&1 == 1
			}
			for _, p := range paths {
				runCap := 16 * p.frames
				name := fmt.Sprintf("keys%v/desc%v/%s", keys, desc, p.name)
				t.Run(name, func(t *testing.T) {
					for _, n := range []int{0, 1, 2, exec.ShortRun, exec.ShortRun + 1, runCap - 1, runCap, 4*runCap + 5} {
						rng := rand.New(rand.NewSource(int64(n*31 + mix)))
						rows := make([]storage.Tuple, n)
						for i := range rows {
							rows[i] = row(rng, i)
						}
						ref := slices.Clone(rows)
						var refErr error
						slices.SortStableFunc(ref, func(a, b storage.Tuple) int {
							return exec.CompareRows(a, b, keys, desc, &refErr)
						})
						if refErr != nil {
							t.Fatal(refErr)
						}
						e, m, done := newSpillEnv(t, spillRegime{lim: p.lim, spill: p.spill})
						e.s = storage.NewStore(p.frames)
						f := loadTuples(e.s, "R", 16, rows)
						got, err := renderAll(&exec.Sort{Child: scanOf(f, "R"), Keys: keys, Desc: desc,
							Store: e.s, TuplesPerPage: 16, QC: e.qc, Spill: e.sess})
						if err != nil {
							t.Fatal(err)
						}
						if n := m.LiveRuns(); n != 0 {
							t.Errorf("%d spill runs outlive Close", n)
						}
						done()
						if len(got) != n {
							t.Fatalf("%d rows: sorted %d", n, len(got))
						}
						for i, r := range ref {
							if want := r.String(); got[i] != want {
								t.Fatalf("%d rows: row %d is %s, want %s", n, i, got[i], want)
							}
						}
					}
				})
			}
		}
	}
}

// TestSortBufferSurvivesGC: a sort's run buffer, grown to twice the run
// for the radix's scratch half, is kept on a free list that a collection
// does not empty, so the next sort of the same size allocates no buffer
// of its own even after two GCs (a sync.Pool is empty by then). A sort
// takes the oldest buffer on the list, so the warm-up sorts once per P to
// grow every buffer the list may hold.
func TestSortBufferSurvivesGC(t *testing.T) {
	const n = 1000 // runCap is 16·64 = 1,024: the sort stays in memory
	rows := make([]storage.Tuple, n)
	for i := range rows {
		rows[i] = storage.Tuple{intv(int64(i * 7919 % n)), intv(int64(i))}
	}
	s := storage.NewStore(64)
	f := loadTuples(s, "R", 16, rows)
	sortOnce := func() {
		srt := &exec.Sort{Child: scanOf(f, "R"), Keys: []int{0}, Store: s, TuplesPerPage: 16}
		if err := srt.Open(); err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok, err := srt.Next(); err != nil || !ok {
				break
			}
		}
		srt.Close()
	}
	for range runtime.GOMAXPROCS(0) {
		sortOnce()
	}
	// The buffer is 2·n rows of 40 bytes; the sort's scan and operator
	// take a few hundred bytes. TotalAlloc counts the whole process, so
	// the least of three tries is the sort's own.
	b := ^uint64(0)
	for range 3 {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sortOnce()
		runtime.ReadMemStats(&after)
		b = min(b, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a warm sort of %d rows after two GCs: %d bytes", n, b)
	if b > 4<<10 {
		t.Errorf("a warm sort of %d rows allocated %d bytes after two GCs; a buffer of its rows alone is %d", n, b, n*40)
	}
}
