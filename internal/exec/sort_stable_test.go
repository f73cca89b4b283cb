package exec_test

import (
	"fmt"
	"math"
	"math/rand"
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
// ways a run sorts: INTEGERs or DATEs throughout (sorted on the extracted
// payload) and NULLs among integers or integers mixed with floats (sorted
// on Values); a column mixing strings with integers must fail with the
// type error the reference comparator meets.
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
