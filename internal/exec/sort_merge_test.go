package exec_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/qctx"
	"repro/internal/storage"
	"repro/internal/value"
)

// TestSortStreamedMatchesWritten: a sort whose Next merges its last ≤ B−1
// runs must leave the same rows, byte for byte, as one that writes its
// last pass (WriteLastPass, the plan the paper costs), fail with the same
// first error, and both must equal a stable sort by compareRows. Runs go
// to the heap and, under SpillForced, to spill files. The fan-ins are 1
// (a lone run), 2, 3, exactly B−1 = 4, B = 5 (one pass, then 2 runs) and
// 17 (two passes). The keys cover the cached path (INTEGER or DATE
// throughout, ascending and DESC, all equal), the uncached one (a NULL or
// a FLOAT among the leading INTEGERs), an INTEGER prefix before a STRING
// key, a STRING/INTEGER mix in a second key that ties never reach — no
// error in either mode — and runs of INTEGERs then of STRINGs, which only
// the merge compares: both modes fail in Open with the same error. The
// last column is the input position, so a tie the merge swaps shows.
func TestSortStreamedMatchesWritten(t *testing.T) {
	const frames, tpp = 5, 4 // a run is 20 rows, merged B−1 = 4 at a time
	runCap := frames * tpp
	date := func(day int) value.Value {
		d, err := value.NewDate(1990, 1, 1+day)
		if err != nil {
			t.Fatal(err)
		}
		return value.NewDateValue(d)
	}
	// Each case makes row i's key columns; the sort adds the position.
	cases := []struct {
		name    string
		keys    []int
		desc    []bool
		row     func(rng *rand.Rand, i, n int) storage.Tuple
		typeErr bool
		// mixed: a key column holds kinds that cannot all compare, so
		// both modes write the last pass.
		mixed bool
	}{
		{name: "int", keys: []int{0}, row: func(rng *rand.Rand, i, n int) storage.Tuple {
			return storage.Tuple{intv(int64(rng.Intn(12) - 6)), intv(int64(rng.Intn(3)))}
		}},
		{name: "all-equal", keys: []int{0, 1}, row: func(rng *rand.Rand, i, n int) storage.Tuple {
			return storage.Tuple{intv(7), intv(7)}
		}},
		{name: "desc", keys: []int{0}, desc: []bool{true}, row: func(rng *rand.Rand, i, n int) storage.Tuple {
			return storage.Tuple{intv(int64(rng.Intn(12) - 6)), intv(0)}
		}},
		{name: "date-desc-then-int", keys: []int{0, 1}, desc: []bool{true, false}, row: func(rng *rand.Rand, i, n int) storage.Tuple {
			return storage.Tuple{date(rng.Intn(5)), intv(int64(rng.Intn(3)))}
		}},
		{name: "null-lead", keys: []int{0}, row: func(rng *rand.Rand, i, n int) storage.Tuple {
			if rng.Intn(5) == 0 {
				return storage.Tuple{value.Null, intv(0)}
			}
			return storage.Tuple{intv(int64(rng.Intn(6))), intv(0)}
		}},
		{name: "int-float-lead", keys: []int{0}, row: func(rng *rand.Rand, i, n int) storage.Tuple {
			k := rng.Intn(6)
			if rng.Intn(2) == 0 {
				return storage.Tuple{value.NewFloat(float64(k) / 2), intv(0)}
			}
			return storage.Tuple{intv(int64(k)), intv(0)}
		}},
		{name: "int-then-string", keys: []int{0, 1}, row: func(rng *rand.Rand, i, n int) storage.Tuple {
			return storage.Tuple{intv(int64(rng.Intn(4))), value.NewString(string(rune('a' + rng.Intn(3))))}
		}},
		{name: "string-int-second-key-unreached", keys: []int{0, 1}, mixed: true, row: func(rng *rand.Rand, i, n int) storage.Tuple {
			second := intv(int64(i))
			if i%2 == 1 {
				second = value.NewString(fmt.Sprint(i))
			}
			return storage.Tuple{intv(int64(n - i)), second} // the leading key never ties
		}},
		{name: "int-runs-then-string-runs", keys: []int{0}, typeErr: true, row: func(rng *rand.Rand, i, n int) storage.Tuple {
			if i < runCap {
				return storage.Tuple{intv(int64(rng.Intn(9))), intv(0)}
			}
			return storage.Tuple{value.NewString(fmt.Sprint(rng.Intn(9))), intv(0)}
		}},
	}
	regimes := []struct {
		name  string
		lim   qctx.Limits
		spill bool
	}{
		{name: "heap-runs"},
		{name: "forced-spill", lim: qctx.Limits{Spill: qctx.SpillForced, MaxBytes: 1 << 30}, spill: true},
	}
	for _, c := range cases {
		for _, fanIn := range []int{1, 2, 3, frames - 1, frames, 17} {
			for _, r := range regimes {
				if c.typeErr && fanIn == 1 {
					continue // a lone run holds only INTEGERs
				}
				t.Run(fmt.Sprintf("%s/runs%d/%s", c.name, fanIn, r.name), func(t *testing.T) {
					n := fanIn * runCap
					if fanIn > 1 {
						n -= runCap / 2 // the last run is short
					}
					rng := rand.New(rand.NewSource(int64(fanIn)))
					rows := make([]storage.Tuple, n)
					for i := range rows {
						rows[i] = append(c.row(rng, i, n), intv(int64(i)))
					}
					type outcome struct {
						rows   []string
						err    error
						writes int64 // heap run pages
						runs   int64 // spill runs
					}
					sortAll := func(writeLast bool) (o outcome) {
						e, m, done := newSpillEnv(t, spillRegime{lim: r.lim, spill: r.spill})
						defer done()
						e.s = storage.NewStore(frames)
						f := loadTuples(e.s, "R", tpp, rows)
						e.s.ResetStats()
						o.rows, o.err = renderAll(&exec.Sort{Child: scanOf(f, "R"), Keys: c.keys, Desc: c.desc,
							Store: e.s, TuplesPerPage: tpp, QC: e.qc, Spill: e.sess, WriteLastPass: writeLast})
						if k := e.s.TempCount(); k != 0 {
							t.Errorf("%d temp files outlive Close", k)
						}
						if k := m.LiveRuns(); k != 0 {
							t.Errorf("%d spill runs outlive Close", k)
						}
						o.writes, o.runs = e.s.Stats().Writes, e.sess.Stats().Runs
						return o
					}
					streamed, written := sortAll(false), sortAll(true)
					if fmt.Sprint(streamed.err) != fmt.Sprint(written.err) {
						t.Fatalf("streamed error %v, written error %v", streamed.err, written.err)
					}
					if c.typeErr != (streamed.err != nil) {
						t.Fatalf("error %v, want a type error: %v", streamed.err, c.typeErr)
					}
					if !slices.Equal(streamed.rows, written.rows) {
						t.Fatalf("streamed and written passes differ:\n%v\n%v", streamed.rows, written.rows)
					}
					if c.typeErr {
						return
					}
					ref := slices.Clone(rows)
					var refErr error
					slices.SortStableFunc(ref, func(a, b storage.Tuple) int {
						return exec.CompareRows(a, b, c.keys, c.desc, &refErr)
					})
					if refErr != nil {
						t.Fatal(refErr)
					}
					for i, row := range ref {
						if want := row.String(); streamed.rows[i] != want {
							t.Fatalf("row %d of %d is %s, want %s", i, n, streamed.rows[i], want)
						}
					}
					// Where more than one run is left to merge, the streamed
					// pass writes the sorted output nowhere, unless the
					// kinds send it down the written path.
					if streams := fanIn > 1 && !c.mixed; streams != (streamed.writes+streamed.runs < written.writes+written.runs) {
						t.Errorf("streamed pass wrote %d pages and %d spill runs, the written one %d and %d; want fewer: %v",
							streamed.writes, streamed.runs, written.writes, written.runs, streams)
					}
				})
			}
		}
	}
}

// TestSortMergeAllocBudget: the merge allocates per run, never per row.
// An external sort of 10 runs — merged 3 at a time to 4, then to 2 that
// Next merges — on heap runs with 4× the rows per run (4× the tuples per
// page, the same pages) allocates the same objects as the 1× one: the
// run files come from one slab each, each run's pages are handed over
// from a pooled stage, and a merger is its cursors and its tree. And an
// in-memory sort, which fills no run and so never records key kinds,
// allocates nothing of its own: no merger keeps a pointer to the Sort,
// which stays on the caller's stack.
func TestSortMergeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	const frames, nruns = 4, 10
	sortAllocs := func(tpp, n int) float64 {
		rows := make([]storage.Tuple, n)
		for i := range rows {
			rows[i] = storage.Tuple{intv(int64(i * 7919 % n)), intv(int64(i))}
		}
		s := storage.NewStore(frames)
		f := loadTuples(s, "R", tpp, rows)
		sortOnce := func() {
			srt := &exec.Sort{Child: scanOf(f, "R"), Keys: []int{0}, Store: s, TuplesPerPage: tpp}
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
			sortOnce() // grow every buffer the free list holds
		}
		return testing.AllocsPerRun(20, sortOnce)
	}
	one, four := sortAllocs(4, nruns*frames*4), sortAllocs(16, nruns*frames*16)
	t.Logf("external sort of %d runs: %.1f allocations at 1× the rows, %.1f at 4×", nruns, one, four)
	if four != one {
		t.Errorf("external sort of %d runs: %.1f allocations at 4× the rows, %.1f at 1×", nruns, four, one)
	}
	const inMemoryBudget = 3 // the scan's two objects and the key slice
	if mem := sortAllocs(16, frames*16-1); mem > inMemoryBudget {
		t.Errorf("in-memory sort: %.1f allocations, budget %d", mem, inMemoryBudget)
	}
}
