package exec_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/value"
)

// A join handed output columns (Out) builds only those columns of each
// joined row. These tests hold it to the row a projection of the
// unprojected join would have made, for every join operator.

// projectedJoinKinds are the join operators that take Out: the merge join,
// the hash join inline and under an exchange, and nested loops.
var projectedJoinKinds = []string{"merge", "hash-inline", "hash-exchange", "nested-loop"}

// projectedJoinInputs loads a left and a right file of (K, V, ID) rows:
// keys with the occasional NULL, from a domain of 30 on the left and 20 on
// the right, so some left keys match nothing even NULL-safely; IDs unique
// and never NULL, so a NULL ID marks an outer join's padded row.
func projectedJoinInputs(e spillEnv) (left, right *storage.HeapFile) {
	rng := rand.New(rand.NewSource(12))
	load := func(name string, n, domain, idBase int) *storage.HeapFile {
		rows := randTuples(rng, n, domain)
		for i := range rows {
			rows[i] = append(rows[i], intv(int64(idBase+i)))
		}
		return loadTuples(e.s, name, 2, rows)
	}
	return load("L", 120, 30, 0), load("R", 90, 20, 1000)
}

// projectedJoin builds one join of kind on the K columns, emitting out.
func projectedJoin(e spillEnv, left, right *storage.HeapFile, kind string, outer, nullEq bool, out []int) exec.Operator {
	scan := func(f *storage.HeapFile, binding string) *exec.SeqScan {
		return exec.NewSeqScan(f, binding, []string{"K", "V", "ID"})
	}
	switch kind {
	case "merge":
		sorted := func(f *storage.HeapFile, binding string) exec.Operator {
			return &exec.Sort{Child: scan(f, binding), Keys: []int{0}, Store: e.s, TuplesPerPage: 2, QC: e.qc, Spill: e.sess}
		}
		return &exec.MergeJoin{Left: sorted(left, "L"), Right: sorted(right, "R"),
			NullEq: nullEq, Outer: outer, Out: out, QC: e.qc, Spill: e.sess}
	case "nested-loop":
		op := value.OpEq
		if nullEq {
			op = value.OpEqNull
		}
		return &exec.NestedLoopJoin{Left: scan(left, "L"), Right: right, RightSch: scan(right, "R").Schema(),
			Pred: func(t storage.Tuple) (bool, error) {
				tri, err := op.Apply(t[0], t[3])
				return tri.IsTrue(), err
			},
			Outer: outer, Out: out, QC: e.qc}
	}
	j := &exec.ParallelHashJoin{Left: scan(left, "L"), Right: scan(right, "R"),
		NullEq: nullEq, Outer: outer, Out: out, Workers: 1, QC: e.qc}
	if kind == "hash-inline" {
		return j
	}
	j.Workers = 2
	return &exec.ExchangeMerge{Source: j, QC: e.qc}
}

// TestProjectedJoinsEqualProjectedConcat: every join operator, inner and
// outer, with and without a NULL-safe key, resident and with every buffer
// forced to spill, emits for each Out exactly the projection of its
// unprojected rows — in the same order where the join is ordered — under
// the projected schema, and its NULL-padded rows read NULL in every
// projected right column; and a GROUP BY over it, with or without a sort,
// aggregates to what it aggregates over the unprojected join.
func TestProjectedJoinsEqualProjectedConcat(t *testing.T) {
	outs := []struct {
		name string
		cols []int // positions in L.K L.V L.ID R.K R.V R.ID
	}{
		{"all", nil},
		{"left-prefix", []int{0, 1}},
		{"left-run", []int{1, 2}},
		{"right-only", []int{4, 5}},
		{"mixed", []int{0, 5}},
		{"reordered", []int{5, 2, 3}},
	}
	const leftWidth, rightID = 3, 5
	for _, kind := range projectedJoinKinds {
		for _, outer := range []bool{false, true} {
			for _, nullEq := range []bool{false, true} {
				for _, r := range []spillRegime{spillRegimes[0], spillRegimes[3]} {
					t.Run(fmt.Sprintf("%s/outer=%v/nulleq=%v/%s", kind, outer, nullEq, r.name), func(t *testing.T) {
						e, _, done := newSpillEnv(t, r)
						defer done()
						left, right := projectedJoinInputs(e)
						ordered := kind == "merge" || kind == "nested-loop" || kind == "hash-inline"
						unprojected := projectedJoin(e, left, right, kind, outer, nullEq, nil)
						fullSch := unprojected.Schema()
						full, err := exec.Drain(unprojected, nil)
						if err != nil {
							t.Fatal(err)
						}
						padded := 0
						for _, row := range full {
							if row[rightID].IsNull() {
								padded++
							}
						}
						if outer != (padded > 0) {
							t.Fatalf("%d NULL-padded rows of %d; the data must pad exactly the outer joins", padded, len(full))
						}
						for _, o := range outs {
							cols := o.cols
							if cols == nil {
								cols = []int{0, 1, 2, 3, 4, 5}
							}
							want := make([]string, len(full))
							for i, row := range full {
								proj := make(storage.Tuple, len(cols))
								for k, c := range cols {
									proj[k] = row[c]
								}
								want[i] = proj.String()
							}
							op := projectedJoin(e, left, right, kind, outer, nullEq, o.cols)
							wantSch := make(exec.RowSchema, len(cols))
							for k, c := range cols {
								wantSch[k] = fullSch[c]
							}
							if sch := op.Schema(); !slices.Equal(sch, wantSch) {
								t.Errorf("%s: schema %v, want %v", o.name, sch, wantSch)
							}
							rows, err := exec.Drain(op, nil)
							if err != nil {
								t.Fatalf("%s: %v", o.name, err)
							}
							got := make([]string, len(rows))
							for i, row := range rows {
								got[i] = row.String()
								if len(row) != len(cols) {
									t.Fatalf("%s: row %s has %d columns, want %d", o.name, row, len(row), len(cols))
								}
								if i := slices.Index(cols, rightID); i < 0 || !row[i].IsNull() {
									continue
								}
								for k, c := range cols {
									if c >= leftWidth && !row[k].IsNull() {
										t.Errorf("%s: padded row %s holds a right column", o.name, row)
									}
								}
							}
							if !ordered {
								slices.Sort(got)
								slices.Sort(want)
							}
							if d := storage.DiffCanon(got, want); d != "" {
								t.Errorf("%s: not the projection of the unprojected join: %s", o.name, d)
							}
						}
						// A join under a GROUP BY builds only the columns the
						// aggregation reads and aggregates to what the whole join
						// does: straight into a GroupAgg where the join's order is
						// deterministic, and over a Sort on a column not the key.
						for _, g := range groupedJoins {
							if !g.sorted && !ordered {
								continue
							}
							want := renderRows(t, groupOver(e, unprojected, g.group, g.arg, g.sorted))
							narrowed := projectedJoin(e, left, right, kind, outer, nullEq, g.out)
							got := renderRows(t, groupOver(e, narrowed, 0, 1, g.sorted))
							if len(want) == 0 {
								t.Fatal("no groups")
							}
							if d := storage.DiffCanon(got, want); d != "" {
								t.Errorf("grouped over out=%v: not the aggregate of the whole join: %s", g.out, d)
							}
						}
					})
				}
			}
		}
	}
}

// groupedJoins are GROUP BYs over a join of L.K L.V L.ID R.K R.V R.ID: the
// whole join's group column and aggregate argument, the two ascending as
// the narrowed join's out, and whether a sort on the group column comes
// first.
var groupedJoins = []struct {
	group, arg int
	out        []int
	sorted     bool
}{
	{group: 0, arg: 5, out: []int{0, 5}},               // on the key, counting R.ID: NEST-JA2's COUNT temp
	{group: 1, arg: 4, out: []int{1, 4}, sorted: true}, // on L.V, after a sort
}

// groupOver groups op's rows on column group, sorted on it first when
// sorted, into the group column, COUNT and MAX of column arg, and COUNT(*).
func groupOver(e spillEnv, op exec.Operator, group, arg int, sorted bool) exec.Operator {
	if sorted {
		op = &exec.Sort{Child: op, Keys: []int{group}, Store: e.s, TuplesPerPage: 2, QC: e.qc, Spill: e.sess}
	}
	return &exec.GroupAgg{Child: op, GroupCols: []int{group}, QC: e.qc, Items: []exec.GroupItem{
		{Agg: value.AggNone, Col: group}, {Agg: value.AggCount, Col: arg}, {Agg: value.AggMax, Col: arg},
		{Agg: value.AggCountStar, Col: -1}}}
}

// renderRows drains op and renders its rows in order.
func renderRows(t *testing.T, op exec.Operator) []string {
	t.Helper()
	rows, err := exec.Drain(op, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = row.String()
	}
	return out
}

// TestProjectedRowIsCapped: a row that is a reslice of its input row —
// a join's Out a run of left columns, a Project's columns a contiguous
// run — shares the input's backing without a copy, so it must be capped
// at its length: an append to it reallocates and never writes into the
// input row, here a tuple stored in a heap file.
func TestProjectedRowIsCapped(t *testing.T) {
	for _, kind := range append(slices.Clone(projectedJoinKinds), "project") {
		t.Run(kind, func(t *testing.T) {
			e, _, done := newSpillEnv(t, spillRegimes[0])
			defer done()
			left, right := projectedJoinInputs(e)
			var op exec.Operator
			if kind == "project" {
				op = exec.NewProject(exec.NewSeqScan(left, "L", []string{"K", "V", "ID"}), []int{0, 1}, nil)
			} else {
				op = projectedJoin(e, left, right, kind, false, true, []int{0, 1})
			}
			rows, err := exec.Drain(op, nil)
			if err != nil || len(rows) == 0 {
				t.Fatalf("%d rows, err %v", len(rows), err)
			}
			stored := map[*value.Value]storage.Tuple{}
			left.Scan(func(tu storage.Tuple) bool {
				stored[&tu[0]] = tu
				return true
			})
			for _, row := range rows {
				in, shared := stored[&row[0]]
				if !shared {
					t.Fatalf("row %s was copied; a left-prefix row is the stored left row resliced", row)
				}
				if len(row) != 2 || cap(row) != 2 {
					t.Fatalf("row %s: len %d cap %d, want both 2", row, len(row), cap(row))
				}
				id := in[2]
				if grown := append(row, intv(-1)); &grown[0] == &row[0] || !in[2].Equal(id) {
					t.Fatalf("append to row %s wrote into the stored row %s", row, in)
				}
			}
		})
	}
}

// TestBuiltRowsShareCappedChunks: the rows a join or a Project builds —
// here columns from both sides or out of order, so none is a reslice of
// its input row — are carved from shared chunks, as decoded rows are. A
// thousand rows cost a few dozen allocations, not a thousand; every row is
// capped, so an append to one leaves the next alone; and the first sixteen
// rows get exactly their own values, so an output that small allocates one
// slice a row, as it did before rows shared chunks.
func TestBuiltRowsShareCappedChunks(t *testing.T) {
	s := storage.NewStore(512)
	files := map[int][2]*storage.HeapFile{}
	for _, n := range []int{16, 1000} {
		rows := make([][2]int64, n)
		for i := range rows {
			rows[i] = [2]int64{int64(i), int64(-i)}
		}
		files[n] = [2]*storage.HeapFile{loadFile(s, fmt.Sprint("L", n), 10, rows), loadFile(s, fmt.Sprint("R", n), 10, rows)}
	}
	for _, k := range []struct {
		name  string
		built []int // out columns every row is built from
		op    func(left, right *storage.HeapFile, out []int) exec.Operator
	}{
		{"merge join", []int{0, 3}, func(left, right *storage.HeapFile, out []int) exec.Operator {
			return &exec.MergeJoin{Left: scanOf(left, "L"), Right: scanOf(right, "R"), Out: out}
		}},
		{"2-worker hash join", []int{0, 3}, func(left, right *storage.HeapFile, out []int) exec.Operator {
			return &exec.ExchangeMerge{Source: &exec.ParallelHashJoin{Left: scanOf(left, "L"), Right: scanOf(right, "R"), Out: out, Workers: 2}}
		}},
		{"project", []int{1, 0}, func(left, _ *storage.HeapFile, out []int) exec.Operator {
			return exec.NewProject(scanOf(left, "L"), out, nil)
		}},
	} {
		t.Run(k.name, func(t *testing.T) {
			drain := func(n int, out []int) []storage.Tuple {
				rows, err := exec.Drain(k.op(files[n][0], files[n][1], out), nil)
				if err != nil || len(rows) != n {
					t.Fatalf("%d rows, err %v; want %d", len(rows), err, n)
				}
				return rows
			}
			if a := testing.AllocsPerRun(5, func() { drain(1000, k.built) }); a > 150 {
				t.Errorf("building 1,000 rows took %.0f allocations, want at most 150", a)
			}
			rows := drain(1000, k.built)
			for i, row := range rows {
				if len(row) != 2 || cap(row) != 2 || row[0].Int()+row[1].Int() != 0 {
					t.Fatalf("row %d: %v, len %d, cap %d; want a capped (k, -k) pair", i, row, len(row), cap(row))
				}
				if i+1 < len(rows) {
					next := rows[i+1][0]
					if _ = append(row, intv(7)); rows[i+1][0] != next {
						t.Fatalf("an append to row %d wrote into row %d", i, i+1)
					}
				}
			}
			// Left columns 0 and 1 are the left row resliced: no row of them
			// allocates, so the difference is the built rows' own. (The race
			// detector's sync.Pool drops make the exchange's count vary: the
			// alloc gate runs this test without it.)
			resliced := []int{0, 1}
			built := testing.AllocsPerRun(5, func() { drain(16, k.built) })
			if a := built - testing.AllocsPerRun(5, func() { drain(16, resliced) }); a != 16 && !raceEnabled {
				t.Errorf("16 built rows took %.0f allocations more than 16 resliced ones, want one a row", a)
			}
		})
	}
}
