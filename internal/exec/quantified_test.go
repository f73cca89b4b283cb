package exec_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/qctx"
	"repro/internal/spill"
	"repro/internal/storage"
	"repro/internal/value"
)

// quantCase is one quantified predicate over left rows (K, V) and right
// rows (K, W): the correlation l.K = r.K (or <=>), optionally l.V < r.W
// too, and the predicate decided over the relevant rows.
type quantCase struct {
	form     string // EXISTS, NOT EXISTS, < ANY, NOT IN
	nullSafe bool
	ranged   bool
}

// quantifier is the case's exec.Quantifier; withKey adds the key to Corr,
// as a join without a key (the nested-loops form) needs.
func (c quantCase) quantifier(withKey bool) *exec.Quantifier {
	q := &exec.Quantifier{Form: c.form, Member: 1}
	switch c.form {
	case "NOT EXISTS":
		q.Negated = true
	case "< ANY":
		q.Op, q.Operand = value.OpLt, func(l storage.Tuple) value.Value { return l[1] }
	case "NOT IN":
		q.Op, q.Operand, q.Negated = value.OpEq, func(l storage.Tuple) value.Value { return l[1] }, true
	}
	if withKey || c.ranged {
		q.Corr = func(pair storage.Tuple) (bool, error) { // l.K, l.V, r.K, r.W
			return (!withKey || c.keyMatch(pair[0], pair[2])) && (!c.ranged || lt(pair[1], pair[3])), nil
		}
	}
	return q
}

func (c quantCase) keyMatch(l, r value.Value) bool {
	if l.IsNull() || r.IsNull() {
		return c.nullSafe && l.IsNull() && r.IsNull()
	}
	return l.Int() == r.Int()
}

func lt(a, b value.Value) bool { return !a.IsNull() && !b.IsNull() && a.Int() < b.Int() }

// holds is the predicate for left row l, evaluated directly under
// three-valued logic over its relevant right rows.
func (c quantCase) holds(l storage.Tuple, right []storage.Tuple) bool {
	var rel []storage.Tuple
	for _, r := range right {
		if c.keyMatch(l[0], r[0]) && (!c.ranged || lt(l[1], r[1])) {
			rel = append(rel, r)
		}
	}
	switch c.form {
	case "EXISTS":
		return len(rel) > 0
	case "NOT EXISTS":
		return len(rel) == 0
	case "< ANY":
		return slices.ContainsFunc(rel, func(r storage.Tuple) bool { return lt(l[1], r[1]) })
	}
	// NOT IN: TRUE over no rows; else only for a non-NULL operand that no
	// member equals and no member is NULL.
	if len(rel) == 0 {
		return true
	}
	return !l[1].IsNull() && !slices.ContainsFunc(rel, func(r storage.Tuple) bool {
		return r[1].IsNull() || r[1].Int() == l[1].Int()
	})
}

func randRows(rng *rand.Rand, n int) []storage.Tuple {
	v := func(dom int) value.Value {
		if rng.Intn(4) == 0 {
			return value.Null
		}
		return value.NewInt(int64(rng.Intn(dom)))
	}
	rows := make([]storage.Tuple, n)
	for i := range rows {
		rows[i] = storage.Tuple{v(4), v(6)}
	}
	return rows
}

func loadRows(s *storage.Store, name string, rows []storage.Tuple) *storage.HeapFile {
	f, err := s.Create(name, 3)
	if err != nil {
		panic(err)
	}
	for _, r := range rows {
		f.Append(r)
	}
	f.Seal()
	return f
}

// TestQuantifiedFormsAgree: the hash, merge and nested-loops forms of a
// quantified join decide EXISTS, NOT EXISTS, < ANY and NOT IN exactly as
// a direct three-valued evaluation does, over NULL-dense, duplicate-heavy
// rows and empty sides, keyed by = and by <=>, with and without a range
// conjunct: each qualifying left row once, no other. The merge form runs
// once more with every group refused memory, so each group it folds is
// read back from a spill run.
func TestQuantifiedFormsAgree(t *testing.T) {
	m, err := spill.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	spilled := int64(0)
	for trial := range 60 {
		left, right := randRows(rng, rng.Intn(14)), randRows(rng, rng.Intn(3)*rng.Intn(9))
		s := storage.NewStore(8)
		lf, rf := loadRows(s, "L", left), loadRows(s, "R", right)
		for _, form := range []string{"EXISTS", "NOT EXISTS", "< ANY", "NOT IN"} {
			for _, c := range []quantCase{{form, false, false}, {form, true, false}, {form, false, true}, {form, true, true}} {
				var want []string
				for _, l := range left {
					if c.holds(l, right) {
						want = append(want, l.String())
					}
				}
				sorted := func(f *storage.HeapFile, b string) exec.Operator {
					return &exec.Sort{Child: scanOf(f, b), Keys: []int{0}, Store: s}
				}
				qc := qctx.New(qctx.Limits{Spill: qctx.SpillForced})
				sess := m.NewSession(fmt.Sprint(trial))
				forms := map[string]exec.Operator{
					"hash": &exec.ParallelHashJoin{Left: scanOf(lf, "L"), Right: scanOf(rf, "R"), NullEq: c.nullSafe,
						Workers: 1, Quant: c.quantifier(false)},
					"merge": &exec.MergeJoin{Left: sorted(lf, "L"), Right: sorted(rf, "R"), NullEq: c.nullSafe,
						Quant: c.quantifier(false)},
					"merge-spilled": &exec.MergeJoin{Left: sorted(lf, "L"), Right: sorted(rf, "R"), NullEq: c.nullSafe,
						Quant: c.quantifier(false), QC: qc, Spill: sess},
					"nested-loops": &exec.NestedLoopJoin{Left: scanOf(lf, "L"), Right: rf, RightSch: scanOf(rf, "R").Schema(),
						Quant: c.quantifier(true)},
				}
				for name, op := range forms {
					rows, err := exec.Drain(op, nil)
					if err != nil {
						t.Fatalf("%s %+v: %v", name, c, err)
					}
					got := make([]string, len(rows))
					for i, r := range rows {
						got[i] = r.String()
					}
					if d := storage.DiffCanon(sortedCopy(got), sortedCopy(want)); d != "" {
						t.Errorf("trial %d, %s, %+v: %s\n  left %v\n  right %v", trial, name, c, d, left, right)
					}
				}
				spilled += sess.Stats().Runs
				sess.Close()
				qc.Finish()
			}
		}
	}
	if n, err := m.LiveFiles(); err != nil || n != 0 {
		t.Errorf("%d spill files left, %v", n, err)
	}
	if spilled == 0 {
		t.Error("no merge group spilled")
	}
}

func sortedCopy(xs []string) []string {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	return xs
}

// TestQuantifiedJoinAllocs: the hash form emits each qualifying probe row
// itself, resliced, and its decision reuses one scratch row, so probing
// four times as many rows costs no more allocations.
func TestQuantifiedJoinAllocs(t *testing.T) {
	s := storage.NewStore(64)
	var rrows [][2]int64
	for i := range int64(200) {
		rrows = append(rrows, [2]int64{i % 50, i})
	}
	rf := loadFile(s, "R", 100, rrows)
	c := quantCase{form: "< ANY", ranged: true}
	run := func(n int64) float64 {
		var lrows [][2]int64
		for i := range n {
			lrows = append(lrows, [2]int64{i % 60, i % 150})
		}
		lf := loadFile(s, fmt.Sprint("L", n), 100, lrows)
		return testing.AllocsPerRun(10, func() {
			op := &exec.ParallelHashJoin{Left: scanOf(lf, "L"), Right: scanOf(rf, "R"), Workers: 1, Quant: c.quantifier(false)}
			if err := op.Open(); err != nil {
				t.Fatal(err)
			}
			for {
				if _, ok, err := op.Next(); err != nil || !ok {
					break
				}
			}
			op.Close()
		})
	}
	small, large := run(1000), run(4000)
	t.Logf("%.0f allocations probing 1,000 rows, %.0f probing 4,000", small, large)
	if large > small || small > 23 {
		t.Errorf("%.0f allocations probing 1,000 rows and %.0f probing 4,000: want at most 23, and no more for more rows", small, large)
	}
}
