package exec_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/value"
)

// The differential join oracle: every keyed join operator, on one, two and
// three key columns with every mix of = and <=>, inner and outer, must
// return the bag NestedLoopJoin returns under the full predicate. The cases
// ride spill_test.go's matrix, so each also runs under every memory regime
// and through the early-Close and cancel leak checks.

// oracleTuples returns n rows of three key columns and a unique payload,
// then giant rows sharing one key. Keys come from a domain of five, a
// tenth of them NULL and a tenth written as floats (1 joins 1.0), so NULLs
// meet in one, the other and both key columns and duplicates abound.
func oracleTuples(rng *rand.Rand, n, giant, idBase int) []storage.Tuple {
	key := func() value.Value {
		k := rng.Intn(5)
		switch rng.Intn(10) {
		case 0:
			return value.Null
		case 1:
			return value.NewFloat(float64(k))
		default:
			return intv(int64(k))
		}
	}
	rows := make([]storage.Tuple, 0, n+giant)
	for range n {
		rows = append(rows, storage.Tuple{key(), key(), key()})
	}
	for range giant {
		rows = append(rows, storage.Tuple{intv(2), value.NewFloat(2), intv(2)})
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	for i := range rows {
		rows[i] = append(rows[i], intv(int64(idBase+i)))
	}
	return rows
}

// oracleWidth is the column count of oracleTuples' rows.
const oracleWidth = 4

// oracleScan scans a file of oracleTuples' rows under all four columns, so
// the joined row is all eight of left ++ right.
func oracleScan(f *storage.HeapFile, binding string) *exec.SeqScan {
	return exec.NewSeqScan(f, binding, []string{"A", "B", "C", "ID"})
}

// joinCase is one cell of the oracle's table. nullEq holds one entry per
// key column (column i joins column i), true for <=>.
type joinCase struct {
	kind   string
	outer  bool
	nullEq []bool
}

func (c joinCase) name() string {
	ops := make([]string, len(c.nullEq))
	for i, ne := range c.nullEq {
		ops[i] = map[bool]string{false: "eq", true: "nulleq"}[ne]
	}
	return fmt.Sprintf("JoinOracle/%s/outer=%v/keys=%s", c.kind, c.outer, strings.Join(ops, "+"))
}

// pred is the full join predicate over the concatenated row.
func (c joinCase) pred(t storage.Tuple) (value.Tri, error) {
	out := value.True
	for i, ne := range c.nullEq {
		op := value.OpEq
		if ne {
			op = value.OpEqNull
		}
		tri, err := op.Apply(t[i], t[oracleWidth+i])
		if err != nil {
			return value.Unknown, err
		}
		out = out.And(tri)
	}
	return out, nil
}

func (c joinCase) inputs(e spillEnv, prefix string) (left, right *storage.HeapFile) {
	rng := rand.New(rand.NewSource(11))
	left = loadTuples(e.s, prefix+"L", 2, oracleTuples(rng, 70, 8, 0))
	right = loadTuples(e.s, prefix+"R", 2, oracleTuples(rng, 50, 30, 1000))
	return left, right
}

// oracle is the reference: nested loops under the whole predicate.
func (c joinCase) oracle(e spillEnv) exec.Operator {
	left, right := c.inputs(e, "O")
	return &exec.NestedLoopJoin{Left: oracleScan(left, "L"), Right: right, RightSch: oracleScan(right, "R").Schema(),
		Pred: c.pred, Outer: c.outer}
}

// build is the join under test: column i joins column i. mutant, when
// set, corrupts the key pairs beside the leading one (the teeth check).
func (c joinCase) build(e spillEnv, mutant func([]exec.KeyPair)) exec.Operator {
	left, right := c.inputs(e, "")
	var more []exec.KeyPair
	for i, ne := range c.nullEq[1:] {
		more = append(more, exec.KeyPair{Left: i + 1, Right: i + 1, NullEq: ne})
	}
	if mutant != nil {
		mutant(more)
	}
	sorted := func(f *storage.HeapFile, binding string, keys int) exec.Operator {
		cols := []int{0, 1, 2}[:keys]
		return &exec.Sort{Child: oracleScan(f, binding), Keys: cols, Store: e.s, TuplesPerPage: 2, QC: e.qc, Spill: e.sess}
	}
	hash := func(workers int) *exec.ParallelHashJoin {
		return &exec.ParallelHashJoin{Left: oracleScan(left, "L"), Right: oracleScan(right, "R"),
			Outer: c.outer, NullEq: c.nullEq[0], More: more, Workers: workers, QC: e.qc, Spill: e.sess}
	}
	switch c.kind {
	case "merge-lead", "merge-full":
		n, full := 1, c.kind == "merge-full"
		if full {
			n = len(c.nullEq)
		}
		return &exec.MergeJoin{Left: sorted(left, "L", n), Right: sorted(right, "R", n),
			Outer: c.outer, NullEq: c.nullEq[0], More: more, FullOrder: full, QC: e.qc, Spill: e.sess}
	case "hash-inline":
		return hash(1)
	case "hash-w2":
		return &exec.ExchangeMerge{Source: hash(2), QC: e.qc}
	default:
		return &exec.ExchangeMerge{Source: hash(4), QC: e.qc}
	}
}

// joinCases is the oracle's table.
func joinCases() []joinCase {
	mixes := [][]bool{
		{false}, {true},
		{false, false}, {false, true}, {true, false}, {true, true},
		{false, false, false}, {true, true, true}, {true, false, true}, {false, false, true},
	}
	var cases []joinCase
	for _, kind := range []string{"merge-lead", "merge-full", "hash-inline", "hash-w2", "hash-w4"} {
		for _, outer := range []bool{false, true} {
			for _, mix := range mixes {
				if kind != "merge-full" || len(mix) > 1 {
					cases = append(cases, joinCase{kind: kind, outer: outer, nullEq: mix})
				}
			}
		}
	}
	return cases
}

// joinOracleCases puts the table on spill_test.go's matrix. A merge join's
// sorts spill at least a run, a hash join a build and a probe run — the
// inline one by handing over.
func joinOracleCases() []spillCase {
	var cases []spillCase
	for _, c := range joinCases() {
		merge, runs := strings.HasPrefix(c.kind, "merge"), int64(2)
		if merge {
			runs = 1
		}
		cases = append(cases, spillCase{name: c.name(), ordered: merge, oracle: c.oracle, autoRuns: runs, forcedRuns: runs,
			build: func(e spillEnv) exec.Operator { return c.build(e, nil) }})
	}
	return cases
}

// TestJoinOracleCatchesNullRuleMutant is the oracle's teeth check: a join
// that forgets the second key pair's NULL rule — reads its <=> as = or
// its = as <=> — must differ from nested loops on the oracle's data.
func TestJoinOracleCatchesNullRuleMutant(t *testing.T) {
	for _, c := range joinCases() {
		if len(c.nullEq) < 2 {
			continue
		}
		t.Run(c.name(), func(t *testing.T) {
			e, _, done := newSpillEnv(t, spillRegimes[0])
			defer done()
			got, err := renderAll(c.build(e, func(more []exec.KeyPair) { more[0].NullEq = !more[0].NullEq }))
			if err != nil {
				t.Fatal(err)
			}
			want, err := renderAll(c.oracle(e))
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(got)
			sort.Strings(want)
			if eqStrings(got, want) {
				t.Error("the mutant returns the oracle's bag: the data cannot tell = from <=> in the second key column")
			}
		})
	}
}
