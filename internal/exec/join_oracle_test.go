package exec_test

import (
	"fmt"
	"math/rand"
	"strings"

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

// pred is the full join predicate over the concatenated row, from column
// from on.
func (c joinCase) pred(from int) exec.RowPred {
	return func(t storage.Tuple) (value.Tri, error) {
		out := value.True
		for i := from; i < len(c.nullEq); i++ {
			op := value.OpEq
			if c.nullEq[i] {
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
	return &exec.NestedLoopJoin{Left: scanOf(left, "L"), Right: right, RightSch: scanOf(right, "R").Schema(),
		Pred: c.pred(0), Outer: c.outer}
}

// build is the join under test. On this commit a join has one key: the
// further equalities are a filter above it, which an outer join cannot
// take (joinOracleCases leaves those cells out).
func (c joinCase) build(e spillEnv) exec.Operator {
	left, right := c.inputs(e, "")
	sorted := func(f *storage.HeapFile, binding string, keys int) exec.Operator {
		cols := []int{0, 1, 2}[:keys]
		return &exec.Sort{Child: scanOf(f, binding), Keys: cols, Store: e.s, TuplesPerPage: 2, QC: e.qc, Spill: e.sess}
	}
	hash := func(workers int) exec.Operator {
		return &exec.ExchangeMerge{Source: &exec.ParallelHashJoin{Left: scanOf(left, "L"), Right: scanOf(right, "R"),
			Outer: c.outer, NullEq: c.nullEq[0], Workers: workers, QC: e.qc, Spill: e.sess}, QC: e.qc}
	}
	var op exec.Operator
	switch c.kind {
	case "merge-lead", "merge-full":
		n := 1
		if c.kind == "merge-full" {
			n = len(c.nullEq)
		}
		op = &exec.MergeJoin{Left: sorted(left, "L", n), Right: sorted(right, "R", n),
			Outer: c.outer, NullEq: c.nullEq[0], QC: e.qc, Spill: e.sess}
	case "hash-inline":
		op = hash(1)
	case "hash-w2":
		op = hash(2)
	default:
		op = hash(4)
	}
	if len(c.nullEq) > 1 {
		op = &exec.Filter{Child: op, Pred: c.pred(1)}
	}
	return op
}

func joinOracleCases() []spillCase {
	mixes := [][]bool{
		{false}, {true},
		{false, false}, {false, true}, {true, false}, {true, true},
		{false, false, false}, {true, true, true}, {true, false, true}, {false, false, true},
	}
	var cases []spillCase
	for _, kind := range []string{"merge-lead", "merge-full", "hash-inline", "hash-w2", "hash-w4"} {
		for _, outer := range []bool{false, true} {
			for _, mix := range mixes {
				if kind == "merge-full" && len(mix) == 1 || outer && len(mix) > 1 {
					continue
				}
				c := joinCase{kind: kind, outer: outer, nullEq: mix}
				cases = append(cases, spillCase{name: c.name(), ordered: strings.HasPrefix(kind, "merge"),
					build: c.build, oracle: c.oracle, autoRuns: -1, forcedRuns: -1})
			}
		}
	}
	return cases
}
