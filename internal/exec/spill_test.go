package exec_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/exec"
	"repro/internal/qctx"
	"repro/internal/spill"
	"repro/internal/storage"
	"repro/internal/value"
)

// Spill tests for every buffering operator. Each case is built three (for
// sequential operators, four) times over identical data — unbudgeted, under
// SpillAuto with a tight budget, under SpillForced — and must produce the
// same output: byte-identical in order for the sequential operators,
// canonically sorted for exchange output. Afterwards no spill file may
// exist and every charged byte must be back in the budget, also after an
// early Close and a mid-stream cancel.

// spillEnv is what one run of a case is built against.
type spillEnv struct {
	s    *storage.Store
	qc   *qctx.QueryContext
	sess *spill.Session
}

// spillRegime is one memory regime. hardOnly regimes carry a hard byte
// budget a refused worker could trip over when several run at once, so
// they apply to the sequential operators only.
type spillRegime struct {
	name     string
	lim      qctx.Limits
	spill    bool
	hardOnly bool
}

// The threshold regimes keep MaxBytes far away so the counter is live
// (BytesBuffered is checked against zero) but no hard charge can fail.
var spillRegimes = []spillRegime{
	{name: "unbudgeted"},
	{name: "auto", lim: qctx.Limits{Spill: qctx.SpillAuto, SpillThreshold: 1024, MaxBytes: 1 << 30}, spill: true},
	{name: "budget", lim: qctx.Limits{Spill: qctx.SpillAuto, MaxBytes: 1024}, spill: true, hardOnly: true},
	{name: "forced", lim: qctx.Limits{Spill: qctx.SpillForced, MaxBytes: 1 << 30}, spill: true},
}

// spillCase builds one operator tree. autoRuns and forcedRuns are lower
// bounds on the spill runs written under the auto/budget and forced
// regimes; zero means the case must not spill there at all. oracle, when
// set, builds a reference plan whose output bag the case must equal.
type spillCase struct {
	name       string
	ordered    bool
	build      func(e spillEnv) exec.Operator
	oracle     func(e spillEnv) exec.Operator
	autoRuns   int64
	forcedRuns int64
}

var spillItems = []exec.GroupItem{
	{Agg: value.AggNone, Col: 0, Out: exec.ColID{Column: "K"}},
	{Agg: value.AggCount, Col: 1, Out: exec.ColID{Column: "CNT"}},
	{Agg: value.AggCountStar, Out: exec.ColID{Column: "CNTSTAR"}},
	{Agg: value.AggSum, Col: 1, Out: exec.ColID{Column: "SUM"}},
	{Agg: value.AggMax, Col: 1, Out: exec.ColID{Column: "MAX"}},
}

// giantKeyTuples returns n rows of one key followed by extra rows of other
// keys: a partition no amount of re-hashing can split.
func giantKeyTuples(rng *rand.Rand, n, extra int) []storage.Tuple {
	rows := make([]storage.Tuple, 0, n+extra)
	for i := range n {
		rows = append(rows, storage.Tuple{intv(7), intv(int64(i))})
	}
	return append(rows, randTuples(rng, extra, 12)...)
}

func (e spillEnv) sorted(f *storage.HeapFile, binding string) *exec.Sort {
	return &exec.Sort{Child: scanOf(f, binding), Keys: []int{0}, Store: e.s, TuplesPerPage: 2, QC: e.qc, Spill: e.sess}
}

func spillCases() []spillCase {
	var cases []spillCase
	cases = append(cases,
		spillCase{name: "Sort", ordered: true, autoRuns: 1, forcedRuns: 1, build: func(e spillEnv) exec.Operator {
			f := loadTuples(e.s, "L", 2, randTuples(rand.New(rand.NewSource(1)), 600, 40))
			return e.sorted(f, "L")
		}},
		spillCase{name: "Sort/desc-two-keys", ordered: true, autoRuns: 1, forcedRuns: 1, build: func(e spillEnv) exec.Operator {
			f := loadTuples(e.s, "L", 2, randTuples(rand.New(rand.NewSource(2)), 500, 9))
			return &exec.Sort{Child: scanOf(f, "L"), Keys: []int{0, 1}, Desc: []bool{true, false},
				Store: e.s, TuplesPerPage: 2, QC: e.qc, Spill: e.sess}
		}},
	)
	for _, outer := range []bool{false, true} {
		for _, nullEq := range []bool{false, true} {
			cases = append(cases, spillCase{
				name:    fmt.Sprintf("MergeJoin/outer=%v/nulleq=%v", outer, nullEq),
				ordered: true, autoRuns: 1, forcedRuns: 1,
				build: func(e spillEnv) exec.Operator {
					rng := rand.New(rand.NewSource(3))
					left := loadTuples(e.s, "L", 2, randTuples(rng, 300, 40))
					right := loadTuples(e.s, "R", 2, randTuples(rng, 200, 40))
					return &exec.MergeJoin{Left: e.sorted(left, "L"), Right: e.sorted(right, "R"),
						Outer: outer, NullEq: nullEq, QC: e.qc, Spill: e.sess}
				},
			})
		}
	}
	// One right-side group of 100 duplicates (~8.8 KB) against three left
	// rows of that key: the group outgrows the budget and its run is
	// re-read once per left row.
	cases = append(cases, spillCase{name: "MergeJoin/group-over-budget", ordered: true, autoRuns: 3, forcedRuns: 3,
		build: func(e spillEnv) exec.Operator {
			rng := rand.New(rand.NewSource(4))
			left := loadTuples(e.s, "L", 2, giantKeyTuples(rng, 3, 30))
			right := loadTuples(e.s, "R", 2, giantKeyTuples(rng, 100, 30))
			return &exec.MergeJoin{Left: e.sorted(left, "L"), Right: e.sorted(right, "R"),
				Outer: true, QC: e.qc, Spill: e.sess}
		}})
	for _, workers := range []int{1, 2, 4} {
		for _, outer := range []bool{false, true} {
			for _, nullEq := range []bool{false, true} {
				cases = append(cases, spillCase{
					name:     fmt.Sprintf("ParallelHashJoin/workers=%d/outer=%v/nulleq=%v", workers, outer, nullEq),
					autoRuns: 2, forcedRuns: 2,
					build: func(e spillEnv) exec.Operator {
						rng := rand.New(rand.NewSource(5))
						left := loadTuples(e.s, "L", 2, randTuples(rng, 600, 40))
						right := loadTuples(e.s, "R", 2, randTuples(rng, 400, 40))
						return &exec.ExchangeMerge{Source: &exec.ParallelHashJoin{
							Left: scanOf(left, "L"), Right: scanOf(right, "R"),
							Outer: outer, NullEq: nullEq, Workers: workers, QC: e.qc, Spill: e.sess,
						}, QC: e.qc}
					},
				})
			}
		}
		// 300 build rows of one key: every re-hash level puts them back
		// in one bucket, so under auto the recursion runs to the depth cap
		// (a build and a probe run per level) and hard-charges there.
		cases = append(cases, spillCase{
			name:     fmt.Sprintf("ParallelHashJoin/workers=%d/giant-key", workers),
			autoRuns: 12, forcedRuns: 2,
			build: func(e spillEnv) exec.Operator {
				rng := rand.New(rand.NewSource(6))
				left := loadTuples(e.s, "L", 2, giantKeyTuples(rng, 20, 200))
				right := loadTuples(e.s, "R", 2, giantKeyTuples(rng, 300, 100))
				return &exec.ExchangeMerge{Source: &exec.ParallelHashJoin{
					Left: scanOf(left, "L"), Right: scanOf(right, "R"),
					Outer: true, Workers: workers, QC: e.qc, Spill: e.sess,
				}, QC: e.qc}
			},
		})
	}
	// One worker, so the budget has a single holder and every level of the
	// recursion sees the same refusals on every run.
	cases = append(cases, spillCase{name: "ParallelHashGroup/grouped", autoRuns: 1, forcedRuns: 1,
		build: func(e spillEnv) exec.Operator {
			f := loadTuples(e.s, "G", 2, randTuples(rand.New(rand.NewSource(7)), 500, 60))
			return &exec.ExchangeMerge{Source: &exec.ParallelHashGroup{
				Child: scanOf(f, "G"), GroupCols: []int{0}, Items: spillItems,
				Workers: 1, QC: e.qc, Spill: e.sess,
			}, QC: e.qc}
		}})
	for _, empty := range []bool{false, true} {
		n, forced := 300, int64(1)
		if empty {
			n, forced = 0, 0
		}
		// The single global group fits under the auto threshold, so only
		// the forced regime spills it.
		cases = append(cases,
			spillCase{name: fmt.Sprintf("ParallelHashGroup/global/empty=%v", empty), forcedRuns: forced,
				build: func(e spillEnv) exec.Operator {
					f := loadTuples(e.s, "G", 2, randTuples(rand.New(rand.NewSource(8)), n, 60))
					return &exec.ExchangeMerge{Source: &exec.ParallelHashGroup{
						Child: scanOf(f, "G"), Items: spillItems[1:], Workers: 2, QC: e.qc, Spill: e.sess,
					}, QC: e.qc}
				}})
	}
	cases = append(cases, spillCase{name: "ParallelHashGroup/grouped/empty=true",
		build: func(e spillEnv) exec.Operator {
			f := loadTuples(e.s, "G", 2, nil)
			return &exec.ExchangeMerge{Source: &exec.ParallelHashGroup{
				Child: scanOf(f, "G"), GroupCols: []int{0}, Items: spillItems, Workers: 2, QC: e.qc, Spill: e.sess,
			}, QC: e.qc}
		}})
	return append(cases, joinOracleCases()...)
}

// newSpillEnv opens a fresh store, query context and (for spilling
// regimes) spill session; done checks the leak invariants and tears down.
func newSpillEnv(t *testing.T, r spillRegime) (e spillEnv, m *spill.Manager, done func()) {
	t.Helper()
	m, err := spill.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e = spillEnv{s: storage.NewStore(8), qc: qctx.New(r.lim)}
	if r.spill {
		e.sess = m.NewSession("q1")
	}
	return e, m, func() {
		t.Helper()
		if n := e.qc.BytesBuffered(); n != 0 {
			t.Errorf("%d bytes still charged to the budget after Close", n)
		}
		e.sess.Close()
		if n, err := m.LiveFiles(); err != nil || n != 0 {
			t.Errorf("LiveFiles = %d, %v after Close; want 0", n, err)
		}
		e.qc.Finish()
	}
}

// renderAll runs op to completion and closes it, returning the rendered
// rows in output order.
func renderAll(op exec.Operator) ([]string, error) {
	defer op.Close()
	if err := op.Open(); err != nil {
		return nil, err
	}
	var out []string
	for {
		row, ok, err := op.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, row.String())
	}
}

func TestSpillRegimesAgree(t *testing.T) {
	for _, c := range spillCases() {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var want []string
			for _, r := range spillRegimes {
				if r.hardOnly && !c.ordered {
					continue
				}
				e, m, done := newSpillEnv(t, r)
				got, err := renderAll(c.build(e))
				if err != nil {
					t.Fatalf("%s: %v", r.name, err)
				}
				// A drained and closed operator has removed its own runs;
				// the session's sweep is for the failure paths.
				if n := m.LiveRuns(); n != 0 {
					t.Errorf("%s: %d spill runs outlive the operator's Close", r.name, n)
				}
				if !c.ordered {
					sort.Strings(got)
				}
				bound := c.autoRuns
				if r.name == "forced" {
					bound = c.forcedRuns
				}
				switch st := e.sess.Stats(); {
				case !r.spill:
					want = got
				case bound == 0 && st.Runs != 0:
					t.Errorf("%s: spilled %v, want nothing spilled", r.name, st)
				case st.Runs < bound || (bound > 0 && st.Bytes == 0):
					t.Errorf("%s: spilled %v, want at least %d runs", r.name, st, bound)
				}
				if !eqStrings(got, want) {
					t.Errorf("%s: output differs from unbudgeted run\n  want: %v\n  got:  %v", r.name, want, got)
				}
				if c.oracle != nil && !r.spill {
					ref, err := renderAll(c.oracle(e))
					if err != nil {
						t.Fatalf("oracle: %v", err)
					}
					bag := append([]string(nil), got...)
					sort.Strings(bag)
					sort.Strings(ref)
					if !eqStrings(bag, ref) {
						t.Errorf("output differs from the nested-loops oracle\n  want: %v\n  got:  %v", ref, bag)
					}
				}
				done()
			}
			settleGoroutines(t, before)
		})
	}
}

// TestSpillEarlyCloseAndCancel abandons every case mid-stream — by an
// early Close, and by canceling the query and pulling until the stream
// ends — and checks nothing is left behind: no run file, no charged byte,
// no goroutine.
func TestSpillEarlyCloseAndCancel(t *testing.T) {
	for _, c := range spillCases() {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for _, r := range spillRegimes {
				if !r.spill || (r.hardOnly && !c.ordered) {
					continue
				}
				for _, cancel := range []bool{false, true} {
					for _, pulls := range []int{0, 3} {
						e, _, done := newSpillEnv(t, r)
						op := c.build(e)
						if err := op.Open(); err != nil {
							t.Fatalf("%s: %v", r.name, err)
						}
						for range pulls {
							if _, ok, err := op.Next(); err != nil {
								t.Fatalf("%s: %v", r.name, err)
							} else if !ok {
								break
							}
						}
						if cancel {
							e.qc.Cancel(qctx.ErrCanceled)
							for {
								_, ok, err := op.Next()
								if err != nil && !errors.Is(err, qctx.ErrCanceled) {
									t.Errorf("%s: after cancel got %v, want ErrCanceled", r.name, err)
								}
								if err != nil || !ok {
									break
								}
							}
						}
						if err := op.Close(); err != nil {
							t.Errorf("%s: Close: %v", r.name, err)
						}
						if err := op.Close(); err != nil {
							t.Errorf("%s: second Close: %v", r.name, err)
						}
						done()
					}
				}
			}
			settleGoroutines(t, before)
		})
	}
}

// TestSpillDepthCapSurfacesBudgetError pins the end of the ladder: a
// build partition that is one duplicate key cannot be split, so at the
// recursion cap it is hard-charged and a hard budget it exceeds fails the
// query typed — leaving nothing behind.
func TestSpillDepthCapSurfacesBudgetError(t *testing.T) {
	r := spillRegime{name: "hard", lim: qctx.Limits{Spill: qctx.SpillAuto, MaxBytes: 2048}, spill: true}
	e, m, _ := newSpillEnv(t, r)
	rng := rand.New(rand.NewSource(9))
	left := loadTuples(e.s, "L", 2, giantKeyTuples(rng, 20, 50))
	right := loadTuples(e.s, "R", 2, giantKeyTuples(rng, 300, 50))
	_, err := renderAll(&exec.ExchangeMerge{Source: &exec.ParallelHashJoin{
		Left: scanOf(left, "L"), Right: scanOf(right, "R"), Workers: 1, QC: e.qc, Spill: e.sess,
	}, QC: e.qc})
	if !errors.Is(err, qctx.ErrMemoryBudget) {
		t.Errorf("got %v, want ErrMemoryBudget", err)
	}
	if st := e.sess.Stats(); st.Runs < 12 {
		t.Errorf("spilled %v before failing; the recursion did not reach the depth cap", st)
	}
	// The refused hard charge stays on the counter of the now-dead query
	// (the engine resets usage before any retry), so only files are checked.
	e.sess.Close()
	if n, err := m.LiveFiles(); err != nil || n != 0 {
		t.Errorf("LiveFiles = %d, %v after the failed query; want 0", n, err)
	}
	e.qc.Finish()
}
