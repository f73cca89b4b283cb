// Benchmarks regenerating the paper's tables and figures. Each benchmark
// reports the paper's metric — page I/Os per query — via ReportMetric
// alongside wall-clock time. Run with:
//
//	go test -bench=. -benchmem
//
// Mapping to the paper (see DESIGN.md for the experiment index):
//
//	BenchmarkFigure1*        Figure 1 (E1)
//	BenchmarkSection74*      section 7.4 cost example (E8)
//	BenchmarkCountBug*       section 5.1 (E2)
//	BenchmarkNonEquality*    section 5.3 (E5)
//	BenchmarkDuplicates*     section 5.4 (E6)
//	BenchmarkSavingsSweep*   section 4 claim (E11)
//	BenchmarkTempTable*      section 7.2 temp-creation cost (E12)
//	BenchmarkExtended*       section 8 predicates (E10)
//	BenchmarkGeneralNesting  section 9.1 recursive procedure (E9)
package nestedsql_test

import (
	"fmt"
	"testing"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/metamorph"
	"repro/internal/planner"
	"repro/internal/qctx"
	"repro/internal/schema"
	"repro/internal/spill"
	"repro/internal/sqlparser"
	"repro/internal/transform"
	"repro/internal/workload"
)

// benchQuery executes sql repeatedly on a freshly-loaded database and
// reports average page I/Os per query.
func benchQuery(b *testing.B, mk func() *engine.DB, sql string, opts engine.Options) {
	b.Helper()
	db := mk()
	var totalIO int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(sql, opts)
		if err != nil {
			b.Fatal(err)
		}
		totalIO += res.Stats.Total()
	}
	b.ReportMetric(float64(totalIO)/float64(b.N), "pageIO/op")
}

func mkFixture(bufferPages int, load func(*workload.DB) error) func() *engine.DB {
	return func() *engine.DB {
		db := engine.New(bufferPages)
		if err := load(&workload.DB{Cat: db.Catalog(), Store: db.Store()}); err != nil {
			panic(err)
		}
		return db
	}
}

func mkSynthetic(bufferPages int, cfg workload.SyntheticConfig) func() *engine.DB {
	return func() *engine.DB {
		db := engine.New(bufferPages)
		if err := workload.LoadSynthetic(&workload.DB{Cat: db.Catalog(), Store: db.Store()}, cfg); err != nil {
			panic(err)
		}
		return db
	}
}

// ---- E1: Figure 1, measured on synthetic data in the paper's regime ----

var figure1Cfg = workload.SyntheticConfig{
	Name:        "figure1",
	OuterTuples: 400, InnerTuples: 800,
	OuterPerPage: 10, InnerPerPage: 10,
	JoinDomain: 80, Selectivity: 0.25, MatchFraction: 0.5,
	Seed: 1987,
}

func BenchmarkFigure1TypeN(b *testing.B) {
	sql := workload.TypeNQuery(figure1Cfg)
	b.Run("nested-iteration", func(b *testing.B) {
		benchQuery(b, mkSynthetic(8, figure1Cfg), sql, engine.Options{Strategy: engine.NestedIteration})
	})
	b.Run("transform", func(b *testing.B) {
		benchQuery(b, mkSynthetic(8, figure1Cfg), sql, engine.Options{Strategy: engine.TransformJA2})
	})
}

func BenchmarkFigure1TypeJ(b *testing.B) {
	sql := workload.TypeJQuery(figure1Cfg)
	b.Run("nested-iteration", func(b *testing.B) {
		benchQuery(b, mkSynthetic(8, figure1Cfg), sql, engine.Options{Strategy: engine.NestedIteration})
	})
	b.Run("transform", func(b *testing.B) {
		benchQuery(b, mkSynthetic(8, figure1Cfg), sql, engine.Options{Strategy: engine.TransformJA2})
	})
}

func BenchmarkFigure1TypeJA(b *testing.B) {
	sql := workload.TypeJAQuery(figure1Cfg)
	b.Run("nested-iteration", func(b *testing.B) {
		benchQuery(b, mkSynthetic(8, figure1Cfg), sql, engine.Options{Strategy: engine.NestedIteration})
	})
	b.Run("transform", func(b *testing.B) {
		benchQuery(b, mkSynthetic(8, figure1Cfg), sql, engine.Options{Strategy: engine.TransformJA2})
	})
}

// ---- E8: the section 7.4 example at the paper's exact scale (Pi=50,
// Pj=30, B=6, f(i)·Ni=100; nested iteration measures exactly 3050). ----

var cost74Cfg = workload.SyntheticConfig{
	Name:        "cost74",
	OuterTuples: 500, InnerTuples: 300,
	OuterPerPage: 10, InnerPerPage: 10,
	JoinDomain: 350, Selectivity: 0.2, MatchFraction: 0.6,
	Seed: 74,
}

func BenchmarkSection74(b *testing.B) {
	sql := workload.TypeJAMaxQuery(cost74Cfg)
	b.Run("nested-iteration", func(b *testing.B) {
		benchQuery(b, mkSynthetic(6, cost74Cfg), sql, engine.Options{Strategy: engine.NestedIteration})
	})
	combos := []struct {
		name        string
		temp, final planner.JoinMethod
	}{
		{"merge-merge", planner.JoinMerge, planner.JoinMerge},
		{"merge-nl", planner.JoinMerge, planner.JoinNL},
		{"nl-merge", planner.JoinNL, planner.JoinMerge},
		{"nl-nl", planner.JoinNL, planner.JoinNL},
	}
	for _, c := range combos {
		b.Run(c.name, func(b *testing.B) {
			benchQuery(b, mkSynthetic(6, cost74Cfg), sql, engine.Options{
				Strategy: engine.TransformJA2,
				Planner:  planner.Options{TempJoin: c.temp, FinalJoin: c.final, TempTuplesPerPage: 10},
			})
		})
	}
}

// ---- E2/E5/E6: the semantic counterexamples as micro-benchmarks ----

func BenchmarkCountBugQ2(b *testing.B) {
	for _, s := range []engine.Strategy{engine.NestedIteration, engine.TransformJA2, engine.TransformKim} {
		b.Run(s.String(), func(b *testing.B) {
			benchQuery(b, mkFixture(8, workload.LoadKiessling), workload.KiesslingQ2,
				engine.Options{Strategy: s})
		})
	}
}

func BenchmarkNonEqualityQ5(b *testing.B) {
	for _, s := range []engine.Strategy{engine.NestedIteration, engine.TransformJA2, engine.TransformKim} {
		b.Run(s.String(), func(b *testing.B) {
			benchQuery(b, mkFixture(8, workload.LoadNonEquality), workload.GanskiQ5,
				engine.Options{Strategy: s})
		})
	}
}

func BenchmarkDuplicatesQ2(b *testing.B) {
	for _, s := range []engine.Strategy{engine.NestedIteration, engine.TransformJA2} {
		b.Run(s.String(), func(b *testing.B) {
			benchQuery(b, mkFixture(8, workload.LoadDuplicates), workload.KiesslingQ2,
				engine.Options{Strategy: s})
		})
	}
}

// ---- E11: the 80%-95% savings claim across workload scales ----

func BenchmarkSavingsSweep(b *testing.B) {
	scales := []int{200, 1000, 4000}
	if testing.Short() {
		scales = scales[:2] // -short: drop the 400-page inner relation
	}
	for _, innerTuples := range scales {
		cfg := workload.SyntheticConfig{
			Name:        fmt.Sprintf("rj%d", innerTuples),
			OuterTuples: 300, InnerTuples: innerTuples,
			OuterPerPage: 10, InnerPerPage: 10,
			JoinDomain: 60, Selectivity: 0.5, MatchFraction: 0.5,
			Seed: int64(innerTuples),
		}
		sql := workload.TypeJAQuery(cfg)
		for _, s := range []engine.Strategy{engine.NestedIteration, engine.TransformJA2} {
			b.Run(fmt.Sprintf("rj=%dpages/%s", innerTuples/10, s), func(b *testing.B) {
				benchQuery(b, mkSynthetic(8, cfg), sql, engine.Options{Strategy: s})
			})
		}
	}
}

// ---- E12: section 7.2 — temp-table creation join method as the inner
// projection grows past B−1 pages ----

func BenchmarkTempTableCreation(b *testing.B) {
	scales := []int{40, 2000} // Rt3 far below / above B-1 pages
	if testing.Short() {
		scales = []int{40, 400} // -short: still above B-1, much cheaper
	}
	for _, innerTuples := range scales {
		cfg := workload.SyntheticConfig{
			Name:        fmt.Sprintf("rt3-%d", innerTuples),
			OuterTuples: 300, InnerTuples: innerTuples,
			OuterPerPage: 10, InnerPerPage: 10,
			JoinDomain: 60, Selectivity: 1.0, MatchFraction: 1.0,
			Seed: 7,
		}
		sql := workload.TypeJAQuery(cfg)
		for _, m := range []planner.JoinMethod{planner.JoinNL, planner.JoinMerge} {
			b.Run(fmt.Sprintf("inner=%dpages/temp=%s", innerTuples/10, m), func(b *testing.B) {
				benchQuery(b, mkSynthetic(8, cfg), sql, engine.Options{
					Strategy: engine.TransformJA2,
					Planner:  planner.Options{TempJoin: m},
				})
			})
		}
	}
}

// ---- E10: section 8 extended predicates ----

func BenchmarkExtendedPredicates(b *testing.B) {
	queries := map[string]string{
		"exists": `SELECT PNUM FROM PARTS
		           WHERE EXISTS (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`,
		"not-exists": `SELECT PNUM FROM PARTS
		               WHERE NOT EXISTS (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`,
		"lt-any": `SELECT PNUM FROM PARTS
		           WHERE QOH < ANY (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`,
		"gt-all": `SELECT PNUM FROM PARTS
		           WHERE QOH > ALL (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`,
	}
	for name, sql := range queries {
		b.Run(name, func(b *testing.B) {
			benchQuery(b, mkFixture(8, workload.LoadKiessling), sql,
				engine.Options{Strategy: engine.TransformJA2})
		})
	}
}

// ---- E9: the recursive procedure on a three-level query ----

func BenchmarkGeneralNesting(b *testing.B) {
	sql := `
		SELECT SNAME FROM S
		WHERE STATUS < (SELECT MAX(QTY) FROM SP
		                WHERE PNO IN (SELECT PNO FROM P WHERE P.CITY = S.CITY))`
	for _, s := range []engine.Strategy{engine.NestedIteration, engine.TransformJA2} {
		b.Run(s.String(), func(b *testing.B) {
			benchQuery(b, mkFixture(8, workload.LoadSuppliers), sql, engine.Options{Strategy: s})
		})
	}
}

// ---- Morsel-driven parallel execution: sequential vs N workers ----

// BenchmarkParallelNestJA2 runs a type-JA query at a scale where the
// joins dominate, comparing the sequential NEST-JA2 pipeline — with merge
// joins forced, and as the cost rule plans it (sort-merge for the temp
// table, the inline hash join for the back-join) — against the
// morsel-driven parallel one at 2, 4, and 8 workers. ForceParallel
// bypasses the cost gate so every worker count actually parallelizes;
// the pageIO metric stays comparable because parallelism does not change
// what is read, only who reads it.
func BenchmarkParallelNestJA2(b *testing.B) {
	cfg := workload.SyntheticConfig{
		Name:        "par",
		OuterTuples: 20000, InnerTuples: 40000,
		OuterPerPage: 10, InnerPerPage: 10,
		JoinDomain: 2000, Selectivity: 0.5, MatchFraction: 0.5,
		Seed: 2026,
	}
	if testing.Short() {
		// -short: keep the same shape at a tenth the scale; parallel
		// speedups shrink but every code path still runs.
		cfg.OuterTuples, cfg.InnerTuples, cfg.JoinDomain = 2000, 4000, 200
	}
	sql := workload.TypeJAQuery(cfg)
	b.Run("sequential-merge", func(b *testing.B) {
		benchQuery(b, mkSynthetic(64, cfg), sql, engine.Options{Strategy: engine.TransformJA2,
			Planner: planner.Options{TempJoin: planner.JoinMerge, FinalJoin: planner.JoinMerge}})
	})
	b.Run("sequential", func(b *testing.B) {
		benchQuery(b, mkSynthetic(64, cfg), sql, engine.Options{Strategy: engine.TransformJA2})
	})
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchQuery(b, mkSynthetic(64, cfg), sql, engine.Options{
				Strategy: engine.TransformJA2,
				Planner:  planner.Options{Parallelism: w, ForceParallel: true},
			})
		})
	}
}

// ---- Component micro-benchmarks ----

// BenchmarkTransformOnly measures the transformation itself (no
// execution): parse + resolve once, transform per iteration.
func BenchmarkTransformOnly(b *testing.B) {
	db := mkFixture(8, workload.LoadKiessling)()
	qb := sqlparser.MustParse(workload.KiesslingQ2)
	if _, err := schema.Resolve(db.Catalog(), qb); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transform.New(db.Catalog(), transform.JA2).Transform(qb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParse measures parser throughput on the paper's Q2.
func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sqlparser.Parse(workload.KiesslingQ2); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Index access path: the selective-restriction speedup ----

func BenchmarkIndexAccessPath(b *testing.B) {
	mk := func(withIndex bool) func() *engine.DB {
		return func() *engine.DB {
			db := mkSynthetic(8, workload.SyntheticConfig{
				Name:        "idx",
				OuterTuples: 1000, InnerTuples: 100,
				OuterPerPage: 10, InnerPerPage: 10,
				JoinDomain: 200, Selectivity: 1, MatchFraction: 1,
				Seed: 5,
			})()
			if withIndex {
				if err := db.CreateIndex("RI", "JC"); err != nil {
					panic(err)
				}
			}
			return db
		}
	}
	sql := "SELECT JC, VAL FROM RI WHERE JC = 42"
	b.Run("seq-scan", func(b *testing.B) {
		benchQuery(b, mk(false), sql, engine.Options{Strategy: engine.TransformJA2})
	})
	b.Run("index-scan", func(b *testing.B) {
		benchQuery(b, mk(true), sql, engine.Options{Strategy: engine.TransformJA2})
	})
}

// ---- NOT IN via the NULL-aware anti-join (extension) vs nested iteration ----

func BenchmarkNotInAntiJoin(b *testing.B) {
	cfg := workload.SyntheticConfig{
		Name:        "notin",
		OuterTuples: 400, InnerTuples: 800,
		OuterPerPage: 10, InnerPerPage: 10,
		JoinDomain: 80, Selectivity: 1, MatchFraction: 0.3,
		Seed: 31,
	}
	sql := `SELECT JC FROM RI WHERE VAL NOT IN (SELECT VAL FROM RJ WHERE RJ.JC = RI.JC AND RJ.FILT < 30)`
	for _, s := range []engine.Strategy{engine.NestedIteration, engine.TransformJA2} {
		b.Run(s.String(), func(b *testing.B) {
			benchQuery(b, mkSynthetic(8, cfg), sql, engine.Options{Strategy: s})
		})
	}
}

// ---- Metamorphic fuzzer throughput (extension) ----

// BenchmarkMetamorphScenario measures the correctness fuzzer's in-process
// throughput: one generated scenario (25 query pairs) loaded, executed
// through the sequential, parallel, and nested-iteration regimes with all
// relation checks, and unloaded, per iteration. This is the cost unit
// behind `make metamorph` budgeting (pairs per second ≈ 25 / time per op).
func BenchmarkMetamorphScenario(b *testing.B) {
	gen := metamorph.NewGenerator(metamorph.Config{Seed: 20260808, Scenarios: 1})
	r, err := metamorph.NewRunner(metamorph.RunnerConfig{Parallel: true})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	s := gen.Scenario(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs, err := r.RunScenario(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(vs) > 0 {
			b.Fatalf("relation violation during benchmark: %s", vs[0].String())
		}
	}
}

// ---- Admission gateway overhead and contended throughput (extension) ----

// BenchmarkAdmissionGateway measures what the admission gate adds to an
// uncontended query ("off" vs "on": one client, slots always free) and
// what throughput looks like when parallel clients contend for fewer
// slots than there are clients ("contended": the queue is deep enough
// that nothing is shed, so every operation is a completed query).
func BenchmarkAdmissionGateway(b *testing.B) {
	sql := workload.KiesslingQ2
	opts := engine.Options{Strategy: engine.TransformJA2}
	mkGoverned := func() *engine.DB {
		db := mkFixture(8, workload.LoadKiessling)()
		db.EnableAdmission(admission.Config{
			MaxConcurrent: 8,
			QueueDepth:    1024,
			PoolBytes:     64 << 20,
		})
		return db
	}
	b.Run("off", func(b *testing.B) {
		benchQuery(b, mkFixture(8, workload.LoadKiessling), sql, opts)
	})
	b.Run("on", func(b *testing.B) {
		benchQuery(b, mkGoverned, sql, opts)
	})
	b.Run("contended", func(b *testing.B) {
		db := mkFixture(8, workload.LoadKiessling)()
		db.EnableAdmission(admission.Config{
			MaxConcurrent: 4,
			QueueDepth:    1024,
			PoolBytes:     64 << 20,
		})
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := db.Query(sql, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// ---- Spill-to-disk overhead (extension) ----

// spillBenchCfg sizes relations so sorts and join groups buffer tens of
// kilobytes — enough that forced spilling moves real data through run
// files. -short quarters the scale.
func spillBenchCfg() workload.SyntheticConfig {
	cfg := workload.SyntheticConfig{
		Name:        "spill",
		OuterTuples: 2000, InnerTuples: 4000,
		OuterPerPage: 10, InnerPerPage: 10,
		JoinDomain: 200, Selectivity: 1, MatchFraction: 0.5,
		Seed: 12,
	}
	if testing.Short() {
		cfg.OuterTuples, cfg.InnerTuples = 500, 1000
	}
	return cfg
}

// BenchmarkSpillJoin measures what spilling costs a NEST-JA2 plan (temp
// materialization, sorts, merge join): the same query fully in memory,
// then with every reservation refused so all buffered state rides
// checksummed spill runs. The gap is the price of graceful degradation.
func BenchmarkSpillJoin(b *testing.B) {
	cfg := spillBenchCfg()
	sql := workload.TypeJAQuery(cfg)
	opts := engine.Options{Strategy: engine.TransformJA2}
	opts.Planner.TempJoin = planner.JoinMerge
	opts.Planner.FinalJoin = planner.JoinMerge
	b.Run("in-memory", func(b *testing.B) {
		benchQuery(b, mkSynthetic(32, cfg), sql, opts)
	})
	b.Run("forced-spill", func(b *testing.B) {
		mk := func() *engine.DB {
			db := mkSynthetic(32, cfg)()
			if err := db.EnableSpill(b.TempDir(), 0); err != nil {
				b.Fatal(err)
			}
			return db
		}
		spilled := opts
		spilled.Spill = qctx.SpillForced
		benchQuery(b, mk, sql, spilled)
	})
}

// BenchmarkExternalSort measures the sort operator alone: in-memory
// sorting vs external merge sorting through checksummed spill runs, over
// the same scanned input.
func BenchmarkExternalSort(b *testing.B) {
	cfg := spillBenchCfg()
	mk := mkSynthetic(32, cfg)
	run := func(b *testing.B, forced bool) {
		db := mk()
		file, ok := db.Store().Lookup("RJ")
		if !ok {
			b.Fatal("synthetic relation RJ missing")
		}
		var sess *spill.Session
		var qc *qctx.QueryContext
		if forced {
			mgr, err := spill.NewManager(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			sess = mgr.NewSession("bench")
			defer sess.Close()
			qc = qctx.New(qctx.Limits{Spill: qctx.SpillForced})
			defer qc.Finish()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := &exec.Sort{
				Child: exec.NewSeqScan(file, "RJ", []string{"JC", "VAL", "FILT"}),
				Keys:  []int{1, 2},
				Store: db.Store(),
				QC:    qc,
				Spill: sess,
			}
			rows, err := exec.Drain(s, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			if len(rows) != cfg.InnerTuples {
				b.Fatalf("sorted %d rows, want %d", len(rows), cfg.InnerTuples)
			}
		}
	}
	b.Run("in-memory", func(b *testing.B) { run(b, false) })
	b.Run("spill-runs", func(b *testing.B) { run(b, true) })
}
