package main

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/workload"
)

// Figure-1 calibration. The paper reprints Kim's numbers but not Kim's
// example parameters ([KIM 82:462-463]); the parameter sets below are
// calibrated against the implemented cost formulas to land on the paper's
// reported values (derivation in EXPERIMENTS.md). The type-JA nested
// iteration row needs no calibration: the paper's own section 7.4
// parameters give exactly 3050.
type figure1Row struct {
	label          string
	paperNI        float64
	paperTransform float64
	modelNI        float64
	modelTransform float64
}

func figure1Analytic() []figure1Row {
	rows := []figure1Row{}

	// Type-N: Pi=100, Pj=120, Px=100, f(i)·Ni=100, B=64.
	rows = append(rows, figure1Row{
		label:          "type-N",
		paperNI:        10220,
		paperTransform: 720,
		modelNI:        costmodel.TypeNNestedIterationCost(100, 120, 100, 100, 64),
		modelTransform: costmodel.CanonicalMergeJoinCost(100, 120, 64),
	})
	// Type-J: Pi=120, Pj=100, f(i)·Ni=100, B=530.
	rows = append(rows, figure1Row{
		label:          "type-J",
		paperNI:        10120,
		paperTransform: 550,
		modelNI:        costmodel.NestedIterationCost(120, 100, 100),
		modelTransform: costmodel.CanonicalMergeJoinCost(120, 100, 530),
	})
	// Type-JA: Pi=50, Pj=30, Pt=5, f(i)·Ni=100, B=4 (Kim's NEST-JA
	// evaluated with merge joins; closest integer-B calibration).
	rows = append(rows, figure1Row{
		label:          "type-JA",
		paperNI:        3050,
		paperTransform: 615,
		modelNI:        costmodel.NestedIterationCost(50, 100, 30),
		modelTransform: costmodel.KimJACost(50, 30, 5, 4),
	})
	return rows
}

// expFigure1 reproduces Figure 1, "Page I/Os Required in Kim's Examples":
// analytically with the calibrated parameters, then measured end-to-end on
// synthetic data in the regime the paper targets (inner relation larger
// than the buffer pool).
func expFigure1() {
	fmt.Println("  Analytic (calibrated parameters; see EXPERIMENTS.md):")
	fmt.Printf("    %-8s %14s %14s %18s %18s\n",
		"query", "NI (paper)", "NI (model)", "transform (paper)", "transform (model)")
	for _, r := range figure1Analytic() {
		fmt.Printf("    %-8s %14.0f %14.0f %18.0f %18.0f\n",
			r.label, r.paperNI, r.modelNI, r.paperTransform, r.modelTransform)
	}

	fmt.Println("\n  Measured (engine, B = 8, RI: 400 tuples / 40 pages, RJ: 800 tuples / 80 pages):")
	cfg := workload.SyntheticConfig{
		Name:        "figure1-measured",
		OuterTuples: 400, InnerTuples: 800,
		OuterPerPage: 10, InnerPerPage: 10,
		JoinDomain: 80, Selectivity: 0.25, MatchFraction: 0.5,
		Seed: 1987,
	}
	queries := []struct {
		label string
		sql   string
	}{
		{"type-N", workload.TypeNQuery(cfg)},
		{"type-J", workload.TypeJQuery(cfg)},
		{"type-JA", workload.TypeJAQuery(cfg)},
	}
	fmt.Printf("    %-8s %16s %16s %10s\n", "query", "NI (measured)", "transform", "savings")
	for _, q := range queries {
		ni := measure(cfg, 8, q.sql, engine.NestedIteration, planner.Options{})
		tr := measure(cfg, 8, q.sql, engine.TransformJA2, planner.Options{})
		fmt.Printf("    %-8s %16d %16d %9.1f%%\n",
			q.label, ni, tr, 100*(1-float64(tr)/float64(ni)))
	}
}

// measure loads a fresh synthetic database and returns the query's total
// page I/Os under the strategy, on the plan the paper costs (AsPaper).
func measure(cfg workload.SyntheticConfig, b int, sql string, s engine.Strategy, popts planner.Options) int64 {
	db := engine.New(b)
	if err := workload.LoadSynthetic(&workload.DB{Cat: db.Catalog(), Store: db.Store()}, cfg); err != nil {
		panic(err)
	}
	popts.AsPaper = true
	res, err := db.Query(sql, engine.Options{Strategy: s, Planner: popts})
	if err != nil {
		panic(err)
	}
	return res.Stats.Total()
}

// expCost74 reproduces the section 7.4 example: the analytic totals for
// all four join-method combinations (the paper reports nested iteration =
// 3050 and the two-merge-join total "about 475"), and a measured rerun at
// the paper's exact scale (Pi=50, Pj=30, B=6, f(i)·Ni=100).
func expCost74() {
	p := costmodel.Section74Params
	t := p.Totals()
	fmt.Println("  Analytic (Pi=50 Pj=30 Pt2=7 Pt3=10 Pt4=8 Pt=5 B=6 f(i)Ni=100):")
	fmt.Printf("    nested iteration:            %7.0f   (paper: 3050)\n", p.NestedIteration())
	fmt.Printf("    NEST-JA2, merge + merge:     %7.1f   (paper: about 475)\n", t.MergeMerge)
	fmt.Printf("    NEST-JA2, merge + NL:        %7.1f\n", t.MergeNL)
	fmt.Printf("    NEST-JA2, NL + merge:        %7.1f\n", t.NLMerge)
	fmt.Printf("    NEST-JA2, NL + NL:           %7.1f\n", t.NLNL)
	fmt.Printf("    savings (two merge joins):   %6.1f%%\n", 100*(1-t.MergeMerge/p.NestedIteration()))

	// Measured at the paper's scale: Ni=500 tuples over Pi=50 pages,
	// Nj=300 over Pj=30, f(i)=0.2 so f(i)·Ni=100, B=6. The deterministic
	// FILT column makes the selectivity exact, so nested iteration costs
	// exactly Pi + 100·Pj = 3050 page reads.
	cfg := workload.SyntheticConfig{
		Name:        "cost74",
		OuterTuples: 500, InnerTuples: 300,
		OuterPerPage: 10, InnerPerPage: 10,
		JoinDomain: 350, Selectivity: 0.2, MatchFraction: 0.6,
		Seed: 74,
	}
	sql := workload.TypeJAMaxQuery(cfg)
	fmt.Println("\n  Measured (same scale, MAX aggregate, temp pages at 10 tuples/page):")
	ni := measure(cfg, 6, sql, engine.NestedIteration, planner.Options{})
	fmt.Printf("    nested iteration:            %7d\n", ni)
	combos := []struct {
		label       string
		temp, final planner.JoinMethod
	}{
		{"merge + merge", planner.JoinMerge, planner.JoinMerge},
		{"merge + NL   ", planner.JoinMerge, planner.JoinNL},
		{"NL + merge   ", planner.JoinNL, planner.JoinMerge},
		{"NL + NL      ", planner.JoinNL, planner.JoinNL},
	}
	best := int64(1 << 60)
	for _, c := range combos {
		got := measure(cfg, 6, sql, engine.TransformJA2,
			planner.Options{TempJoin: c.temp, FinalJoin: c.final, TempTuplesPerPage: 10})
		if got < best {
			best = got
		}
		fmt.Printf("    NEST-JA2, %s:      %7d\n", c.label, got)
	}
	fmt.Printf("    savings (best combination):  %6.1f%%\n", 100*(1-float64(best)/float64(ni)))
}

// expSweep substantiates the section 4 claim that the transformation saves
// 80%-95%: an analytic sweep over relation sizes and selectivities, plus
// measured spot checks.
func expSweep() {
	fmt.Println("  Analytic savings, NEST-JA2 best combination vs nested iteration:")
	fmt.Printf("    %8s %8s %8s %12s %12s %9s\n", "Pi", "Pj", "f(i)Ni", "NI", "transform", "savings")
	for _, pi := range []float64{50, 100, 200} {
		for _, pj := range []float64{30, 100, 300} {
			for _, fni := range []float64{50, 100, 500} {
				p := costmodel.JA2Params{
					Pi: pi, Pj: pj,
					Pt2: pi / 7, Pt3: pj / 3, Pt4: pj / 3, Pt: pi / 10,
					FNi: fni, Ni: pi * 10, Nt2: pi, B: 6,
				}
				ni := p.NestedIteration()
				tr := p.Totals().Best()
				fmt.Printf("    %8.0f %8.0f %8.0f %12.0f %12.0f %8.1f%%\n",
					pi, pj, fni, ni, tr, 100*(1-tr/ni))
			}
		}
	}

	fmt.Println("\n  Measured spot checks (B = 8):")
	fmt.Printf("    %-28s %12s %12s %9s\n", "workload", "NI", "transform", "savings")
	for _, cfg := range []workload.SyntheticConfig{
		{Name: "small (RJ 20 pages)", OuterTuples: 200, InnerTuples: 200,
			OuterPerPage: 10, InnerPerPage: 10, JoinDomain: 50,
			Selectivity: 0.5, MatchFraction: 0.5, Seed: 1},
		{Name: "medium (RJ 100 pages)", OuterTuples: 500, InnerTuples: 1000,
			OuterPerPage: 10, InnerPerPage: 10, JoinDomain: 100,
			Selectivity: 1.0, MatchFraction: 0.5, Seed: 2},
		{Name: "selective outer f=0.1", OuterTuples: 1000, InnerTuples: 1000,
			OuterPerPage: 10, InnerPerPage: 10, JoinDomain: 100,
			Selectivity: 0.1, MatchFraction: 0.5, Seed: 3},
	} {
		sql := workload.TypeJAQuery(cfg)
		ni := measure(cfg, 8, sql, engine.NestedIteration, planner.Options{})
		tr := measure(cfg, 8, sql, engine.TransformJA2, planner.Options{})
		fmt.Printf("    %-28s %12d %12d %8.1f%%\n",
			cfg.Name, ni, tr, 100*(1-float64(tr)/float64(ni)))
	}
}
