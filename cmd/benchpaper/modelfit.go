package main

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/trace"
	"repro/internal/transform"
	"repro/internal/workload"
)

// expModelFit validates the section 7 cost model against end-to-end
// measurements: for a grid of workload shapes it computes the analytic
// NEST-JA2 two-merge-join total (deriving the temp sizes from the actual
// materialized temps) and compares it with the measured page I/Os of the
// forced merge+merge plan, plus the nested-iteration baseline against
// Pi + f(i)·Ni·Pj.
//
// Measured merge-join numbers sit at or below the model: small
// intermediates sort in memory and the buffer pool absorbs re-reads, both
// of which the model conservatively ignores.
func expModelFit() {
	fmt.Printf("  %-26s %10s %10s %7s %12s %12s %7s\n",
		"workload", "NI model", "NI meas", "ratio", "JA2 model", "JA2 meas", "ratio")
	grid := []workload.SyntheticConfig{
		{Name: "Pi=30 Pj=20 f=0.5", OuterTuples: 300, InnerTuples: 200,
			OuterPerPage: 10, InnerPerPage: 10, JoinDomain: 60,
			Selectivity: 0.5, MatchFraction: 0.5, Seed: 21},
		{Name: "Pi=50 Pj=30 f=0.2", OuterTuples: 500, InnerTuples: 300,
			OuterPerPage: 10, InnerPerPage: 10, JoinDomain: 350,
			Selectivity: 0.2, MatchFraction: 0.6, Seed: 22},
		{Name: "Pi=40 Pj=100 f=1.0", OuterTuples: 400, InnerTuples: 1000,
			OuterPerPage: 10, InnerPerPage: 10, JoinDomain: 100,
			Selectivity: 1.0, MatchFraction: 0.5, Seed: 23},
	}
	for _, cfg := range grid {
		niModel, niMeas, ja2Model, ja2Meas := ModelFitRow(cfg, 6)
		fmt.Printf("  %-26s %10.0f %10d %7.2f %12.1f %12d %7.2f\n",
			cfg.Name, niModel, niMeas, float64(niMeas)/niModel,
			ja2Model, ja2Meas, float64(ja2Meas)/ja2Model)
	}
}

// ModelFitRow computes (analytic NI, measured NI, analytic JA2 merge-merge,
// measured JA2 merge-merge) for one workload at buffer size b. The temp
// page counts for the analytic formula are taken from the actual
// materialized temps (the model predicts evaluation cost given sizes, not
// the sizes themselves). Exported for the regression test.
func ModelFitRow(cfg workload.SyntheticConfig, b int) (niModel float64, niMeas int64, ja2Model float64, ja2Meas int64) {
	sql := workload.TypeJAMaxQuery(cfg)
	niMeas = measure(cfg, b, sql, engine.NestedIteration, planner.Options{})
	ja2Meas = measure(cfg, b, sql, engine.TransformJA2,
		planner.Options{TempJoin: planner.JoinMerge, FinalJoin: planner.JoinMerge, TempTuplesPerPage: 10})

	// Derive the model's inputs from the workload and the materialized
	// temp sizes of a probe run.
	db := engine.New(b)
	if err := workload.LoadSynthetic(&workload.DB{Cat: db.Catalog(), Store: db.Store()}, cfg); err != nil {
		panic(err)
	}
	pi := float64((cfg.OuterTuples + cfg.OuterPerPage - 1) / cfg.OuterPerPage)
	pj := float64((cfg.InnerTuples + cfg.InnerPerPage - 1) / cfg.InnerPerPage)
	fNi := float64(cfg.OuterTuples) * cfg.Selectivity

	sizes := tempSizes(db, sql)
	params := costmodel.JA2Params{
		Pi: pi, Pj: pj,
		Pt2: sizes["TEMP1"], Pt3: pj * cfg.MatchFraction,
		Pt4: sizes["TEMP2"], Pt: sizes["TEMP2"],
		FNi: fNi, Ni: float64(cfg.OuterTuples), Nt2: sizes["TEMP1"] * 10,
		B: b,
	}
	return params.NestedIteration(), niMeas, params.Totals().MergeMerge, ja2Meas
}

// tempSizes runs the transformation and returns its temps' page counts
// by name, from the planner's Materialized trace events.
func tempSizes(db *engine.DB, sql string) map[string]float64 {
	_, _, pl := runPlanner(db, sql, transform.JA2, false)
	out := make(map[string]float64)
	for _, e := range pl.Trace {
		if e.Kind == trace.Materialized {
			out[e.Label] = float64(e.M)
		}
	}
	return out
}
