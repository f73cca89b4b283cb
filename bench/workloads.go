package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/qctx"
	"repro/internal/storage"
	"repro/internal/workload"
)

// op is one distinct operation of a workload. Read ops carry the
// fingerprint of their reference result; insert ops have their SQL
// generated per call by the instance (unique keys) and are verified by
// the affected-row count and, after the run, by reading the table back.
type op struct {
	name       string
	sql        string
	strat      engine.Strategy
	class      string // layer-ledger class: "", "wide", "colocated", "shuffle", "insert"
	insertRows int    // > 0: a generated INSERT of this many rows
	ordered    bool   // the plan is order-deterministic, so row order is checked too
	diverges   bool   // an ALL rewrite: differs from nested iteration by design, so only the reference vouches for it
	broken     string // why set-up could not vouch for this op; every execution then counts as failed
	want       fingerprint
	wireBytes  int // Σ encoded RowBatch frame bytes of the reference result
}

// opResult is what an instance returns for one executed op.
type opResult struct {
	cols       []string
	rows       []storage.Tuple
	affected   int64
	spillRuns  int64
	spillBytes int64
	fellBack   bool
}

// instance is one stood-up system under test. do runs an op for a
// client; traced runs it through the layer-by-layer replay, recording
// spans; pageIO sums Store().Stats() over every engine of the run;
// finish checks the post-run invariants (recovery equals the acked
// rows, no staging table left); close releases everything and is
// idempotent.
type instance interface {
	do(client int, o *op) (opResult, error)
	traced(tr *tracer, client int, o *op) (opResult, error)
	pageIO() storage.IOStats
	finish() error
	close()
}

// sizing holds every size knob, so the smoke tests run the same code at
// a fiftieth of the scale.
type sizing struct {
	outer, inner, domain int // RI / RJ tuples and join domain of the ja_* relations
	wideOuter            int // serve_read's RI, whose type-N query returns about half of it
	suppliers            int // cluster_mix supplier count
	checkpointEvery      int // serve_write ops between in-line checkpoints
	warmCycles           int // multiplier on each workload's warm-up cycles
}

var (
	fullSize  = sizing{outer: 2000, inner: 4000, domain: 200, wideOuter: 2000, suppliers: 240, checkpointEvery: 5000, warmCycles: 1}
	smokeSize = sizing{outer: 100, inner: 200, domain: 20, wideOuter: 100, suppliers: 24, checkpointEvery: 100, warmCycles: 0}
)

// env is everything a workload derives its inputs and set-up from.
type env struct {
	workload string
	seed     int64
	size     sizing
	tmp      string // directory for spill runs and WAL segments
	teeth    bool   // run the COUNT-bug op under Kim's NEST-JA: the harness must notice
	trace    bool   // stand up the twins the traced pass shadows against
}

// plan is a workload's seeded inputs: the distinct ops with their
// expected results, and one cycle of op indices that each client
// permutes afresh every time round.
type plan struct {
	ops   []op
	cycle []int
	// warm is how many cycles per client the untimed warm-up runs
	// (at least 2% of a full run's ops).
	warm int
	// info is human-readable context for the report header.
	info []string
}

// workloadSpec names a workload, says why it exists, and knows how to
// prepare its inputs and stand it up.
type workloadSpec struct {
	name    string
	why     string
	clients int
	prepare func(e *env) (*plan, error)
	setup   func(e *env, p *plan) (instance, error)
}

// netClients is the closed-loop client count of the network workloads.
func netClients() int { return min(2, runtime.NumCPU()) }

// parallelWorkers is the worker count of every parallel plan.
const parallelWorkers = 2

// bufferPages is the paper's B for every engine in the benchmark.
const bufferPages = 32

var workloads = []workloadSpec{
	{
		name:    "point_mix",
		why:     "microsecond queries on tables that fit the pool: the one workload where the front end (a fifth of an op), plan set-up and per-query engine overhead show; storage does almost nothing",
		clients: 1,
		prepare: preparePointMix,
		setup: func(e *env, p *plan) (instance, error) {
			return newEngineInst(e, loadPaperFixtures, nil, false)
		},
	},
	{
		name:    "ja_seq",
		why:     "600 pages against a 32-page pool under sequential NEST-JA2: external sort, merge join, GroupAgg, temp tables and pool misses do the work; front end under 1%",
		clients: 1,
		prepare: func(e *env) (*plan, error) { return prepareJA(e, jaConfig, jaShapes, seqOptions, true) },
		setup: func(e *env, p *plan) (instance, error) {
			return newEngineInst(e, loadJA, seqOptions, false)
		},
	},
	{
		name:    "ja_par",
		why:     "same data and queries as ja_seq under 2-worker parallel plans: partitioned hash join, hash group and exchange replace sort-merge, so a ja_seq-only change must not move it",
		clients: 1,
		prepare: func(e *env) (*plan, error) { return prepareJA(e, jaConfig, jaShapes, parOptions, false) },
		setup: func(e *env, p *plan) (instance, error) {
			return newEngineInst(e, loadJA, parOptions, false)
		},
	},
	{
		name:    "spill_join",
		why:     "the ja_seq operators (on half its data) with every buffer forced through checksummed spill runs and rowcodec: catches an in-memory win that taxes the spill path",
		clients: 1,
		prepare: func(e *env) (*plan, error) { return prepareJA(e, spillConfig, jaShapes[2:], mergeOptions, true) },
		setup: func(e *env, p *plan) (instance, error) {
			return newEngineInst(e, loadSpill, spillOptions, true)
		},
	},
	{
		name:    "serve_read",
		why:     "point_mix's engine work behind wire, server, client, admission and loopback TCP, plus a 1000-row result that loads row encoding and streaming backpressure",
		clients: netClients(),
		prepare: prepareServeRead,
		setup:   func(e *env, p *plan) (instance, error) { return newServerInst(e, false) },
	},
	{
		name:    "serve_write",
		why:     "acked INSERTs beside reads on the same stack with the WAL on (fsync off): WAL append, the commit lock and checkpoint stalls, verified by recovering exactly the acked rows",
		clients: netClients(),
		prepare: prepareServeWrite,
		setup:   func(e *env, p *plan) (instance, error) { return newServerInst(e, true) },
	},
	{
		name:    "cluster_mix",
		why:     "2 replicated workers behind a coordinator: fan-out, shuffle staging, gather and replication, which no other workload runs, are half of each op and the shards' engine work the other half",
		clients: netClients(),
		prepare: prepareCluster,
		setup:   func(e *env, p *plan) (instance, error) { return newClusterInst(e, p) },
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ---- point_mix: the paper mix, copied from cmd/benchpaper/serveload.go ----

var pointMix = []op{
	{name: "countbug-ja2", sql: `SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY
		WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)`, strat: engine.TransformJA2},
	{name: "countbug-ni", sql: `SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY
		WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)`, strat: engine.NestedIteration},
	{name: "exists", sql: `SELECT PNUM FROM PARTS
		WHERE EXISTS (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`, strat: engine.TransformJA2},
	{name: "not-exists", sql: `SELECT PNUM FROM PARTS
		WHERE NOT EXISTS (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`, strat: engine.TransformJA2},
	{name: "lt-any", sql: `SELECT PNUM FROM PARTS
		WHERE QOH < ANY (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`, strat: engine.TransformJA2},
	{name: "gt-all", sql: `SELECT PNUM FROM PARTS
		WHERE QOH > ALL (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`, strat: engine.TransformJA2, diverges: true},
	{name: "division-ja2", sql: `SELECT SNAME FROM S
		WHERE STATUS < (SELECT MAX(QTY) FROM SP
			WHERE PNO IN (SELECT PNO FROM P WHERE P.CITY = S.CITY))`, strat: engine.TransformJA2},
	{name: "division-ni", sql: `SELECT SNAME FROM S
		WHERE STATUS < (SELECT MAX(QTY) FROM SP
			WHERE PNO IN (SELECT PNO FROM P WHERE P.CITY = S.CITY))`, strat: engine.NestedIteration},
	{name: "in-simple", sql: `SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE QTY > 200)`,
		strat: engine.TransformJA2},
	{name: "empty", sql: `SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY
		WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN > 100000)`, strat: engine.TransformJA2},
}

func loadPaperFixtures(e *env, db *engine.DB) error {
	w := &workload.DB{Cat: db.Catalog(), Store: db.Store()}
	if err := workload.LoadKiessling(w); err != nil {
		return err
	}
	return workload.LoadSuppliers(w)
}

func preparePointMix(e *env) (*plan, error) {
	p := &plan{ops: append([]op(nil), pointMix...), warm: 200 * e.size.warmCycles}
	for i := range p.ops {
		p.ops[i].ordered = true
		p.cycle = append(p.cycle, i)
	}
	if err := attachOracle(e, p, loadPaperFixtures, nil); err != nil {
		return nil, err
	}
	if e.teeth {
		// Expected results stay NEST-JA2's; the timed op runs Kim's
		// NEST-JA, which loses the COUNT = 0 part.
		p.ops[0].strat = engine.TransformKim
	}
	return p, nil
}

// ---- ja_seq / ja_par / spill_join: the paper's section 7 regime ----

func jaConfig(e *env) workload.SyntheticConfig {
	return workload.SyntheticConfig{
		Name:        "ja",
		OuterTuples: e.size.outer, InnerTuples: e.size.inner,
		OuterPerPage: 10, InnerPerPage: 10,
		JoinDomain: e.size.domain, Selectivity: 0.5, MatchFraction: 0.5,
		Seed: e.seed,
	}
}

// spillConfig is jaConfig at half the tuples (300 pages, still nine
// times the pool): forced spilling makes every op several times dearer,
// and at full size a run would time too few ops for op_p95_ms to keep
// ten samples beyond it.
func spillConfig(e *env) workload.SyntheticConfig {
	cfg := jaConfig(e)
	cfg.OuterTuples, cfg.InnerTuples, cfg.JoinDomain = cfg.OuterTuples/2, cfg.InnerTuples/2, cfg.JoinDomain/2
	return cfg
}

func loadSynthetic(cfg func(*env) workload.SyntheticConfig) func(*env, *engine.DB) error {
	return func(e *env, db *engine.DB) error {
		return workload.LoadSynthetic(&workload.DB{Cat: db.Catalog(), Store: db.Store()}, cfg(e))
	}
}

var loadJA, loadSpill = loadSynthetic(jaConfig), loadSynthetic(spillConfig)

type shape struct {
	name  string
	query func(workload.SyntheticConfig) string
}

// jaShapes are the four nesting shapes, in the order type-N, type-J,
// type-JA (COUNT: needs the outer join), type-JA (MAX).
var jaShapes = []shape{
	{"type-n", workload.TypeNQuery},
	{"type-j", workload.TypeJQuery},
	{"type-ja-count", workload.TypeJAQuery},
	{"type-ja-max", workload.TypeJAMaxQuery},
}

func seqOptions(o *op) engine.Options { return engine.Options{Strategy: o.strat} }

func parOptions(o *op) engine.Options {
	return engine.Options{Strategy: o.strat,
		Planner: planner.Options{Parallelism: parallelWorkers, ForceParallel: true}}
}

// mergeOptions forces merge joins for temp creation and the final
// query; spillOptions additionally refuses every buffer reservation.
// Spilled operators promise output byte-identical to their in-memory
// selves, so spill_join's reference results come from mergeOptions.
func mergeOptions(o *op) engine.Options {
	return engine.Options{Strategy: o.strat,
		Planner: planner.Options{TempJoin: planner.JoinMerge, FinalJoin: planner.JoinMerge}}
}

func spillOptions(o *op) engine.Options {
	opts := mergeOptions(o)
	opts.Spill = qctx.SpillForced
	return opts
}

func prepareJA(e *env, config func(*env) workload.SyntheticConfig, shapes []shape, ref func(*op) engine.Options, ordered bool) (*plan, error) {
	cfg := config(e)
	p := &plan{warm: 2 * e.size.warmCycles}
	for i, s := range shapes {
		p.ops = append(p.ops, op{name: s.name, sql: s.query(cfg), strat: engine.TransformJA2, ordered: ordered})
		p.cycle = append(p.cycle, i)
	}
	// The COUNT shape — the paper's flagship, the one that needs the
	// outer join — runs twice per cycle. Besides weighting the mix
	// toward it, this puts the median latency inside one shape's
	// cluster instead of on the boundary between two.
	for i := range p.ops {
		if p.ops[i].name == "type-ja-count" {
			p.cycle = append(p.cycle, i)
		}
	}
	p.info = append(p.info, fmt.Sprintf("RI %d / RJ %d tuples at 10 per page = %d pages against B=%d",
		cfg.OuterTuples, cfg.InnerTuples, (cfg.OuterTuples+cfg.InnerTuples)/10, bufferPages))
	return p, attachOracle(e, p, loadSynthetic(config), ref)
}

// ---- serve_read / serve_write ----

// wideConfig sizes serve_read's extra relations so that the type-N
// query streams wideOuter/2 rows while the join behind them stays
// cheap: RI's join column alternates between two values and RJ is two
// rows, both passing the inner filter, so every one of the wideOuter/2
// selected RI rows meets one RJ row on average — the op's cost is moving
// rows, not finding them.
func wideConfig(e *env) workload.SyntheticConfig {
	return workload.SyntheticConfig{
		Name:        "wide",
		OuterTuples: e.size.wideOuter, InnerTuples: 2,
		OuterPerPage: 32, InnerPerPage: 32,
		JoinDomain: 2, Selectivity: 0.5, MatchFraction: 0.5,
		Seed: e.seed,
	}
}

func loadServeRead(e *env, db *engine.DB) error {
	if err := loadPaperFixtures(e, db); err != nil {
		return err
	}
	return workload.LoadSynthetic(&workload.DB{Cat: db.Catalog(), Store: db.Store()}, wideConfig(e))
}

func prepareServeRead(e *env) (*plan, error) {
	p := &plan{ops: append([]op(nil), pointMix...), warm: 100 * e.size.warmCycles}
	p.ops = append(p.ops, op{name: "wide-type-n", sql: workload.TypeNQuery(wideConfig(e)),
		strat: engine.TransformJA2, class: "wide"})
	for i := range p.ops {
		p.ops[i].ordered = true
		p.cycle = append(p.cycle, i)
	}
	return p, attachOracle(e, p, loadServeRead, nil)
}

// writeTable is the table serve_write inserts into.
const writeTable = "W"

func prepareServeWrite(e *env) (*plan, error) {
	p := &plan{warm: 400 * e.size.warmCycles}
	p.ops = []op{
		pointMix[0], // countbug-ja2: readers contend with the commit lock
		{name: "insert-1", class: "insert", insertRows: 1},
		{name: "insert-32", class: "insert", insertRows: 32},
	}
	p.ops[0].ordered = true
	// 80% single-row INSERT, 10% 32-row INSERT, 10% reads.
	p.cycle = []int{0, 2, 1, 1, 1, 1, 1, 1, 1, 1}
	p.info = append(p.info, "durability on, Fsync: false (sandbox disks make fsync latency noise)")
	return p, attachOracle(e, p, loadPaperFixtures, nil)
}

// ---- cluster_mix ----

// clusterScript generates the sharded database: suppliers (one with a
// NULL key, every eighth with no shipments — the COUNT=0 groups), their
// shipments twice (SP is placed on SNO, SPX holds the same rows placed
// on PNO, which forces the shuffle round), and the table the routed
// INSERTs land in.
func clusterScript(e *env) (script string, rows, shipments int) {
	rng := rand.New(rand.NewSource(e.seed))
	cities := []string{"PARIS", "LONDON", "ROME", "ATHENS", "OSLO", "CAIRO"}
	var b strings.Builder
	b.WriteString("CREATE TABLE S (SNO INTEGER, SNAME TEXT, CITY TEXT, PRIMARY KEY (SNO));\n")
	b.WriteString("CREATE TABLE SP (SNO INTEGER, PNO INTEGER, QTY INTEGER);\n")
	b.WriteString("CREATE TABLE SPX (SNO INTEGER, PNO INTEGER, QTY INTEGER);\n")
	b.WriteString("CREATE TABLE " + ackTable + " (K INTEGER, V INTEGER, PRIMARY KEY (K));\n")
	b.WriteString("INSERT INTO S VALUES\n")
	for i := 1; i <= e.size.suppliers; i++ {
		fmt.Fprintf(&b, "  (%d, 'SUP%03d', '%s'),\n", i, i, cities[rng.Intn(len(cities))])
	}
	b.WriteString("  (NULL, 'GHOST', 'LIMBO');\n")
	rows = e.size.suppliers + 1
	var ships strings.Builder
	for i := 1; i <= e.size.suppliers; i++ {
		if i%8 == 0 {
			continue
		}
		// The count per supplier is fixed and only the values are seeded,
		// so every seed loads the same number of rows and the per-op
		// counts of two seeds are comparable.
		for n := i % 10; n >= 0; n-- {
			fmt.Fprintf(&ships, "  (%d, %d, %d),\n", i, 10*(1+rng.Intn(9)), 5+rng.Intn(500))
			shipments++
		}
	}
	ships.WriteString("  (NULL, 10, 999), (NULL, 20, 888);\n")
	shipments += 2
	rows += 2 * shipments
	b.WriteString("INSERT INTO SP VALUES\n" + ships.String())
	b.WriteString("INSERT INTO SPX VALUES\n" + ships.String())
	return b.String(), rows, shipments
}

// ackTable is the table cluster_mix's routed INSERTs land in; keeping
// it apart from S/SP/SPX keeps every read op's expected result fixed.
const ackTable = "ACKED"

// clusterMix is the distributable slice of the paper workload over SP
// (co-located on the correlation key), copied from
// cmd/benchpaper/servecluster.go, plus its COUNT and SUM queries over
// SPX, whose placement on PNO forces the shuffle round.
var clusterMix = []op{
	{name: "count-zero", class: "colocated", strat: engine.TransformJA2, sql: `SELECT S.SNO, S.SNAME FROM S
		WHERE 0 = (SELECT COUNT(SP.PNO) FROM SP WHERE SP.SNO = S.SNO)`},
	{name: "sum-ja2", class: "colocated", strat: engine.TransformJA2, sql: `SELECT S.SNAME FROM S
		WHERE 900 <= (SELECT SUM(SP.QTY) FROM SP WHERE SP.SNO = S.SNO)`},
	{name: "in", class: "colocated", strat: engine.TransformJA2,
		sql: `SELECT S.SNAME FROM S WHERE S.SNO IN (SELECT SP.SNO FROM SP WHERE SP.QTY > 490)`},
	{name: "not-exists", class: "colocated", strat: engine.TransformJA2, sql: `SELECT S.SNAME FROM S
		WHERE NOT EXISTS (SELECT SP.PNO FROM SP WHERE SP.SNO = S.SNO)`},
	{name: "gt-all", class: "colocated", strat: engine.TransformJA2, diverges: true, sql: `SELECT S.SNAME FROM S
		WHERE S.SNO > ALL (SELECT SP.PNO FROM SP WHERE SP.SNO = S.SNO)`},
	{name: "count-ni", class: "colocated", strat: engine.NestedIteration, sql: `SELECT S.SNO, S.SNAME FROM S
		WHERE 0 = (SELECT COUNT(SP.PNO) FROM SP WHERE SP.SNO = S.SNO)`},
	{name: "count-zero-shuffle", class: "shuffle", strat: engine.TransformJA2, sql: `SELECT S.SNO, S.SNAME FROM S
		WHERE 0 = (SELECT COUNT(SPX.PNO) FROM SPX WHERE SPX.SNO = S.SNO)`},
	{name: "sum-shuffle", class: "shuffle", strat: engine.TransformJA2, sql: `SELECT S.SNAME FROM S
		WHERE 900 <= (SELECT SUM(SPX.QTY) FROM SPX WHERE SPX.SNO = S.SNO)`},
	{name: "insert-1", class: "insert", insertRows: 1},
}

func prepareCluster(e *env) (*plan, error) {
	p := &plan{ops: append([]op(nil), clusterMix...), warm: 2 * e.size.warmCycles}
	for i := range p.ops {
		p.cycle = append(p.cycle, i)
	}
	script, rows, _ := clusterScript(e)
	p.info = append(p.info, fmt.Sprintf("%d rows loaded through the coordinator", rows))
	load := func(_ *env, db *engine.DB) error {
		_, err := db.Exec(script, engine.Options{})
		return err
	}
	return p, attachOracle(e, p, load, nil)
}
