package metamorph

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/planner"
	"repro/internal/qctx"
	"repro/internal/server"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/wire"
)

// The execution regimes a pair is checked under. Each regime runs every
// query of the pair; the oracle relation must hold within each regime,
// and each query must agree with itself across regimes.
const (
	RegimeSeq   = "seq"   // the strategy under test, sequential
	RegimePar   = "par"   // the same strategy through the parallel executor
	RegimeNI    = "ni"    // nested iteration, the semantic ground truth
	RegimeNet   = "net"   // the strategy under test through a live server
	RegimeTight = "tight" // the same strategy with every buffer forced to spill runs
)

// RunnerConfig configures a Runner.
type RunnerConfig struct {
	// UnderTest is the strategy being fuzzed. The zero value means
	// TransformJA2 (nested iteration is always exercised separately as
	// the round-trip baseline); set TransformKim to point the fuzzer at
	// the known-buggy NEST-JA — the mutant the short gate proves it can
	// catch.
	UnderTest engine.Strategy
	// Parallel additionally runs every query through the morsel-driven
	// parallel executor (2 workers, cost gate bypassed).
	Parallel bool
	// Network additionally runs every query over the wire protocol
	// against a live server sharing the runner's database.
	Network bool
	// Faults, when non-nil, arms the engine with a fresh injector of the
	// plan for the duration of each scenario and routes the network
	// regime through a fault.Proxy rolling the same plan. Queries lost to
	// injected faults are skipped, not failed.
	Faults *fault.Plan
	// TightMemory additionally runs every query under forced spilling
	// (with sort-merge joins forced so every plan has buffering
	// operators): all spillable state goes through checksummed run
	// files, and results must still agree with the sequential regime.
	// Requires SpillDir.
	TightMemory bool
	// SpillDir roots the tight-memory regime's spill run files.
	SpillDir string
	// BufferPages sizes the engine's buffer pool (0 = 64).
	BufferPages int
	// Shrink minimizes failing scenarios before reporting them.
	Shrink bool
	// CorpusDir, when non-empty, receives one replayable .sql repro file
	// per violation.
	CorpusDir string
}

func (c RunnerConfig) underTest() engine.Strategy {
	if c.UnderTest == engine.NestedIteration {
		return engine.TransformJA2
	}
	return c.UnderTest
}

// Stats accumulates over a runner's lifetime.
type Stats struct {
	Scenarios  int
	Pairs      int
	Queries    int // engine executions across all regimes
	Violations int
	// Relations counts checked pairs by relation name.
	Relations map[string]int
	// SkippedAll counts round-trip checks the engine's rule rules out
	// (ALL-quantifier queries: their transform deliberately diverges from
	// NI on empty inner results).
	SkippedAll int
	// Relaxed counts relation checks downgraded to set comparisons
	// because the pair's queries took different execution shapes (one
	// fell back to nested iteration, the other transformed — their
	// duplicate multiplicities are not comparable).
	Relaxed int
	// FaultSkips counts query executions lost to injected storage or
	// network faults.
	FaultSkips int
	// SpillRuns counts spill run files written by the tight-memory
	// regime — the "no silent no-spill pass" teeth check.
	SpillRuns int64
	Elapsed   time.Duration
}

// Violation is one relation or cross-regime check that failed.
type Violation struct {
	Scenario *Scenario
	Pair     Pair
	// Check is "relation", "roundtrip" (strategy under test vs nested
	// iteration, as sets), or "parity" (sequential vs parallel, as bags).
	Check string
	// Regime is the regime a relation check failed in.
	Regime string
	// QueryIndex is the pair query a roundtrip/parity check failed on.
	QueryIndex int
	Detail     string
	// ReproSQL is the replayable repro script (shrunk when shrinking is
	// enabled and the failure reproduces in-process).
	ReproSQL string
	// ReproPath is where the repro was written, when CorpusDir is set.
	ReproPath string
}

func (v *Violation) String() string {
	loc := v.Regime
	if v.Check != "relation" {
		loc = fmt.Sprintf("query %d", v.QueryIndex)
	}
	return fmt.Sprintf("metamorph: %s check failed (%s, %s, %s): %s",
		v.Check, v.Pair.Class, v.Pair.Relation, loc, v.Detail)
}

// Runner owns the engine, server, proxy, and client a fuzzing session
// runs against. Not safe for concurrent use.
type Runner struct {
	cfg   RunnerConfig
	db    *engine.DB
	srv   *server.Server
	proxy *fault.Proxy
	conn  *client.Conn
	stats Stats
	start time.Time
}

// NewRunner builds a runner and, for the network regime, starts its
// server (and fault proxy) on a loopback listener.
func NewRunner(cfg RunnerConfig) (*Runner, error) {
	pages := cfg.BufferPages
	if pages == 0 {
		pages = 64
	}
	r := &Runner{cfg: cfg, db: engine.New(pages), start: time.Now()}
	r.stats.Relations = make(map[string]int)
	if cfg.TightMemory {
		if cfg.SpillDir == "" {
			return nil, errors.New("metamorph: TightMemory requires SpillDir")
		}
		if err := r.db.EnableSpill(cfg.SpillDir, 0); err != nil {
			return nil, err
		}
	}
	if !cfg.Network {
		return r, nil
	}
	r.srv = server.New(r.db, server.Config{
		Strategy:     cfg.underTest(),
		BatchRows:    16,
		WriteTimeout: 5 * time.Second,
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go r.srv.Serve(lis)
	addr := lis.Addr().String()
	if cfg.Faults != nil {
		r.proxy, err = fault.NewProxy(addr, fault.New(*cfg.Faults))
		if err != nil {
			r.Close()
			return nil, err
		}
		addr = r.proxy.Addr()
	}
	r.conn, err = client.DialOpts(addr, client.DialOptions{
		Timeout:   5 * time.Second,
		IOTimeout: 5 * time.Second,
		Reconnect: &client.ReconnectConfig{
			MaxAttempts: 8,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			Seed:        1,
		},
	})
	if err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// Close tears the runner's network stack down.
func (r *Runner) Close() error {
	if r.conn != nil {
		r.conn.Close()
	}
	if r.proxy != nil {
		r.proxy.Close()
	}
	if r.srv != nil {
		r.srv.Shutdown(2 * time.Second)
	}
	return nil
}

// Stats returns the accumulated counters.
func (r *Runner) Stats() Stats {
	s := r.stats
	s.Elapsed = time.Since(r.start)
	return s
}

// faultTolerable reports whether a query error is an accepted outcome of
// the configured fault injection rather than a bug.
func (r *Runner) faultTolerable(err error) bool {
	var re *wire.RemoteError
	return r.cfg.Faults != nil &&
		(errors.Is(err, fault.ErrInjected) || errors.As(err, &re) || client.LinkFailure(err))
}

// run is one engine execution: rows, whether the query fell back to
// nested iteration, and whether the execution was lost to an injected
// fault (skip == true).
type runResult struct {
	rows     []storage.Tuple
	fellBack bool
	skip     bool
}

func (r *Runner) runQuery(sql, regime string) (runResult, error) {
	r.stats.Queries++
	var out runResult
	var err error
	if regime == RegimeNet {
		var res *client.Result
		if res, err = r.conn.Collect(sql, client.Options{Timeout: 10 * time.Second}); err == nil {
			out.rows = res.Rows
		}
	} else {
		var res *engine.Result
		if res, err = r.db.Query(sql, regimeOptions(regime, r.cfg.underTest())); err == nil {
			out = runResult{rows: res.Rows, fellBack: res.FellBack}
			if regime == RegimeTight {
				r.stats.SpillRuns += res.Spill.Runs
			}
		}
	}
	switch {
	case err == nil:
		return out, nil
	case r.faultTolerable(err):
		r.stats.FaultSkips++
		return runResult{skip: true}, nil
	default:
		return runResult{}, fmt.Errorf("%s query failed: %w\n  query: %s", regime, err, sql)
	}
}

// regimeOptions are the engine options of an in-process regime.
func regimeOptions(regime string, underTest engine.Strategy) engine.Options {
	opts := engine.Options{Strategy: underTest}
	switch regime {
	case RegimeNI:
		opts.Strategy = engine.NestedIteration
	case RegimePar:
		opts.Planner = planner.Options{Parallelism: 2, ForceParallel: true}
	case RegimeTight:
		// Refuse every memory reservation and force sort-merge joins,
		// so every plan with a join or aggregate pushes its buffers
		// through checksummed spill runs.
		opts.Spill = qctx.SpillForced
		opts.Planner = planner.Options{TempJoin: planner.JoinMerge, FinalJoin: planner.JoinMerge}
	}
	return opts
}

func (r *Runner) regimes() []string {
	regs := []string{RegimeSeq, RegimeNI}
	if r.cfg.Parallel {
		regs = append(regs, RegimePar)
	}
	if r.cfg.Network {
		regs = append(regs, RegimeNet)
	}
	if r.cfg.TightMemory {
		regs = append(regs, RegimeTight)
	}
	return regs
}

// RunScenario loads the scenario's tables, checks every pair under every
// configured regime, drops the tables again, and returns the violations
// (shrunk and written to the corpus directory as configured). A non-nil
// error means the harness itself failed — a query errored for a reason
// other than an injected fault.
func (r *Runner) RunScenario(s *Scenario) ([]Violation, error) {
	r.stats.Scenarios++
	if err := load(r.db, s); err != nil {
		return nil, err
	}
	defer r.unload(s)
	if r.cfg.Faults != nil {
		r.db.SetFaults(fault.New(*r.cfg.Faults))
		defer r.db.SetFaults(nil)
	}

	var out []Violation
	for _, p := range s.Pairs {
		r.stats.Pairs++
		r.stats.Relations[p.Relation.String()]++
		viols, err := r.checkPair(s, p)
		if err != nil {
			return out, err
		}
		for i := range viols {
			r.finish(s, &viols[i])
		}
		out = append(out, viols...)
	}
	r.stats.Violations += len(out)
	return out, nil
}

// load creates and fills the scenario's tables in db.
func load(db *engine.DB, s *Scenario) error {
	for _, t := range s.Tables {
		if err := db.CreateRelation(t.relation(), 0); err != nil {
			return err
		}
		if len(t.Rows) > 0 {
			if err := db.Insert(t.Name, t.Rows...); err != nil {
				return err
			}
		}
		if err := db.Seal(t.Name); err != nil {
			return err
		}
	}
	return nil
}

func (r *Runner) unload(s *Scenario) {
	for _, t := range s.Tables {
		r.db.Catalog().Drop(t.Name)
		r.db.Store().Drop(t.Name)
	}
}

// checkPair runs every query of the pair in every regime and judges the
// results.
func (r *Runner) checkPair(s *Scenario, p Pair) ([]Violation, error) {
	// results[regime][query index]
	results := make(map[string][]runResult)
	for _, reg := range r.regimes() {
		for _, q := range p.Queries {
			res, err := r.runQuery(q.SQL, reg)
			if err != nil {
				return nil, err
			}
			results[reg] = append(results[reg], res)
		}
	}
	return r.judge(s, p, results), nil
}

// judge applies the cross-regime agreement checks and the pair's oracle
// relation to results[regime][query index].
func (r *Runner) judge(s *Scenario, p Pair, results map[string][]runResult) []Violation {
	var out []Violation
	// Cross-regime agreement per query, by the engine's one rule: against
	// nested iteration as roundtrip says, against its own parallel,
	// networked and forced-spill executions as engine.AcrossRegimes.
	regimeChecks := []struct{ regime, check, what string }{
		{RegimePar, "parity", "parallel vs sequential"},
		{RegimeNet, "netparity", "networked vs in-process"},
		{RegimeTight, "tightparity", "forced-spill vs in-memory"},
	}
	for qi, q := range p.Queries {
		seq := results[RegimeSeq][qi]
		if seq.skip {
			continue
		}
		if ni := results[RegimeNI][qi]; !ni.skip {
			how := roundtrip(q.SQL)
			if how == storage.AgreeNone {
				r.stats.SkippedAll++
			} else if d := storage.Diff(how, seq.rows, ni.rows); d != "" {
				out = append(out, Violation{
					Scenario: s, Pair: p, Check: "roundtrip", QueryIndex: qi,
					Detail: fmt.Sprintf("%v vs nested iteration are not %v: %s\n  query: %s",
						r.cfg.underTest(), how, d, q.SQL),
				})
			}
		}
		for _, c := range regimeChecks {
			other, ok := results[c.regime]
			if !ok || other[qi].skip {
				continue
			}
			if d := storage.Diff(engine.AcrossRegimes, other[qi].rows, seq.rows); d != "" {
				out = append(out, Violation{
					Scenario: s, Pair: p, Check: c.check, QueryIndex: qi,
					Detail: fmt.Sprintf("%s are not %v: %s\n  query: %s", c.what, engine.AcrossRegimes, d, q.SQL),
				})
			}
		}
	}

	// The oracle relation, within each regime.
	for _, reg := range r.regimes() {
		rs, fell := results[reg], results[reg]
		if reg == RegimeNet {
			// The server runs the same strategy on the same data, so the
			// sequential regime's fallback flags stand for its own.
			fell = results[RegimeSeq]
		}
		if slices.ContainsFunc(rs, func(rr runResult) bool { return rr.skip }) {
			continue
		}
		d, relaxed := p.checkRuns(rs, fell)
		if relaxed {
			r.stats.Relaxed++
		}
		if d != "" {
			out = append(out, Violation{
				Scenario: s, Pair: p, Check: "relation", Regime: reg,
				Detail: d + "\n  queries:\n    " + joinSQL(p.Queries),
			})
		}
	}
	return out
}

// checkRuns checks the pair's relation over one regime's results. When
// one query transformed and another fell back (fell[i].fellBack), duplicate
// multiplicities across the pair are not comparable and the bag relations
// degrade to their set forms; relaxed reports that.
func (p *Pair) checkRuns(rs, fell []runResult) (detail string, relaxed bool) {
	rows := make([][]storage.Tuple, len(rs))
	for qi := range rs {
		rows[qi] = rs[qi].rows
		relaxed = relaxed || fell[qi].fellBack != fell[0].fellBack
	}
	if relaxed {
		return p.CheckRelaxed(rows...), true
	}
	return p.Check(rows...), false
}

// roundtrip is how a query's result under the strategy under test must
// compare with nested iteration's. The runner enforces NEST-JA2's
// contract whatever UnderTest runs: Kim's NEST-JA here is a mutant of
// NEST-JA2, judged by the original's rule — which is how the short gate
// proves the oracle has teeth.
func roundtrip(sql string) storage.Agreement {
	qb, err := sqlparser.Parse(sql)
	if err != nil {
		return storage.AgreeNone
	}
	return engine.AgreementWithNI(qb, engine.TransformJA2)
}

func joinSQL(qs []Query) string {
	out := ""
	for i, q := range qs {
		if i > 0 {
			out += "\n    "
		}
		out += q.SQL + ";"
	}
	return out
}

// finish shrinks a violation (when configured and reproducible
// in-process) and writes its repro file.
func (r *Runner) finish(s *Scenario, v *Violation) {
	minimal := s
	if r.cfg.Shrink {
		minimal = ShrinkViolation(s, v, r.cfg.underTest())
	}
	v.ReproSQL = ReproScript(minimal, v)
	if r.cfg.CorpusDir != "" {
		if path, err := WriteRepro(r.cfg.CorpusDir, minimal, v); err == nil {
			v.ReproPath = path
		}
	}
}
