package metamorph

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/planner"
	"repro/internal/qctx"
	"repro/internal/server"
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
	// SkippedAll counts round-trip checks skipped for ALL-quantifier
	// queries (their transform deliberately diverges from NI on empty
	// inner results).
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
	switch regime {
	case RegimeNet:
		res, err := r.conn.Collect(sql, client.Options{Timeout: 10 * time.Second})
		if err != nil {
			if r.faultTolerable(err) {
				r.stats.FaultSkips++
				return runResult{skip: true}, nil
			}
			return runResult{}, fmt.Errorf("network query failed: %w\n  query: %s", err, sql)
		}
		return runResult{rows: res.Rows}, nil
	case RegimeSeq, RegimePar, RegimeNI, RegimeTight:
		opts := engine.Options{Strategy: r.cfg.underTest()}
		if regime == RegimeNI {
			opts.Strategy = engine.NestedIteration
		}
		if regime == RegimePar {
			opts.Planner = planner.Options{Parallelism: 2, ForceParallel: true}
		}
		if regime == RegimeTight {
			// Refuse every memory reservation and force sort-merge joins,
			// so every plan with a join or aggregate pushes its buffers
			// through checksummed spill runs.
			opts.Spill = qctx.SpillForced
			opts.Planner = planner.Options{TempJoin: planner.JoinMerge, FinalJoin: planner.JoinMerge}
		}
		res, err := r.db.Query(sql, opts)
		if err != nil {
			if r.faultTolerable(err) {
				r.stats.FaultSkips++
				return runResult{skip: true}, nil
			}
			return runResult{}, fmt.Errorf("%s query failed: %w\n  query: %s", regime, err, sql)
		}
		if regime == RegimeTight {
			r.stats.SpillRuns += res.Spill.Runs
		}
		return runResult{rows: res.Rows, fellBack: res.FellBack}, nil
	default:
		return runResult{}, fmt.Errorf("metamorph: unknown regime %q", regime)
	}
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
	if err := r.load(s); err != nil {
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

func (r *Runner) load(s *Scenario) error {
	for _, t := range s.Tables {
		if err := r.db.CreateRelation(t.relation(), 0); err != nil {
			return err
		}
		if len(t.Rows) > 0 {
			if err := r.db.Insert(t.Name, t.Rows...); err != nil {
				return err
			}
		}
		if err := r.db.Seal(t.Name); err != nil {
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

// checkPair runs every query of the pair in every regime, then applies
// the cross-regime agreement checks and the pair's oracle relation.
func (r *Runner) checkPair(s *Scenario, p Pair) ([]Violation, error) {
	regs := r.regimes()
	// results[regime][query index]
	results := make(map[string][]runResult)
	for _, reg := range regs {
		for qi, q := range p.Queries {
			res, err := r.runQuery(q.SQL, reg)
			if err != nil {
				return nil, err
			}
			_ = qi
			results[reg] = append(results[reg], res)
		}
	}

	var out []Violation
	// Cross-regime agreement per query: the strategy under test must be
	// set-equal to nested iteration (Kim's Lemma 1 — transformed queries
	// may carry join-multiplicity duplicates, so bags are not
	// comparable), and bag-equal to its own parallel and networked
	// executions.
	for qi, q := range p.Queries {
		seq := results[RegimeSeq][qi]
		if seq.skip {
			continue
		}
		if ni := results[RegimeNI][qi]; !ni.skip {
			if q.HasAll {
				r.stats.SkippedAll++
			} else if d := equalBags(setOf(seq.rows), setOf(ni.rows)); d != "" {
				out = append(out, Violation{
					Scenario: s, Pair: p, Check: "roundtrip", QueryIndex: qi,
					Detail: fmt.Sprintf("%v vs nested iteration disagree as sets: %s\n  query: %s",
						r.cfg.underTest(), d, q.SQL),
				})
			}
		}
		if par, ok := results[RegimePar]; ok && !par[qi].skip {
			if d := equalBags(bagOf(seq.rows), bagOf(par[qi].rows)); d != "" {
				out = append(out, Violation{
					Scenario: s, Pair: p, Check: "parity", QueryIndex: qi,
					Detail: fmt.Sprintf("sequential vs parallel disagree as bags: %s\n  query: %s", d, q.SQL),
				})
			}
		}
		if nrs, ok := results[RegimeNet]; ok && !nrs[qi].skip {
			if d := equalBags(bagOf(seq.rows), bagOf(nrs[qi].rows)); d != "" {
				out = append(out, Violation{
					Scenario: s, Pair: p, Check: "netparity", QueryIndex: qi,
					Detail: fmt.Sprintf("in-process vs networked disagree as bags: %s\n  query: %s", d, q.SQL),
				})
			}
		}
		if trs, ok := results[RegimeTight]; ok && !trs[qi].skip {
			if d := equalBags(bagOf(seq.rows), bagOf(trs[qi].rows)); d != "" {
				out = append(out, Violation{
					Scenario: s, Pair: p, Check: "tightparity", QueryIndex: qi,
					Detail: fmt.Sprintf("in-memory vs forced-spill disagree as bags: %s\n  query: %s", d, q.SQL),
				})
			}
		}
	}

	// The oracle relation, within each regime.
	for _, reg := range regs {
		rs := results[reg]
		rows := make([][]storage.Tuple, len(rs))
		skip, mixed := false, false
		for qi, rr := range rs {
			if rr.skip {
				skip = true
				break
			}
			rows[qi] = rr.rows
			// The network regime reuses the sequential regime's fallback
			// flags: the server runs the same strategy on the same data.
			fb := rr.fellBack
			if reg == RegimeNet {
				fb = results[RegimeSeq][qi].fellBack
			}
			first := rs[0].fellBack
			if reg == RegimeNet {
				first = results[RegimeSeq][0].fellBack
			}
			if fb != first {
				mixed = true
			}
		}
		if skip {
			continue
		}
		var d string
		if mixed {
			// One query transformed, another fell back: duplicate
			// multiplicities across the pair are not comparable, so the
			// bag relations degrade to their set forms.
			r.stats.Relaxed++
			d = p.CheckRelaxed(rows...)
		} else {
			d = p.Check(rows...)
		}
		if d != "" {
			out = append(out, Violation{
				Scenario: s, Pair: p, Check: "relation", Regime: reg,
				Detail: d + "\n  queries:\n    " + joinSQL(p.Queries),
			})
		}
	}
	return out, nil
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
