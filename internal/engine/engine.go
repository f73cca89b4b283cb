// Package engine is the façade over the whole system: catalog, paged
// storage, parser, resolver, classifier, transformer, planner, and the two
// executors. A query runs under one of three strategies:
//
//   - NestedIteration: the System R baseline the paper starts from, and
//     the engine's semantic ground truth.
//   - TransformJA2: the paper's contribution — the recursive nest_g
//     procedure with NEST-N-J and the corrected NEST-JA2, followed by
//     cost-based join planning. Queries outside the algorithms' scope fall
//     back to nested iteration (reported in the result).
//   - TransformKim: the same pipeline with Kim's original NEST-JA, kept to
//     reproduce the COUNT bug and the non-equality bug.
//
// Page I/O statistics are captured per query, so strategies are directly
// comparable on the paper's metric.
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/index"
	"repro/internal/planner"
	"repro/internal/qctx"
	"repro/internal/querygraph"
	"repro/internal/schema"
	"repro/internal/spill"
	"repro/internal/sqlparser"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/transform"
	"repro/internal/wal"
)

// Strategy selects how a query is evaluated.
type Strategy uint8

// The strategies.
const (
	NestedIteration Strategy = iota
	TransformJA2
	TransformKim
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case NestedIteration:
		return "nested-iteration"
	case TransformJA2:
		return "transform (NEST-JA2)"
	case TransformKim:
		return "transform (Kim NEST-JA)"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// DB is a database instance: a catalog plus a paged store with a B-page
// buffer pool, and optionally System R statistics for the planner. It is
// safe for concurrent queries: temp tables are namespaced per query, the
// catalog is internally locked, and — when EnableAdmission is called —
// every query passes the admission gateway first.
type DB struct {
	cat     *schema.Catalog
	store   *storage.Store
	stats   *stats.Stats
	indexes *index.Registry
	admit   *admission.Controller
	qcount  atomic.Int64 // temp-table namespace allocator

	spill          *spill.Manager // nil unless EnableSpill was called
	spillThreshold int64

	// dmlMu is the commit-order lock: DDL, DML and Checkpoint hold it
	// exclusively (see commit), queries hold it shared, so readers never
	// see a half-applied statement and WAL append order equals apply
	// order — with or without a log attached. The parallel oracle's
	// re-runs execute inside the query's own hold (see run).
	dmlMu sync.RWMutex
	// Durability (nil/zero unless EnableDurability was called).
	wal      *wal.Log
	recovery RecoveryInfo
}

// New creates an empty database with the given buffer pool size (the
// paper's B).
func New(bufferPages int) *DB {
	return &DB{
		cat:     schema.NewCatalog(),
		store:   storage.NewStore(bufferPages),
		indexes: index.NewRegistry(),
	}
}

// EnableAdmission installs an admission controller so every Query passes
// the concurrency gateway: bounded concurrent queries, a bounded FIFO
// queue whose wait counts against the query deadline, memory-pool
// leasing, transient-fault retries, and graceful Drain. Call it before
// serving concurrent traffic; it is not safe to swap controllers while
// queries run.
func (db *DB) EnableAdmission(cfg admission.Config) *admission.Controller {
	db.admit = admission.NewController(cfg)
	if db.spill != nil {
		db.admit.SetSpillBacked(true)
	}
	return db.admit
}

// EnableSpill installs a spill-run manager rooted at dir, turning memory
// pressure into graceful degradation: queries whose buffering operators
// cannot reserve budget write run files under dir instead of failing
// with qctx.ErrMemoryBudget. threshold, when positive, makes SpillAuto
// queries spill once their buffered bytes would cross it even while
// under budget (the -spill-threshold flag). With admission enabled, the
// memory pool also starts granting small pressure leases instead of
// queuing when nearly exhausted, since lessees can now degrade.
func (db *DB) EnableSpill(dir string, threshold int64) error {
	m, err := spill.NewManager(dir)
	if err != nil {
		return err
	}
	db.spill = m
	db.spillThreshold = threshold
	if db.admit != nil {
		db.admit.SetSpillBacked(true)
	}
	return nil
}

// SpillManager returns the installed spill manager, or nil.
func (db *DB) SpillManager() *spill.Manager { return db.spill }

// SpillStats snapshots cumulative spill activity (zero without spill).
func (db *DB) SpillStats() spill.Stats { return db.spill.Stats() }

// SetFaults arms every fault site of the engine — page reads and temp
// appends, spill runs, WAL appends — with one injector; nil disarms. Call
// it after EnableSpill and EnableDurability: a layer enabled later starts
// disarmed.
func (db *DB) SetFaults(in *fault.Injector) {
	db.store.SetFaults(in)
	db.spill.SetFaults(in)
	if db.wal != nil {
		db.wal.SetFaults(in)
	}
}

// Admission returns the installed controller, or nil.
func (db *DB) Admission() *admission.Controller { return db.admit }

// Drain gracefully shuts query traffic down: admission closes, in-flight
// queries get until the deadline to finish, stragglers are canceled
// through their lifecycle contexts. A no-op without EnableAdmission.
func (db *DB) Drain(timeout time.Duration) error {
	if db.admit == nil {
		return nil
	}
	return db.admit.Drain(timeout)
}

// Catalog exposes the catalog (for fixtures and tools).
func (db *DB) Catalog() *schema.Catalog { return db.cat }

// Store exposes the storage layer (for fixtures and I/O statistics).
func (db *DB) Store() *storage.Store { return db.store }

// Analyze collects System R-style statistics (page/tuple counts, distinct
// values per column) for every relation; subsequent transformed queries
// use them for selectivity-aware join choices. Run it after bulk loading
// and re-run after significant data changes. The collection scan's page
// reads are charged to the store like any other access.
func (db *DB) Analyze() error {
	st := stats.New()
	if err := st.Analyze(db.cat, db.store); err != nil {
		return err
	}
	db.stats = st
	return nil
}

// Statistics returns the collected statistics, or nil before Analyze.
func (db *DB) Statistics() *stats.Stats { return db.stats }

// CreateIndex builds a secondary index on table.column (charging the
// build scan). Inserting into the table afterwards drops its indexes —
// they are build-once snapshots, like the statistics.
func (db *DB) CreateIndex(table, column string) error {
	rel, ok := db.cat.Lookup(table)
	if !ok {
		return fmt.Errorf("engine: unknown relation %s", table)
	}
	colIdx := rel.ColumnIndex(column)
	if colIdx < 0 {
		return fmt.Errorf("engine: relation %s has no column %s", table, column)
	}
	f, ok := db.store.Lookup(rel.Name)
	if !ok {
		return fmt.Errorf("engine: relation %s has no storage", table)
	}
	return db.indexes.Add(index.Build(db.store, f, rel.Name, rel.Columns[colIdx].Name, colIdx))
}

// Indexes exposes the index registry (for tools).
func (db *DB) Indexes() *index.Registry { return db.indexes }

// commit is the one way the database changes: apply runs under the
// exclusive commit-order lock — never beside a query, a checkpoint or
// another statement — and must leave state untouched when it fails (an
// injected fault panic unwinds through the deferred unlock). With a WAL
// attached a poisoned log is refused before apply touches anything, the
// record apply returns is appended under the same hold (log order is
// apply order), and the call returns only once that record is durable;
// a nil record (nothing changed) logs nothing.
func (db *DB) commit(apply func() (*wal.Record, error)) error {
	var c wal.Commit
	err := func() error {
		db.dmlMu.Lock()
		defer db.dmlMu.Unlock()
		if db.wal != nil {
			if err := db.wal.Err(); err != nil {
				return err
			}
		}
		rec, err := apply()
		if err != nil || rec == nil || db.wal == nil {
			return err
		}
		c, err = db.wal.Append(*rec)
		return err
	}()
	if err != nil {
		return err
	}
	return c.Wait()
}

// CreateRelation defines a relation and its backing heap file.
// tuplesPerPage <= 0 uses the storage default. With durability enabled
// it is acknowledged only after the schema record is logged.
func (db *DB) CreateRelation(rel *schema.Relation, tuplesPerPage int) error {
	return db.commit(func() (*wal.Record, error) {
		if err := db.cat.Define(rel); err != nil {
			return nil, err
		}
		if _, err := db.store.Create(rel.Name, tuplesPerPage); err != nil {
			db.cat.Drop(rel.Name)
			return nil, err
		}
		return &wal.Record{Type: wal.RecCreateTable, Schema: tableSchema(rel, tuplesPerPage)}, nil
	})
}

// tableSchema is a relation as a RecCreateTable record carries it, in the
// log and in a database image alike.
func tableSchema(rel *schema.Relation, tuplesPerPage int) *wal.TableSchema {
	sch := &wal.TableSchema{Name: rel.Name, Key: rel.Key, TuplesPerPage: tuplesPerPage}
	for _, c := range rel.Columns {
		sch.Columns = append(sch.Columns, wal.TableColumn{Name: c.Name, Kind: uint8(c.Type)})
	}
	return sch
}

// DropRelation removes a relation: its schema, heap file, and any
// secondary indexes. With durability enabled the drop is acknowledged
// only after the record is logged — replaying a log that creates and
// later drops a table converges to the same catalog.
func (db *DB) DropRelation(name string) error {
	return db.commit(func() (*wal.Record, error) {
		rel, ok := db.cat.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("engine: unknown relation %s", name)
		}
		db.indexes.DropRelation(rel.Name)
		db.cat.Drop(rel.Name)
		db.store.Drop(rel.Name)
		return &wal.Record{Type: wal.RecDrop, Table: name}, nil
	})
}

// Insert appends rows to a relation. Call Seal (or run a query, which does
// not require sealing) when bulk loading is done; Insert seals lazily via
// the storage layer's accounting only when pages fill. With durability
// enabled the call returns only once the commit record is durable.
func (db *DB) Insert(relation string, rows ...storage.Tuple) error {
	return db.commit(func() (*wal.Record, error) {
		rel, ok := db.cat.Lookup(relation)
		if !ok {
			return nil, fmt.Errorf("engine: unknown relation %s", relation)
		}
		f, ok := db.store.Lookup(rel.Name)
		if !ok {
			return nil, fmt.Errorf("engine: relation %s has no storage", relation)
		}
		// Validate the whole batch before touching storage, and unwind a
		// fault panic mid-batch back to the pre-insert boundary: the batch
		// lands whole or not at all.
		for _, r := range rows {
			if len(r) != len(rel.Columns) {
				return nil, fmt.Errorf("engine: row %v does not match schema of %s", r, relation)
			}
		}
		if len(rows) == 0 {
			return nil, nil
		}
		before := f.NumTuples()
		defer func() {
			if r := recover(); r != nil {
				f.TruncateTo(before)
				panic(r)
			}
		}()
		for _, r := range rows {
			f.Append(r)
		}
		// Indexes are snapshots of the data at build time.
		db.indexes.DropRelation(rel.Name)
		return &wal.Record{Type: wal.RecInsert, Table: relation, Rows: rows}, nil
	})
}

// Seal finishes bulk loading a relation (accounts the final partial page).
func (db *DB) Seal(relation string) error {
	f, ok := db.store.Lookup(relation)
	if !ok {
		return fmt.Errorf("engine: unknown relation %s", relation)
	}
	f.Seal()
	return nil
}

// Options control query execution.
type Options struct {
	Strategy Strategy
	// Planner options (forced join methods, temp page sizes) for the
	// transform strategies.
	Planner planner.Options
	// NoFallback makes a non-transformable query an error instead of
	// falling back to nested iteration.
	NoFallback bool
	// VerifyParallel runs the differential oracle after a parallel
	// transformed query: the result must be bag-equal to the sequential
	// plan's and (for NEST-JA2, excluding ALL quantifiers) set-equal to
	// nested iteration's. Disagreement fails the query. It has no effect
	// unless Planner.Parallelism enables parallel plans.
	VerifyParallel bool

	// Lifecycle governance. A query exceeding Timeout fails with
	// qctx.ErrQueryTimeout; one producing more than MaxRows result rows
	// fails with qctx.ErrRowBudget; one buffering more than MaxBytes in
	// hash builds and sorts fails with qctx.ErrMemoryBudget (a cost-gated
	// parallel plan is retried sequentially once first — see Query). Zero
	// values mean ungoverned, and execution pays only nil checks.
	Timeout  time.Duration
	MaxRows  int64
	MaxBytes int64
	// Spill selects this query's spill policy. SpillDefault resolves to
	// SpillAuto when the DB has a spill manager (EnableSpill) and to
	// SpillOff otherwise; without a manager every policy degrades to
	// SpillOff — there is nowhere to write runs.
	Spill qctx.SpillPolicy
	// Cancel, when non-nil, cancels the query with qctx.ErrCanceled as
	// soon as the channel is closed (e.g. Ctrl-C in the REPL).
	Cancel <-chan struct{}

	// Sink, when non-nil, streams the result instead of materializing it:
	// see RowSink. The network server uses it so a slow client throttles
	// the executor rather than buffering the whole result. Incompatible
	// with VerifyParallel (the oracle needs materialized rows to compare).
	Sink *RowSink

	// ticket is the admission grant governing this query, when the
	// gateway is enabled. The oracle's re-runs carry none: they execute
	// inside an already-admitted query, and without a ticket the
	// transient retry stays out of their way.
	ticket *admission.Ticket
	// stream wraps Sink for one execution, tracking whether rows have
	// already escaped (which fences the engine's re-run retries).
	stream *streamState
}

// governed reports whether the query needs a lifecycle context: any
// explicit limit, or an admission ticket (drain cancels through it).
func (o Options) governed() bool {
	return o.Timeout > 0 || o.MaxRows > 0 || o.MaxBytes > 0 || o.Cancel != nil || o.ticket != nil
}

// degraded reports overload degradation: a reduced memory lease means
// pool pressure, and sequential plans buffer less than partitioned
// parallel hash builds, so a parallel request runs sequentially.
func (o Options) degraded() bool {
	return o.ticket != nil && o.ticket.Degraded() && parallelRequested(o)
}

// Result is a completed query.
type Result struct {
	Columns  []string
	Rows     []storage.Tuple
	Stats    storage.IOStats // page I/Os consumed by this query
	Spill    spill.Stats     // spill runs/bytes written by this query
	Strategy Strategy        // strategy requested
	FellBack bool            // true if transformation fell back to nested iteration
	Affected int64           // rows inserted/updated/deleted by Exec DML
	Profile  classify.QueryProfile
	Trace    []string // transformation steps and plan notes
}

// Query parses, resolves, and executes one SQL statement. With admission
// enabled it first passes the gateway: it may wait in the FIFO queue
// (the wait counts against Timeout), be shed with qctx.ErrOverloaded,
// be rejected with qctx.ErrQueryTimeout if its deadline expires before a
// slot frees, or run with a degraded (smaller) memory lease and a
// sequential plan under pool pressure.
func (db *DB) Query(sql string, opts Options) (*Result, error) {
	qb, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.queryBlock(qb, opts)
}

// queryBlock is Query from the parsed block on: every caller that
// already holds one (Exec, ExecSQL, Explain, the parallel oracle) enters
// here, so a statement is parsed once however it arrived.
func (db *DB) queryBlock(qb *ast.QueryBlock, opts Options) (*Result, error) {
	if db.admit != nil {
		ticket, err := db.admit.Admit(admission.Request{
			Timeout:  opts.Timeout,
			MemBytes: opts.MaxBytes,
			Cancel:   opts.Cancel,
		})
		if err != nil {
			return nil, err
		}
		defer ticket.Release()
		// Queue time already consumed part of the deadline; the qctx
		// timer below gets only what is left.
		if rem, ok := ticket.Remaining(); ok {
			opts.Timeout = rem
		}
		if lease := ticket.Lease(); lease > 0 {
			opts.MaxBytes = lease
		}
		opts.ticket = ticket
	}
	return db.run(qb, opts)
}

// run executes one already-admitted (or ungoverned) statement under the
// shared commit-order lock: a query never observes a DML statement
// half-applied, and a checkpoint never snapshots one. The parallel
// oracle's re-runs call execute directly under this same hold — they
// compare against the very state the query saw, and a recursive RLock
// could deadlock against a waiting writer.
func (db *DB) run(qb *ast.QueryBlock, opts Options) (*Result, error) {
	db.dmlMu.RLock()
	defer db.dmlMu.RUnlock()
	res, err := db.execute(qb, opts)
	if err != nil {
		return nil, err
	}
	if opts.VerifyParallel && parallelRequested(opts) && !opts.degraded() && !res.FellBack &&
		(opts.Strategy == TransformJA2 || opts.Strategy == TransformKim) {
		if err := db.verifyParallel(qb, opts, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// execute is one execution of a statement; the caller holds dmlMu shared.
func (db *DB) execute(qb *ast.QueryBlock, opts Options) (*Result, error) {
	if opts.Sink != nil {
		if opts.VerifyParallel {
			return nil, fmt.Errorf("engine: streaming sink is incompatible with VerifyParallel")
		}
		opts.stream = &streamState{sink: opts.Sink}
	}
	out, err := schema.Resolve(db.cat, qb)
	if err != nil {
		return nil, err
	}
	res := &Result{Strategy: opts.Strategy, Profile: classify.Profile(qb)}
	for _, c := range out {
		res.Columns = append(res.Columns, c.Name)
	}
	if opts.stream != nil {
		// The header goes out before execution so even an empty (or
		// failing) result stream has told the client its shape.
		if err := opts.stream.columns(res.Columns); err != nil {
			return nil, err
		}
	}

	// Resolve the spill policy: without a manager there is nowhere to
	// write runs, so every policy degrades to off.
	spillPolicy := opts.Spill
	if db.spill == nil {
		spillPolicy = qctx.SpillOff
	} else if spillPolicy == qctx.SpillDefault {
		spillPolicy = qctx.SpillAuto
	}
	spillThreshold := int64(0)
	if spillPolicy == qctx.SpillAuto {
		spillThreshold = db.spillThreshold
	}

	// Lifecycle context: nil (all no-ops) unless a limit is configured —
	// or spilling needs the context's reservation bookkeeping (a forced
	// policy, or an auto threshold without any hard budget).
	var qc *qctx.QueryContext
	if opts.governed() || spillPolicy == qctx.SpillForced || spillThreshold > 0 {
		qc = qctx.New(qctx.Limits{
			Timeout: opts.Timeout, MaxRows: opts.MaxRows, MaxBytes: opts.MaxBytes,
			Spill: spillPolicy, SpillThreshold: spillThreshold,
		})
		defer qc.Finish()
		// A drain cancels stragglers through the bound ticket.
		opts.ticket.Bind(qc)
		if opts.Cancel != nil {
			// An already-closed Cancel channel stops the query before it
			// starts — don't leave that to the watcher goroutine's schedule.
			select {
			case <-opts.Cancel:
				qc.Cancel(qctx.ErrCanceled)
				return nil, qc.Err()
			default:
			}
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				select {
				case <-opts.Cancel:
					qc.Cancel(qctx.ErrCanceled)
				case <-stop:
				case <-qc.Done():
				}
			}()
		}
	}

	if opts.degraded() {
		opts.Planner.Parallelism = 0
		opts.Planner.ForceParallel = false
		res.Trace = append(res.Trace,
			fmt.Sprintf("admission: degraded memory lease (%d bytes); running sequentially", opts.MaxBytes))
	}

	before := db.store.Stats()
	baseTrace := len(res.Trace)
	for attempt := 0; ; {
		res.Rows, res.FellBack = nil, false
		switch opts.Strategy {
		case NestedIteration:
			err = db.runNested(qb, qc, opts.stream, res)
		case TransformJA2, TransformKim:
			variant := transform.JA2
			if opts.Strategy == TransformKim {
				variant = transform.KimJA
			}
			err = db.runTransformed(qb, variant, opts, qc, res)
		default:
			err = fmt.Errorf("engine: unknown strategy %v", opts.Strategy)
		}
		// Transient-fault retry: only injected storage faults qualify
		// (qctx.Retryable), only under admission control, with capped
		// exponential backoff + jitter. The deadline keeps ticking
		// through the backoff sleep. A streaming query that has already
		// delivered rows is never re-run — the client would see them twice.
		if err == nil || opts.ticket == nil || !qctx.Retryable(err) ||
			opts.stream.hasEmitted() || opts.stream.sinkBroken() {
			break
		}
		delay, ok := db.admit.RetryDelay(attempt)
		if !ok {
			break
		}
		attempt++
		// Drop the failed attempt's transform/plan notes so Explain shows
		// one coherent execution, then record the retry itself.
		res.Trace = append(res.Trace[:baseTrace],
			fmt.Sprintf("transient fault (%v); retry %d after %v", err, attempt, delay))
		baseTrace = len(res.Trace)
		interrupted := false
		select {
		case <-time.After(delay):
		case <-qc.Done():
			interrupted = true
		}
		if interrupted || qc.Check() != nil {
			break
		}
		qc.ResetUsage()
	}
	if err != nil {
		return nil, err
	}
	res.Stats = db.store.Stats().Sub(before)
	if db.wal != nil {
		// Surface the durability counters in EXPLAIN, next to the spill
		// line; recovery counters ride along after a boot that replayed.
		res.Trace = append(res.Trace, "durability: "+db.wal.Stats().String())
		if db.recovery.Recovered() {
			res.Trace = append(res.Trace, "durability: "+db.recovery.String())
		}
	}
	return res, nil
}

// contain runs fn on the calling goroutine and converts a panic — a
// storage fault, a bug in value or exec code — into a *qctx.PanicError,
// so one query's failure never kills the process. Deferred cleanups
// below fn (planner temp drops, evaluator Close) run during the unwind
// before the recovery here.
func contain(fn func() error) (err error) {
	defer func() {
		if pe := qctx.Recovered(recover()); pe != nil {
			err = pe
		}
	}()
	return fn()
}

func (db *DB) runNested(qb *ast.QueryBlock, qc *qctx.QueryContext, stream *streamState, res *Result) error {
	ev := exec.NewEvaluator(db.cat, db.store)
	ev.QC = qc
	defer ev.Close()
	var rows []storage.Tuple
	err := contain(func() error {
		var err error
		rows, _, err = ev.EvalQuery(qb)
		return err
	})
	if err != nil {
		return err
	}
	if stream != nil {
		// Nested iteration computes its result before any row can leave;
		// the stream still sees uniform batches (no backpressure gain on
		// this path — transformed plans are the streaming fast path).
		if err := stream.emitSlice(rows); err != nil {
			return err
		}
	} else {
		res.Rows = rows
	}
	res.Trace = append(res.Trace, "evaluated by nested iteration")
	return nil
}

func (db *DB) runTransformed(qb *ast.QueryBlock, variant transform.Variant, opts Options, qc *qctx.QueryContext, res *Result) error {
	tr, err := transform.New(db.cat, variant).Transform(qb)
	if errors.Is(err, transform.ErrNotTransformable) && !opts.NoFallback {
		res.FellBack = true
		res.Trace = append(res.Trace, fmt.Sprintf("fallback to nested iteration: %v", err))
		return db.runNested(qb, qc, opts.stream, res)
	}
	if err != nil {
		return err
	}
	for _, s := range tr.Steps {
		res.Trace = append(res.Trace, s.Rule+": "+s.Detail)
	}
	popts := opts.Planner
	if popts.Stats == nil {
		popts.Stats = db.stats
	}
	if popts.Indexes == nil {
		popts.Indexes = db.indexes
	}
	popts.QC = qc
	if opts.stream != nil {
		popts.Sink = opts.stream.batch
		popts.SinkBatchRows = opts.Sink.BatchRows
	}
	var qid int64
	if popts.TempSuffix == "" {
		// Namespace this query's TEMPn materializations in the shared
		// store and catalog so concurrent queries cannot collide.
		qid = db.qcount.Add(1)
		popts.TempSuffix = fmt.Sprintf("#q%d", qid)
	}
	// Spill session: run files share the query's namespace id and are
	// always removed when this function returns — success, error, or
	// contained panic alike.
	var sess *spill.Session
	if db.spill != nil {
		if sp := qc.SpillPolicy(); sp == qctx.SpillAuto || sp == qctx.SpillForced {
			if qid == 0 {
				qid = db.qcount.Add(1)
			}
			sess = db.spill.NewSession(fmt.Sprintf("q%d", qid))
			defer sess.Close()
			popts.Spill = sess
		}
	}
	var rows []storage.Tuple
	runPlan := func(o planner.Options) error {
		pl := planner.New(db.cat, db.store, o)
		err := contain(func() error {
			var err error
			rows, _, err = pl.Run(tr)
			return err
		})
		res.Trace = append(res.Trace, pl.Notes()...)
		return err
	}
	err = runPlan(popts)
	// Both reruns below plan sequentially.
	seq := popts
	seq.Parallelism = 0
	seq.ForceParallel = false
	parallel := popts.Parallelism > 1 || popts.Parallelism < 0
	if err != nil && parallel && retrySequentially(err) &&
		!opts.stream.hasEmitted() && !opts.stream.sinkBroken() {
		// Graceful degradation: a parallel plan that lost a worker to a
		// fault, or blew the memory budget partitioning its build side,
		// is retried sequentially once. Budget counters reset; the
		// original deadline keeps ticking. Timeouts, explicit cancels,
		// and row-budget violations are not retried — a sequential run
		// would exceed the same limits.
		qc.ResetUsage()
		res.Trace = append(res.Trace, fmt.Sprintf("parallel plan failed (%v); retrying sequentially", err))
		err = runPlan(seq)
	}
	if errors.Is(err, qctx.ErrMemoryBudget) && sess != nil &&
		qc.SpillPolicy() == qctx.SpillAuto &&
		!opts.stream.hasEmitted() && !opts.stream.sinkBroken() {
		// The last degradation rung before failing: under SpillAuto an
		// operator whose buffer merely FITS the budget keeps it resident
		// and can starve a later charge that has no spill path (a temp
		// table's partial-page buffer models real memory). Rerun once,
		// sequentially, refusing every reservation — the resident set
		// collapses to the irreducible page buffers. Joins the caller left
		// to cost are sort-merged, the paper's section 7 plan: an inline
		// hash join spilled under SpillForced is hard-charged from level 1
		// on, so it would hold its whole build side and fail budgets that
		// smaller ones complete at. The rerun is deterministic: its rows
		// are the same plan's unbudgeted rows, in the same order.
		qc.ResetUsage()
		qc.ForceSpill()
		res.Trace = append(res.Trace, fmt.Sprintf("memory budget exceeded (%v); retrying with forced spill", err))
		if seq.TempJoin == planner.JoinAuto {
			seq.TempJoin = planner.JoinMerge
		}
		if seq.FinalJoin == planner.JoinAuto {
			seq.FinalJoin = planner.JoinMerge
		}
		err = runPlan(seq)
	}
	if sess != nil {
		res.Spill = sess.Stats()
		if res.Spill.Runs > 0 {
			res.Trace = append(res.Trace, fmt.Sprintf("spill: %d run(s), %d bytes", res.Spill.Runs, res.Spill.Bytes))
		}
	}
	if err != nil {
		return err
	}
	res.Rows = rows
	return nil
}

// retrySequentially reports whether a parallel-plan failure is worth one
// sequential retry: a contained panic (worker fault) or a memory-budget
// violation (sequential plans buffer less than a partitioned hash build).
func retrySequentially(err error) bool {
	if errors.Is(err, qctx.ErrQueryTimeout) || errors.Is(err, qctx.ErrCanceled) || errors.Is(err, qctx.ErrRowBudget) {
		return false
	}
	var pe *qctx.PanicError
	return errors.As(err, &pe) || errors.Is(err, qctx.ErrMemoryBudget)
}

// Explain returns a textual report of how the query would be (and was)
// processed under the given options: the classification profile, the
// transformation steps with their SQL, the plan decisions, and the final
// canonical query. It executes the query to obtain measured page I/Os.
func (db *DB) Explain(sql string, opts Options) (string, error) {
	qb, err := sqlparser.Parse(sql)
	if err != nil {
		return "", err
	}
	if _, err := schema.Resolve(db.cat, qb); err != nil {
		return "", err
	}
	res, err := db.queryBlock(qb, opts)
	if err != nil {
		return "", err
	}
	s := fmt.Sprintf("Query:\n%s\n\nStrategy: %v\n", qb.Pretty(), opts.Strategy)
	s += fmt.Sprintf("Nesting: %d block(s), depth %d", res.Profile.Blocks, res.Profile.MaxDepth)
	for _, ty := range res.Profile.Types {
		s += ", " + ty.String()
	}
	s += "\n"
	if res.Profile.MaxDepth > 0 {
		s += "\nQuery tree (Figure 2 style):\n" + querygraph.Build(qb).ASCII()
	}
	if res.FellBack {
		s += "Fell back to nested iteration.\n"
	}
	if len(res.Trace) > 0 {
		s += "\nSteps:\n"
		for _, t := range res.Trace {
			s += "  " + t + "\n"
		}
	}
	s += fmt.Sprintf("\nMeasured cost: %v\nRows: %d\n", res.Stats, len(res.Rows))
	return s, nil
}
