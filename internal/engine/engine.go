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
// A result's page I/O is what the store counted while the query ran: the
// store-wide delta over the query's lifetime, so it includes the pages of
// any query that overlapped it. Queries run one at a time are directly
// comparable on the paper's metric.
package engine

import (
	"errors"
	"fmt"
	"slices"
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
	"repro/internal/trace"
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
// safe for concurrent queries: a query's temp tables are its planner's
// own, the catalog is internally locked, and — when EnableAdmission is
// called — every query passes the admission gateway first.
type DB struct {
	cat     *schema.Catalog
	store   *storage.Store
	stats   atomic.Pointer[stats.Stats] // published whole by Analyze
	indexes *index.Registry
	admit   *admission.Controller
	qcount  atomic.Int64 // spill-session name allocator

	spill          *spill.Manager // nil unless EnableSpill was called
	spillThreshold int64

	// dmlMu is the commit-order lock: DDL, DML and Checkpoint hold it
	// exclusively (see commit), queries hold it shared, so readers never
	// see a half-applied statement and WAL append order equals apply
	// order — with or without a log attached.
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
// pressure into graceful degradation: queries whose sorts and merge-join
// groups cannot reserve budget write run files under dir, and queries
// whose hash operators outgrow it are rerun sort-merge, instead of
// failing with qctx.ErrMemoryBudget. threshold, when positive, makes
// SpillAuto sorts and merge-join groups spill once their buffered bytes
// would cross it even while under budget (the -spill-threshold flag).
// With admission enabled, the memory pool also starts granting small
// pressure leases instead of queuing when nearly exhausted, since
// lessees can now degrade.
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
// reads are charged to the store like any other access. It holds the
// commit-order lock shared, as a query does, so no DDL drops a relation
// under its scan.
func (db *DB) Analyze() error {
	db.dmlMu.RLock()
	defer db.dmlMu.RUnlock()
	st := stats.New()
	if err := st.Analyze(db.cat, db.store); err != nil {
		return err
	}
	db.stats.Store(st)
	return nil
}

// Statistics returns the collected statistics, or nil before Analyze.
func (db *DB) Statistics() *stats.Stats { return db.stats.Load() }

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
		f.Grow(len(rows))
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

	// Lifecycle governance. A query exceeding Timeout fails with
	// qctx.ErrQueryTimeout; one producing more than MaxRows result rows
	// fails with qctx.ErrRowBudget; one buffering more than MaxBytes in
	// hash builds and sorts fails with qctx.ErrMemoryBudget. The
	// degradation ladder's three reruns come first (see climb): a plan
	// with Parallelism's hash operators reruns without them, a query
	// still over budget under SpillAuto with EnableSpill reruns as the
	// forced-spill sort-merge plan, and a transient fault under admission
	// is retried. Zero values mean ungoverned: execution pays nil checks.
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
	// the executor rather than buffering the whole result.
	Sink *RowSink

	// ticket is the admission grant governing this query, when the
	// gateway is enabled.
	ticket *admission.Ticket
	// stream wraps Sink for one execution, tracking whether rows have
	// already gone out (which fences the ladder's reruns).
	stream *streamState
}

// governed reports whether the query needs a lifecycle context: any
// explicit limit, or an admission ticket (drain cancels through it).
func (o Options) governed() bool {
	return o.Timeout > 0 || o.MaxRows > 0 || o.MaxBytes > 0 || o.Cancel != nil || o.ticket != nil
}

// Result is a completed query.
type Result struct {
	Columns  []string
	Rows     []storage.Tuple
	Stats    storage.IOStats // store-wide page I/Os while the query ran, an overlapping query's included
	Spill    spill.Stats     // spill runs/bytes written by this query
	Strategy Strategy        // strategy requested
	FellBack bool            // true if transformation fell back to nested iteration
	Affected int64           // rows inserted/updated/deleted by Exec DML
	Trace    []trace.Event   // transformation steps and plan notes, rendered on read
}

// Query parses, resolves, and executes one SQL statement. With admission
// enabled it first passes the gateway: it may wait in the FIFO queue
// (the wait counts against Timeout), be shed with qctx.ErrOverloaded,
// be rejected with qctx.ErrQueryTimeout if its deadline expires before a
// slot frees, or run with a degraded (smaller) memory lease under pool
// pressure.
func (db *DB) Query(sql string, opts Options) (*Result, error) {
	qb, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.queryBlock(qb, opts)
}

// queryBlock is Query from the parsed block on: every caller that
// already holds one (Exec, ExecSQL, Explain) enters here, so a statement
// is parsed once however it arrived.
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
	// The shared commit-order lock: a query never observes a DML
	// statement half-applied, and a checkpoint never snapshots one.
	db.dmlMu.RLock()
	defer db.dmlMu.RUnlock()
	out, err := schema.Resolve(db.cat, qb)
	if err != nil {
		return nil, err
	}
	res := &Result{Strategy: opts.Strategy}
	for _, c := range out {
		res.Columns = append(res.Columns, c.Name)
	}
	if opts.Sink != nil {
		opts.stream = &streamState{sink: opts.Sink}
		// The header goes out before execution so even an empty (or
		// failing) result stream has told the client its shape.
		if opts.Sink.Columns != nil {
			if err := opts.Sink.Columns(res.Columns); err != nil {
				return nil, err
			}
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
		defer qc.CancelOn(opts.Cancel)()
		if err := qc.Err(); err != nil {
			return nil, err // an already-closed Cancel stops the query before it starts
		}
	}

	before := db.store.Stats()
	if err := db.climb(qb, opts, qc, res); err != nil {
		return nil, err
	}
	res.Stats = db.store.Stats().Sub(before)
	return res, nil
}

// climb runs the query, and each time an attempt fails climbs at most one
// rung of the degradation ladder (DESIGN §8), in this order, or returns the
// error:
//
//   - sequential rerun: a planned query with Parallelism's hash operators
//     failed with a contained panic or ErrMemoryBudget (a sort-merge plan
//     buffers less than a hash build). Every later attempt plans without
//     Parallelism.
//   - forced-spill rerun: a planned query still over its memory budget
//     under SpillAuto (which only a spill manager grants). An operator whose buffer merely fits the budget
//     keeps it resident and can starve a later charge that has no spill
//     path (a materialized temp's partial-page buffer, GroupAgg's one
//     group, the hash operators' state), so the rerun refuses every
//     reservation: it is the paper's section 7 sort-merge plan, whose
//     rows are the same plan's unbudgeted rows in the same order.
//   - transient retry: qctx.Retryable under an admission ticket, up to
//     RetryMax times with capped, jittered backoff racing the deadline.
//
// Timeouts, cancels and row-budget violations take no rung: a rerun would
// exceed the same limits. Nothing reruns once a batch has gone to the
// sink. Every rerun gets the budgets back while the deadline keeps
// ticking, and drops the failed attempt's notes but keeps each rung's
// event, so the trace (and Result.Spill) describes the one execution
// that completed.
func (db *DB) climb(qb *ast.QueryBlock, opts Options, qc *qctx.QueryContext, res *Result) error {
	base := len(res.Trace)
	for retries := 0; ; {
		res.Rows, res.FellBack = nil, false
		var err error
		switch opts.Strategy {
		case NestedIteration:
			err = db.runNested(qb, qc, opts.stream, res)
		case TransformJA2:
			err = db.runTransformed(qb, transform.JA2, opts, qc, res)
		case TransformKim:
			err = db.runTransformed(qb, transform.KimJA, opts, qc, res)
		default:
			return fmt.Errorf("engine: unknown strategy %v", opts.Strategy)
		}
		if err == nil || opts.stream.fenced() ||
			errors.Is(err, qctx.ErrQueryTimeout) || errors.Is(err, qctx.ErrCanceled) || errors.Is(err, qctx.ErrRowBudget) {
			return err
		}
		planned := opts.Strategy != NestedIteration && !res.FellBack
		var pe *qctx.PanicError
		var rung trace.Event
		switch {
		case planned && opts.Planner.Parallelism > 1 && (errors.As(err, &pe) || errors.Is(err, qctx.ErrMemoryBudget)):
			opts.Planner.Parallelism = 0
			rung = trace.Event{Kind: trace.SequentialRerun, Detail: &trace.Detail{Err: err}}
		case planned && errors.Is(err, qctx.ErrMemoryBudget) && qc.SpillPolicy() == qctx.SpillAuto:
			qc.ForceSpill()
			rung = trace.Event{Kind: trace.ForcedSpillRerun, Detail: &trace.Detail{Err: err}}
		case opts.ticket != nil && qctx.Retryable(err):
			delay, ok := db.admit.RetryDelay(retries)
			if !ok {
				return err
			}
			retries++
			rung = trace.Event{Kind: trace.TransientRetry, N: int64(retries), Detail: &trace.Detail{Err: err, Delay: delay}}
			select {
			case <-time.After(delay):
			case <-qc.Done():
				return err
			}
			if qc.Check() != nil {
				return err
			}
		default:
			return err
		}
		qc.ResetUsage()
		res.Trace = append(res.Trace[:base], rung)
		base = len(res.Trace)
	}
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
	res.Trace = append(res.Trace, trace.Event{Kind: trace.NestedIteration})
	return nil
}

func (db *DB) runTransformed(qb *ast.QueryBlock, variant transform.Variant, opts Options, qc *qctx.QueryContext, res *Result) error {
	tr, err := transform.New(db.cat, variant).AsPaper(opts.Planner.AsPaper).Transform(qb)
	if errors.Is(err, transform.ErrNotTransformable) && !opts.NoFallback {
		res.FellBack = true
		res.Trace = append(res.Trace, trace.Event{Kind: trace.Fallback, Detail: &trace.Detail{Err: err}})
		return db.runNested(qb, qc, opts.stream, res)
	}
	if err != nil {
		return err
	}
	res.Trace = slices.Grow(res.Trace, traceRoom(tr, opts.Planner, qc))
	operands := make([]trace.Detail, len(tr.Steps))
	for i, s := range tr.Steps {
		operands[i] = trace.Detail{Rel: s.Rel, Block: s.Block, Preds: s.Preds}
		res.Trace = append(res.Trace, trace.Event{Kind: trace.Step, Label: s.Rule, Text: s.Text, Detail: &operands[i]})
	}
	popts := opts.Planner
	if popts.Stats == nil {
		popts.Stats = db.stats.Load()
	}
	if popts.Indexes == nil {
		popts.Indexes = db.indexes
	}
	popts.QC = qc
	if opts.stream != nil {
		popts.Sink = opts.stream.batch
		popts.SinkBatchRows = opts.Sink.BatchRows
	}
	// Spill session: its run files are always removed when this function
	// returns — success, error, or contained panic alike.
	var sess *spill.Session
	if db.spill != nil {
		if sp := qc.SpillPolicy(); sp == qctx.SpillAuto || sp == qctx.SpillForced {
			sess = db.spill.NewSession(fmt.Sprintf("q%d", db.qcount.Add(1)))
			defer sess.Close()
			popts.Spill = sess
		}
	}
	pl := planner.New(db.cat, db.store, popts)
	pl.Trace = res.Trace
	var rows []storage.Tuple
	err = contain(func() error {
		var err error
		rows, _, err = pl.Run(tr)
		return err
	})
	res.Trace = pl.Trace
	if err != nil {
		return err
	}
	if sess != nil {
		res.Spill = sess.Stats()
		if res.Spill.Runs > 0 {
			res.Trace = append(res.Trace, trace.Event{Kind: trace.Spill, N: res.Spill.Runs, M: res.Spill.Bytes})
		}
	}
	res.Rows = rows
	return nil
}

// traceRoom sizes a transformed query's trace, so that the planner appends
// its events to the slice that holds the steps: the steps, and per block
// its plan, its grouping or ordering, a temp's materialization or holding
// in memory (or, for a temp streamed into its reader, the one streamed
// event in place of its plan and materialization), and per join one
// decision — three where the plan sort-merges, which records each input's
// sort or its elision.
func traceRoom(tr *transform.Result, o planner.Options, qc *qctx.QueryContext) int {
	perJoin := 1
	if o.TempJoin == planner.JoinMerge || o.FinalJoin == planner.JoinMerge || qc.SpillPolicy() == qctx.SpillForced {
		perJoin = 3
	}
	n := len(tr.Steps) + 2 + perJoin*(len(tr.Query.From)-1)
	for _, t := range tr.Temps {
		n += 3 + perJoin*(len(t.Def.From)-1)
	}
	return n
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
	res, err := db.queryBlock(qb, opts)
	if err != nil {
		return "", err
	}
	prof := classify.Profile(qb)
	s := fmt.Sprintf("Query:\n%s\n\nStrategy: %v\n", qb.Pretty(), opts.Strategy)
	s += fmt.Sprintf("Nesting: %d block(s), depth %d", prof.Blocks, prof.MaxDepth)
	for _, ty := range prof.Types {
		s += ", " + ty.String()
	}
	s += "\n"
	if prof.MaxDepth > 0 {
		s += "\nQuery tree (Figure 2 style):\n" + querygraph.Build(qb).ASCII()
	}
	if res.FellBack {
		s += "Fell back to nested iteration.\n"
	}
	if len(res.Trace) > 0 {
		s += "\nSteps:\n"
		for _, e := range res.Trace {
			s += "  " + e.String() + "\n"
		}
	}
	s += fmt.Sprintf("\nMeasured cost: %v\nRows: %d\n", res.Stats, len(res.Rows))
	return s, nil
}
