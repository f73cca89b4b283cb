// Package nestedsql is a reproduction of "Optimization of Nested SQL
// Queries Revisited" (Ganski & Wong, SIGMOD 1987) as a usable library: an
// embedded relational engine whose query processor implements the paper's
// nested-query transformation algorithms — Kim's NEST-N-J, the corrected
// NEST-JA2, the EXISTS/ANY/ALL extensions, and the recursive general
// procedure — next to the System R nested-iteration baseline, over a paged
// storage layer that measures the paper's cost metric (page I/Os).
//
// Quick start:
//
//	db := nestedsql.Open(nestedsql.WithBufferPages(8))
//	db.LoadFixture(nestedsql.FixtureKiessling)
//	res, _ := db.Query(`
//	    SELECT PNUM FROM PARTS
//	    WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY
//	                 WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)`,
//	    nestedsql.WithStrategy(nestedsql.StrategyTransform))
//	fmt.Println(res.Rows, res.PageIO)
//
// The same query run with StrategyNestedIteration gives the semantic
// ground truth; StrategyTransformKim reproduces the paper's COUNT and
// non-equality bugs on purpose.
package nestedsql

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/qctx"
	"repro/internal/schema"
	"repro/internal/spill"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Typed lifecycle errors, for errors.Is against failures of governed
// queries (see WithTimeout, WithMaxRows, WithMemoryBudget, WithCancel).
var (
	// ErrQueryTimeout reports a query that ran past WithTimeout.
	ErrQueryTimeout = qctx.ErrQueryTimeout
	// ErrCanceled reports a query stopped via WithCancel.
	ErrCanceled = qctx.ErrCanceled
	// ErrBudgetExceeded is the common ancestor of the budget errors.
	ErrBudgetExceeded = qctx.ErrBudgetExceeded
	// ErrRowBudget reports a query that produced more rows than WithMaxRows.
	ErrRowBudget = qctx.ErrRowBudget
	// ErrMemoryBudget reports a query that buffered more than WithMemoryBudget.
	ErrMemoryBudget = qctx.ErrMemoryBudget
	// ErrOverloaded reports a query shed by the admission gateway (full
	// queue, or a draining database — see EnableAdmission). The
	// concrete error carries a retry-after hint.
	ErrOverloaded = qctx.ErrOverloaded
	// ErrSpillCorrupt reports a spill run file that failed its checksum
	// or framing on read-back (see EnableSpill): the query fails typed —
	// never returns wrong rows — and its spill files are removed.
	ErrSpillCorrupt = qctx.ErrSpillCorrupt
	// ErrWALBroken reports DML refused because a write-ahead log append
	// failed (see EnableDurability): the in-memory state is ahead of the
	// log, so writes stay poisoned until Checkpoint re-establishes the
	// durable image.
	ErrWALBroken = wal.ErrBroken
)

// RetryAfter extracts the admission gateway's retry-after hint from an
// overload error (local or received over the wire — the network client
// reconstructs the same concrete error). It reports false for every
// other error, including overloads without a hint.
func RetryAfter(err error) (time.Duration, bool) {
	var ov *qctx.OverloadError
	if errors.As(err, &ov) && ov.RetryAfter > 0 {
		return ov.RetryAfter, true
	}
	return 0, false
}

// Type is a column type.
type Type uint8

// The supported column types.
const (
	Int Type = iota
	Float
	String
	Date
)

func (t Type) kind() value.Kind {
	switch t {
	case Int:
		return value.KindInt
	case Float:
		return value.KindFloat
	case String:
		return value.KindString
	case Date:
		return value.KindDate
	default:
		return value.KindNull
	}
}

// Column declares one column of a table.
type Column struct {
	Name string
	Type Type
}

// Strategy selects the query evaluation method.
type Strategy uint8

// The strategies of the reproduction.
const (
	// StrategyNestedIteration evaluates nested predicates tuple by tuple,
	// as System R did — the paper's baseline and ground truth.
	StrategyNestedIteration Strategy = iota
	// StrategyTransform applies the paper's algorithms (NEST-N-J +
	// NEST-JA2 via the recursive procedure) and runs the canonical form
	// with cost-chosen joins, falling back to nested iteration for
	// queries outside the algorithms' scope. This is the default.
	StrategyTransform
	// StrategyTransformKim uses Kim's original NEST-JA, reproducing the
	// COUNT bug and the non-equality bug the paper corrects.
	StrategyTransformKim
)

// JoinChoice forces a join method in transformed plans (for the section
// 7.4 experiments).
type JoinChoice uint8

// The join choices.
const (
	JoinAuto JoinChoice = iota
	JoinMerge
	JoinNestedLoops
)

func (j JoinChoice) planner() planner.JoinMethod {
	switch j {
	case JoinMerge:
		return planner.JoinMerge
	case JoinNestedLoops:
		return planner.JoinNL
	default:
		return planner.JoinAuto
	}
}

// DB is an embedded database instance.
type DB struct {
	eng *engine.DB
}

// Option configures Open.
type Option func(*config)

type config struct {
	bufferPages int
}

// WithBufferPages sets the buffer pool size in pages — the paper's B.
// The default is 32.
func WithBufferPages(n int) Option {
	return func(c *config) { c.bufferPages = n }
}

// AdmissionConfig sizes the concurrency gateway; see EnableAdmission.
// Zero fields pick the gateway's defaults (unlimited concurrency, no
// queue, no memory pool).
type AdmissionConfig struct {
	// MaxConcurrent bounds how many queries run at once; 0 = unlimited.
	MaxConcurrent int
	// QueueDepth bounds how many queries may wait behind the running
	// ones. The wait counts against each query's WithTimeout; arrivals
	// beyond the depth fail immediately with ErrOverloaded.
	QueueDepth int
	// MemPool is a global memory budget (bytes) leased out per query:
	// concurrent queries share it and are degraded or queued rather than
	// ever overcommitting it. 0 disables pooling.
	MemPool int64
	// RetryMax bounds automatic re-runs of transiently-failed queries
	// (injected faults, and spill runs that failed their checksum —
	// ErrSpillCorrupt); 0 disables.
	RetryMax int
}

// Open creates an empty in-memory database.
func Open(opts ...Option) *DB {
	cfg := config{bufferPages: 32}
	for _, o := range opts {
		o(&cfg)
	}
	return &DB{eng: engine.New(cfg.bufferPages)}
}

// EnableAdmission turns on the concurrency gateway: every Query first
// acquires an admission slot (bounded concurrency, bounded FIFO queue,
// memory-pool lease), and overload is shed with ErrOverloaded. Call it
// after Open or Restore, before serving concurrent traffic with bounded
// resources; single-caller use works without it.
func (db *DB) EnableAdmission(cfg AdmissionConfig) {
	db.eng.EnableAdmission(admission.Config{
		MaxConcurrent: cfg.MaxConcurrent,
		QueueDepth:    cfg.QueueDepth,
		PoolBytes:     cfg.MemPool,
		RetryMax:      cfg.RetryMax,
	})
}

// EnableSpill enables spill-to-disk execution rooted at dir: a query that
// cannot keep its sort runs and merge-join groups within WithMemoryBudget
// writes checksummed run files under dir, and one whose hash builds do
// not fit is rerun as sorts and merge joins; either way it completes
// (slower but correct) instead of failing with ErrMemoryBudget. Spill files are
// namespaced per query and always removed when the query ends —
// success, error, cancel, or panic. With threshold > 0, queries start
// spilling once they buffer more than threshold bytes even while under
// their memory budget (or unbudgeted), bounding the engine's in-memory
// working set per query. It fails when dir cannot be created.
func (db *DB) EnableSpill(dir string, threshold int64) error {
	return db.eng.EnableSpill(dir, threshold)
}

// EnableDurability opens a write-ahead log under dir, recovering any
// prior state (newest valid snapshot plus WAL tail replay, truncating a
// torn tail). Call it on a fresh database before loading data; after it
// returns, every DDL and DML statement is acknowledged only once its
// commit record is durable, and Checkpoint writes atomic snapshots that
// retire the log. With fsync false, records reach the OS page cache on
// ack — surviving process crashes, not host power loss.
func (db *DB) EnableDurability(dir string, fsync bool) (RecoveryInfo, error) {
	return db.eng.EnableDurability(dir, wal.Options{Fsync: fsync})
}

// Checkpoint writes an atomic snapshot of the database and retires the
// write-ahead log. A no-op without EnableDurability.
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// RecoveryInfo reports what EnableDurability reconstructed on boot.
type RecoveryInfo = engine.RecoveryInfo

// RecoveryInfo reports what the last EnableDurability reconstructed.
func (db *DB) RecoveryInfo() RecoveryInfo { return db.eng.RecoveryInfo() }

// WALStats is a snapshot of write-ahead-log activity: live segments and
// bytes, appends, group-commit syncs, checkpoints, and whether the log
// is poisoned.
type WALStats = wal.Stats

// WALStats reports cumulative write-ahead-log activity; ok is false
// without EnableDurability.
func (db *DB) WALStats() (WALStats, bool) { return db.eng.WALStats() }

// SpillStats counts spill activity: run files written and payload bytes
// in them.
type SpillStats = spill.Stats

// SpillStats reports cumulative spill activity across all queries (zero
// without EnableSpill).
func (db *DB) SpillStats() SpillStats { return db.eng.SpillStats() }

// AdmissionStats is a snapshot of the gateway's counters: queries
// running, queued, admitted, shed, timed out in the queue; memory-pool
// usage and peak, degraded and pressure grants; and transient retries.
type AdmissionStats = admission.Stats

// AdmissionStats snapshots the gateway counters. The zero value is
// returned when EnableAdmission was not called.
func (db *DB) AdmissionStats() AdmissionStats {
	if c := db.eng.Admission(); c != nil {
		return c.Stats()
	}
	return AdmissionStats{}
}

// Drain gracefully stops query traffic: new queries are shed with
// ErrOverloaded, in-flight queries get until the deadline to finish, and
// stragglers are then canceled with ErrCanceled. After a drain the
// database still answers nothing until Resume. A no-op without
// EnableAdmission.
func (db *DB) Drain(timeout time.Duration) error { return db.eng.Drain(timeout) }

// Resume re-opens admission after a Drain.
func (db *DB) Resume() {
	if c := db.eng.Admission(); c != nil {
		c.Resume()
	}
}

// CreateTable defines a table. tuplesPerPage controls the stored page
// capacity (0 uses the default); experiments use it to set relation page
// counts precisely.
func (db *DB) CreateTable(name string, cols []Column, tuplesPerPage int, key ...string) error {
	rel := &schema.Relation{Name: name, Key: key}
	for _, c := range cols {
		rel.Columns = append(rel.Columns, schema.Column{Name: c.Name, Type: c.Type.kind()})
	}
	return db.eng.CreateRelation(rel, tuplesPerPage)
}

// Insert appends rows of Go values. Accepted element types: nil (NULL),
// int, int64, float64, string, and date strings for DATE columns (M-D-YY,
// M/D/YY, or ISO). Values are typed by column as an INSERT statement's
// literals are: a value its column cannot hold is an error.
func (db *DB) Insert(table string, rows ...[]any) error {
	rel, ok := db.eng.Catalog().Lookup(table)
	if !ok {
		return fmt.Errorf("nestedsql: unknown table %s", table)
	}
	for _, row := range rows {
		if len(row) != len(rel.Columns) {
			return fmt.Errorf("nestedsql: row has %d values, table %s has %d columns",
				len(row), table, len(rel.Columns))
		}
		vals := make([]value.Value, len(row))
		for i, v := range row {
			cv, err := convertValue(v)
			if err != nil {
				return fmt.Errorf("nestedsql: column %s: %w", rel.Columns[i].Name, err)
			}
			vals[i] = cv
		}
		t, err := engine.CoerceInsertRow(rel, vals)
		if err != nil {
			return err
		}
		if err := db.eng.Insert(table, t); err != nil {
			return err
		}
	}
	return db.eng.Seal(table)
}

func convertValue(v any) (value.Value, error) {
	switch v := v.(type) {
	case nil:
		return value.Null, nil
	case int:
		return value.NewInt(int64(v)), nil
	case int64:
		return value.NewInt(v), nil
	case float64:
		return value.NewFloat(v), nil
	case string:
		return value.NewString(v), nil
	default:
		return value.Null, fmt.Errorf("unsupported Go value %T", v)
	}
}

// QueryOption configures a single query.
type QueryOption func(*engine.Options)

// WithStrategy selects the evaluation strategy (default StrategyTransform).
func WithStrategy(s Strategy) QueryOption {
	return func(o *engine.Options) {
		switch s {
		case StrategyNestedIteration:
			o.Strategy = engine.NestedIteration
		case StrategyTransformKim:
			o.Strategy = engine.TransformKim
		default:
			o.Strategy = engine.TransformJA2
		}
	}
}

// WithForcedJoins forces the join methods used for temporary-table
// creation and for the final query, reproducing the four section 7.4
// combinations.
func WithForcedJoins(temp, final JoinChoice) QueryOption {
	return func(o *engine.Options) {
		o.Planner.TempJoin = temp.planner()
		o.Planner.FinalJoin = final.planner()
	}
}

// WithoutFallback makes a non-transformable query an error instead of
// silently using nested iteration.
func WithoutFallback() QueryOption {
	return func(o *engine.Options) { o.NoFallback = true }
}

// WithTimeout bounds the query's wall-clock execution; exceeding it fails
// the query with ErrQueryTimeout. Zero means no limit (the default).
func WithTimeout(d time.Duration) QueryOption {
	return func(o *engine.Options) { o.Timeout = d }
}

// WithMaxRows bounds the number of result rows; a query producing more
// fails with ErrRowBudget within one row of the limit.
func WithMaxRows(n int64) QueryOption {
	return func(o *engine.Options) { o.MaxRows = n }
}

// WithMemoryBudget bounds the bytes a query may buffer at once in hash
// builds and sort runs; exceeding it fails the query with ErrMemoryBudget.
// With EnableSpill, sorts and merge-join groups spill instead, and a query
// still over budget first reruns once as the paper's section 7 sort-merge
// plan, whose every buffer can spill.
func WithMemoryBudget(n int64) QueryOption {
	return func(o *engine.Options) { o.MaxBytes = n }
}

// WithCancel cancels the query with ErrCanceled as soon as ch is closed —
// wire it to a signal handler for Ctrl-C, or close it from another
// goroutine. Cancellation is cooperative and takes effect within one
// morsel of work.
func WithCancel(ch <-chan struct{}) QueryOption {
	return func(o *engine.Options) { o.Cancel = ch }
}

// PageIO is the paper's cost metric: the page reads and writes the store
// counted while a query ran. The count is store-wide, so a query that
// overlapped another also counts the other's pages.
type PageIO struct {
	Reads  int64
	Writes int64
}

// Total is reads plus writes.
func (p PageIO) Total() int64 { return p.Reads + p.Writes }

// String renders the counters.
func (p PageIO) String() string {
	return fmt.Sprintf("%d page I/Os (%d reads + %d writes)", p.Total(), p.Reads, p.Writes)
}

// Result is a completed query.
type Result struct {
	Columns  []string
	Rows     [][]any
	PageIO   PageIO
	Spill    SpillStats // spill runs/bytes this query wrote (see EnableSpill)
	FellBack bool       // transformation fell back to nested iteration
	Affected int64      // rows inserted/updated/deleted by Exec DML
	Trace    []string   // transformation steps and plan decisions
}

// Query executes one SQL statement. The default strategy is
// StrategyTransform.
func (db *DB) Query(sql string, opts ...QueryOption) (*Result, error) {
	res, err := db.eng.Query(sql, engineOptions(opts))
	if err != nil {
		return nil, err
	}
	return publicResult(res), nil
}

// engineOptions applies opts over the default options: StrategyTransform.
func engineOptions(opts []QueryOption) engine.Options {
	eopts := engine.Options{Strategy: engine.TransformJA2}
	for _, o := range opts {
		o(&eopts)
	}
	return eopts
}

// publicResult converts an engine result to the public one.
func publicResult(res *engine.Result) *Result {
	out := &Result{
		Columns:  res.Columns,
		PageIO:   PageIO{Reads: res.Stats.Reads, Writes: res.Stats.Writes},
		Spill:    res.Spill,
		FellBack: res.FellBack,
		Affected: res.Affected,
		Trace:    trace.Lines(res.Trace),
	}
	for _, row := range res.Rows {
		converted := make([]any, len(row))
		for i, v := range row {
			converted[i] = goValue(v)
		}
		out.Rows = append(out.Rows, converted)
	}
	return out
}

func goValue(v value.Value) any {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindInt:
		return v.Int()
	case value.KindFloat:
		return v.Float()
	case value.KindString:
		return v.Str()
	case value.KindDate:
		return v.DateOf().String()
	default:
		return v.String()
	}
}

// Exec runs a script of semicolon-separated statements — CREATE TABLE,
// INSERT INTO, UPDATE, DELETE, and SELECT — returning the result of the
// last SELECT, with Affected counting every DML statement's rows. A
// script without a SELECT returns a bare result carrying only Affected:
//
//	db.Exec(`
//	    CREATE TABLE T (X INTEGER, D DATE, PRIMARY KEY (X));
//	    INSERT INTO T VALUES (1, 7-3-79), (2, NULL);
//	    SELECT X FROM T WHERE D < 1-1-80;`)
func (db *DB) Exec(script string, opts ...QueryOption) (*Result, error) {
	res, err := db.eng.Exec(script, engineOptions(opts))
	if err != nil {
		return nil, err
	}
	return publicResult(res), nil
}

// Explain returns a report of the classification, transformation steps,
// plan decisions, and measured cost of the query under the given options.
func (db *DB) Explain(sql string, opts ...QueryOption) (string, error) {
	return db.eng.Explain(sql, engineOptions(opts))
}

// Fixture names a bundled dataset from the paper.
type Fixture uint8

// The bundled fixtures.
const (
	// FixtureKiessling is the PARTS/SUPPLY instance of [KIE 84] used in
	// section 5.1 (the COUNT bug).
	FixtureKiessling Fixture = iota
	// FixtureNonEquality is the section 5.3 instance (the "<" bug).
	FixtureNonEquality
	// FixtureDuplicates is the section 5.4 instance (duplicate outer
	// join-column values).
	FixtureDuplicates
	// FixtureSuppliers is the S/P/SP database of the introduction.
	FixtureSuppliers
)

// LoadFixture loads one of the paper's example databases.
func (db *DB) LoadFixture(f Fixture) error {
	w := &workload.DB{Cat: db.eng.Catalog(), Store: db.eng.Store()}
	switch f {
	case FixtureKiessling:
		return workload.LoadKiessling(w)
	case FixtureNonEquality:
		return workload.LoadNonEquality(w)
	case FixtureDuplicates:
		return workload.LoadDuplicates(w)
	case FixtureSuppliers:
		return workload.LoadSuppliers(w)
	default:
		return fmt.Errorf("nestedsql: unknown fixture %d", f)
	}
}

// Save writes a snapshot of the database (catalog, keys, rows, page
// shapes, buffer size) to w; Restore rebuilds it. Snapshots are
// self-contained binary images: checksummed WAL records (DESIGN.md §13).
func (db *DB) Save(w io.Writer) error { return db.eng.Save(w) }

// Restore reads a snapshot written by Save into a new database.
func Restore(r io.Reader) (*DB, error) {
	eng, err := engine.Restore(r)
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng}, nil
}

// CreateIndex builds a secondary index on table.column. The planner then
// considers an index scan for selective restrictions on that column.
// Indexes are snapshots: inserting into the table drops them.
func (db *DB) CreateIndex(table, column string) error {
	return db.eng.CreateIndex(table, column)
}

// Analyze collects System R-style statistics (page and tuple counts,
// distinct values per column) over every table; subsequent transformed
// queries use them for selectivity-aware join choices. Run after bulk
// loading.
func (db *DB) Analyze() error { return db.eng.Analyze() }

// Internal exposes the underlying engine for the experiment harness and
// tests in this module. It is not part of the stable API.
func (db *DB) Internal() *engine.DB { return db.eng }
