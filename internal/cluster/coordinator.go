package cluster

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/qctx"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wire"
)

// Config tunes a Coordinator.
type Config struct {
	// Workers are the addresses of the worker nestedsqld instances. The
	// slice order defines shard numbering: shard i's primary is
	// Workers[i], its replicas the next R-1 workers round-robin.
	Workers []string
	// Replicas is the copy count R per shard (0 or 1 = unreplicated).
	// Must not exceed len(Workers).
	Replicas int
	// Placement overrides the partition column per table (UPPER names).
	// A table not listed defaults to its first primary-key column, or
	// its first column when no key is declared.
	Placement map[string]string
	// DialTimeout bounds each worker dial + handshake (0 = client default).
	DialTimeout time.Duration
	// IOTimeout bounds each per-frame wait on worker connections.
	IOTimeout time.Duration
	// ProbeInterval is the health prober's cadence: suspect workers are
	// probe-dialed back to healthy, dead workers are automatically
	// rejoined via snapshot re-ship (0 = 1s, negative = no prober).
	ProbeInterval time.Duration
}

// loadChunkBytes bounds the rows of one Load frame by (an upper bound
// on) their encoded size — big enough to amortise the round trip, a
// small fraction of wire.MaxFrame.
const loadChunkBytes = 1 << 20

func (c Config) replicas() int {
	if c.Replicas <= 1 {
		return 1
	}
	return c.Replicas
}

// Coordinator is the cluster's client-facing backend: it owns the
// catalog mirror and the placement map, fans DDL and DML out to all
// replicas of each shard, and runs distributable SELECTs as
// scatter/gather plans with per-shard failover. It implements
// server.Backend, so cmd/nestedsqld can serve it behind the same wire
// protocol a single-node engine uses.
//
// Each logical table T materializes as one physical table per shard,
// T__S<i>, present on every replica of shard i — a worker hosting R
// shards holds R such slices, and round 2 runs per shard against one
// live replica of that slice. SELECTs share an RWMutex read lock (the
// per-worker connection pools make concurrent statements real work, not
// just interleaved waits); DDL, DML, and rejoins take the write lock.
type Coordinator struct {
	cfg      Config
	nshards  int
	replicas int

	pools  []*client.Pool
	health *healthTracker

	mu    sync.RWMutex // catalog + placement: RLock SELECT, Lock DDL/DML/rejoin
	cat   *schema.Catalog
	place map[string]string  // UPPER(table) -> UPPER(partition column)
	torn  map[tornSlice]bool // copies a failed re-ship may have left half-built

	qid       atomic.Uint64 // staging-name counter
	runToken  string        // per-run nonce in staging names
	perWorker []int64       // round-2 gathers served, atomic

	staging struct {
		sync.Mutex
		tables map[string]map[int]bool // physical staging table -> workers holding it
	}

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New dials every worker once to verify it is reachable and granted the
// cluster feature (only servers fronting a local engine do), then
// starts the health prober. Bootstrap needs the full fleet; failover
// covers workers lost after that.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	if cfg.replicas() > len(cfg.Workers) {
		return nil, fmt.Errorf("cluster: %d replicas need at least %d workers, have %d",
			cfg.replicas(), cfg.replicas(), len(cfg.Workers))
	}
	co := &Coordinator{
		cfg:       cfg,
		nshards:   len(cfg.Workers),
		replicas:  cfg.replicas(),
		cat:       schema.NewCatalog(),
		place:     make(map[string]string),
		torn:      make(map[tornSlice]bool),
		health:    newHealthTracker(len(cfg.Workers)),
		runToken:  newRunToken(),
		perWorker: make([]int64, len(cfg.Workers)),
		stop:      make(chan struct{}),
	}
	co.staging.tables = make(map[string]map[int]bool)
	opts := client.DialOptions{Timeout: cfg.DialTimeout, IOTimeout: cfg.IOTimeout}
	for _, addr := range cfg.Workers {
		co.pools = append(co.pools, client.NewPool(addr, opts, 0))
	}
	for w := range co.pools {
		if err := co.withWorker(w, func(*client.Conn) error { return nil }); err != nil {
			co.Close()
			return nil, err
		}
	}
	if interval := cfg.ProbeInterval; interval >= 0 {
		if interval == 0 {
			interval = time.Second
		}
		co.wg.Add(1)
		go co.probeLoop(interval)
	}
	return co, nil
}

// Close stops the prober and drops every pooled worker connection.
func (co *Coordinator) Close() error {
	co.stopOnce.Do(func() { close(co.stop) })
	co.wg.Wait()
	for _, p := range co.pools {
		p.Close()
	}
	return nil
}

// Drain satisfies server.Backend. The coordinator holds no queries of
// its own — in-flight statements finish under the statement lock, and
// the workers drain their engines during their own shutdowns.
func (co *Coordinator) Drain(time.Duration) error { return nil }

// NumWorkers returns the worker (and shard) count.
func (co *Coordinator) NumWorkers() int { return len(co.cfg.Workers) }

// Replicas returns the configured copy count per shard.
func (co *Coordinator) Replicas() int { return co.replicas }

// WorkerStates returns every worker's failover state name
// (healthy/suspect/dead/rejoining), index-aligned with Config.Workers.
func (co *Coordinator) WorkerStates() []string { return co.health.snapshot() }

// GatherCounts returns how many round-2 shard queries each worker has
// served, for load reporting (benchpaper's per-node q/s).
func (co *Coordinator) GatherCounts() []int64 {
	out := make([]int64, len(co.perWorker))
	for i := range out {
		out[i] = atomic.LoadInt64(&co.perWorker[i])
	}
	return out
}

// physName is the shard-suffixed physical table backing one shard's
// slice of a logical table. The "__" namespace is reserved at CREATE,
// so physical names can never collide with user tables.
func physName(table string, shard int) string {
	return fmt.Sprintf("%s__S%d", table, shard)
}

// newRunToken returns an identifier-safe nonce distinguishing this
// coordinator incarnation's staging tables from any prior run's.
func newRunToken() string {
	var b [4]byte
	if _, err := crand.Read(b[:]); err != nil {
		binary.BigEndian.PutUint32(b[:], uint32(time.Now().UnixNano()))
	}
	return strings.ToUpper(hex.EncodeToString(b[:]))
}

// replicasOf lists the workers hosting shard s: the primary s and the
// next replicas-1 workers round-robin.
func (co *Coordinator) replicasOf(s int) []int {
	out := make([]int, co.replicas)
	for j := range out {
		out[j] = (s + j) % co.nshards
	}
	return out
}

// hostedShards lists the shards whose slices worker w holds.
func (co *Coordinator) hostedShards(w int) []int {
	out := make([]int, co.replicas)
	for j := range out {
		out[j] = (w - j + co.nshards) % co.nshards
	}
	return out
}

// withWorker runs one exchange with worker w on a pooled connection. It
// is the worker-attempt rule — the only place an attempt's outcome is
// classified, whatever the exchange was:
//
//   - no connection (dial refused, handshake lost, cluster feature not
//     granted) or a transport failure inside fn: the connection is
//     discarded, the breaker takes a strike, and the error comes back
//     as *WorkerLostError;
//   - any other error is a typed answer and proves the worker alive: the
//     connection returns to the pool (which closes it if fn abandoned
//     the exchange mid-stream) and the error passes through untouched —
//     except that "unknown relation" also marks the worker dead: it is
//     missing a table it was sent to because it hosts it, so it
//     restarted empty and must rejoin from a snapshot. (A drop, for
//     which missing means done, filters that answer inside fn.)
//   - success returns the connection and heals a suspect worker.
func (co *Coordinator) withWorker(w int, fn func(*client.Conn) error) error {
	pool := co.pools[w]
	conn, err := pool.Get()
	lost := err != nil // a failed dial or handshake is transport-class by construction
	if err == nil && !conn.Cluster() {
		err, lost = errors.New("did not grant the cluster feature"), true
	}
	if err == nil {
		err = fn(conn)
		lost = err != nil && transportFailure(err)
	}
	switch {
	case lost:
		pool.Discard(conn)
		co.health.markFailure(w)
		return &WorkerLostError{Worker: w, Addr: pool.Addr(), Cause: err}
	case err == nil:
		co.health.markSuccess(w)
	case unknownRelation(err):
		co.health.markDead(w)
	}
	pool.Put(conn)
	return err
}

// collect runs one statement on worker w and returns its affected-row
// count (the Done frame's Rows).
func (co *Coordinator) collect(w int, sql string) (n int64, err error) {
	err = co.withWorker(w, func(c *client.Conn) error {
		res, err := c.Collect(sql, client.Options{Timeout: co.cfg.IOTimeout})
		if err == nil {
			n = res.Done.Rows
		}
		return err
	})
	return n, err
}

// drop removes one physical table from one worker; a table that is
// already gone is a drop that succeeded.
func (co *Coordinator) drop(w int, phys string) error {
	return co.withWorker(w, func(c *client.Conn) error {
		_, err := c.Collect("DROP TABLE "+phys, client.Options{Timeout: co.cfg.IOTimeout})
		if unknownRelation(err) {
			return nil
		}
		return err
	})
}

// onReplica is the replica-failover iterator: it offers shard s's live
// replicas (those ok admits, when given), in placement order, to try —
// one withWorker attempt each — until one succeeds. A lost worker or one
// found dead (unknown relation) fails over to the next replica; any
// other error is a typed, deterministic answer that a peer would only
// repeat, and ends the iteration. try must buffer what it gathers per
// attempt: a mid-stream loss discards the partial buffer and the next
// replica starts from scratch, so nothing is ever counted twice.
func (co *Coordinator) onReplica(s int, ok []bool, try func(w int, c *client.Conn) error) error {
	var lastErr error
	for _, w := range co.replicasOf(s) {
		if !co.health.live(w) || (ok != nil && !ok[w]) {
			continue
		}
		err := co.withWorker(w, func(c *client.Conn) error { return try(w, c) })
		if err == nil || !(transportFailure(err) || unknownRelation(err)) {
			return err
		}
		lastErr = err
	}
	if lastErr != nil {
		return lastErr
	}
	return fmt.Errorf("%w %d", ErrShardUnavailable, s)
}

// replicate is the fan-out-and-settle under every replicated write: DDL,
// routed and filtered DML, and a shuffle's staging creates and landings.
// write runs concurrently on every live replica (that ok admits, when
// given) of each listed shard — nil lists them all — and each shard then
// settles by one rule: at least one ack commits it, its row count taken
// once (the copies are identical); every replica that failed, or was
// passed over, where a peer acked has missed something the shard now
// holds and is reported to failed; a shard nobody acked fails the
// statement with its first error, ErrShardUnavailable when no replica
// was left to try.
func (co *Coordinator) replicate(shards []int, ok [][]bool, write func(s, w int) (int64, error), failed func(s, w int)) (int64, error) {
	if shards == nil {
		for s := 0; s < co.nshards; s++ {
			shards = append(shards, s)
		}
	}
	type attempt struct {
		w   int
		n   int64
		err error
	}
	tries := make([][]*attempt, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		for _, w := range co.replicasOf(s) {
			a := &attempt{w: w}
			tries[i] = append(tries[i], a)
			if !co.health.live(w) || (ok != nil && !ok[s][w]) {
				a.err = fmt.Errorf("%w %d", ErrShardUnavailable, s) // passed over
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				a.n, a.err = write(s, a.w)
			}()
		}
	}
	wg.Wait()
	var affected int64
	var firstErr error
	for i, s := range shards {
		var acked *attempt
		var shardErr error
		for _, a := range tries[i] {
			if a.err == nil && acked == nil {
				acked = a
			} else if a.err != nil && (shardErr == nil || errors.Is(shardErr, ErrShardUnavailable)) {
				shardErr = a.err // an attempt's own error outranks "passed over"
			}
		}
		if acked == nil {
			if firstErr == nil {
				firstErr = shardErr
			}
			continue
		}
		affected += acked.n
		for _, a := range tries[i] {
			if a.err != nil {
				failed(s, a.w)
			}
		}
	}
	return affected, firstErr
}

// diverged is replicate's failed hook for durable state: the replica
// missed a write its shard committed, so it must rejoin from a snapshot
// before serving again.
func (co *Coordinator) diverged(_, w int) { co.health.markDead(w) }

// load lands rows in one worker's physical table as Load frames of about
// loadChunkBytes each — rows travel coordinator→worker as rows, the way
// they travel back — and returns the count the worker stored.
func (co *Coordinator) load(w int, table string, cols []string, rows []storage.Tuple) (int64, error) {
	var stored int64
	for len(rows) > 0 {
		n, size := 0, 0
		for n < len(rows) && (n == 0 || size < loadChunkBytes) {
			for _, v := range rows[n] {
				size += 1 + binary.MaxVarintLen64
				if v.Kind() == value.KindString {
					size += len(v.Str())
				}
			}
			n++
		}
		chunk := wire.RowBatch{Columns: cols, Rows: rows[:n]}
		err := co.withWorker(w, func(c *client.Conn) error {
			done, err := c.Load(table, chunk)
			stored += done.Rows
			return err
		})
		if err != nil {
			return stored, err
		}
		rows = rows[n:]
	}
	return stored, nil
}

// ExecSQL runs a script of statements against the cluster, mirroring
// engine.Exec's contract: the result is the last SELECT's, Affected
// accumulates DML counts, and a failing statement aborts the script
// with prior statements applied. SELECTs share the read lock; DDL and
// DML serialize under the write lock.
func (co *Coordinator) ExecSQL(sql string, opts engine.Options) (*engine.Result, error) {
	stmts, err := sqlparser.ParseScript(sql)
	if err != nil {
		return nil, err
	}
	var last *engine.Result
	var affected int64
	for _, stmt := range stmts {
		if sel, ok := stmt.(*sqlparser.SelectStmt); ok {
			co.mu.RLock()
			res, err := co.query(sel.Query, opts)
			co.mu.RUnlock()
			if err != nil {
				return nil, err
			}
			last = res
			continue
		}
		co.mu.Lock()
		n, err := co.execWrite(stmt)
		co.mu.Unlock()
		if err != nil {
			return nil, err
		}
		affected += n
	}
	if last == nil {
		last = &engine.Result{Strategy: opts.Strategy}
	}
	last.Affected = affected
	return last, nil
}

// execWrite dispatches one non-SELECT statement under the write lock.
func (co *Coordinator) execWrite(stmt sqlparser.Statement) (int64, error) {
	switch stmt := stmt.(type) {
	case *sqlparser.CreateTableStmt:
		return 0, co.execCreate(stmt.Relation)
	case *sqlparser.InsertStmt:
		return co.execInsert(stmt)
	case *sqlparser.DeleteStmt:
		return co.execFilterDML(stmt.Table, stmt.Where, stmt)
	case *sqlparser.UpdateStmt:
		return co.execFilterDML(stmt.Table, stmt.Where, stmt)
	case *sqlparser.DropTableStmt:
		return 0, co.execDrop(stmt.Table)
	default:
		return 0, fmt.Errorf("cluster: unsupported statement %T", stmt)
	}
}

// execCreate defines the relation in the catalog mirror, picks its
// placement column, and creates each shard's physical slice on every
// live replica of that shard. A replica that fails its CREATE where a
// peer succeeded is marked dead (it missed DDL the shard now holds)
// rather than failing the statement; a shard no replica could create
// fails it, and what the other shards created is dropped again.
func (co *Coordinator) execCreate(rel *schema.Relation) error {
	if strings.Contains(rel.Name, "__") {
		return fmt.Errorf("cluster: table name %s collides with the reserved __ shard namespace", rel.Name)
	}
	if err := co.cat.Define(rel); err != nil {
		return err
	}
	up := strings.ToUpper(rel.Name)
	place := strings.ToUpper(rel.Columns[0].Name)
	if p, ok := co.cfg.Placement[up]; ok {
		if rel.ColumnIndex(p) < 0 {
			co.cat.Drop(rel.Name)
			return fmt.Errorf("cluster: placement column %s does not exist in %s", p, rel.Name)
		}
		place = strings.ToUpper(p)
	} else if len(rel.Key) > 0 {
		place = strings.ToUpper(rel.Key[0])
	}
	var mu sync.Mutex
	var created [][2]int // (shard, worker) sites to undo
	_, err := co.replicate(nil, nil, func(s, w int) (int64, error) {
		_, err := co.collect(w, shardRelation(rel, rel.Name, s).CreateSQL())
		if err == nil {
			mu.Lock()
			created = append(created, [2]int{s, w})
			mu.Unlock()
		}
		return 0, err
	}, co.diverged)
	if err != nil {
		for _, site := range created {
			co.drop(site[1], physName(rel.Name, site[0]))
		}
		co.cat.Drop(rel.Name)
		return err
	}
	co.place[up] = place
	return nil
}

// shardRelation is rel's schema under shard s's physical name for the
// logical table name. Key columns carry over — a per-shard subset of a
// globally unique key is still unique — which keeps the planner's
// duplicate-safety reasoning intact on workers.
func shardRelation(rel *schema.Relation, name string, s int) *schema.Relation {
	return &schema.Relation{Name: physName(name, s), Columns: rel.Columns, Key: rel.Key}
}

// execInsert coerces each row's literals against the schema — hashing
// must see the value a worker will store, not the raw literal, or a
// DATE partition key would land rows on the wrong shard — then routes
// every row to its shard and loads each shard's rows into all live
// replicas synchronously: the client's ack means every live replica
// logged the rows.
func (co *Coordinator) execInsert(stmt *sqlparser.InsertStmt) (int64, error) {
	rel, ok := co.cat.Lookup(stmt.Table)
	if !ok {
		return 0, fmt.Errorf("cluster: unknown relation %s", stmt.Table)
	}
	pidx := rel.ColumnIndex(co.place[strings.ToUpper(rel.Name)])
	if pidx < 0 {
		return 0, fmt.Errorf("cluster: relation %s has no placement column", rel.Name)
	}
	part := Partitioner{NumShards: co.nshards, KeyCols: []int{pidx}}
	routed := make([][]storage.Tuple, co.nshards)
	for _, row := range stmt.Rows {
		t, err := engine.CoerceInsertRow(rel, row)
		if err != nil {
			return 0, err
		}
		d := part.Shard(t)
		routed[d] = append(routed[d], t)
	}
	var shards []int
	for s, rows := range routed {
		if len(rows) > 0 {
			shards = append(shards, s)
		}
	}
	if shards == nil {
		return 0, nil
	}
	cols := rel.ColumnNames()
	return co.replicate(shards, nil, func(s, w int) (int64, error) {
		return co.load(w, physName(rel.Name, s), cols, routed[s])
	}, co.diverged)
}

// execFilterDML fans a DELETE or UPDATE whose WHERE clause is row-local
// out to every live replica of every shard, rewritten per shard against
// the physical table. Subqueries are rejected: their evaluation would
// see only each shard's slice, deleting (or keeping) the wrong rows.
// Affected counts one replica per shard — the copies are identical.
func (co *Coordinator) execFilterDML(table string, where []ast.Predicate, stmt sqlparser.Statement) (int64, error) {
	if _, ok := co.cat.Lookup(table); !ok {
		return 0, fmt.Errorf("cluster: unknown relation %s", table)
	}
	for _, p := range where {
		if len(ast.SubqueriesOf(p)) > 0 {
			return 0, notDistributable("DELETE/UPDATE with a subquery would evaluate it per-shard")
		}
	}
	sqls := make([]string, co.nshards)
	for s := range sqls {
		sqls[s] = renderShardDML(stmt, s)
	}
	return co.replicate(nil, nil, func(s, w int) (int64, error) { return co.collect(w, sqls[s]) }, co.diverged)
}

// renderShardDML rewrites a single-table DELETE/UPDATE against one
// shard's physical table. Column qualifiers are stripped: DML with a
// subquery is refused, so every reference belongs to the one renamed
// table and an unqualified name is unambiguous.
func renderShardDML(stmt sqlparser.Statement, shard int) string {
	switch st := stmt.(type) {
	case *sqlparser.DeleteStmt:
		out := &sqlparser.DeleteStmt{Table: physName(st.Table, shard), Where: stripQualifiers(st.Where)}
		return out.String()
	case *sqlparser.UpdateStmt:
		out := &sqlparser.UpdateStmt{Table: physName(st.Table, shard), Set: st.Set, Where: stripQualifiers(st.Where)}
		return out.String()
	default:
		panic(fmt.Sprintf("cluster: renderShardDML on %T", stmt))
	}
}

// stripQualifiers deep-copies the predicates with every column's table
// qualifier cleared.
func stripQualifiers(where []ast.Predicate) []ast.Predicate {
	if len(where) == 0 {
		return nil
	}
	out := make([]ast.Predicate, len(where))
	for i, p := range where {
		out[i] = ast.ClonePredicate(p)
	}
	qb := &ast.QueryBlock{Where: out}
	qb.RewriteLocalColumns(func(c ast.ColumnRef) ast.ColumnRef {
		c.Table = ""
		return c
	})
	return out
}

// execDrop removes every shard slice from every live replica, best
// effort, and always forgets the table: a replica that fails where a
// peer dropped is marked dead like after any replicated write, but a
// shard nobody could drop — every replica down, or refusing — does not
// fail the statement. Its replicas are at worst left holding a stray
// slice that no statement can name and a rejoin never looks at, whereas
// a catalog entry kept over half-dropped slices would turn the next
// SELECT's "unknown relation" into dead workers nothing can re-ship.
func (co *Coordinator) execDrop(table string) error {
	rel, ok := co.cat.Lookup(table)
	if !ok {
		return fmt.Errorf("cluster: unknown relation %s", table)
	}
	co.replicate(nil, nil, func(s, w int) (int64, error) {
		return 0, co.drop(w, physName(rel.Name, s))
	}, co.diverged)
	co.cat.Drop(table)
	delete(co.place, strings.ToUpper(table))
	return nil
}

// query runs one SELECT as a distributed plan:
//
//	round 1 (only when some table's placement differs from the key the
//	         query requires): shuffle — each shard's slice scatters
//	         partitioned by the required key, and the coordinator lands
//	         the rows in per-shard staging tables on every replica;
//	round 2: the query — rewritten per shard over the physical tables —
//	         runs whole against one live replica of each shard, failing
//	         over to the next replica on a lost link, and the per-shard
//	         results are concatenated in shard order.
//
// Analyze proves the concatenation equals the single-node result; a
// query it rejects fails with ErrNotDistributable rather than running
// wrong.
func (co *Coordinator) query(qb *ast.QueryBlock, opts engine.Options) (*engine.Result, error) {
	outs, err := schema.Resolve(co.cat, qb)
	if err != nil {
		return nil, err
	}
	req, err := Analyze(qb)
	if err != nil {
		return nil, err
	}

	// okBy[s][w]: replica w of shard s holds everything round 2 needs —
	// shuffles knock out replicas that missed a staging landing.
	okBy := make([][]bool, co.nshards)
	for s := range okBy {
		okBy[s] = make([]bool, co.nshards)
		for w := range okBy[s] {
			okBy[s][w] = true
		}
	}
	staged := make(map[string]string) // UPPER(table) -> staging logical name
	var stagedPhys []string
	defer func() {
		for _, phys := range stagedPhys {
			co.dropStaging(phys)
		}
	}()
	for table, col := range req {
		if col == "" || col == co.place[table] {
			continue // co-located (or placement-independent) already
		}
		sname, phys, err := co.shuffle(table, col, opts, okBy)
		stagedPhys = append(stagedPhys, phys...)
		if err != nil {
			return nil, err
		}
		staged[table] = sname
	}

	// Rewrite once per shard: record every table reference and its
	// logical target, pin the binding name so column references still
	// resolve, then rename serially and render each shard's SQL before
	// any of them dispatches.
	type refSite struct {
		ref     *ast.TableRef
		logical string
	}
	var sites []refSite
	ast.VisitBlocks(qb, func(b *ast.QueryBlock, _ int) bool {
		for i := range b.From {
			t := &b.From[i]
			logical := t.Relation
			if sname, ok := staged[strings.ToUpper(t.Relation)]; ok {
				logical = sname
			}
			t.Alias = t.Binding()
			sites = append(sites, refSite{t, logical})
		}
		return true
	})
	sqls := make([]string, co.nshards)
	for s := range sqls {
		for _, site := range sites {
			site.ref.Relation = physName(site.logical, s)
		}
		sqls[s] = qb.String()
	}

	cols := make([]string, len(outs))
	for i, o := range outs {
		cols[i] = o.Name
	}
	return co.gather(sqls, cols, opts, okBy)
}

// shuffle re-partitions one table by the required key into fresh
// per-shard staging tables on every replica (round 1). Each shard's
// slice is scattered from one live replica — failing over like a
// gather — and every landed row fans out to all replicas of its
// destination shard, so round 2 can fail over too. A replica that
// cannot take its staging slice or its rows is struck from okBy — this
// query's round-2 candidates — not failed: replication exists to absorb
// exactly this. Returns the staging logical name and the physical
// staging tables to clean up (even on error).
func (co *Coordinator) shuffle(table, keyCol string, opts engine.Options, okBy [][]bool) (string, []string, error) {
	rel, ok := co.cat.Lookup(table)
	if !ok {
		return "", nil, fmt.Errorf("cluster: unknown relation %s", table)
	}
	kidx := rel.ColumnIndex(keyCol)
	if kidx < 0 {
		return "", nil, fmt.Errorf("cluster: relation %s has no column %s", rel.Name, keyCol)
	}
	// The run token keeps staging names from a previous coordinator
	// incarnation out of play: staging DDL is durable on the workers and
	// cleanup is best-effort, so a counter alone — restarting at 1 —
	// would collide with a remnant leaked by a crashed run.
	sname := fmt.Sprintf("%s__X%s_%d", rel.Name, co.runToken, co.qid.Add(1))
	phys := make([]string, co.nshards)
	for d := range phys {
		phys[d] = physName(sname, d)
	}
	struck := func(s, w int) { okBy[s][w] = false }

	if _, err := co.replicate(nil, okBy, func(d, w int) (int64, error) {
		// Registered before the CREATE is sent: a worker whose reply is
		// lost may have committed it all the same, and a drop takes a
		// table that never landed for one already dropped.
		co.stagingAdd(phys[d], w)
		_, err := co.collect(w, shardRelation(rel, sname, d).CreateSQL())
		return 0, err
	}, struck); err != nil {
		return "", phys, fmt.Errorf("cluster: staging %s: %w", sname, err)
	}

	// The scatter: each source shard's slice is read like a gather reads a
	// shard, from whichever live replica serves it, and partitioned here
	// by the new key.
	cols := rel.ColumnNames()
	sql := "SELECT " + strings.Join(cols, ", ") + " FROM "
	copts := client.Options{Timeout: opts.Timeout, Strategy: wire.StrategyNested} // a flat scan; no transform to pick
	part := Partitioner{NumShards: co.nshards, KeyCols: []int{kidx}}
	sourced := make([][][]storage.Tuple, co.nshards) // [source][destination]rows
	scatterErr := make([]error, co.nshards)
	var wg sync.WaitGroup
	for s := 0; s < co.nshards; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scatterErr[s] = co.onReplica(s, nil, func(w int, c *client.Conn) error {
				local, err := scatterSlice(c, w, sql+physName(rel.Name, s), copts, cols, part)
				if err == nil {
					sourced[s] = local
				}
				return err
			})
		}()
	}
	wg.Wait()
	for s, err := range scatterErr {
		if err != nil {
			return "", phys, fmt.Errorf("cluster: scatter of %s shard %d: %w", rel.Name, s, err)
		}
	}
	routed := make([][]storage.Tuple, co.nshards)
	for _, local := range sourced {
		for d, rows := range local {
			routed[d] = append(routed[d], rows...)
		}
	}

	// Land each destination slice on every replica still in the running.
	if _, err := co.replicate(nil, okBy, func(d, w int) (int64, error) {
		return co.load(w, phys[d], cols, routed[d])
	}, struck); err != nil {
		return "", phys, fmt.Errorf("cluster: landing shuffle of %s: %w", rel.Name, err)
	}
	return sname, phys, nil
}

// scatterSlice is one attempt at a shuffle's read of a source slice on
// worker w: the whole slice as the answer to sql, checked for the
// columns asked for and partitioned by part into a buffer of this
// attempt's own, so a failed-over read starts from nothing.
func scatterSlice(c *client.Conn, w int, sql string, opts client.Options, cols []string, part Partitioner) ([][]storage.Tuple, error) {
	st, err := c.Query(sql, opts)
	if err != nil {
		return nil, err
	}
	local := make([][]storage.Tuple, part.NumShards)
	for st.Next() {
		row := st.Row()
		d := part.Shard(row)
		local[d] = append(local[d], row)
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	if !slices.Equal(st.Columns(), cols) {
		return nil, fmt.Errorf("cluster: worker %d answered columns %v for %v", w, st.Columns(), cols)
	}
	return local, nil
}

// gather runs each shard's round-2 SQL against one live replica,
// concurrently across shards, failing over within a shard on transport
// loss. Results concatenate in shard order, keeping gathered row order
// as deterministic as the sequential version's. Results stream through
// opts.Sink when the caller set one (the network server does) and
// materialize otherwise. Columns come from the coordinator's own
// resolution, so empty results still carry the full schema.
func (co *Coordinator) gather(sqls []string, cols []string, opts engine.Options, okBy [][]bool) (*engine.Result, error) {
	copts := client.Options{Timeout: opts.Timeout, Strategy: wireStrategy(opts.Strategy)}
	type shard struct {
		rows  []storage.Tuple
		stats wire.Done
		err   error
	}
	shards := make([]shard, co.nshards)
	var wg sync.WaitGroup
	for s := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := &shards[s]
			sh.err = co.onReplica(s, okBy[s], func(w int, c *client.Conn) error {
				st, err := c.Query(sqls[s], copts)
				if err != nil {
					return err
				}
				sh.rows = nil // a failed-over attempt's partial rows never merge
				for st.Next() {
					sh.rows = append(sh.rows, st.Row())
					if opts.MaxRows > 0 && int64(len(sh.rows)) > opts.MaxRows {
						// One shard already exceeds the global budget: stop
						// buffering before a runaway result fills the heap.
						st.Close()
						return qctx.ErrRowBudget
					}
				}
				if err := st.Close(); err != nil {
					return err
				}
				sh.stats = st.Stats()
				atomic.AddInt64(&co.perWorker[w], 1)
				return nil
			})
		}()
	}
	wg.Wait()

	// Settle every shard before emitting anything: all results are fully
	// buffered at this point, so a failed shard (or a blown row budget)
	// can surface as one clean typed error instead of partial rows
	// already flushed to the client followed by an error frame.
	res := &engine.Result{Columns: cols, Strategy: opts.Strategy}
	total := 0
	for s := range shards {
		if shards[s].err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", s, shards[s].err)
		}
		total += len(shards[s].rows)
	}
	if opts.MaxRows > 0 && int64(total) > opts.MaxRows {
		return nil, qctx.ErrRowBudget
	}
	sink, batch := opts.Sink, 64
	if sink == nil {
		res.Rows = make([]storage.Tuple, 0, total)
	} else {
		if err := sink.Columns(cols); err != nil {
			return nil, err
		}
		if sink.BatchRows > 0 {
			batch = sink.BatchRows
		}
	}
	var pending []storage.Tuple // a sink's batches fill across shard boundaries
	for _, sh := range shards {
		res.Stats.Reads += sh.stats.Reads
		res.Stats.Writes += sh.stats.Writes
		res.FellBack = res.FellBack || sh.stats.FellBack
		if sink == nil {
			res.Rows = append(res.Rows, sh.rows...)
			continue
		}
		for rows := sh.rows; len(rows) > 0; {
			n := min(batch-len(pending), len(rows))
			pending, rows = append(pending, rows[:n]...), rows[n:]
			if len(pending) == batch {
				if err := sink.Batch(pending); err != nil {
					return nil, err
				}
				pending = nil
			}
		}
	}
	if len(pending) > 0 {
		if err := sink.Batch(pending); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// wireStrategy maps the engine strategy the session resolved into the
// explicit wire byte for the workers — the coordinator never lets a
// worker's own default win, or mixed worker configs would give
// strategy-mixed (and thus trace-divergent) gathers.
func wireStrategy(s engine.Strategy) byte {
	switch s {
	case engine.TransformJA2:
		return wire.StrategyTransform
	case engine.TransformKim:
		return wire.StrategyKim
	case engine.NestedIteration:
		return wire.StrategyNested
	default:
		return wire.StrategyDefault
	}
}
