package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/classify"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/planner"
	"repro/internal/qctx"
	"repro/internal/rowcodec"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/transform"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/wire"
)

// ---- in-process engine (point_mix, ja_seq, ja_par, spill_join) ----

type engineInst struct {
	db       *engine.DB
	opts     func(*op) engine.Options
	spillDir string
	staged   namespace
	fp       fingerprinter
}

func newEngineInst(e *env, load func(*env, *engine.DB) error, opts func(*op) engine.Options, spill bool) (*engineInst, error) {
	if opts == nil {
		opts = seqOptions
	}
	in := &engineInst{db: engine.New(bufferPages), opts: opts}
	if err := load(e, in.db); err != nil {
		return nil, err
	}
	if spill {
		dir, err := os.MkdirTemp(e.tmp, "spill")
		if err != nil {
			return nil, err
		}
		in.spillDir = dir
		if err := in.db.EnableSpill(dir, 0); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func (in *engineInst) do(_ int, o *op) (opResult, error) {
	res, err := in.db.Query(o.sql, in.opts(o))
	if err != nil {
		return opResult{}, err
	}
	return opResult{cols: res.Columns, rows: res.Rows,
		spillRuns: res.Spill.Runs, spillBytes: res.Spill.Bytes, fellBack: res.FellBack}, nil
}

// traced runs the op as do does, under an engine.query span, and then
// replays it through the layers' public functions in the order
// engine.run calls them, one span per layer. Running the two back to
// back pairs them under the same machine conditions, so engine.query
// minus the stage spans is engine.run's own overhead and not noise
// between two segments. The replay must return what engine.Query did.
func (in *engineInst) traced(tr *tracer, _ int, o *op) (opResult, error) {
	root := tr.begin("engine.query", 0)
	res, err := in.do(0, o)
	tr.end(root)
	if err != nil {
		return res, err
	}
	s := tr.begin("staged.query", root)
	replay, err := stagedQuery(tr, s, in.db, o.sql, in.opts(o), &in.staged)
	tr.end(s)
	if err != nil {
		return res, fmt.Errorf("staged pipeline: %w", err)
	}
	if !in.fp.of(res.cols, res.rows).matches(in.fp.of(replay.cols, replay.rows), o.ordered) {
		return res, fmt.Errorf("staged pipeline returned %d rows that differ from engine.Query's %d", len(replay.rows), len(res.rows))
	}
	res.spillRuns, res.spillBytes = replay.spillRuns, replay.spillBytes
	return res, nil
}

// namespace hands out names for the staged pipeline's temp tables and
// spill sessions, unique per client of a shared engine.
type namespace struct{ client, n int }

func (ns *namespace) next() string {
	ns.n++
	return fmt.Sprintf("b%d_%d", ns.client, ns.n)
}

func stagedQuery(tr *tracer, parent int, db *engine.DB, sql string, opts engine.Options, ns *namespace) (res opResult, err error) {
	s := tr.begin("sqlparser.parse", parent)
	qb, err := sqlparser.Parse(sql)
	tr.end(s)
	if err != nil {
		return opResult{}, err
	}
	s = tr.begin("schema.resolve", parent)
	out, err := schema.Resolve(db.Catalog(), qb)
	tr.end(s)
	if err != nil {
		return opResult{}, err
	}
	s = tr.begin("classify.profile", parent)
	classify.Profile(qb)
	tr.end(s)
	for _, c := range out {
		res.cols = append(res.cols, c.Name)
	}

	nested := func() (opResult, error) {
		s := tr.begin("exec.nestediter", parent)
		defer tr.end(s)
		ev := exec.NewEvaluator(db.Catalog(), db.Store())
		defer ev.Close()
		res.rows, _, err = ev.EvalQuery(qb)
		return res, err
	}
	if opts.Strategy == engine.NestedIteration {
		return nested()
	}
	variant := transform.JA2
	if opts.Strategy == engine.TransformKim {
		variant = transform.KimJA
	}
	s = tr.begin("transform.nest", parent)
	canon, err := transform.New(db.Catalog(), variant).Transform(qb)
	tr.end(s)
	if errors.Is(err, transform.ErrNotTransformable) {
		res.fellBack = true
		return nested()
	}
	if err != nil {
		return opResult{}, err
	}
	tr.count("transform.temps", int64(len(canon.Temps)))

	popts := opts.Planner
	popts.Stats, popts.Indexes = db.Statistics(), db.Indexes()
	name := ns.next()
	popts.TempSuffix = "#" + name
	if opts.Spill == qctx.SpillForced {
		qc := qctx.New(qctx.Limits{Spill: qctx.SpillForced})
		defer qc.Finish()
		sess := db.SpillManager().NewSession(name)
		defer sess.Close()
		popts.QC, popts.Spill = qc, sess
		defer func() { st := sess.Stats(); res.spillRuns, res.spillBytes = st.Runs, st.Bytes }()
	}
	s = tr.begin("planner.run", parent)
	res.rows, _, err = planner.New(db.Catalog(), db.Store(), popts).Run(canon)
	tr.end(s)
	return res, err
}

func (in *engineInst) pageIO() storage.IOStats { return in.db.Store().Stats() }
func (in *engineInst) finish() error           { return nil }
func (in *engineInst) close() {
	if in.spillDir != "" {
		os.RemoveAll(in.spillDir)
		in.spillDir = ""
	}
}

// ---- loopback server (serve_read, serve_write) ----

// listen starts srv on a loopback port and returns its address and a
// stop function that shuts it down and waits for Serve to return.
func listen(srv *server.Server) (addr string, stop func(), err error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	return lis.Addr().String(), serve(srv, lis), nil
}

// listenAt is listen on a given address (a restarted worker must come
// back where the coordinator knows it).
func listenAt(addr string, srv *server.Server) (stop func(), err error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return serve(srv, lis), nil
}

func serve(srv *server.Server, lis net.Listener) (stop func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(lis)
	}()
	return func() {
		srv.Shutdown(5 * time.Second)
		<-done
	}
}

func dialAll(addr string, n int) ([]*client.Conn, time.Duration, error) {
	conns := make([]*client.Conn, n)
	t0 := time.Now()
	for i := range conns {
		c, err := client.Dial(addr, 10*time.Second)
		if err != nil {
			return nil, 0, err
		}
		conns[i] = c
	}
	return conns, time.Since(t0) / time.Duration(n), nil
}

// ackLog is what one client was told is durable: the fingerprint sums
// of every acknowledged row, comparable to a read-back of the table.
type ackLog struct {
	ops       int   // ops this client has run, of any kind
	userBytes int64 // rowcodec bytes of every row ever acknowledged
	next      int64
	fp        fingerprint
	f         fingerprinter
}

// insertSQL builds the client's next INSERT of n rows into table and
// returns the rows it will add once acknowledged.
func (a *ackLog) insertSQL(table string, client, n, width int) (string, []storage.Tuple) {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s VALUES ", table)
	rows := make([]storage.Tuple, n)
	for i := range rows {
		k := int64(client)*1_000_000_000 + a.next
		a.next++
		row := storage.Tuple{value.NewInt(k), value.NewInt(int64(client)), value.NewInt(k * 7 % 1000)}
		if width == 2 {
			row = storage.Tuple{row[0], row[2]}
		}
		rows[i] = row
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, v := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprint(&b, v.Int())
		}
		b.WriteByte(')')
	}
	return b.String(), rows
}

func (a *ackLog) acked(rows []storage.Tuple) {
	for _, r := range rows {
		a.userBytes += int64(len(rowcodec.AppendTuple(nil, r)))
	}
	got := a.f.of(nil, rows)
	a.fp.rows += got.rows
	a.fp.sum += got.sum
	a.fp.squares += got.squares
}

// ackedTotal merges the clients' logs.
func ackedTotal(logs []ackLog) fingerprint {
	var total fingerprint
	for i := range logs {
		total.rows += logs[i].fp.rows
		total.sum += logs[i].fp.sum
		total.squares += logs[i].fp.squares
	}
	return total
}

type serverInst struct {
	e     *env
	db    *engine.DB
	twin  *engine.DB // traced pass: identically loaded, queried in process
	stop  func()
	conns []*client.Conn
	dial  time.Duration
	tseqs []namespace // per client, for the staged shadows on the twin

	// serve_write only.
	walDir  string
	twinDir string
	acks    []ackLog
	opCount atomic.Int64
	ckpt    checkpointLog
	rec     recoveryStats
}

// checkpointLog times the in-line checkpoints of serve_write and holds
// the first failure of its housekeeping.
type checkpointLog struct {
	mu     sync.Mutex
	spans  [][2]time.Time
	broken error
}

type recoveryStats struct {
	took        time.Duration
	records     int
	walBytes    int64
	userBytes   int64
	checkpoints int
}

var walOptions = wal.Options{Fsync: false}

// openEngine builds one loaded engine; durable ones log to a fresh
// directory under e.tmp and start from a checkpoint, so the fixtures
// are in the snapshot recovery starts from.
func openEngine(e *env, durable bool) (db *engine.DB, walDir string, err error) {
	db = engine.New(bufferPages)
	if !durable {
		return db, "", loadServeRead(e, db)
	}
	if walDir, err = os.MkdirTemp(e.tmp, "wal"); err != nil {
		return nil, "", err
	}
	if _, err := db.EnableDurability(walDir, walOptions); err != nil {
		return nil, "", err
	}
	if err := loadPaperFixtures(e, db); err != nil {
		return nil, "", err
	}
	if _, err := db.Exec("CREATE TABLE "+writeTable+" (K INTEGER, C INTEGER, V INTEGER)", engine.Options{}); err != nil {
		return nil, "", err
	}
	return db, walDir, db.Checkpoint()
}

func newServerInst(e *env, durable bool) (*serverInst, error) {
	in := &serverInst{e: e}
	var err error
	if in.db, in.walDir, err = openEngine(e, durable); err != nil {
		return nil, err
	}
	if e.trace {
		// The twin logs too, so transport = collect - shadow does not
		// absorb the WAL append.
		if in.twin, in.twinDir, err = openEngine(e, durable); err != nil {
			return nil, err
		}
	}
	in.db.EnableAdmission(admission.Config{MaxConcurrent: 4, QueueDepth: 64})
	addr, stop, err := listen(server.New(in.db, server.Config{Strategy: engine.TransformJA2}))
	if err != nil {
		return nil, err
	}
	in.stop = stop
	n := netClients()
	in.acks, in.tseqs = make([]ackLog, n), clientNamespaces(n)
	if in.conns, in.dial, err = dialAll(addr, n); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func wireStrategy(s engine.Strategy) byte {
	switch s {
	case engine.NestedIteration:
		return wire.StrategyNested
	case engine.TransformKim:
		return wire.StrategyKim
	default:
		return wire.StrategyTransform
	}
}

func (in *serverInst) do(client int, o *op) (opResult, error) {
	res, _, err := in.collect(client, o)
	return res, err
}

// afterOp is serve_write's housekeeping, in line between a client's
// ops. Every checkpointEvery ops (all clients) the client that crossed
// the count checkpoints. Every checkpointEvery/2 ops of its own, a
// client deletes the rows it inserted: the table, and with it the cost
// of a checkpoint, stays bounded, so per-op costs do not depend on how
// many ops a run of a given length happens to complete.
func (in *serverInst) afterOp(cl int) {
	if in.walDir == "" {
		return
	}
	if in.opCount.Add(1)%int64(in.e.size.checkpointEvery) == 0 {
		in.checkpoint()
	}
	a := &in.acks[cl]
	if a.ops++; a.ops%(in.e.size.checkpointEvery/2) == 0 {
		_, err := in.conns[cl].Collect(fmt.Sprintf("DELETE FROM %s WHERE C = %d", writeTable, cl), client.Options{})
		in.ckpt.fail(err)
		a.fp = fingerprint{}
	}
}

// collectOp sends the op over a client's connection: a read as it is,
// an insert as the client's next generated INSERT of width-column rows
// into table, logged in a once acknowledged. It returns the SQL sent so
// the traced pass can apply it to a twin.
func collectOp(conn *client.Conn, a *ackLog, table string, cl, width int, o *op) (opResult, string, error) {
	if o.insertRows == 0 {
		res, err := conn.Collect(o.sql, client.Options{Strategy: wireStrategy(o.strat)})
		if err != nil {
			return opResult{}, o.sql, err
		}
		return opResult{cols: res.Columns, rows: res.Rows}, o.sql, nil
	}
	sql, rows := a.insertSQL(table, cl, o.insertRows, width)
	res, err := conn.Collect(sql, client.Options{})
	if err != nil {
		return opResult{}, sql, err
	}
	a.acked(rows)
	return opResult{affected: res.Done.Rows}, sql, nil
}

func (in *serverInst) collect(cl int, o *op) (opResult, string, error) {
	defer in.afterOp(cl)
	return collectOp(in.conns[cl], &in.acks[cl], writeTable, cl, 3, o)
}

// checkpoint runs in line on the client that crossed the op count, so
// the other client's ops stall behind the exclusive commit lock exactly
// as they would behind a daemon's periodic checkpoint.
func (in *serverInst) checkpoint() {
	t0 := time.Now()
	err := in.db.Checkpoint()
	in.ckpt.fail(err)
	in.ckpt.mu.Lock()
	defer in.ckpt.mu.Unlock()
	in.ckpt.spans = append(in.ckpt.spans, [2]time.Time{t0, time.Now()})
}

// fail records a housekeeping failure; finish reports it.
func (c *checkpointLog) fail(err error) {
	if err != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.broken = err
	}
}

// spanName suffixes a span name with the op's ledger class.
func spanName(base string, o *op) string {
	if o.class == "" {
		return base
	}
	return base + "." + o.class
}

func (in *serverInst) traced(tr *tracer, cl int, o *op) (opResult, error) {
	root := tr.begin(spanName("client.collect", o), 0)
	res, sql, err := in.collect(cl, o)
	tr.end(root)
	if err != nil {
		return res, err
	}
	// The shadow: the same statement, in process, on the twin. It runs
	// after the parent span closed, so it is a child by cause, not by
	// interval, and subtracts nothing from the parent's self time.
	s := tr.begin(spanName("shadow.engine.query", o), root)
	_, err = in.twin.ExecSQL(sql, engine.Options{Strategy: o.strat})
	tr.end(s)
	if err == nil && o.insertRows == 0 {
		err = shadowStaged(tr, root, in.twin, o, &in.tseqs[cl])
	}
	return res, err
}

func clientNamespaces(n int) []namespace {
	out := make([]namespace, n)
	for i := range out {
		out[i].client = i
	}
	return out
}

// shadowStaged replays a SELECT through the staged pipeline on the
// twin, so the network workloads get the same front-end ledger as the
// in-process ones.
func shadowStaged(tr *tracer, parent int, twin *engine.DB, o *op, ns *namespace) error {
	s := tr.begin("staged.query", parent)
	defer tr.end(s)
	_, err := stagedQuery(tr, s, twin, o.sql, engine.Options{Strategy: o.strat}, ns)
	return err
}

func (in *serverInst) pageIO() storage.IOStats { return in.db.Store().Stats() }

// finish, for serve_write, shuts the server down, reopens the WAL
// directory in a fresh engine and requires the recovered table to hold
// exactly the acknowledged rows.
func (in *serverInst) finish() error {
	if in.walDir == "" {
		return nil
	}
	if in.ckpt.broken != nil {
		return fmt.Errorf("checkpoint or purge: %w", in.ckpt.broken)
	}
	st, _ := in.db.WALStats()
	in.shutdown()
	if err := in.db.WAL().Close(); err != nil {
		return fmt.Errorf("closing the WAL: %w", err)
	}
	fresh := engine.New(bufferPages)
	t0 := time.Now()
	info, err := fresh.EnableDurability(in.walDir, walOptions)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	in.rec = recoveryStats{took: time.Since(t0), records: info.ReplayedRecords,
		walBytes: st.AppendedBytes, checkpoints: int(st.Checkpoints)}
	defer fresh.WAL().Close()
	res, err := fresh.Query("SELECT K, C, V FROM "+writeTable, engine.Options{Strategy: engine.TransformJA2})
	if err != nil {
		return fmt.Errorf("reading the recovered table: %w", err)
	}
	var f fingerprinter
	want, got := ackedTotal(in.acks), f.of(nil, res.Rows)
	if !want.matches(got, false) {
		return fmt.Errorf("recovered %d rows, %d were acknowledged (or their checksums differ)", got.rows, want.rows)
	}
	for i := range in.acks {
		in.rec.userBytes += in.acks[i].userBytes
	}
	return nil
}

func (in *serverInst) shutdown() {
	for _, c := range in.conns {
		if c != nil {
			c.Close()
		}
	}
	in.conns = nil
	if in.stop != nil {
		in.stop()
		in.stop = nil
	}
}

func (in *serverInst) close() {
	in.shutdown()
	for _, db := range []*engine.DB{in.db, in.twin} {
		if db != nil && db.WAL() != nil {
			db.WAL().Close()
		}
	}
	for _, dir := range []string{in.walDir, in.twinDir} {
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
	in.walDir, in.twinDir = "", ""
}

// ---- two replicated workers behind a coordinator (cluster_mix) ----

type clusterInst struct {
	e         *env
	script    string
	workers   []*engine.DB
	addrs     []string
	stops     []func()
	co        *cluster.Coordinator
	twin      *engine.DB // traced pass: the same script on one node
	conns     []*client.Conn
	acks      []ackLog
	loaded    time.Duration // bulk load through the coordinator
	rows      int           // rows loaded, all tables
	shipments int           // rows of SPX, all re-partitioned by every shuffle op
	tseqs     []namespace
}

func newClusterInst(e *env, p *plan) (*clusterInst, error) {
	in := &clusterInst{e: e}
	in.script, in.rows, in.shipments = clusterScript(e)
	ok := false
	defer func() {
		if !ok {
			in.close()
		}
	}()
	for i := 0; i < 2; i++ {
		db := engine.New(bufferPages)
		addr, stop, err := listen(server.New(db, server.Config{Strategy: engine.TransformJA2}))
		if err != nil {
			return nil, err
		}
		in.workers, in.addrs, in.stops = append(in.workers, db), append(in.addrs, addr), append(in.stops, stop)
	}
	var err error
	in.co, err = cluster.New(cluster.Config{
		Workers:       in.addrs,
		Replicas:      2,
		Placement:     map[string]string{"SPX": "PNO"},
		IOTimeout:     30 * time.Second,
		ProbeInterval: -1, // no background work inside the timed section
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := in.co.ExecSQL(in.script, engine.Options{}); err != nil {
		return nil, fmt.Errorf("cluster load: %w", err)
	}
	in.loaded = time.Since(t0)
	if e.trace {
		in.twin = engine.New(bufferPages)
		if _, err := in.twin.Exec(in.script, engine.Options{}); err != nil {
			return nil, err
		}
	}
	addr, stop, err := listen(server.NewBackend(in.co, server.Config{Strategy: engine.TransformJA2}))
	if err != nil {
		return nil, err
	}
	in.stops = append(in.stops, stop)
	n := netClients()
	in.acks, in.tseqs = make([]ackLog, n), clientNamespaces(n)
	if in.conns, _, err = dialAll(addr, n); err != nil {
		return nil, err
	}
	ok = true
	return in, nil
}

func (in *clusterInst) do(cl int, o *op) (opResult, error) {
	res, _, err := in.collect(cl, o)
	return res, err
}

func (in *clusterInst) collect(cl int, o *op) (opResult, string, error) {
	return collectOp(in.conns[cl], &in.acks[cl], ackTable, cl, 2, o)
}

// traced wraps the client call and shadows every SELECT twice: straight
// into Coordinator.ExecSQL (no front server, no client) and into a
// single-node engine holding the same rows. Inserts are not shadowed —
// a second copy would change what the reads return.
func (in *clusterInst) traced(tr *tracer, cl int, o *op) (opResult, error) {
	root := tr.begin(spanName("client.collect", o), 0)
	res, _, err := in.collect(cl, o)
	tr.end(root)
	if err != nil || o.insertRows > 0 {
		return res, err
	}
	s := tr.begin(spanName("shadow.cluster.exec", o), root)
	_, err = in.co.ExecSQL(o.sql, engine.Options{Strategy: o.strat})
	tr.end(s)
	if err != nil {
		return res, err
	}
	s = tr.begin(spanName("shadow.engine.query", o), root)
	_, err = in.twin.Query(o.sql, engine.Options{Strategy: o.strat})
	tr.end(s)
	if err == nil {
		err = shadowStaged(tr, root, in.twin, o, &in.tseqs[cl])
	}
	return res, err
}

func (in *clusterInst) pageIO() storage.IOStats {
	var total storage.IOStats
	for _, db := range in.workers {
		st := db.Store().Stats()
		total.Reads, total.Writes = total.Reads+st.Reads, total.Writes+st.Writes
	}
	return total
}

// finish requires that no staging table outlived its query and that the
// routed INSERTs read back, through the coordinator, as exactly the
// acknowledged rows.
func (in *clusterInst) finish() error {
	if n := in.co.LiveStaging(); n != 0 {
		return fmt.Errorf("%d staging table(s) still live after the run", n)
	}
	res, err := in.co.ExecSQL("SELECT K, V FROM "+ackTable, engine.Options{Strategy: engine.TransformJA2})
	if err != nil {
		return fmt.Errorf("reading back the routed inserts: %w", err)
	}
	var f fingerprinter
	want, got := ackedTotal(in.acks), f.of(nil, res.Rows)
	if !want.matches(got, false) {
		return fmt.Errorf("read back %d routed rows, %d were acknowledged (or their checksums differ)", got.rows, want.rows)
	}
	return nil
}

func (in *clusterInst) close() {
	for _, c := range in.conns {
		c.Close()
	}
	in.conns = nil
	// The front server (last) goes first, then the coordinator's pooled
	// connections, then the workers.
	if n := len(in.stops); n == 3 {
		in.stops[2]()
		in.stops = in.stops[:2]
	}
	if in.co != nil {
		in.co.Close()
		in.co = nil
	}
	for _, stop := range in.stops {
		stop()
	}
	in.stops = nil
}
