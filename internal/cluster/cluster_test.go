// End-to-end cluster tests: a coordinator over real worker servers,
// checked byte-for-byte against a single-node sequential oracle, through
// the coordinator's exported API only.
package cluster_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/qctx"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wire"
)

const clusterSeed = 20260808

// clusterScript builds the paper's supplier schema with the data shapes
// PR 7 fought for: suppliers with no SP rows (COUNT=0 groups), NULL
// correlation keys on both sides, and enough spread that three shards
// all hold rows.
const clusterScript = `
CREATE TABLE S (SNO INTEGER, SNAME TEXT, CITY TEXT, PRIMARY KEY (SNO));
CREATE TABLE SP (SNO INTEGER, PNO INTEGER, QTY INTEGER);
INSERT INTO S VALUES
  (1, 'SMITH', 'PARIS'), (2, 'JONES', 'PARIS'), (3, 'BLAKE', 'ROME'),
  (4, 'CLARK', 'LONDON'), (5, 'ADAMS', 'ATHENS'), (6, 'IDLE', 'OSLO'),
  (7, 'NOONE', 'CAIRO'), (NULL, 'GHOST', 'LIMBO');
INSERT INTO SP VALUES
  (1, 10, 100), (1, 20, 200), (2, 10, 300), (2, 30, 400), (3, 30, 50),
  (3, 10, 60), (4, 40, 70), (5, 10, 5), (5, 20, 15), (5, 30, 25),
  (NULL, 10, 999), (NULL, 20, 888);
`

// clusterQueries are distributable shapes covering both rounds: the
// co-located fast path (correlation on the placement key SNO) and, for
// tables placed differently, the shuffle. Query 2 is the paper's
// COUNT bug territory: COUNT=0 suppliers must surface. The last compares
// two subqueries: the per-shard rewrite must rename the tables of both.
var clusterQueries = []string{
	"SELECT S.SNAME, S.CITY FROM S WHERE S.CITY = 'PARIS'",
	"SELECT S.SNO, S.SNAME FROM S WHERE 0 = (SELECT COUNT(SP.PNO) FROM SP WHERE SP.SNO = S.SNO)",
	"SELECT S.SNAME FROM S WHERE S.SNO IN (SELECT SP.SNO FROM SP WHERE SP.QTY > 90)",
	"SELECT S.SNAME FROM S WHERE 300 <= (SELECT SUM(SP.QTY) FROM SP WHERE SP.SNO = S.SNO)",
	"SELECT S.SNAME FROM S WHERE NOT EXISTS (SELECT SP.PNO FROM SP WHERE SP.SNO = S.SNO)",
	"SELECT S.SNAME FROM S WHERE S.SNO > ALL (SELECT SP.PNO FROM SP WHERE SP.SNO = S.SNO)",
	"SELECT S.SNAME FROM S WHERE (SELECT COUNT(SP.PNO) FROM SP WHERE SP.SNO = S.SNO) = (SELECT COUNT(SP.QTY) FROM SP WHERE SP.SNO = S.SNO)",
}

// canonSorted is a byte-comparison key for rows: a canonical total order,
// then one RowBatch frame. It is not the differential oracle — a gather
// is held against the single node through storage.Diff like every other
// regime — but the stricter check behind "replicas hold the same bytes"
// and "rows survive every path bit for bit", which must tell 3.0 from 3.
func canonSorted(cols []string, rows []storage.Tuple) []byte {
	sorted := append([]storage.Tuple(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			c, err := value.TotalCompare(a[k], b[k])
			if err != nil {
				// Incomparable kinds: order by wire encoding, still total.
				c = bytes.Compare(wire.AppendValue(nil, a[k]), wire.AppendValue(nil, b[k]))
			}
			if c != 0 {
				return c < 0
			}
		}
		return len(a) < len(b)
	})
	return wire.EncodeRowBatch(wire.RowBatch{Columns: cols, Rows: sorted})
}

// startWorkers boots n empty worker engines behind real TCP servers.
func startWorkers(t *testing.T, n int, admit bool) (addrs []string, dbs []*engine.DB) {
	t.Helper()
	for i := 0; i < n; i++ {
		db := engine.New(6)
		if admit {
			db.EnableAdmission(admission.Config{
				MaxConcurrent: 4, QueueDepth: 16, PoolBytes: 8 << 20,
			})
		}
		srv := server.New(db, server.Config{
			Strategy:          engine.TransformJA2,
			BatchRows:         5,
			WriteTimeout:      2 * time.Second,
			HeartbeatInterval: 200 * time.Millisecond,
		})
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve(lis) }()
		t.Cleanup(func() {
			srv.Shutdown(5 * time.Second)
			if err := <-serveErr; err != nil {
				t.Errorf("worker Serve: %v", err)
			}
		})
		addrs = append(addrs, lis.Addr().String())
		dbs = append(dbs, db)
	}
	return addrs, dbs
}

// oracleDB builds the single-node reference database.
func oracleDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.New(6)
	if _, err := db.Exec(clusterScript, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	return db
}

var clusterStrategies = []engine.Strategy{
	engine.NestedIteration, engine.TransformJA2, engine.TransformKim,
}

// TestDistributedNestJA2 is the acceptance gate: every query, under
// every strategy, on 3 workers, produces exactly the single-node
// sequential oracle's bag of rows — including the NULL-key supplier and
// the COUNT=0 groups — for both placements: co-located (SP placed on
// the correlation key SNO, pure 2-local-rounds) and misplaced (SP
// placed on PNO, forcing the shuffle round); each both unreplicated and
// at R=2, where every shard's slice lives on two workers. No query may
// cost a worker its health.
func TestDistributedNestJA2(t *testing.T) {
	oracle := oracleDB(t)
	for _, tc := range []struct {
		name     string
		place    map[string]string
		replicas int
	}{
		{"co-located", map[string]string{"SP": "SNO"}, 1},
		{"shuffled", map[string]string{"SP": "PNO"}, 1},
		{"co-located-R2", map[string]string{"SP": "SNO"}, 2},
		{"shuffled-R2", map[string]string{"SP": "PNO"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs, _ := startWorkers(t, 3, false)
			co, err := cluster.New(cluster.Config{
				Workers:       addrs,
				Replicas:      tc.replicas,
				Placement:     tc.place,
				IOTimeout:     10 * time.Second,
				ProbeInterval: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()
			if _, err := co.ExecSQL(clusterScript, engine.Options{}); err != nil {
				t.Fatalf("cluster load: %v", err)
			}
			for _, sql := range clusterQueries {
				for _, strat := range clusterStrategies {
					want, err := oracle.Query(sql, engine.Options{Strategy: strat})
					if err != nil {
						t.Fatalf("oracle %v %q: %v", strat, sql, err)
					}
					got, err := co.ExecSQL(sql, engine.Options{Strategy: strat})
					if err != nil {
						t.Fatalf("cluster %v %q: %v", strat, sql, err)
					}
					if d := storage.Diff(engine.AcrossRegimes, got.Rows, want.Rows); d != "" {
						t.Errorf("%v %q: distributed result diverges from oracle: %s", strat, sql, d)
					}
				}
			}
			if n := co.LiveStaging(); n != 0 {
				t.Errorf("%d staging tables leaked", n)
			}
			for w, state := range co.WorkerStates() {
				if state != "healthy" {
					t.Errorf("worker %d is %s after the queries, want healthy", w, state)
				}
			}
		})
	}
}

// TestCoordinatorShutdownDrainsInFlightStream is the server's graceful
// shutdown guarantee (TestShutdownDrainsInFlightStream) in front of a
// coordinator: Shutdown while a result streams to the client lets the
// statement finish, and the client receives every row and a clean Done.
// The client pauses after the first row, so the result — far more than
// the socket buffers hold — is still being written when Shutdown lands.
func TestCoordinatorShutdownDrainsInFlightStream(t *testing.T) {
	addrs, _ := startWorkers(t, 2, false)
	co, err := cluster.New(cluster.Config{Workers: addrs, IOTimeout: 10 * time.Second, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	const n = 3000
	var script strings.Builder
	pad := strings.Repeat("x", 200)
	script.WriteString("CREATE TABLE T (K INTEGER, V TEXT); INSERT INTO T VALUES ")
	for i := range n {
		if i > 0 {
			script.WriteString(", ")
		}
		fmt.Fprintf(&script, "(%d, '%s')", i, pad)
	}
	if _, err := co.ExecSQL(script.String(), engine.Options{}); err != nil {
		t.Fatal(err)
	}

	front := server.NewBackend(co, server.Config{Strategy: engine.TransformJA2, BatchRows: 4})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- front.Serve(lis) }()
	c, err := client.Dial(lis.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Query("SELECT T.K, T.V FROM T", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Next() {
		t.Fatalf("no first row: %v", st.Err())
	}

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- front.Shutdown(10 * time.Second) }()
	time.Sleep(200 * time.Millisecond)
	rows := 1
	for st.Next() {
		rows++
	}
	if err := st.Err(); err != nil {
		t.Fatalf("in-flight stream broken by shutdown after %d rows: %v", rows, err)
	}
	if rows != n {
		t.Errorf("drained stream delivered %d rows, want %d", rows, n)
	}
	if err := <-shutdownErr; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("Serve: %v", err)
	}
	if _, err := co.ExecSQL("SELECT T.K FROM T", engine.Options{}); !errors.Is(err, qctx.ErrOverloaded) {
		t.Errorf("statement after the drain: got %v, want a typed overload refusal", err)
	}
}

// TestClusterDML checks that DML fans out and reads back coherently —
// at R=2, so every statement must land on both replicas of each shard —
// and that a dropped table disappears from every worker.
func TestClusterDML(t *testing.T) {
	addrs, _ := startWorkers(t, 3, false)
	co, err := cluster.New(cluster.Config{
		Workers: addrs, Replicas: 2, IOTimeout: 10 * time.Second, ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if _, err := co.ExecSQL(clusterScript, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := co.ExecSQL("DELETE FROM SP WHERE QTY > 500", engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 {
		t.Fatalf("DELETE affected %d rows, want 2 (the NULL-key 999/888 pair)", res.Affected)
	}
	res, err = co.ExecSQL("UPDATE S SET CITY = 'LYON' WHERE CITY = 'PARIS'", engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 {
		t.Fatalf("UPDATE affected %d rows, want 2", res.Affected)
	}
	got, err := co.ExecSQL("SELECT S.SNAME FROM S WHERE S.CITY = 'LYON'", engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 {
		t.Fatalf("post-UPDATE read: %d rows, want 2", len(got.Rows))
	}
	// Subquery DML must refuse rather than run per-shard-wrong.
	if _, err := co.ExecSQL("DELETE FROM S WHERE SNO IN (SELECT SNO FROM SP)", engine.Options{}); !errors.Is(err, cluster.ErrNotDistributable) {
		t.Fatalf("subquery DELETE: got %v, want ErrNotDistributable", err)
	}
	if _, err := co.ExecSQL("DROP TABLE SP", engine.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := co.ExecSQL("SELECT SP.SNO FROM SP", engine.Options{}); err == nil {
		t.Fatal("query against dropped table succeeded")
	}
	if n := co.LiveStaging(); n != 0 {
		t.Errorf("%d staging tables leaked", n)
	}
}

// TestClusterRejectsNonDistributable: the coordinator answers with a
// typed refusal instead of a wrong answer.
func TestClusterRejectsNonDistributable(t *testing.T) {
	addrs, _ := startWorkers(t, 2, false)
	co, err := cluster.New(cluster.Config{
		Workers: addrs, IOTimeout: 10 * time.Second, ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if _, err := co.ExecSQL(clusterScript, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT COUNT(SP.PNO) FROM SP",
		"SELECT S.SNAME FROM S ORDER BY S.SNAME",
		"SELECT S.SNAME FROM S WHERE S.SNO NOT IN (SELECT SP.SNO FROM SP)",
	} {
		if _, err := co.ExecSQL(sql, engine.Options{}); !errors.Is(err, cluster.ErrNotDistributable) {
			t.Errorf("%q: got %v, want ErrNotDistributable", sql, err)
		}
	}
}

// typedClusterError is the closed list of acceptable failure shapes for
// the storm: remote (typed by the worker/front server), transport loss,
// timeout/cancel/overload taxonomy, or the coordinator's own refusal.
func typedClusterError(err error) bool {
	var re *wire.RemoteError
	return errors.As(err, &re) ||
		client.LinkFailure(err) ||
		errors.Is(err, cluster.ErrWorkerLost) ||
		errors.Is(err, cluster.ErrShardUnavailable) ||
		errors.Is(err, cluster.ErrNotDistributable) ||
		errors.Is(err, wire.ErrSlowConsumer) ||
		errors.Is(err, qctx.ErrCanceled) ||
		errors.Is(err, qctx.ErrOverloaded)
}

// TestClusterChaosStorm is the make-cluster gate: a coordinator fronted
// by its own wire server, three workers each behind a seeded
// fault-injecting proxy, outer clients hammering distributable queries.
// Every completed result must be byte-identical (canonically sorted) to
// the single-node oracle; every failure must be typed; afterwards no
// goroutine leaks and every worker admission slot and pool lease is
// back.
func TestClusterChaosStorm(t *testing.T) {
	baseline := runtime.NumGoroutine()
	oracle := oracleDB(t)
	oracleRows := make(map[string][]storage.Tuple)
	for _, sql := range clusterQueries {
		res, err := oracle.Query(sql, engine.Options{Strategy: engine.TransformJA2})
		if err != nil {
			t.Fatalf("oracle %q: %v", sql, err)
		}
		oracleRows[sql] = res.Rows
	}

	addrs, workerDBs := startWorkers(t, 3, true)

	// Each worker link runs through its own fault proxy; the proxies are
	// armed only after the data is loaded, so the storm exercises the
	// query path (scatter included) rather than a half-loaded fixture.
	var proxies []*fault.Proxy
	proxyAddrs := make([]string, len(addrs))
	for i, addr := range addrs {
		p, err := fault.NewProxy(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		proxies = append(proxies, p)
		proxyAddrs[i] = p.Addr()
	}

	co, err := cluster.New(cluster.Config{
		Workers:       proxyAddrs,
		Replicas:      2,                              // storms ride out lost links via the peer replica
		Placement:     map[string]string{"SP": "PNO"}, // force shuffles under fire
		IOTimeout:     3 * time.Second,
		ProbeInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.ExecSQL(clusterScript, engine.Options{}); err != nil {
		t.Fatalf("cluster load: %v", err)
	}

	// Front the coordinator with its own server: outer clients speak the
	// same wire protocol to the cluster as they would to one node.
	front := server.NewBackend(co, server.Config{
		Strategy:     engine.TransformJA2,
		BatchRows:    5,
		WriteTimeout: 2 * time.Second,
	})
	if front.DB() != nil {
		t.Fatal("coordinator-backed server must not report a local engine")
	}
	frontLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	frontErr := make(chan error, 1)
	go func() { frontErr <- front.Serve(frontLis) }()

	// Arm the proxies now that the fixture is loaded, one seed per link:
	// equal schedules would fault every replica of a shard at the same
	// moment, which no replication factor survives. The breaker never
	// kills a shard's last live replica (TestLastLiveCopyStaysRoutable),
	// so every worker the storm kills has a live peer to rejoin from.
	const linkSeed = clusterSeed + 20
	plan := fault.Plan{
		Max: 24,
		Rates: fault.Rates{fault.NetDelay: 0.05, fault.NetSplit: 0.25, fault.NetCorrupt: 0.01,
			fault.NetTruncate: 0.01, fault.NetDrop: 0.01, fault.NetPartition: 0.003},
		Latency: 2 * time.Millisecond,
	}
	defer func() {
		if t.Failed() {
			t.Logf("fault plan armed on worker link i, with seed %d+i: %v", linkSeed, plan)
		}
	}()
	var injectors []*fault.Injector
	for i, p := range proxies {
		plan.Seed = linkSeed + int64(i)
		injectors = append(injectors, fault.New(plan))
		p.Arm(injectors[i])
	}

	const (
		clients = 4
		rounds  = 6
	)
	var completed, failed, mismatches atomic.Int64
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sql := clusterQueries[(ci+r)%len(clusterQueries)]
				c, err := client.Dial(frontLis.Addr().String(), 2*time.Second)
				if err != nil {
					failed.Add(1)
					if !typedClusterError(err) {
						t.Errorf("client %d round %d: untyped dial error: %v", ci, r, err)
					}
					continue
				}
				res, err := c.Collect(sql, client.Options{Strategy: wire.StrategyTransform})
				if err != nil {
					failed.Add(1)
					if !typedClusterError(err) {
						t.Errorf("client %d round %d: untyped error: %T %v", ci, r, err, err)
					}
				} else {
					completed.Add(1)
					if d := storage.Diff(engine.AcrossRegimes, res.Rows, oracleRows[sql]); d != "" {
						mismatches.Add(1)
						t.Errorf("client %d round %d %q: completed distributed result differs from single-node oracle: %s", ci, r, sql, d)
					}
				}
				c.Close()
			}
		}(ci)
	}
	wg.Wait()

	// Heal the links and let the prober repair the fleet: suspect workers
	// probe back to healthy, dead workers rejoin from a live replica's
	// snapshot. A stale partitioned conn in a pool costs one IOTimeout to
	// flush out; the deadline is three times the slowest heal of 16 runs
	// (3.0 s, EXPERIMENTS.md E29).
	for _, p := range proxies {
		p.Arm(nil)
	}
	healStart := time.Now()
	healDeadline := healStart.Add(9 * time.Second)
	for {
		states := co.WorkerStates()
		healthy := 0
		for _, s := range states {
			if s == "healthy" {
				healthy++
			}
		}
		if healthy == len(states) {
			break
		}
		if time.Now().After(healDeadline) {
			t.Fatalf("fleet never healed after the storm: %v", states)
		}
		time.Sleep(50 * time.Millisecond)
	}
	healed := time.Since(healStart)
	waitStagingDropped(t, co, 10*time.Second)

	var injected int64
	for i, p := range proxies {
		injected += injectors[i].Injected()
		if err := p.Close(); err != nil {
			t.Errorf("proxy close: %v", err)
		}
	}
	t.Logf("cluster storm: %d completed, %d failed typed, %d injected worker-link faults; healed in %v",
		completed.Load(), failed.Load(), injected, healed.Round(time.Millisecond))
	if completed.Load() == 0 {
		t.Error("no query completed; the storm proved nothing about distributed integrity")
	}
	if injected == 0 {
		t.Error("no fault injected on the worker links; the storm proved nothing about partition tolerance")
	}
	if mismatches.Load() > 0 {
		t.Errorf("%d completed distributed results diverged from the oracle", mismatches.Load())
	}

	// Worker quiescence: every admission slot and pool lease released.
	for i, db := range workerDBs {
		deadline := time.Now().Add(15 * time.Second)
		for {
			st := db.Admission().Stats()
			if st.Running == 0 && st.Waiting == 0 && st.PoolUsed == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %d admission never quiesced: %+v", i, st)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	if err := front.Shutdown(5 * time.Second); err != nil {
		t.Errorf("front Shutdown: %v", err)
	}
	if err := <-frontErr; err != nil {
		t.Errorf("front Serve: %v", err)
	}
	co.Close()

	// Goroutine hygiene: workers shut down via t.Cleanup afterwards, so
	// allow their server goroutines; poll only back to baseline plus the
	// still-running worker servers' accept/session loops.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+3*4 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after cluster storm: baseline=%d now=%d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
