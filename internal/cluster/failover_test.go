// Failover tests: replicated shards surviving dead workers. The
// in-process tests kill workers by arming their fault.Proxy to drop
// every chunk (established conns die on the next frame, fresh dials die
// in the handshake); the storm SIGKILLs a real daemon subprocess and
// restarts it empty, forcing the snapshot rejoin path end to end.
package cluster_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/storage"
)

// killProxy arms a proxy to behave like a dead worker.
func killProxy(p *fault.Proxy) { p.Arm(fault.New(fault.Plan{Rates: fault.Rates{fault.NetDrop: 1}})) }

// healProxy restores clean forwarding for new chunks and dials.
func healProxy(p *fault.Proxy) { p.Arm(nil) }

// waitStates polls until every worker reports the wanted state.
func waitStates(t *testing.T, co *cluster.Coordinator, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		states := co.WorkerStates()
		n := 0
		for _, s := range states {
			if s == want {
				n++
			}
		}
		if n == len(states) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never all reached %q: %v", want, states)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// waitState polls until one worker reports the wanted state.
func waitState(t *testing.T, co *cluster.Coordinator, w int, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if s := co.WorkerStates()[w]; s == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %d never reached %q: %v", w, want, co.WorkerStates())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// engineTable reads one physical table straight out of a worker's
// engine, canonically sorted; ok is false when the table does not exist.
func engineTable(t *testing.T, db *engine.DB, phys string, cols []string) ([]byte, bool) {
	t.Helper()
	qcols := make([]string, len(cols))
	for i, c := range cols {
		qcols[i] = phys + "." + c
	}
	res, err := db.Query("SELECT "+strings.Join(qcols, ", ")+" FROM "+phys, engine.Options{})
	if err != nil {
		if strings.Contains(err.Error(), "unknown relation") {
			return nil, false
		}
		t.Fatalf("read %s: %v", phys, err)
	}
	return canonSorted(res.Columns, res.Rows), true
}

// TestClusterFailover is the in-process failover drill: kill one worker
// of a 3-node R=2 cluster, prove every query still matches the oracle
// and DML still commits (ack = every live replica logged it), heal the
// link, prove the prober rejoins the worker automatically with every
// missed write re-shipped, then kill the OTHER replica and serve shard
// 0 from the rejoined worker.
func TestClusterFailover(t *testing.T) {
	oracle := oracleDB(t)
	addrs, dbs := startWorkers(t, 3, false)

	var proxies []*fault.Proxy
	proxyAddrs := make([]string, len(addrs))
	for i, addr := range addrs {
		p, err := fault.NewProxy(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		proxies = append(proxies, p)
		proxyAddrs[i] = p.Addr()
	}

	co, err := cluster.New(cluster.Config{
		Workers:       proxyAddrs,
		Replicas:      2,
		Placement:     map[string]string{"SP": "PNO"}, // shuffles must fail over too
		DialTimeout:   time.Second,
		IOTimeout:     2 * time.Second,
		ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if _, err := co.ExecSQL(clusterScript, engine.Options{}); err != nil {
		t.Fatal(err)
	}

	diffAll := func(phase string) {
		t.Helper()
		for _, sql := range clusterQueries {
			want, err := oracle.Query(sql, engine.Options{Strategy: engine.TransformJA2})
			if err != nil {
				t.Fatalf("%s: oracle %q: %v", phase, sql, err)
			}
			got, err := co.ExecSQL(sql, engine.Options{Strategy: engine.TransformJA2})
			if err != nil {
				t.Fatalf("%s: cluster %q: %v", phase, sql, err)
			}
			if d := storage.Diff(engine.AcrossRegimes, got.Rows, want.Rows); d != "" {
				t.Errorf("%s: %q diverges from oracle: %s", phase, sql, d)
			}
		}
	}

	// Kill worker 0: every query must route shard 0 to its replica.
	killProxy(proxies[0])
	diffAll("worker 0 dead")
	waitState(t, co, 0, "dead", 10*time.Second)

	// DML with a dead worker: the surviving replica of each shard acks,
	// and the catalog keeps moving (the rejoin must replay all of it).
	for _, sql := range []string{
		"INSERT INTO S VALUES (100, 'PHOENIX', 'NICE')",
		"UPDATE S SET CITY = 'LYON' WHERE SNO = 100",
		"DELETE FROM SP WHERE QTY > 500",
		"CREATE TABLE FLUX (K INTEGER, V INTEGER, PRIMARY KEY (K))",
		"INSERT INTO FLUX VALUES (1, 10), (2, 20), (3, 30)",
	} {
		if _, err := co.ExecSQL(sql, engine.Options{}); err != nil {
			t.Fatalf("DML with worker 0 dead: %q: %v", sql, err)
		}
		if _, err := oracle.Exec(sql, engine.Options{}); err != nil {
			t.Fatalf("oracle replay %q: %v", sql, err)
		}
	}
	diffAll("post-DML, worker 0 still dead")

	// Heal the link: the prober must walk worker 0 through
	// dead -> rejoining -> healthy without any help.
	healProxy(proxies[0])
	waitState(t, co, 0, "healthy", 20*time.Second)

	// The rejoined slices must byte-match the replica that served while
	// worker 0 was out — including the table created in its absence.
	tables := map[string][]string{
		"S":    {"SNO", "SNAME", "CITY"},
		"SP":   {"SNO", "PNO", "QTY"},
		"FLUX": {"K", "V"},
	}
	for name, cols := range tables {
		for _, shard := range []struct{ s, peer int }{{0, 1}, {2, 2}} {
			phys := fmt.Sprintf("%s__S%d", name, shard.s)
			got, ok := engineTable(t, dbs[0], phys, cols)
			if !ok {
				t.Errorf("rejoined worker 0 is missing %s", phys)
				continue
			}
			want, ok := engineTable(t, dbs[shard.peer], phys, cols)
			if !ok {
				t.Fatalf("live replica %d is missing %s", shard.peer, phys)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("rejoined worker 0's %s diverges from replica %d's copy", phys, shard.peer)
			}
		}
	}

	// Now kill the other replica of shard 0: reads must come from the
	// rejoined worker and still match the oracle.
	killProxy(proxies[1])
	diffAll("worker 1 dead, rejoined worker 0 serving")

	// Heal everything and prove no staging table leaked.
	healProxy(proxies[1])
	waitStates(t, co, "healthy", 20*time.Second)
	if n := co.SweepStaging(); n != 0 {
		t.Errorf("%d staging tables still live after heal and sweep", n)
	}
}

// TestClusterFailoverDropDuringOutage: DROP TABLE is best effort on the
// workers and always forgets the table. With workers 1 and 2 of a 3-node
// R=2 cluster dead, shard 1 has no live replica at all; a DROP that
// failed there — after worker 0 had already dropped its slices — would
// keep a catalog entry over half-dropped slices, and the next SELECT's
// "unknown relation" would take the last healthy worker down with
// nothing left to re-ship any of them from.
func TestClusterFailoverDropDuringOutage(t *testing.T) {
	co, proxies, dbs := twoDeadCluster(t, 50*time.Millisecond)
	if _, err := co.ExecSQL(clusterQueries[0], engine.Options{}); !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Fatalf("read with a whole shard down: %v, want ErrShardUnavailable", err)
	}

	if _, err := co.ExecSQL("DROP TABLE SP", engine.Options{}); err != nil {
		t.Fatalf("DROP TABLE with a whole shard down: %v", err)
	}
	for _, phys := range []string{"SP__S0", "SP__S2"} {
		if _, ok := engineTable(t, dbs[0], phys, []string{"SNO"}); ok {
			t.Errorf("live worker 0 still holds %s after the DROP", phys)
		}
	}
	// The table is gone for the coordinator too: naming it is a user
	// error answered from the catalog, which no worker pays for.
	for _, sql := range []string{"SELECT SP.SNO FROM SP", "DROP TABLE SP"} {
		_, err := co.ExecSQL(sql, engine.Options{})
		if err == nil || !strings.Contains(err.Error(), "unknown relation") || errors.Is(err, cluster.ErrShardUnavailable) {
			t.Errorf("%q after the DROP: %v, want unknown relation", sql, err)
		}
	}
	if st := co.WorkerStates()[0]; st == "dead" {
		t.Fatalf("worker 0 was killed by a statement on a dropped table: %v", co.WorkerStates())
	}
	if _, err := co.ExecSQL("DROP TABLE S", engine.Options{}); err != nil {
		t.Fatalf("DROP TABLE with a whole shard down: %v", err)
	}

	// Heal. Nothing is cataloged any more, so both workers rejoin with
	// nothing to re-ship (the stray slices they kept are never named
	// again), and the fleet serves a new table whole.
	healProxy(proxies[1])
	healProxy(proxies[2])
	waitStates(t, co, "healthy", 20*time.Second)
	const script = "CREATE TABLE U (A INTEGER, B TEXT, PRIMARY KEY (A)); INSERT INTO U VALUES (1, 'x'), (2, 'y'), (3, 'z'), (4, 'w'), (5, 'v')"
	if _, err := co.ExecSQL(script, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	oracle := engine.New(6)
	if _, err := oracle.Exec(script, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query("SELECT U.A, U.B FROM U", engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := co.ExecSQL("SELECT U.A, U.B FROM U", engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := storage.Diff(engine.AcrossRegimes, got.Rows, want.Rows); d != "" {
		t.Errorf("healed cluster's U differs from the oracle's: %s", d)
	}
	waitStates(t, co, "healthy", 5*time.Second)
}

// twoDeadCluster is clusterScript on a 3-node R=2 cluster whose workers
// 1 and 2 the breaker has tripped, links still cut: shard 1 lives on
// exactly those two, so it has no live replica.
func twoDeadCluster(t *testing.T, probe time.Duration) (*cluster.Coordinator, []*fault.Proxy, []*engine.DB) {
	t.Helper()
	co, proxies, dbs := proxiedCluster(t, probe)
	tripDead(t, co, proxies, 1, 2)
	return co, proxies, dbs
}

// proxiedCluster is clusterScript on a 3-node R=2 cluster, each worker
// behind its own fault proxy.
func proxiedCluster(t *testing.T, probe time.Duration) (*cluster.Coordinator, []*fault.Proxy, []*engine.DB) {
	t.Helper()
	addrs, dbs := startWorkers(t, 3, false)
	var proxies []*fault.Proxy
	proxyAddrs := make([]string, len(addrs))
	for i, addr := range addrs {
		p, err := fault.NewProxy(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		proxies = append(proxies, p)
		proxyAddrs[i] = p.Addr()
	}
	co, err := cluster.New(cluster.Config{
		Workers:       proxyAddrs,
		Replicas:      2,
		DialTimeout:   time.Second,
		IOTimeout:     2 * time.Second,
		ProbeInterval: probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	if _, err := co.ExecSQL(clusterScript, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	return co, proxies, dbs
}

// tripDead cuts the links of workers ws and reads until the breaker has
// marked every one of them dead.
func tripDead(t *testing.T, co *cluster.Coordinator, proxies []*fault.Proxy, ws ...int) {
	t.Helper()
	for _, w := range ws {
		killProxy(proxies[w])
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		dead := 0
		for _, w := range ws {
			if co.WorkerStates()[w] == "dead" {
				dead++
			}
		}
		if dead == len(ws) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never tripped workers %v: %v", ws, co.WorkerStates())
		}
		co.ExecSQL(clusterQueries[0], engine.Options{})
	}
}

// rejoinOnCleanLinks runs Rejoin(w) until an attempt is not lost to a
// stale pooled connection (each costs one), and returns its answer.
func rejoinOnCleanLinks(t *testing.T, co *cluster.Coordinator, w int) error {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		err := co.Rejoin(w)
		if err == nil || !errors.Is(err, cluster.ErrWorkerLost) {
			return err
		}
		if time.Now().After(deadline) {
			t.Fatalf("Rejoin(%d) never got clean links: %v", w, err)
		}
	}
}

// clusterMatchesOracle holds every clusterQueries answer against the
// single node.
func clusterMatchesOracle(t *testing.T, co *cluster.Coordinator) {
	t.Helper()
	oracle := oracleDB(t)
	for _, sql := range clusterQueries {
		want, err := oracle.Query(sql, engine.Options{Strategy: engine.TransformJA2})
		if err != nil {
			t.Fatal(err)
		}
		got, err := co.ExecSQL(sql, engine.Options{Strategy: engine.TransformJA2})
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if d := storage.Diff(engine.AcrossRegimes, got.Rows, want.Rows); d != "" {
			t.Errorf("%q diverges from the oracle: %s", sql, d)
		}
	}
}

// TestRejoinWithoutLivePeer is rejoin's failure analysis for a shard
// whose every replica is dead (shard 1 on workers 1 and 2), one row per
// thing that can have happened to the copies while the links were down.
// Two copies that still agree rejoin; anything that made them differ,
// or lost one, leaves the shard unavailable rather than pick a copy.
func TestRejoinWithoutLivePeer(t *testing.T) {
	cases := []struct {
		name   string
		tamper string // run on worker 1's engine while it is cut off; "" = nothing
		refuse string // what Rejoin must answer; "" = it heals
	}{
		{"copies agree", "", ""},
		{"ack lost, no peer acked", "INSERT INTO S__S1 VALUES (99, 'ROGUE', 'NOWHERE')", "hold different copies"},
		{"restarted empty", "DROP TABLE S__S1", "unknown relation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			co, proxies, dbs := twoDeadCluster(t, -1)
			if tc.tamper != "" {
				if _, err := dbs[1].Exec(tc.tamper, engine.Options{}); err != nil {
					t.Fatal(err)
				}
			}
			healProxy(proxies[1])
			healProxy(proxies[2])
			err := rejoinOnCleanLinks(t, co, 1)
			if tc.refuse != "" {
				if !errors.Is(err, cluster.ErrShardUnavailable) || !strings.Contains(err.Error(), tc.refuse) {
					t.Fatalf("Rejoin(1) = %v, want ErrShardUnavailable naming %q", err, tc.refuse)
				}
				if st := co.WorkerStates(); st[1] != "dead" || st[2] != "dead" {
					t.Fatalf("workers %v, want 1 and 2 still dead", st)
				}
				if _, err := co.ExecSQL(clusterQueries[0], engine.Options{}); !errors.Is(err, cluster.ErrShardUnavailable) {
					t.Fatalf("read of the unavailable shard: %v, want ErrShardUnavailable", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Rejoin(1) with agreeing copies: %v", err)
			}
			// Worker 1 is live again, so worker 2 rejoins the usual way, by
			// re-ship from it.
			if err := co.Rejoin(2); err != nil {
				t.Fatalf("Rejoin(2) from the rejoined worker 1: %v", err)
			}
			waitStates(t, co, "healthy", time.Second)
			clusterMatchesOracle(t, co)
		})
	}
}

// TestRejoinPastTornReship: a re-ship that fails leaves the returning
// worker's copy half-built, and if the source then dies too, the two
// copies differ through no divergence of the data. The half-built copy
// proves nothing and is not counted: the other copy is re-shipped over
// it, and the fleet heals.
func TestRejoinPastTornReship(t *testing.T) {
	co, proxies, dbs := proxiedCluster(t, -1)
	tripDead(t, co, proxies, 1)
	// Worker 2 is live, so this rejoin re-ships shard 1's first slice,
	// S__S1, to worker 1 — and fails on the cut link, as one cut after the
	// DROP and CREATE would, leaving the slice empty.
	if err := co.Rejoin(1); !errors.Is(err, cluster.ErrWorkerLost) {
		t.Fatalf("Rejoin(1) over a cut link: %v, want ErrWorkerLost", err)
	}
	if _, err := dbs[1].Exec("DELETE FROM S__S1", engine.Options{}); err != nil {
		t.Fatal(err)
	}
	tripDead(t, co, proxies, 2)
	healProxy(proxies[1])
	healProxy(proxies[2])
	if err := rejoinOnCleanLinks(t, co, 1); err != nil {
		t.Fatalf("Rejoin(1) past its torn copy: %v", err)
	}
	if err := co.Rejoin(2); err != nil {
		t.Fatalf("Rejoin(2) from the rejoined worker 1: %v", err)
	}
	waitStates(t, co, "healthy", time.Second)
	clusterMatchesOracle(t, co)
}

// TestWorkerLostFastFailure (the typed-error fast path): a severed
// worker link must surface ErrWorkerLost immediately — the connection
// reset is the signal — not after waiting out the 10s IOTimeout.
func TestWorkerLostFastFailure(t *testing.T) {
	addrs, _ := startWorkers(t, 1, false)
	p, err := fault.NewProxy(addrs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	co, err := cluster.New(cluster.Config{
		Workers:       []string{p.Addr()},
		IOTimeout:     10 * time.Second,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if _, err := co.ExecSQL("CREATE TABLE T (K INTEGER, PRIMARY KEY (K)); INSERT INTO T VALUES (1), (2)", engine.Options{}); err != nil {
		t.Fatal(err)
	}

	killProxy(p)
	start := time.Now()
	_, err = co.ExecSQL("SELECT T.K FROM T", engine.Options{})
	elapsed := time.Since(start)
	if !errors.Is(err, cluster.ErrWorkerLost) {
		t.Fatalf("got %v, want ErrWorkerLost", err)
	}
	var lost *cluster.WorkerLostError
	if !errors.As(err, &lost) {
		t.Fatalf("error %v does not carry *WorkerLostError", err)
	}
	if lost.Worker != 0 {
		t.Errorf("lost worker %d, want 0", lost.Worker)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("failure took %v: the coordinator waited toward IOTimeout instead of reacting to the reset", elapsed)
	}
}

// TestProbeLeavesUserTablesAlone: the prober's reachability statement
// must name a table that can never exist. A user table literally named
// PROBE is legal, and its shard-0 physical slice is PROBE__S0 — a probe
// that dropped that name would silently destroy live replica data
// (unrecoverably at R=1). The prober runs manually (ProbeInterval -1,
// Probe) so the suspect → probe → healthy path is deterministic.
func TestProbeLeavesUserTablesAlone(t *testing.T) {
	addrs, dbs := startWorkers(t, 2, false)
	var proxies []*fault.Proxy
	proxyAddrs := make([]string, len(addrs))
	for i, addr := range addrs {
		p, err := fault.NewProxy(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		proxies = append(proxies, p)
		proxyAddrs[i] = p.Addr()
	}
	co, err := cluster.New(cluster.Config{
		Workers:       proxyAddrs,
		Replicas:      2,
		DialTimeout:   time.Second,
		IOTimeout:     2 * time.Second,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	fixture := `CREATE TABLE PROBE (K INTEGER, NOTE TEXT, PRIMARY KEY (K));
INSERT INTO PROBE VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd'), (5, 'e'), (6, 'f'), (7, 'g'), (8, 'h');`
	if _, err := co.ExecSQL(fixture, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	cols := []string{"K", "NOTE"}
	baseline, ok := engineTable(t, dbs[0], "PROBE__S0", cols)
	if !ok {
		t.Fatal("fixture: worker 0 does not hold PROBE__S0")
	}

	// One transport failure makes worker 0 suspect; the query itself
	// fails over to the other replica and succeeds.
	killProxy(proxies[0])
	if _, err := co.ExecSQL("SELECT PROBE.K, PROBE.NOTE FROM PROBE", engine.Options{}); err != nil {
		t.Fatalf("query should have failed over: %v", err)
	}
	if s := co.WorkerStates()[0]; s != "suspect" {
		t.Fatalf("worker 0 is %s after one transport failure, want suspect", s)
	}
	healProxy(proxies[0])
	if !co.Probe(0) {
		t.Fatal("probe of the healed worker failed")
	}
	if s := co.WorkerStates()[0]; s != "healthy" {
		t.Fatalf("worker 0 is %s after a clean probe, want healthy", s)
	}

	after, ok := engineTable(t, dbs[0], "PROBE__S0", cols)
	if !ok {
		t.Fatal("the health probe dropped user table slice PROBE__S0")
	}
	if !bytes.Equal(baseline, after) {
		t.Fatal("PROBE__S0 changed across a health probe")
	}
	res, err := co.ExecSQL("SELECT PROBE.K, PROBE.NOTE FROM PROBE", engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("PROBE has %d rows after the probe, want 8", len(res.Rows))
	}
}

// TestClusterAnalyzeRefusals (table-driven, under replication): every
// unsound shape must be refused with a typed ErrNotDistributable whose
// message names the reason — never silently answered wrong.
func TestClusterAnalyzeRefusals(t *testing.T) {
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

	cases := []struct {
		name, sql, want string
	}{
		{
			"correlated DELETE subquery",
			"DELETE FROM S WHERE SNO IN (SELECT SNO FROM SP)",
			"subquery would evaluate it per-shard",
		},
		{
			"correlated UPDATE subquery",
			"UPDATE S SET CITY = 'X' WHERE SNO IN (SELECT SNO FROM SP)",
			"subquery would evaluate it per-shard",
		},
		{
			"NOT IN",
			"SELECT S.SNAME FROM S WHERE S.SNO NOT IN (SELECT SP.SNO FROM SP)",
			"NOT IN: an inner NULL on another shard would flip the result",
		},
		{
			"conflicting partition keys",
			"SELECT S.SNAME FROM S WHERE S.SNO IN (SELECT SP.SNO FROM SP WHERE SP.PNO = S.SNO)",
			"would need partitioning on both",
		},
		{
			"uncorrelated EXISTS",
			"SELECT S.SNAME FROM S WHERE EXISTS (SELECT SP.SNO FROM SP WHERE SP.QTY > 0)",
			"not joined to the rest by an equality",
		},
		{
			"non-equality correlation",
			"SELECT S.SNAME FROM S WHERE 0 = (SELECT COUNT(SP.PNO) FROM SP WHERE SP.SNO > S.SNO)",
			"cannot be co-located by hash",
		},
		{
			"top-level DISTINCT",
			"SELECT DISTINCT S.CITY FROM S",
			"top-level DISTINCT needs a global dedup",
		},
		{
			"top-level aggregate",
			"SELECT COUNT(SP.PNO) FROM SP",
			"top-level aggregates span shards",
		},
		{
			"top-level ORDER BY",
			"SELECT S.SNAME FROM S ORDER BY S.SNAME",
			"top-level ORDER BY needs a global sort",
		},
		{
			"top-level GROUP BY",
			"SELECT SP.SNO, COUNT(SP.PNO) FROM SP GROUP BY SP.SNO",
			"top-level GROUP BY groups span shards",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := co.ExecSQL(tc.sql, engine.Options{})
			if !errors.Is(err, cluster.ErrNotDistributable) {
				t.Fatalf("%q: got %v, want ErrNotDistributable", tc.sql, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%q: error %q does not name the reason %q", tc.sql, err, tc.want)
			}
		})
	}
}

// workerDaemon is one nestedsqld worker subprocess on a pinned address.
type workerDaemon struct {
	cmd  *exec.Cmd
	addr string

	mu     sync.Mutex
	stderr strings.Builder
}

func (d *workerDaemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// buildWorkerDaemon compiles nestedsqld with -race into a temp dir.
func buildWorkerDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "nestedsqld")
	cmd := exec.Command("go", "build", "-race", "-o", bin, "repro/cmd/nestedsqld")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -race: %v\n%s", err, out)
	}
	return bin
}

// pinAddr reserves a loopback address a daemon can be restarted on.
func pinAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	return addr
}

// startWorkerDaemon launches one in-memory worker on a pinned address
// and waits for its listening line. No data dir: a SIGKILLed worker
// restarts empty, exactly the state the snapshot rejoin must repair.
func startWorkerDaemon(t *testing.T, bin, addr string) *workerDaemon {
	t.Helper()
	cmd := exec.Command(bin, "-addr", addr, "-fixture", "none", "-drain-timeout", "5s")
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &workerDaemon{cmd: cmd, addr: addr}
	up := make(chan struct{}, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if strings.Contains(line, "listening on ") {
				select {
				case up <- struct{}{}:
				default:
				}
			}
		}
	}()
	select {
	case <-up:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("worker daemon never listened on %s; stderr:\n%s", addr, d.log())
	}
	return d
}

// TestClusterFailoverStorm is the make cluster-failover gate: three
// real worker daemons at R=2 behind fault proxies take concurrent
// queries (byte-diffed against the single-node oracle) and sequential
// DML while one daemon is SIGKILLed mid-storm and restarted empty on
// the same address. Every acknowledged write must survive on a replica,
// every completed query must match the oracle, the restarted worker
// must rejoin via snapshot re-ship, and nothing — staging tables or
// goroutines — may leak.
func TestClusterFailoverStorm(t *testing.T) {
	if testing.Short() && os.Getenv("FAILOVER_STORM_SHORT") == "" {
		t.Skip("failover storm skipped in -short mode without FAILOVER_STORM_SHORT=1")
	}
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

	bin := buildWorkerDaemon(t)
	const workers = 3
	const victim = 0
	addrs := make([]string, workers)
	daemons := make([]*workerDaemon, workers)
	for i := range addrs {
		addrs[i] = pinAddr(t)
		daemons[i] = startWorkerDaemon(t, bin, addrs[i])
	}
	defer func() {
		for _, d := range daemons {
			if d != nil && d.cmd.ProcessState == nil {
				d.cmd.Process.Kill()
				d.cmd.Wait()
			}
		}
	}()

	var proxies []*fault.Proxy
	proxyAddrs := make([]string, workers)
	for i, addr := range addrs {
		p, err := fault.NewProxy(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		proxies = append(proxies, p)
		proxyAddrs[i] = p.Addr()
	}

	co, err := cluster.New(cluster.Config{
		Workers:       proxyAddrs,
		Replicas:      2,
		Placement:     map[string]string{"SP": "PNO"}, // shuffle under fire
		DialTimeout:   2 * time.Second,
		IOTimeout:     3 * time.Second,
		ProbeInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.ExecSQL(clusterScript, engine.Options{}); err != nil {
		t.Fatalf("cluster load: %v", err)
	}
	if _, err := co.ExecSQL("CREATE TABLE DURABLE (K INTEGER, V INTEGER, PRIMARY KEY (K))", engine.Options{}); err != nil {
		t.Fatal(err)
	}

	// Fault schedule: hard faults only on the victim's link — the
	// surviving replicas must stay authoritative, or a row acked by the
	// victim alone would die with it. The other links get the
	// non-destructive reality (latency, split writes).
	victimPlan := fault.Plan{
		Seed: clusterSeed, Max: 8, Latency: 2 * time.Millisecond,
		Rates: fault.Rates{fault.NetDelay: 0.05, fault.NetSplit: 0.25, fault.NetCorrupt: 0.01, fault.NetDrop: 0.01},
	}
	defer func() {
		if t.Failed() {
			t.Logf("fault plan armed on the victim's link: %v", victimPlan)
		}
	}()
	victimFaults := fault.New(victimPlan)
	proxies[victim].Arm(victimFaults)
	for i, p := range proxies {
		if i != victim {
			p.Arm(fault.New(fault.Plan{
				Seed: clusterSeed + int64(i), Latency: 2 * time.Millisecond,
				Rates: fault.Rates{fault.NetDelay: 0.05, fault.NetSplit: 0.25},
			}))
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Query load: completed results must match the oracle byte for byte;
	// failures must be typed.
	var completed, failed atomic.Int64
	const queryClients = 2
	for ci := 0; ci < queryClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for r := 0; ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				sql := clusterQueries[(ci+r)%len(clusterQueries)]
				res, err := co.ExecSQL(sql, engine.Options{Strategy: engine.TransformJA2})
				if err != nil {
					failed.Add(1)
					if !typedClusterError(err) {
						t.Errorf("query client %d: untyped error: %T %v", ci, err, err)
					}
					continue
				}
				completed.Add(1)
				if d := storage.Diff(engine.AcrossRegimes, res.Rows, oracleRows[sql]); d != "" {
					t.Errorf("query client %d: completed %q diverges from oracle mid-storm: %s", ci, sql, d)
				}
			}
		}(ci)
	}

	// DML load: sequential keys, tracking what was acked and what
	// errored. An acked key MUST survive; an errored key may or may not
	// have landed (the ack could have died on the wire).
	ackedKeys := make(map[int]bool)
	erroredKeys := make(map[int]bool)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			sql := fmt.Sprintf("INSERT INTO DURABLE VALUES (%d, %d)", k, k*7)
			if _, err := co.ExecSQL(sql, engine.Options{}); err != nil {
				erroredKeys[k] = true
				if !typedClusterError(err) {
					t.Errorf("DML key %d: untyped error: %T %v", k, err, err)
				}
				continue
			}
			ackedKeys[k] = true
		}
	}()

	// The hammer: SIGKILL the victim mid-storm, let the cluster run a
	// while without it, then restart it empty on the same address.
	time.Sleep(500 * time.Millisecond)
	if err := daemons[victim].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	daemons[victim].cmd.Wait()
	time.Sleep(500 * time.Millisecond)
	daemons[victim] = startWorkerDaemon(t, bin, addrs[victim])
	time.Sleep(time.Second)
	close(stop)
	wg.Wait()

	// Disarm and let the prober heal the fleet: the restarted-empty
	// victim must come back through the snapshot rejoin.
	for _, p := range proxies {
		healProxy(p)
	}
	waitStates(t, co, "healthy", 60*time.Second)

	// Final correctness pass. A still-stale slice would be caught here —
	// either served wrong (byte-diff fails) or detected as restarted-
	// empty (failover serves the peer, the worker is re-rejoined).
	for _, sql := range clusterQueries {
		res, err := co.ExecSQL(sql, engine.Options{Strategy: engine.TransformJA2})
		if err != nil {
			t.Fatalf("post-heal %q: %v", sql, err)
		}
		if d := storage.Diff(engine.AcrossRegimes, res.Rows, oracleRows[sql]); d != "" {
			t.Errorf("post-heal %q diverges from oracle: %s", sql, d)
		}
	}
	waitStates(t, co, "healthy", 60*time.Second)

	// Durability: every acked key survived the SIGKILL, nothing appears
	// that was never sent, and no key was double-counted across shards.
	res, err := co.ExecSQL("SELECT DURABLE.K FROM DURABLE", engine.Options{})
	if err != nil {
		t.Fatalf("read DURABLE: %v", err)
	}
	got := make(map[int]int)
	for _, row := range res.Rows {
		got[int(row[0].Int())]++
	}
	for k, n := range got {
		if n != 1 {
			t.Errorf("key %d appears %d times", k, n)
		}
		if !ackedKeys[k] && !erroredKeys[k] {
			t.Errorf("ghost key %d: never sent, yet present", k)
		}
	}
	lost := 0
	for k := range ackedKeys {
		if got[k] == 0 {
			lost++
			t.Errorf("acked key %d lost after SIGKILL + rejoin", k)
		}
	}
	if n := co.SweepStaging(); n != 0 {
		t.Errorf("%d staging tables still live after heal and sweep", n)
	}
	t.Logf("failover storm: %d queries completed, %d failed typed; %d keys acked (%d lost), %d errored; victim faults injected: %d",
		completed.Load(), failed.Load(), len(ackedKeys), lost, len(erroredKeys), victimFaults.Injected())
	if completed.Load() == 0 {
		t.Error("no query completed; the storm proved nothing")
	}
	if len(ackedKeys) == 0 {
		t.Error("no DML acked; the storm proved nothing about durability")
	}

	co.Close()
	for i, d := range daemons {
		d.cmd.Process.Kill()
		d.cmd.Wait()
		daemons[i] = nil
	}
	for _, p := range proxies {
		p.Close()
	}

	// Goroutine hygiene: pools, prober, and proxies all unwound.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after failover storm: baseline=%d now=%d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
