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
	"repro/internal/value"
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

	// Heal everything and prove the prober left no staging table behind.
	healProxy(proxies[1])
	waitStates(t, co, "healthy", 20*time.Second)
	waitStagingDropped(t, co, 10*time.Second)
}

// TestClusterFailoverDropDuringOutage: DROP TABLE is best effort on the
// workers and always forgets the table. With workers 1 and 2 of a 3-node
// R=2 cluster cut off, shard 1's last live replica is unreachable: a read
// of it fails ErrWorkerLost, and so does the DROP of its slice — after
// worker 0 had already dropped its own. A catalog entry kept over those
// half-dropped slices would turn the next SELECT's "unknown relation"
// into a dead worker 0.
func TestClusterFailoverDropDuringOutage(t *testing.T) {
	co, proxies, dbs := proxiedCluster(t, 3, 2, 50*time.Millisecond)
	killProxy(proxies[1])
	killProxy(proxies[2])
	if _, err := co.ExecSQL(clusterQueries[0], engine.Options{}); !errors.Is(err, cluster.ErrWorkerLost) {
		t.Fatalf("read with shard 1's replicas cut off: %v, want ErrWorkerLost", err)
	}

	if _, err := co.ExecSQL("DROP TABLE SP", engine.Options{}); err != nil {
		t.Fatalf("DROP TABLE with shard 1 unreachable: %v", err)
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
	if _, err := co.ExecSQL("DROP TABLE S", engine.Options{}); err != nil {
		t.Fatalf("DROP TABLE with shard 1 unreachable: %v", err)
	}
	if st := co.WorkerStates()[0]; st != "healthy" {
		t.Fatalf("worker 0 is %s after DROPs it served: %v", st, co.WorkerStates())
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

// proxiedCluster is clusterScript on an n-worker cluster at the given
// replica count, each worker behind its own fault proxy.
func proxiedCluster(t *testing.T, n, replicas int, probe time.Duration) (*cluster.Coordinator, []*fault.Proxy, []*engine.DB) {
	t.Helper()
	addrs, dbs := startWorkers(t, n, false)
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
		Replicas:      replicas,
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

// readsFailLost runs n reads of shard 1 and requires each to fail with
// ErrWorkerLost: its last live replica is cut off, yet still routed to.
func readsFailLost(t *testing.T, co *cluster.Coordinator, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := co.ExecSQL(clusterQueries[0], engine.Options{}); !errors.Is(err, cluster.ErrWorkerLost) {
			t.Fatalf("read %d: %v, want ErrWorkerLost (states %v)", i, err, co.WorkerStates())
		}
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

// probeUntilHealthy probes w until it is healthy; a probe on a stale
// pooled connection only discards it.
func probeUntilHealthy(t *testing.T, co *cluster.Coordinator, w int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !co.Probe(w); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("worker %d never probed healthy: %v", w, co.WorkerStates())
		}
	}
}

// waitStagingDropped polls until the prober has dropped every staging
// table a query left behind.
func waitStagingDropped(t *testing.T, co *cluster.Coordinator, timeout time.Duration) {
	t.Helper()
	for deadline := time.Now().Add(timeout); co.LiveStaging() != 0; time.Sleep(25 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%d staging tables still live after the fleet healed", co.LiveStaging())
			return
		}
	}
}

// clusterMatchesOracle holds every clusterQueries answer against oracle.
func clusterMatchesOracle(t *testing.T, co *cluster.Coordinator, oracle *engine.DB) {
	t.Helper()
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

// keyOnShard returns the first S key from k up that routes to shard s of
// three.
func keyOnShard(s, k int) int {
	part := cluster.Partitioner{NumShards: 3, KeyCols: []int{0}}
	for ; ; k++ {
		if part.Shard(storage.Tuple{value.NewInt(int64(k))}) == s {
			return k
		}
	}
}

// lastCopyCluster leaves worker 2 of a 3-node R=2 cluster dead as shard
// 1's last copy. Worker 1 is tripped dead first, so rows acked on shard
// 1 land on worker 2 alone. Then worker 2 is cut off — shard 1's last
// live replica, so no strike kills it — and a one-row INSERT routed to
// shard 2 is acked by worker 0 alone, which kills worker 2 for missing
// it. The returned oracle holds every acked row.
func lastCopyCluster(t *testing.T) (*cluster.Coordinator, []*fault.Proxy, []*engine.DB, *engine.DB) {
	t.Helper()
	co, proxies, dbs := proxiedCluster(t, 3, 2, -1)
	oracle := oracleDB(t)
	both := func(sql string) {
		t.Helper()
		if _, err := co.ExecSQL(sql, engine.Options{}); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if _, err := oracle.Exec(sql, engine.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	tripDead(t, co, proxies, 1)
	k := keyOnShard(1, 100)
	both(fmt.Sprintf("INSERT INTO S VALUES (%d, 'ONLY', 'TWO'), (%d, 'ONLY', 'TWO')", k, keyOnShard(1, k+1)))
	killProxy(proxies[2])
	both(fmt.Sprintf("INSERT INTO S VALUES (%d, 'MISSED', 'BYTWO')", keyOnShard(2, 100)))
	if st := co.WorkerStates(); st[0] != "healthy" || st[1] != "dead" || st[2] != "dead" {
		t.Fatalf("workers %v, want worker 0 healthy, 1 and 2 dead", st)
	}
	return co, proxies, dbs, oracle
}

// TestR1WorkerComesBack: at R=1 every worker holds its shard's only
// copy, so no transport strike kills one. A worker cut off for many reads
// stays suspect and routable, each read failing typed, and one probe
// after the link heals brings it back with nothing to re-ship.
func TestR1WorkerComesBack(t *testing.T) {
	co, proxies, _ := proxiedCluster(t, 2, 1, -1)
	killProxy(proxies[1])
	readsFailLost(t, co, 5)
	if st := co.WorkerStates()[1]; st != "suspect" {
		t.Fatalf("worker 1, the only copy of shard 1, is %s after five cut reads, want suspect", st)
	}
	healProxy(proxies[1])
	if !co.Probe(1) {
		t.Fatalf("worker 1 did not heal on one probe: %v", co.WorkerStates())
	}
	clusterMatchesOracle(t, co, oracleDB(t))
}

// TestLastLiveCopyStaysRoutable: workers 1 and 2 of a 3-node R=2 cluster
// both host shard 1. Cut both, and the breaker kills only one of them;
// the other holds shard 1's last live copy and stays suspect. After the
// links heal, a probe heals the suspect and the dead one rejoins from it.
func TestLastLiveCopyStaysRoutable(t *testing.T) {
	co, proxies, _ := proxiedCluster(t, 3, 2, -1)
	killProxy(proxies[1])
	killProxy(proxies[2])
	readsFailLost(t, co, 5)
	st := co.WorkerStates()
	dead, suspect := 1, 2
	if st[2] == "dead" {
		dead, suspect = 2, 1
	}
	if st[0] != "healthy" || st[dead] != "dead" || st[suspect] != "suspect" {
		t.Fatalf("workers %v, want 0 healthy and one of 1, 2 dead, the other suspect", st)
	}
	healProxy(proxies[1])
	healProxy(proxies[2])
	probeUntilHealthy(t, co, suspect)
	probeUntilHealthy(t, co, dead)
	waitStates(t, co, "healthy", time.Second)
	clusterMatchesOracle(t, co, oracleDB(t))
}

// TestDivergedLastCopyIsKept: a worker killed for a missed write while it
// held a shard's only live copy keeps that copy. With both of shard 1's
// replicas dead, reads of it fail typed and the other replica cannot
// rejoin; the last copy can, re-shipping only the shard it missed a write
// on, and then the other replica rejoins from it.
func TestDivergedLastCopyIsKept(t *testing.T) {
	co, proxies, _, oracle := lastCopyCluster(t)
	if _, err := co.ExecSQL(clusterQueries[0], engine.Options{}); !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Fatalf("read with both of shard 1's replicas dead: %v, want ErrShardUnavailable", err)
	}
	healProxy(proxies[1])
	healProxy(proxies[2])
	if err := co.Rejoin(1); !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Fatalf("Rejoin(1) before shard 1's last copy is back: %v, want ErrShardUnavailable", err)
	}
	if err := rejoinOnCleanLinks(t, co, 2); err != nil {
		t.Fatalf("Rejoin(2), shard 1's last copy: %v", err)
	}
	if err := rejoinOnCleanLinks(t, co, 1); err != nil {
		t.Fatalf("Rejoin(1) from the rejoined worker 2: %v", err)
	}
	waitStates(t, co, "healthy", time.Second)
	clusterMatchesOracle(t, co, oracle)
}

// TestRejoinWithoutLivePeer is the rejoin rule for a shard with no live
// replica (shard 1, worker 2 its last copy), one row per thing that can
// have happened to a copy meanwhile. A dead worker's own copy is never
// trusted: a rogue row on it (an ack lost where no peer acked) is
// re-shipped over from the last copy. A last copy that came back empty
// is a lost shard: rejoin refuses, and the shard stays unavailable.
func TestRejoinWithoutLivePeer(t *testing.T) {
	cases := []struct {
		name   string
		w      int    // whose engine is tampered with while cut off
		tamper string // run on it
		refuse string // what Rejoin(2) must answer; "" = it heals
	}{
		{"rogue row on the dead copy", 1, "INSERT INTO S__S1 VALUES (99, 'ROGUE', 'NOWHERE')", ""},
		{"restarted-empty last copy", 2, "DROP TABLE S__S1", "unknown relation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			co, proxies, dbs, oracle := lastCopyCluster(t)
			if _, err := dbs[tc.w].Exec(tc.tamper, engine.Options{}); err != nil {
				t.Fatal(err)
			}
			healProxy(proxies[1])
			healProxy(proxies[2])
			err := rejoinOnCleanLinks(t, co, 2)
			if tc.refuse != "" {
				if !errors.Is(err, cluster.ErrShardUnavailable) || !strings.Contains(err.Error(), tc.refuse) {
					t.Fatalf("Rejoin(2) = %v, want ErrShardUnavailable naming %q", err, tc.refuse)
				}
				for _, w := range []int{2, 1} {
					if err := co.Rejoin(w); !errors.Is(err, cluster.ErrShardUnavailable) {
						t.Fatalf("Rejoin(%d) of a lost shard: %v, want ErrShardUnavailable", w, err)
					}
				}
				if st := co.WorkerStates(); st[1] != "dead" || st[2] != "dead" {
					t.Fatalf("workers %v, want 1 and 2 still dead", st)
				}
				if _, err := co.ExecSQL(clusterQueries[0], engine.Options{}); !errors.Is(err, cluster.ErrShardUnavailable) {
					t.Fatalf("read of the lost shard: %v, want ErrShardUnavailable", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Rejoin(2), shard 1's last copy: %v", err)
			}
			if err := rejoinOnCleanLinks(t, co, 1); err != nil {
				t.Fatalf("Rejoin(1) from the rejoined worker 2: %v", err)
			}
			waitStates(t, co, "healthy", time.Second)
			clusterMatchesOracle(t, co, oracle)
		})
	}
}

// TestRejoinPastTornReship: a re-ship that fails leaves the returning
// worker's copy half-built. Its source is then shard 1's only live copy,
// so a cut can no longer kill it: it stays suspect, the next rejoin
// re-ships from it over the half-built copy, and the fleet heals.
func TestRejoinPastTornReship(t *testing.T) {
	co, proxies, dbs := proxiedCluster(t, 3, 2, -1)
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
	killProxy(proxies[2])
	readsFailLost(t, co, 5)
	if st := co.WorkerStates()[2]; st != "suspect" {
		t.Fatalf("worker 2, shard 1's last live copy, is %s after a cut, want suspect", st)
	}
	healProxy(proxies[1])
	healProxy(proxies[2])
	if err := rejoinOnCleanLinks(t, co, 1); err != nil {
		t.Fatalf("Rejoin(1) past its torn copy: %v", err)
	}
	probeUntilHealthy(t, co, 2)
	waitStates(t, co, "healthy", time.Second)
	clusterMatchesOracle(t, co, oracleDB(t))
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
	waitStagingDropped(t, co, 10*time.Second)
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
