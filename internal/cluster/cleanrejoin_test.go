package cluster_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/netfault"
)

// TestRejoinWithoutDivergence: at 3 workers and R=2 any two workers share
// a shard, so when the breaker trips two of them in one burst neither
// has a live replica to be re-shipped from — on the parent the fleet
// stayed [healthy dead dead] for good although no worker had lost a byte
// (the TestClusterChaosStorm heal failures). A worker the breaker
// tripped on transport evidence alone, past which no write was
// committed, has not diverged: the rejoin only checks that its slices
// are still there. A worker that did lose them (restarted empty) fails
// that check and is re-shipped as before.
func TestRejoinWithoutDivergence(t *testing.T) {
	oracle := oracleDB(t)
	addrs, dbs := startWorkers(t, 3, false)
	var proxies []*netfault.Proxy
	proxyAddrs := make([]string, len(addrs))
	for i, addr := range addrs {
		p, err := netfault.New(addr, netfault.Config{})
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
		ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if _, err := co.ExecSQL(clusterScript, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	// strike runs reads until the breaker has tripped every worker in ws.
	strike := func(ws ...int) {
		t.Helper()
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
				t.Fatalf("breaker never tripped %v: %v", ws, co.WorkerStates())
			}
			co.ExecSQL(clusterQueries[0], engine.Options{Strategy: engine.TransformJA2})
		}
	}
	matchesOracle := func(phase string) {
		t.Helper()
		for _, sql := range clusterQueries {
			want, err := oracle.Query(sql, engine.Options{Strategy: engine.TransformJA2})
			if err != nil {
				t.Fatal(err)
			}
			got, err := co.ExecSQL(sql, engine.Options{Strategy: engine.TransformJA2})
			if err != nil {
				t.Fatalf("%s: %q: %v", phase, sql, err)
			}
			if !bytes.Equal(canonSorted(want.Columns, want.Rows), canonSorted(got.Columns, got.Rows)) {
				t.Errorf("%s: %q diverges from oracle", phase, sql)
			}
		}
	}

	// Two workers at once: shard 1 has no live replica left.
	killProxy(proxies[1])
	killProxy(proxies[2])
	strike(1, 2)
	if _, err := co.ExecSQL(clusterQueries[0], engine.Options{}); !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Fatalf("read with a whole shard down: %v, want ErrShardUnavailable", err)
	}
	healProxy(proxies[1])
	healProxy(proxies[2])
	waitStates(t, co, "healthy", 20*time.Second)
	matchesOracle("both workers back, nothing re-shipped")

	// Worker 0 is tripped and comes back empty, with no write in between.
	killProxy(proxies[0])
	strike(0)
	for _, name := range dbs[0].Catalog().Names() {
		if err := dbs[0].DropRelation(name); err != nil {
			t.Fatal(err)
		}
	}
	healProxy(proxies[0])
	waitStates(t, co, "healthy", 20*time.Second)
	for _, tc := range []struct {
		table string
		cols  []string
	}{{"S", []string{"SNO", "SNAME", "CITY"}}, {"SP", []string{"SNO", "PNO", "QTY"}}} {
		for _, shard := range []struct{ s, peer int }{{0, 1}, {2, 2}} {
			phys := fmt.Sprintf("%s__S%d", tc.table, shard.s)
			got, ok := engineTable(t, dbs[0], phys, tc.cols)
			want, _ := engineTable(t, dbs[shard.peer], phys, tc.cols)
			if !ok || !bytes.Equal(got, want) {
				t.Errorf("worker 0 came back without a re-shipped %s", phys)
			}
		}
	}
	killProxy(proxies[1])
	matchesOracle("worker 1 dead, re-shipped worker 0 serving")
	healProxy(proxies[1])
	waitStates(t, co, "healthy", 20*time.Second)
}
