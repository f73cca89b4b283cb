// Deadline tests: a distributed query has one deadline and one cancel,
// shared by every worker call of both rounds, however slow the links.
package cluster_test

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/qctx"
)

// slowCluster is clusterScript on two workers at R=2, each behind a fault
// proxy, with SP placed on PNO so a query correlated on SNO shuffles it.
// Once the script is loaded every proxied chunk sleeps latency first.
func slowCluster(t *testing.T, latency time.Duration) *cluster.Coordinator {
	t.Helper()
	addrs, _ := startWorkers(t, 2, false)
	var proxies []*fault.Proxy
	for _, addr := range addrs {
		p, err := fault.NewProxy(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		proxies = append(proxies, p)
	}
	co, err := cluster.New(cluster.Config{
		Workers:       []string{proxies[0].Addr(), proxies[1].Addr()},
		Replicas:      2,
		Placement:     map[string]string{"SP": "PNO"},
		DialTimeout:   5 * time.Second,
		IOTimeout:     5 * time.Second,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	if _, err := co.ExecSQL(clusterScript, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, p := range proxies {
		p.Arm(fault.New(fault.Plan{Rates: fault.Rates{fault.NetDelay: 1}, Latency: latency}))
	}
	return co
}

// allHealthy fails the test unless every worker is healthy: a deadline
// or a cancel is the query's fate, never a strike against a worker.
func allHealthy(t *testing.T, co *cluster.Coordinator) {
	t.Helper()
	if states := co.WorkerStates(); slices.ContainsFunc(states, func(s string) bool { return s != "healthy" }) {
		t.Errorf("worker states %v, want all healthy", states)
	}
}

// TestGatherCancelReachesWorkers: closing a query's Cancel while its
// gather waits on slow links fails it with ErrCanceled at once, instead
// of leaving the shard queries to run out, and strikes no worker.
func TestGatherCancelReachesWorkers(t *testing.T) {
	const latency = 300 * time.Millisecond
	co := slowCluster(t, latency)
	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := co.ExecSQL("SELECT S.SNAME, S.CITY FROM S WHERE S.CITY = 'PARIS'",
			engine.Options{Strategy: engine.TransformJA2, Cancel: cancel})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // the Query frames sit in the proxies
	close(cancel)
	canceled := time.Now()
	select {
	case err := <-done:
		if !errors.Is(err, qctx.ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		if waited := time.Since(canceled); waited > latency {
			t.Errorf("the query returned %v after its cancel, want under one link latency (%v)", waited, latency)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a canceled query never returned")
	}
	allHealthy(t, co)
}

// TestShuffleHasOneDeadline: each round of a shuffled query takes about
// 60% of its Timeout on the slow links — one worker call, two link
// latencies — so both rounds together cannot fit. The query fails with
// ErrQueryTimeout rather than giving each round the whole Timeout, and
// the error arrives within 480 ms: the query's staging drops, one round
// trip each, run at once rather than one after another, which took 600
// ms and more. No staging table outlives the query.
func TestShuffleHasOneDeadline(t *testing.T) {
	const latency = 50 * time.Millisecond
	co := slowCluster(t, latency)
	const sql = "SELECT S.SNO, S.SNAME FROM S WHERE 2 = (SELECT COUNT(SP.PNO) FROM SP WHERE SP.SNO = S.SNO)"
	start := time.Now()
	_, err := co.ExecSQL(sql, engine.Options{Strategy: engine.TransformJA2, Timeout: 170 * time.Millisecond})
	took := time.Since(start)
	if !errors.Is(err, qctx.ErrQueryTimeout) {
		t.Fatalf("err = %v, want ErrQueryTimeout", err)
	}
	if took > 480*time.Millisecond {
		t.Errorf("ErrQueryTimeout arrived after %v, want within 480ms", took)
	}
	if n := co.LiveStaging(); n != 0 {
		t.Errorf("%d staging tables outlive the query", n)
	}
	allHealthy(t, co)
}
