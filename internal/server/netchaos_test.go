package server_test

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/qctx"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wire"
)

// chaosSeed fixes the proxy's fault schedules. It does not make a
// failure replay: where a live socket cuts its chunks, and how the
// clients interleave, differ from run to run.
const chaosSeed = 20260805

// canon renders a result as the canonical RowBatch wire encoding, the
// byte-for-byte comparison key between a storm survivor and the oracle.
func canon(cols []string, rows []storage.Tuple) []byte {
	return wire.EncodeRowBatch(wire.RowBatch{Columns: cols, Rows: rows})
}

// typedStormError reports whether an error from a chaos-storm query is
// one of the acceptable, typed outcomes. Anything else — and above all
// a *successful* result that differs from the oracle — is a bug.
func typedStormError(err error) bool {
	var re *wire.RemoteError
	return errors.As(err, &re) || // any server-reported failure, taxonomy intact
		client.LinkFailure(err) || // dial/handshake timeouts through a faulted link included
		errors.Is(err, wire.ErrSlowConsumer) ||
		errors.Is(err, qctx.ErrCanceled) ||
		errors.Is(err, qctx.ErrOverloaded)
}

// TestNetChaosStorm is the tentpole's capstone: N clients hammer the
// server through a seeded fault-injecting proxy that delays, splits,
// corrupts, truncates, drops, and partitions their traffic. Every query
// that completes must be byte-identical to the in-process oracle for its
// strategy; every query that fails must fail typed. Afterwards: no
// leaked goroutines, no stuck admission slots, no orphaned pool leases.
func TestNetChaosStorm(t *testing.T) {
	baseline := runtime.NumGoroutine()
	db := serverDB(t)
	db.EnableAdmission(admission.Config{
		MaxConcurrent: 4, QueueDepth: 8, PoolBytes: 8 << 20,
	})

	// In-process oracles, one per strategy (row order is part of the
	// contract and differs between strategies).
	strategies := []struct {
		wireStrat byte
		eng       engine.Strategy
	}{
		{wire.StrategyNested, engine.NestedIteration},
		{wire.StrategyTransform, engine.TransformJA2},
		{wire.StrategyKim, engine.TransformKim},
	}
	oracle := make(map[byte][]byte)
	for _, s := range strategies {
		res, err := db.Query(serverQuery, engine.Options{Strategy: s.eng})
		if err != nil {
			t.Fatalf("oracle %d: %v", s.wireStrat, err)
		}
		oracle[s.wireStrat] = canon(res.Columns, res.Rows)
	}

	srv := server.New(db, server.Config{
		Strategy:          engine.TransformJA2,
		BatchRows:         5, // many frames per result: more chances for chaos
		WriteTimeout:      2 * time.Second,
		HeartbeatInterval: 200 * time.Millisecond,
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	plan := fault.Plan{
		Seed: chaosSeed,
		Max:  48,
		Rates: fault.Rates{fault.NetDelay: 0.05, fault.NetSplit: 0.25, fault.NetCorrupt: 0.02,
			fault.NetTruncate: 0.01, fault.NetDrop: 0.01, fault.NetPartition: 0.005},
		Latency: 2 * time.Millisecond,
	}
	defer func() {
		if t.Failed() {
			t.Logf("fault plan armed on the proxy: %v", plan)
		}
	}()
	inj := fault.New(plan)
	proxy, err := fault.NewProxy(lis.Addr().String(), inj)
	if err != nil {
		t.Fatal(err)
	}

	const (
		clients = 6
		rounds  = 8
	)
	var completed, failed, mismatches atomic.Int64
	var wg sync.WaitGroup
	for ci := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				strat := strategies[(ci+r)%len(strategies)]
				c, err := client.DialOpts(proxy.Addr(), client.DialOptions{
					Timeout:   2 * time.Second,
					IOTimeout: 3 * time.Second, // cuts partition hangs
				})
				if err != nil {
					failed.Add(1)
					if !typedStormError(err) {
						t.Errorf("client %d round %d: untyped dial error: %v", ci, r, err)
					}
					continue
				}
				res, err := c.Collect(serverQuery, client.Options{Strategy: strat.wireStrat})
				if err != nil {
					failed.Add(1)
					if !typedStormError(err) {
						t.Errorf("client %d round %d: untyped query error: %T %v", ci, r, err, err)
					}
				} else {
					completed.Add(1)
					if got := canon(res.Columns, res.Rows); !bytes.Equal(got, oracle[strat.wireStrat]) {
						mismatches.Add(1)
						t.Errorf("client %d round %d strategy %d: completed result differs from oracle (%d vs %d bytes) — garbled or duplicated rows reached the caller",
							ci, r, strat.wireStrat, len(got), len(oracle[strat.wireStrat]))
					}
				}
				c.Close()
			}
		}()
	}
	wg.Wait()
	if err := proxy.Close(); err != nil {
		t.Errorf("proxy close: %v", err)
	}
	t.Logf("storm: %d completed, %d failed typed, %d injected faults, %d proxied connections",
		completed.Load(), failed.Load(), inj.Injected(), proxy.Connections())

	// The storm must not be vacuous in either direction: some queries
	// survive the chaos, and the chaos actually injected faults.
	if completed.Load() == 0 {
		t.Error("no query completed; the storm proved nothing about result integrity")
	}
	if inj.Injected() == 0 {
		t.Error("no fault injected; the storm proved nothing about fault handling")
	}
	if mismatches.Load() > 0 {
		t.Errorf("%d completed results diverged from the oracle", mismatches.Load())
	}

	// Quiescence: every admission slot and pool lease released once the
	// cancellations propagate.
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := db.Admission().Stats()
		if st.Running == 0 && st.Waiting == 0 && st.PoolUsed == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission never quiesced after the storm: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("Serve: %v", err)
	}
	waitGoroutineBaseline(t, baseline, "chaos storm")
}
