package cluster_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
)

// edgeScript loads every value that a render→lex→parse hop could bend:
// NULLs, dates, strings carrying quote / semicolon / comment / newline
// characters, the empty string, math.MinInt64, floats at and past 2^63
// (whose display form is an exponent), a float with an integral value,
// and -0.0.
const edgeScript = `
CREATE TABLE EDGE (K INTEGER, G INTEGER, S TEXT, F FLOAT, D DATE, PRIMARY KEY (K));
CREATE TABLE REF (G INTEGER, PRIMARY KEY (G));
INSERT INTO REF VALUES (0), (1), (2);
INSERT INTO EDGE VALUES
  (1, 0, 'it''s', 1000000000000000000000.0, 7-3-79),
  (2, 1, 'a;b', -0.0, NULL),
  (3, 2, 'a -- b', 9223372036854775808.0, 1-1-80),
  (4, 0, 'line1
line2', 3.0, 2001-05-06),
  (5, 1, '', NULL, NULL),
  (-9223372036854775808, 2, NULL, 0.000001, 12-31-99),
  (7, NULL, 'null key', 1.5, NULL);
`

var edgeQueries = []string{
	// Gathered straight off the routed-INSERT slices.
	"SELECT E.K, E.G, E.S, E.F, E.D FROM EDGE E",
	// EDGE is placed on K; joining on G forces it through shuffle staging.
	"SELECT E.K, E.G, E.S, E.F, E.D FROM EDGE E WHERE E.G IN (SELECT R.G FROM REF R)",
	"SELECT E.K, E.S, E.F FROM EDGE E WHERE EXISTS (SELECT R.G FROM REF R WHERE R.G = E.G)",
	// The text path that remains (per-shard SELECT) carries the literals.
	"SELECT E.K, E.F FROM EDGE E WHERE E.F >= 1000000000000000000000.0 OR E.F = -0.0 OR E.S = 'a -- b'",
}

// TestRowsSurviveEveryPath: rows now travel coordinator→worker as rows
// (Load frames) on all three paths that used to render them as INSERT
// text — routed INSERT, shuffle landing, snapshot re-ship — so every
// value must come out the far end bit for bit what a single node stores:
// gathers are compared to the single-node oracle as encoded bytes, which
// tell -0.0 from 0.0 and 3.0 from 3.
func TestRowsSurviveEveryPath(t *testing.T) {
	oracle := engine.New(6)
	if _, err := oracle.Exec(edgeScript, engine.Options{}); err != nil {
		t.Fatal(err)
	}
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
		DialTimeout:   time.Second,
		IOTimeout:     2 * time.Second,
		ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if _, err := co.ExecSQL(edgeScript, engine.Options{}); err != nil {
		t.Fatalf("routed INSERT: %v", err)
	}

	both := func(sql string) {
		t.Helper()
		if _, err := co.ExecSQL(sql, engine.Options{}); err != nil {
			t.Fatalf("cluster %q: %v", sql, err)
		}
		if _, err := oracle.Exec(sql, engine.Options{}); err != nil {
			t.Fatalf("oracle %q: %v", sql, err)
		}
	}
	diffAll := func(phase string) {
		t.Helper()
		for _, sql := range edgeQueries {
			for _, strat := range []engine.Strategy{engine.NestedIteration, engine.TransformJA2} {
				want, err := oracle.Query(sql, engine.Options{Strategy: strat})
				if err != nil {
					t.Fatalf("%s: oracle %q: %v", phase, sql, err)
				}
				got, err := co.ExecSQL(sql, engine.Options{Strategy: strat})
				if err != nil {
					t.Fatalf("%s: cluster %q: %v", phase, sql, err)
				}
				if !bytes.Equal(canonSorted(want.Columns, want.Rows), canonSorted(got.Columns, got.Rows)) {
					t.Errorf("%s: %q (%v) differs from the single node:\n got %v\nwant %v", phase, sql, strat, got.Rows, want.Rows)
				}
			}
		}
		if n := co.LiveStaging(); n != 0 {
			t.Errorf("%s: %d staging tables leaked", phase, n)
		}
	}
	replicasAgree := func(phase string) {
		t.Helper()
		cols := []string{"K", "G", "S", "F", "D"}
		for s := 0; s < 3; s++ {
			phys := fmt.Sprintf("EDGE__S%d", s)
			a, okA := engineTable(t, dbs[s], phys, cols)
			b, okB := engineTable(t, dbs[(s+1)%3], phys, cols)
			if !okA || !okB || !bytes.Equal(a, b) {
				t.Errorf("%s: replicas of %s differ (present: %v, %v)", phase, phys, okA, okB)
			}
		}
	}

	diffAll("routed INSERT + shuffle")
	replicasAgree("routed INSERT")

	// The filtered-DML text path, literals included.
	both("DELETE FROM EDGE WHERE F = 9223372036854775808.0")
	both("UPDATE EDGE SET F = -0.0, S = 'o''k; -- y' WHERE F < 0.00001 AND K < 0")
	diffAll("filtered DML")

	// Kill worker 0, commit a write past it, heal: the rejoin re-ships
	// its slices from the peers' snapshots — rows landing as rows.
	killProxy(proxies[0])
	diffAll("worker 0 dead")
	waitState(t, co, 0, "dead", 10*time.Second)
	both("INSERT INTO EDGE VALUES (8, 0, 'late; ''row''', -0.0, 1-1-80), (9, 1, NULL, 18446744073709551616.0, NULL)")
	healProxy(proxies[0])
	waitState(t, co, 0, "healthy", 20*time.Second)
	replicasAgree("rejoin")

	// Shards 0 and 2 must now be servable by the rejoined worker alone.
	killProxy(proxies[1])
	diffAll("worker 1 dead, rejoined worker 0 serving")
	healProxy(proxies[1])
	waitStates(t, co, "healthy", 20*time.Second)
	if n := co.SweepStaging(); n != 0 {
		t.Errorf("%d staging tables still live after heal and sweep", n)
	}
}

// TestRoutedInsertHugeFloat is the parent's user-visible failure in one
// statement: a single engine accepted this INSERT and a coordinator
// rejected it ("bad number"), because the coordinator re-rendered the
// literal without a fractional part and the worker read an INTEGER that
// does not fit.
func TestRoutedInsertHugeFloat(t *testing.T) {
	const script = `CREATE TABLE T (A FLOAT);
		INSERT INTO T VALUES (1000000000000000000000.0), (-0.0), (2.0)`
	single := engine.New(6)
	if _, err := single.Exec(script, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	addrs, _ := startWorkers(t, 2, false)
	co, err := cluster.New(cluster.Config{Workers: addrs, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if _, err := co.ExecSQL(script, engine.Options{}); err != nil {
		t.Fatalf("coordinator rejected what a single engine accepts: %v", err)
	}
	want, err := single.Query("SELECT T.A FROM T", engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := co.ExecSQL("SELECT T.A FROM T", engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonSorted(want.Columns, want.Rows), canonSorted(got.Columns, got.Rows)) {
		t.Errorf("read back %v, single node holds %v", got.Rows, want.Rows)
	}
}
