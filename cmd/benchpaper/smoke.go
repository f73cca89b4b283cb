package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	nestedsql "repro"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/qctx"
	"repro/internal/storage"
	"repro/internal/wire"
)

// The three drivers scripts/serve_smoke.sh points at a running
// nestedsqld. They check answers and acked rows; what serving costs is
// measured in bench/ (serve_read, serve_write, cluster_mix). A failure
// is the returned error: main owns the exit status, and smoke_test.go
// calls the drivers directly.
//
//	benchpaper -serve-load -serve-addr HOST:PORT -connections 8 -rounds 3
//	  (the server must be started with -fixture both)
//	benchpaper -serve-dml N -serve-addr HOST:PORT
//	benchpaper -serve-dml-verify ACKED -serve-addr HOST:PORT

// loadQuery is one workload entry: the SQL, the strategy byte the
// client requests, and the engine strategy the oracle mirrors.
type loadQuery struct {
	name      string
	sql       string
	wireStrat byte
	engStrat  engine.Strategy
}

// loadWorkload is the paper mix over the Kiessling PARTS/SUPPLY and the
// introduction's S/P/SP databases (disjoint names, one catalog). The
// flagship COUNT query runs under both evaluation strategies so the
// harness exercises nested iteration and NEST-JA2 streaming side by
// side; everything runs sequentially (parallelism 0) so results are
// order-deterministic and the byte comparison is exact.
var loadWorkload = []loadQuery{
	{"countbug-ja2", `SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY
		WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)`,
		wire.StrategyTransform, engine.TransformJA2},
	{"countbug-ni", `SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY
		WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)`,
		wire.StrategyNested, engine.NestedIteration},
	{"exists", `SELECT PNUM FROM PARTS
		WHERE EXISTS (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`,
		wire.StrategyTransform, engine.TransformJA2},
	{"not-exists", `SELECT PNUM FROM PARTS
		WHERE NOT EXISTS (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`,
		wire.StrategyTransform, engine.TransformJA2},
	{"lt-any", `SELECT PNUM FROM PARTS
		WHERE QOH < ANY (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`,
		wire.StrategyTransform, engine.TransformJA2},
	{"gt-all", `SELECT PNUM FROM PARTS
		WHERE QOH > ALL (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`,
		wire.StrategyTransform, engine.TransformJA2},
	{"division-ja2", `SELECT SNAME FROM S
		WHERE STATUS < (SELECT MAX(QTY) FROM SP
			WHERE PNO IN (SELECT PNO FROM P WHERE P.CITY = S.CITY))`,
		wire.StrategyTransform, engine.TransformJA2},
	{"division-ni", `SELECT SNAME FROM S
		WHERE STATUS < (SELECT MAX(QTY) FROM SP
			WHERE PNO IN (SELECT PNO FROM P WHERE P.CITY = S.CITY))`,
		wire.StrategyNested, engine.NestedIteration},
	{"in-simple", `SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE QTY > 200)`,
		wire.StrategyTransform, engine.TransformJA2},
	{"empty", `SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY
		WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN > 100000)`,
		wire.StrategyTransform, engine.TransformJA2},
}

// paperDB holds both paper databases in one catalog, as nestedsqld
// -fixture both serves them.
func paperDB() (*nestedsql.DB, error) {
	db := nestedsql.Open(nestedsql.WithBufferPages(32))
	for _, f := range []nestedsql.Fixture{nestedsql.FixtureKiessling, nestedsql.FixtureSuppliers} {
		if err := db.LoadFixture(f); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// canonical renders a result as the wire's own value encoding, so
// "byte-identical" means exactly that: the comparison covers column
// names, row order, and every value byte.
func canonical(cols []string, rows []storage.Tuple) []byte {
	return wire.EncodeRowBatch(wire.RowBatch{Columns: cols, Rows: rows})
}

// serveLoad drives the paper workload through the nestedsqld at addr
// from conns concurrent connections, rounds times each, and cross-checks
// every streamed result, byte for byte, against an in-process sequential
// oracle. Overload sheds are retried after the server's hint; any
// mismatch, unexpected error or unfinished query is the returned error.
func serveLoad(addr string, conns, rounds int) error {
	// The oracle: the same database, queried in process, sequentially.
	oracle, err := paperDB()
	if err != nil {
		return fmt.Errorf("serve-load: %w", err)
	}
	expected := make([][]byte, len(loadWorkload))
	for i, q := range loadWorkload {
		res, err := oracle.Internal().Query(q.sql, engine.Options{Strategy: q.engStrat})
		if err != nil {
			return fmt.Errorf("serve-load: oracle %s: %w", q.name, err)
		}
		expected[i] = canonical(res.Columns, res.Rows)
	}

	fmt.Printf("serve-load: %d connections x %d rounds x %d queries against %s\n",
		conns, rounds, len(loadWorkload), addr)

	results := make([]outcome, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &results[w]
			conn, err := client.Dial(addr, 10*time.Second)
			if err != nil {
				out.failures = append(out.failures, fmt.Sprintf("dial: %v", err))
				return
			}
			defer conn.Close()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for range rounds {
				for _, qi := range rng.Perm(len(loadWorkload)) {
					if !runOne(conn, loadWorkload[qi], expected[qi], out) {
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var done, sheds, bad int
	var lats []time.Duration
	for w, out := range results {
		done += out.done
		sheds += out.sheds
		lats = append(lats, out.latencies...)
		for _, m := range out.mismatches {
			fmt.Printf("serve-load: MISMATCH conn %d: %s\n", w, m)
		}
		for _, f := range out.failures {
			fmt.Printf("serve-load: FAILURE conn %d: %s\n", w, f)
		}
		bad += len(out.mismatches) + len(out.failures)
	}
	want := conns * rounds * len(loadWorkload)
	if bad > 0 || done != want {
		return fmt.Errorf("serve-load: completed %d of %d queries with %d mismatch(es) or failure(s)", done, want, bad)
	}
	slices.Sort(lats)
	fmt.Printf("serve-load: %d queries OK, %d overload sheds retried, %.1fs wall\n",
		done, sheds, elapsed.Seconds())
	fmt.Printf("serve-load: throughput %.0f q/s, latency p50 %s p99 %s\n",
		float64(done)/elapsed.Seconds(),
		lats[len(lats)*50/100].Round(time.Microsecond),
		lats[len(lats)*99/100].Round(time.Microsecond))
	fmt.Println("serve-load: all streamed results byte-identical to the sequential oracle")
	return nil
}

// outcome accumulates one connection's results.
type outcome struct {
	done       int
	mismatches []string
	failures   []string
	sheds      int
	latencies  []time.Duration
}

// runOne executes one workload query with overload retries, recording
// the outcome. It reports false when the connection is unusable.
func runOne(conn *client.Conn, q loadQuery, want []byte, out *outcome) bool {
	const maxAttempts = 200
	for attempt := 1; ; attempt++ {
		t0 := time.Now()
		res, err := conn.Collect(q.sql, client.Options{Strategy: q.wireStrat})
		if err != nil {
			var ov *qctx.OverloadError
			if errors.As(err, &ov) && attempt < maxAttempts {
				// The server said when to come back; believe it.
				out.sheds++
				pause := ov.RetryAfter
				if pause <= 0 {
					pause = time.Millisecond
				}
				time.Sleep(pause)
				continue
			}
			out.failures = append(out.failures, fmt.Sprintf("%s: %v", q.name, err))
			return false
		}
		out.latencies = append(out.latencies, time.Since(t0))
		if got := canonical(res.Columns, res.Rows); string(got) != string(want) {
			out.mismatches = append(out.mismatches,
				fmt.Sprintf("%s: %d result bytes != oracle's %d", q.name, len(got), len(want)))
		}
		out.done++
		return true
	}
}

// serveDML is the burst behind serve_smoke.sh phases 4 and 5: CREATE
// TABLE DURABLE, then INSERT keys 0,1,2,... sequentially until n are
// acked or the server goes away. It prints "serve-dml: acked N" (CREATE
// excluded) and returns N; losing the server mid-burst is the expected
// outcome when the script kills the daemon, so only a served refusal or
// a wrong ack is an error.
func serveDML(addr string, n int) (acked int, err error) {
	conn, err := client.Dial(addr, 10*time.Second)
	if err != nil {
		return 0, fmt.Errorf("serve-dml: dial %s: %w", addr, err)
	}
	defer conn.Close()
	report := func(how string) {
		fmt.Printf("serve-dml: acked %d (%s)\n", acked, how)
	}
	if _, err := conn.Collect("CREATE TABLE DURABLE (K INT, V INT)", client.Options{}); err != nil {
		report("server lost before CREATE was acked")
		return 0, nil
	}
	for i := 0; i < n; i++ {
		res, err := conn.Collect(fmt.Sprintf("INSERT INTO DURABLE VALUES (%d, %d)", i, i), client.Options{})
		if err != nil {
			var remote *wire.RemoteError
			if errors.As(err, &remote) {
				// A served refusal is a hard failure here: the gate runs
				// without WAL faults, so the daemon should never refuse.
				return acked, fmt.Errorf("serve-dml: INSERT %d refused: %w", i, err)
			}
			report("server lost mid-burst")
			return acked, nil
		}
		if res.Done.Rows != 1 {
			return acked, fmt.Errorf("serve-dml: INSERT %d acked %d rows, want 1", i, res.Done.Rows)
		}
		acked++
	}
	report("burst completed")
	return acked, nil
}

// serveDMLVerify reads the DURABLE table back and checks it is exactly
// the acked prefix — keys 0..m-1 with acked <= m <= acked+1, the slack
// being the single INSERT that may have been in flight (sent,
// unanswered) when the daemon was killed.
func serveDMLVerify(addr string, acked int) error {
	conn, err := client.Dial(addr, 10*time.Second)
	if err != nil {
		return fmt.Errorf("serve-dml-verify: dial %s: %w", addr, err)
	}
	defer conn.Close()
	res, err := conn.Collect("SELECT K FROM DURABLE", client.Options{})
	if err != nil {
		return fmt.Errorf("serve-dml-verify: read DURABLE: %w", err)
	}
	keys := make([]int64, 0, len(res.Rows))
	for _, row := range res.Rows {
		keys = append(keys, row[0].Int())
	}
	slices.Sort(keys)
	for i, k := range keys {
		if k != int64(i) {
			return fmt.Errorf("serve-dml-verify: recovered keys are not a contiguous prefix: position %d holds %d", i, k)
		}
	}
	m := len(keys)
	if m < acked || m > acked+1 {
		return fmt.Errorf("serve-dml-verify: recovered %d rows; %d were acked (at most 1 in-flight allowed)", m, acked)
	}
	extra := ""
	if m == acked+1 {
		extra = " (+ the in-flight INSERT, which made it to the log)"
	}
	fmt.Printf("serve-dml: verified %d recovered rows = contiguous acked prefix%s\n", m, extra)
	return nil
}
