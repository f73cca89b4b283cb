package engine_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/qctx"
	"repro/internal/storage"
)

// The chaos harness: the grammar fuzzer's query corpus executed against a
// seeded fault-injecting store (read errors, latency, torn temp-table
// writes during materialization). Every injected fault must surface as a
// clean, typed error — never a process panic, a hang, a leaked goroutine,
// or a leaked temp file — and once faults are disarmed the same database
// must still satisfy the transformed-vs-nested differential oracle.
//
// Each round is fully determined by its seed: the database content, the
// query text, and the fault schedule all replay identically, so a failure
// report's round number reproduces the failure.

// cleanChaosErr reports whether an error from a faulted run is one the
// lifecycle layer is allowed to produce: the injected fault itself
// (possibly wrapped in a contained PanicError), or a lifecycle error from
// a deadline racing the injected latency.
func cleanChaosErr(err error) bool {
	return errors.Is(err, fault.ErrInjected) ||
		errors.Is(err, qctx.ErrQueryTimeout) ||
		errors.Is(err, qctx.ErrCanceled) ||
		errors.Is(err, qctx.ErrBudgetExceeded)
}

// chaosRun executes one query with a watchdog: a hang is a test failure,
// not a silent CI timeout.
func chaosRun(t *testing.T, db *engine.DB, sql string, opts engine.Options, round int, label string) (*engine.Result, error) {
	t.Helper()
	type outcome struct {
		res *engine.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := db.Query(sql, opts)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(60 * time.Second):
		t.Fatalf("round %d (%s): query hung: %q", round, label, sql)
		return nil, nil
	}
}

// genDML builds a random INSERT, UPDATE, or DELETE against table,
// sometimes correlating the WHERE clause through a subquery so the
// decision phase reads other (fault-injected) tables too.
func genDML(rng *rand.Rand, table string) string {
	where := func() string {
		switch rng.Intn(3) {
		case 0:
			return fmt.Sprintf(" WHERE K = %d", rng.Intn(5))
		case 1:
			return fmt.Sprintf(" WHERE V > %d AND W < %d", rng.Intn(4), rng.Intn(6))
		default:
			other := []string{"RA", "RB", "RC"}[rng.Intn(3)]
			return fmt.Sprintf(" WHERE K IN (SELECT K FROM %s WHERE %s.V > %d)",
				other, other, rng.Intn(4))
		}
	}
	switch rng.Intn(3) {
	case 0:
		return fmt.Sprintf("INSERT INTO %s VALUES (%d, %d, %d), (%d, %d, %d)",
			table, rng.Intn(5), rng.Intn(4), rng.Intn(6),
			rng.Intn(5), rng.Intn(4), rng.Intn(6))
	case 1:
		return fmt.Sprintf("UPDATE %s SET V = %d%s", table, rng.Intn(4), where())
	default:
		return fmt.Sprintf("DELETE FROM %s%s", table, where())
	}
}

// tableRows reads a base table's contents in heap order. Call with the
// fault injector disarmed.
func tableRows(db *engine.DB, table string) []string {
	f, _ := db.Store().Lookup(table)
	var out []string
	f.Scan(func(t storage.Tuple) bool {
		out = append(out, t.String())
		return true
	})
	return out
}

// cloneFuzzDB copies the three fuzz tables into a fresh, fault-free
// database to serve as the DML oracle.
func cloneFuzzDB(t *testing.T, src *engine.DB) *engine.DB {
	t.Helper()
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db, err := engine.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func equalRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestChaosFaultInjection(t *testing.T) {
	rounds := 250
	if testing.Short() {
		rounds = 40
	}
	baseline := runtime.NumGoroutine()
	var injectedTotal, faultedErrs, faultedOKs int64
	var plan fault.Plan
	defer func() {
		if t.Failed() {
			t.Logf("fault plan armed when the test failed: %v", plan)
		}
	}()
	for i := range rounds {
		seed := int64(9000 + i)
		rng := rand.New(rand.NewSource(seed))
		db := fuzzDB(t, rng)
		g := &queryGen{rng: rng}
		sql := g.genQuery()

		// Fault-free ground truth first, so a chaos round with a clean
		// outcome can be checked for correctness too.
		ni, err := db.Query(sql, engine.Options{Strategy: engine.NestedIteration})
		if err != nil {
			t.Fatalf("round %d: fault-free NI failed for %q: %v", i, sql, err)
		}

		// Arm the injector. Torn writes cover both the anonymous sort/
		// materialization temps ($tmpN) and the transform algorithms'
		// named temp tables (TEMPn).
		plan = fault.Plan{
			Seed:         seed,
			Rates:        fault.Rates{fault.StorageRead: 0.03, fault.StorageTear: 0.3, fault.StorageLatency: 0.01},
			TearPrefixes: []string{"$tmp", "TEMP"},
			Latency:      200 * time.Microsecond,
		}
		inj := fault.New(plan)
		db.SetFaults(inj)

		// Faulted runs: nested iteration, sequential transform, parallel
		// transform — every execution path meets the same fault schedule.
		faultedOpts := []engine.Options{
			{Strategy: engine.NestedIteration, Timeout: 30 * time.Second},
			{Strategy: engine.TransformJA2, Timeout: 30 * time.Second},
		}
		par := engine.Options{Strategy: engine.TransformJA2, Timeout: 30 * time.Second}
		par.Planner.Parallelism = 4
		par.Planner.ForceParallel = true
		faultedOpts = append(faultedOpts, par)
		for _, opts := range faultedOpts {
			res, err := chaosRun(t, db, sql, opts, i, "faulted "+opts.Strategy.String())
			if err != nil {
				faultedErrs++
				if !cleanChaosErr(err) {
					t.Fatalf("round %d: unclean error from faulted %v for %q: %v",
						i, opts.Strategy, sql, err)
				}
			} else {
				faultedOKs++
				// A run that absorbed its faults (retry, or none landed on
				// its pages) must still be correct.
				if d := diffNI(sql, res, ni); d != "" {
					t.Fatalf("round %d: faulted-but-successful %v wrong for %q: %s", i, opts.Strategy, sql, d)
				}
			}
			// No run — failed or not — may leak an anonymous temp file.
			if n := db.Store().TempCount(); n != 0 {
				t.Fatalf("round %d: %v leaked %d temp file(s) for %q", i, opts.Strategy, n, sql)
			}
		}
		injectedTotal += inj.Injected()

		// Disarm and re-verify the differential oracle: injected faults
		// must not have corrupted any base table.
		db.SetFaults(nil)
		tr, err := db.Query(sql, engine.Options{Strategy: engine.TransformJA2})
		if err != nil {
			t.Fatalf("round %d: fault-free rerun failed for %q: %v", i, sql, err)
		}
		if d := diffNI(sql, tr, ni); d != "" {
			t.Fatalf("round %d: post-chaos differential mismatch for %q: %s", i, sql, d)
		}

		// DML round: a randomized statement against the same fault
		// schedule, with base-table tears armed too and a cancellable
		// SELECT racing it. Whatever the outcome — success, injected
		// fault, cancellation — the target table must afterwards equal
		// either its pre-DML contents (atomic failure) or the fault-free
		// oracle's outcome (success), never something in between, and no
		// temp file (including the DML shadow) may leak.
		table := []string{"RA", "RB", "RC"}[rng.Intn(3)]
		dml := genDML(rng, table)
		pre := tableRows(db, table)
		oracle := cloneFuzzDB(t, db)
		oracleRes, oracleErr := oracle.Exec(dml, engine.Options{})
		if oracleErr != nil {
			t.Fatalf("round %d: fault-free oracle DML failed for %q: %v", i, dml, oracleErr)
		}
		plan = fault.Plan{
			Seed:         seed + 1,
			Rates:        fault.Rates{fault.StorageRead: 0.05, fault.StorageTear: 0.3, fault.StorageLatency: 0.01},
			TearPrefixes: []string{"$tmp", "TEMP", "R"},
			Latency:      200 * time.Microsecond,
		}
		dmlInj := fault.New(plan)
		db.SetFaults(dmlInj)
		cancel := make(chan struct{})
		selDone := make(chan error, 1)
		go func() {
			_, err := db.Query(sql, engine.Options{
				Strategy: engine.TransformJA2, Timeout: 30 * time.Second, Cancel: cancel,
			})
			selDone <- err
		}()
		time.AfterFunc(time.Duration(rng.Intn(300))*time.Microsecond, func() { close(cancel) })
		res, dmlErr := db.Exec(dml, engine.Options{Timeout: 30 * time.Second})
		if err := <-selDone; err != nil && !cleanChaosErr(err) {
			t.Fatalf("round %d: unclean error from canceled SELECT during DML: %v", i, err)
		}
		db.SetFaults(nil)
		injectedTotal += dmlInj.Injected()
		if n := db.Store().TempCount(); n != 0 {
			t.Fatalf("round %d: DML %q leaked %d temp file(s)", i, dml, n)
		}
		got := tableRows(db, table)
		if dmlErr != nil {
			faultedErrs++
			if !cleanChaosErr(dmlErr) {
				t.Fatalf("round %d: unclean error from faulted DML %q: %v", i, dml, dmlErr)
			}
			if !equalRows(got, pre) {
				t.Fatalf("round %d: failed DML %q left a partial apply:\n  pre:  %v\n  post: %v",
					i, dml, pre, got)
			}
		} else {
			faultedOKs++
			if want := tableRows(oracle, table); !equalRows(got, want) {
				t.Fatalf("round %d: DML %q diverged from fault-free oracle:\n  got:  %v\n  want: %v",
					i, dml, got, want)
			}
			if res.Affected != oracleRes.Affected {
				t.Fatalf("round %d: DML %q affected %d rows, oracle affected %d",
					i, dml, res.Affected, oracleRes.Affected)
			}
		}
	}

	// Goroutine accounting: everything spawned by 3×rounds faulted runs
	// (workers, distributors, cancel watchers) must have exited.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked across chaos rounds: baseline=%d now=%d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}

	t.Logf("chaos: %d rounds, %d faults injected, %d faulted runs errored cleanly, %d absorbed their faults",
		rounds, injectedTotal, faultedErrs, faultedOKs)
	if injectedTotal < int64(rounds)/2 {
		t.Errorf("only %d faults injected over %d rounds; the harness exercises too little", injectedTotal, rounds)
	}
	if faultedErrs == 0 {
		t.Error("no faulted run errored; fault probabilities are too low to test containment")
	}
}
