package engine_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/qctx"
	"repro/internal/wal"
)

// replayScript is a fixed run of DML and sequential-plan queries. Every
// query is forced through spill runs and sort-merge joins, so with one
// goroutine driving it the order of page reads, temp appends, run-file
// records and WAL appends is a function of the script alone.
var replayScript = []string{
	"INSERT INTO RA VALUES (7, 1, 1), (8, 2, 2), (9, 3, 3)",
	memJAQuery,
	"UPDATE RB SET V = 2 WHERE K < 10",
	"SELECT T1.K, T1.V FROM RA T1 WHERE T1.V IN (SELECT T2.V FROM RB T2 WHERE T2.K = T1.K)",
	"DELETE FROM RC WHERE W > 5",
	"INSERT INTO RB VALUES (1, 1, 1), (2, 0, 2)",
	memJAQuery,
	"SELECT T1.K FROM RC T1 WHERE T1.W = (SELECT COUNT(T2.W) FROM RA T2 WHERE T2.K = T1.K)",
	"UPDATE RA SET W = 0 WHERE V = 3",
	"DELETE FROM RB WHERE K = 4",
	memJAQuery,
	"INSERT INTO RC VALUES (3, 3, 3)",
	"SELECT T1.K, T1.V FROM RB T1 WHERE T1.V IN (SELECT T2.V FROM RC T2 WHERE T2.K = T1.K)",
}

// replayRun arms one plan on one durable, spilling engine, runs the
// script on the calling goroutine, and returns the firing log and what
// became of each statement (row or affected count, or the error's family —
// never its text, which names per-run directories).
func replayRun(t *testing.T, plan fault.Plan) ([]fault.Firing, []string) {
	t.Helper()
	db, _ := openDurable(t, t.TempDir())
	if _, err := db.Exec(`CREATE TABLE RA (K INT, V INT, W INT);
		CREATE TABLE RB (K INT, V INT, W INT); CREATE TABLE RC (K INT, V INT, W INT)`, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		row := fmt.Sprintf("(%d, %d, %d)", i%20, i%6, i%8)
		if _, err := db.Exec("INSERT INTO RA VALUES "+row+"; INSERT INTO RB VALUES "+row+"; INSERT INTO RC VALUES "+row, engine.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	in := fault.New(plan)
	db.SetFaults(in)
	defer db.SetFaults(nil)

	opts := engine.Options{Strategy: engine.TransformJA2, Spill: qctx.SpillForced}
	mergeJoins(&opts)
	var outcomes []string
	for _, sql := range replayScript {
		res, err := db.Exec(sql, opts)
		switch {
		case err == nil:
			outcomes = append(outcomes, fmt.Sprintf("ok %d rows, %d affected", len(res.Rows), res.Affected))
		case errors.Is(err, wal.ErrBroken):
			outcomes = append(outcomes, "wal broken")
		case errors.Is(err, qctx.ErrSpillCorrupt):
			outcomes = append(outcomes, "spill corrupt")
		case errors.Is(err, fault.ErrInjected):
			outcomes = append(outcomes, "injected")
		default:
			t.Fatalf("plan %v: %q failed outside the fault families: %v", plan, sql, err)
		}
	}
	if n := db.Store().TempCount(); n != 0 {
		t.Errorf("plan %v leaked %d temp file(s)", plan, n)
	}
	if left := spillLeft(db); left != "" {
		t.Errorf("plan %v leaked %s", plan, left)
	}
	return in.Fired(), outcomes
}

func firingsAt(log []fault.Firing, site fault.Site) []fault.Firing {
	return slices.DeleteFunc(slices.Clone(log), func(f fault.Firing) bool { return f.Site != site })
}

// TestFaultPlanReplays is the reason the injectors became one: a failing
// schedule is one plan, and the plan is enough to see it again. With the
// storage, spill and WAL sites of one engine armed, the same seed fires
// the same (site, ordinal) log and leaves every statement with the same
// outcome; another seed does not; and zeroing the spill and WAL rates
// leaves each storage site firing at the same draws — the statements a
// spill or WAL fault used to cut short now read more pages, so one site's
// log may extend the other's, but no storage firing moves.
func TestFaultPlanReplays(t *testing.T) {
	plan := fault.Plan{
		Seed: 5,
		Rates: fault.Rates{
			fault.StorageRead: 0.004, fault.StorageTear: 0.01,
			fault.SpillWrite: 0.002, fault.SpillRead: 0.002, fault.SpillCorrupt: 0.002,
			fault.WALTear: 0.2,
		},
		TearPrefixes: []string{"$tmp", "TEMP"},
	}
	log, outcomes := replayRun(t, plan)
	t.Logf("plan %v\nfired %v\noutcomes %q", plan, log, outcomes)
	var fired [fault.WALTear + 1]int
	for _, f := range log {
		fired[f.Site]++
	}
	if fired[fault.StorageRead]+fired[fault.StorageTear] < 3 ||
		fired[fault.SpillWrite]+fired[fault.SpillRead]+fired[fault.SpillCorrupt] == 0 || fired[fault.WALTear] == 0 {
		t.Fatalf("the plan must fire in all three layers to prove anything; fired per site: %v", fired)
	}
	if !slices.Contains(outcomes, "ok 0 rows, 3 affected") || !slices.Contains(outcomes, "wal broken") {
		t.Errorf("the plan must let the first INSERT through and poison the log later: %q", outcomes)
	}

	log2, outcomes2 := replayRun(t, plan)
	if !slices.Equal(log, log2) || !slices.Equal(outcomes, outcomes2) {
		t.Errorf("same plan, second run:\nfired %v\noutcomes %q", log2, outcomes2)
	}

	reseeded := plan
	reseeded.Seed++
	if other, _ := replayRun(t, reseeded); slices.Equal(log, other) {
		t.Errorf("seed %d fired the same log as seed %d", reseeded.Seed, plan.Seed)
	}

	alone := plan
	for site := fault.SpillWrite; site <= fault.WALTear; site++ {
		alone.Rates[site] = 0
	}
	aloneLog, _ := replayRun(t, alone)
	common := 0
	for _, site := range []fault.Site{fault.StorageRead, fault.StorageTear} {
		a, b := firingsAt(log, site), firingsAt(aloneLog, site)
		if len(a) > len(b) {
			a, b = b, a
		}
		if !slices.Equal(a, b[:len(a)]) {
			t.Errorf("%v fired at %v beside spill and WAL faults, at %v alone", site, firingsAt(log, site), firingsAt(aloneLog, site))
		}
		common += len(a)
	}
	if common < 3 || len(aloneLog) < common {
		t.Errorf("the two runs share %d storage firings, too few to compare: %v alone", common, aloneLog)
	}
}
