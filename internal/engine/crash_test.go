package engine_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/wal"
)

// Crash-safety proof for the durability layer, run in-process: seeded
// storms of concurrent DML and queries with the WAL fault injector
// armed, "crashed" by abandoning the live database (its unsynced state
// dies with it, exactly like a kill -9 loses everything past the last
// write), then recovered into a fresh engine and byte-compared against
// an oracle holding exactly the acknowledged statements. The subprocess
// variant with real SIGKILL lives in cmd/nestedsqld.

func openDurable(t *testing.T, dir string) (*engine.DB, engine.RecoveryInfo) {
	t.Helper()
	db := engine.New(64)
	info, err := db.EnableDurability(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db, info
}

func saveImage(t *testing.T, db *engine.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// countFiles tallies the live data-directory files by suffix.
func countFiles(t *testing.T, db *engine.DB) (segs, snaps, tmps int) {
	t.Helper()
	for _, f := range db.WAL().LiveFiles() {
		switch {
		case strings.HasSuffix(f, ".seg"):
			segs++
		case strings.HasSuffix(f, ".snap"):
			snaps++
		default:
			tmps++
		}
	}
	return segs, snaps, tmps
}

const durabilityScript = `
	CREATE TABLE EMP (ID INT, NAME VARCHAR, SAL FLOAT, HIRED DATE, PRIMARY KEY (ID));
	INSERT INTO EMP VALUES (1, 'ann', 1000.5, 7-3-79), (2, 'bob', NULL, NULL), (3, 'o''hara', 2000.25, 1-1-80);
	CREATE TABLE DEPT (DNO INT, BUDGET INT);
	INSERT INTO DEPT VALUES (10, 100), (20, 200), (30, 300);
	UPDATE EMP SET SAL = 1500.75 WHERE ID = 2;
	DELETE FROM DEPT WHERE BUDGET = 200;
`

func TestDurabilityReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	db, info := openDurable(t, dir)
	if info.Recovered() {
		t.Fatalf("fresh dir recovered state: %+v", info)
	}
	if _, err := db.Exec(durabilityScript, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	want := saveImage(t, db)
	// Crash: abandon db without closing or checkpointing. Everything
	// must come back from the WAL alone.
	re, info := openDurable(t, dir)
	if info.SnapshotLoaded || info.ReplayedRecords == 0 {
		t.Fatalf("want WAL-only recovery, got %+v", info)
	}
	if got := saveImage(t, re); !bytes.Equal(got, want) {
		t.Fatalf("recovered image differs (%d vs %d bytes)", len(got), len(want))
	}
}

func TestDurabilityDropTableReplay(t *testing.T) {
	dir := t.TempDir()
	db, _ := openDurable(t, dir)
	script := durabilityScript + `
		DROP TABLE DEPT;
		CREATE TABLE DEPT (DNO INT, HEAD VARCHAR);
		INSERT INTO DEPT VALUES (10, 'ann');
	`
	if _, err := db.Exec(script, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	want := saveImage(t, db)
	// WAL-only recovery must replay the drop and the re-create in order,
	// converging on the second DEPT, not the first.
	re, info := openDurable(t, dir)
	if info.SnapshotLoaded || info.ReplayedRecords == 0 {
		t.Fatalf("want WAL-only recovery, got %+v", info)
	}
	if got := saveImage(t, re); !bytes.Equal(got, want) {
		t.Fatal("recovered image differs after drop + recreate")
	}
	if _, err := re.Exec("DROP TABLE NOSUCH", engine.Options{}); err == nil {
		t.Fatal("dropping an unknown table succeeded")
	}
}

func TestDurabilityCheckpointRoundtrip(t *testing.T) {
	dir := t.TempDir()
	db, _ := openDurable(t, dir)
	if _, err := db.Exec(durabilityScript, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if segs, snaps, tmps := countFiles(t, db); segs != 1 || snaps != 1 || tmps != 0 {
		t.Fatalf("after checkpoint: %d segments, %d snapshots, %d other files", segs, snaps, tmps)
	}
	// DML after the checkpoint lands in the fresh log tail.
	if _, err := db.Exec("INSERT INTO DEPT VALUES (40, 400); UPDATE EMP SET NAME = 'zed' WHERE ID = 1", engine.Options{}); err != nil {
		t.Fatal(err)
	}
	want := saveImage(t, db)
	re, info := openDurable(t, dir)
	if !info.SnapshotLoaded || info.ReplayedRecords != 2 {
		t.Fatalf("want snapshot + 2 replayed records, got %+v", info)
	}
	if got := saveImage(t, re); !bytes.Equal(got, want) {
		t.Fatal("recovered image differs from pre-crash state")
	}
}

// TestDurabilityRefusesV1Checkpoint: a data directory written before
// images became record runs holds a gob checkpoint. Its container still
// verifies, so the log hands it over — and the boot must fail on it,
// files untouched, rather than come up empty beside data it cannot read.
func TestDurabilityRefusesV1Checkpoint(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "v1-checkpoint.snap"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snap := filepath.Join(dir, "snap-0000000000000003.snap")
	if err := os.WriteFile(snap, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	db := engine.New(8)
	info, err := db.EnableDurability(dir, wal.Options{})
	if err == nil || !strings.Contains(err.Error(), "gob") {
		t.Fatalf("booted on a v1 checkpoint: %+v, err %v", info, err)
	}
	if db.WAL() != nil || len(db.Catalog().Names()) != 0 {
		t.Error("a refused boot left a log or tables attached")
	}
	if got, err := os.ReadFile(snap); err != nil || !bytes.Equal(got, v1) {
		t.Errorf("the v1 checkpoint was touched: %v", err)
	}
}

func TestDurabilityPoisonAndHeal(t *testing.T) {
	dir := t.TempDir()
	db, _ := openDurable(t, dir)
	if _, err := db.Exec("CREATE TABLE T (K INT, V INT); INSERT INTO T VALUES (1, 1)", engine.Options{}); err != nil {
		t.Fatal(err)
	}
	// Every append now tears: the next DML fails and poisons the log.
	db.SetFaults(fault.New(fault.Plan{Seed: 7, Max: 1, Rates: fault.Rates{fault.WALTear: 1}}))
	if _, err := db.Exec("INSERT INTO T VALUES (2, 2)", engine.Options{}); err == nil {
		t.Fatal("torn append acknowledged")
	}
	if _, err := db.Exec("DELETE FROM T WHERE K = 1", engine.Options{}); !errors.Is(err, wal.ErrBroken) {
		t.Fatalf("poisoned log accepted DML: %v", err)
	}
	// Queries keep working against the (ahead) in-memory state.
	res, err := db.Query("SELECT K FROM T", engine.Options{})
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("query on poisoned db: rows=%v err=%v", res, err)
	}
	// Checkpoint heals: the snapshot is the exact live state, so DML and
	// recovery both work again.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO T VALUES (3, 3)", engine.Options{}); err != nil {
		t.Fatalf("DML after healing checkpoint: %v", err)
	}
	want := saveImage(t, db)
	re, _ := openDurable(t, dir)
	if got := saveImage(t, re); !bytes.Equal(got, want) {
		t.Fatal("healed recovery differs from live state")
	}
}

func TestEnableDurabilityPreconditions(t *testing.T) {
	db := engine.New(8)
	if _, err := db.Exec("CREATE TABLE T (X INT)", engine.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.EnableDurability(t.TempDir(), wal.Options{}); err == nil {
		t.Fatal("EnableDurability accepted a non-empty database")
	}
	db2, _ := openDurable(t, t.TempDir())
	if _, err := db2.EnableDurability(t.TempDir(), wal.Options{}); err == nil {
		t.Fatal("EnableDurability accepted a second call")
	}
}

// TestCrashStormInProcess is the seeded storm: every round runs
// concurrent DML and SELECTs from four clients on disjoint tables with
// torn-append faults armed, crashes by abandonment, recovers, and
// demands the recovered bytes equal an oracle replay of exactly the
// acknowledged statements — no lost acks, no ghost writes — with the
// data directory holding exactly one segment and one snapshot after
// each round's checkpoint.
func TestCrashStormInProcess(t *testing.T) {
	rounds, workers, ops := 16, 4, 10
	if testing.Short() {
		rounds = 4
	}
	dir := t.TempDir()
	acked := make([][]string, workers) // per-worker acknowledged SQL, in issue order
	created := make([]bool, workers)   // worker's CREATE TABLE has been acked
	var db *engine.DB
	var plan fault.Plan
	defer func() {
		if t.Failed() {
			t.Logf("fault plan armed last: %v", plan)
		}
	}()

	for round := 0; round < rounds; round++ {
		var info engine.RecoveryInfo
		db, info = openDurable(t, dir)
		if round > 0 && !info.Recovered() && len(acked[0]) > 0 {
			t.Fatalf("round %d: nothing recovered", round)
		}
		// Oracle check: a fresh engine fed exactly the acked statements,
		// worker by worker (tables are disjoint, so cross-worker order
		// is irrelevant), must match the recovered bytes.
		oracle := engine.New(64)
		for w := 0; w < workers; w++ {
			for _, sql := range acked[w] {
				if _, err := oracle.Exec(sql, engine.Options{}); err != nil {
					t.Fatalf("oracle replay %q: %v", sql, err)
				}
			}
		}
		if got, want := saveImage(t, db), saveImage(t, oracle); !bytes.Equal(got, want) {
			t.Fatalf("round %d: recovered state differs from acked oracle (%d vs %d bytes)",
				round, len(got), len(want))
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("round %d: checkpoint: %v", round, err)
		}
		if segs, snaps, tmps := countFiles(t, db); segs != 1 || snaps != 1 || tmps != 0 {
			t.Fatalf("round %d: leaked files: %d segments, %d snapshots, %d other",
				round, segs, snaps, tmps)
		}
		// Arm torn-append faults for this round's traffic.
		plan = fault.Plan{Seed: int64(round), Max: 1, Rates: fault.Rates{fault.WALTear: 0.03}}
		db.SetFaults(fault.New(plan))

		var wg sync.WaitGroup
		roundAcked := make([][]string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*100 + w)))
				table := fmt.Sprintf("CRASH%d", w)
				for op := 0; op < ops; op++ {
					var sql string
					switch {
					case op == 0 && !created[w]:
						// First round, or the CREATE's append tore in an
						// earlier round and was never acknowledged.
						sql = fmt.Sprintf("CREATE TABLE %s (K INT, V INT)", table)
					case rng.Intn(4) == 0:
						sql = fmt.Sprintf("UPDATE %s SET V = %d WHERE K < %d",
							table, rng.Intn(1000), rng.Intn(50))
					case rng.Intn(4) == 1:
						sql = fmt.Sprintf("DELETE FROM %s WHERE V > %d", table, 500+rng.Intn(500))
					default:
						sql = fmt.Sprintf("INSERT INTO %s VALUES (%d, %d), (%d, %d)",
							table, rng.Intn(50), rng.Intn(1000), rng.Intn(50), rng.Intn(1000))
					}
					if _, err := db.Exec(sql, engine.Options{}); err != nil {
						if errors.Is(err, wal.ErrBroken) {
							return // poisoned: nothing further will be acked
						}
						t.Errorf("round %d worker %d: %q: %v", round, w, sql, err)
						return
					}
					roundAcked[w] = append(roundAcked[w], sql)
					if strings.HasPrefix(sql, "CREATE") {
						created[w] = true
					}
					if op%3 == 2 {
						if _, err := db.Query(fmt.Sprintf("SELECT K FROM %s WHERE V > 250", table), engine.Options{}); err != nil {
							t.Errorf("round %d worker %d query: %v", round, w, err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			acked[w] = append(acked[w], roundAcked[w]...)
		}
		// Crash: abandon db — no close, no checkpoint. The next round
		// recovers from whatever reached the files.
	}
}
