package engine_test

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/workload"
)

// A transformed query's TEMPn tables are its planner's own: while its
// final pipeline streams, TEMP1–TEMP3 exist, yet the shared catalog holds
// exactly the relations it held before the query.
func TestQueryTempsStayOutOfCatalog(t *testing.T) {
	db := newDB(t, 8, workload.LoadKiessling)
	before := db.Catalog().Names()
	batches := 0
	sink := &engine.RowSink{
		BatchRows: 1,
		Columns:   func([]string) error { return nil },
		Batch: func([]storage.Tuple) error {
			batches++
			if got := db.Catalog().Names(); !slices.Equal(got, before) {
				return fmt.Errorf("catalog mid-query = %v, want %v", got, before)
			}
			return nil
		},
	}
	res, err := db.Query(workload.KiesslingQ2, engine.Options{Strategy: engine.TransformJA2, NoFallback: true, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if batches == 0 || res.FellBack {
		t.Fatalf("the query streamed %d batches (fell back: %v); the check never ran beside live temps", batches, res.FellBack)
	}
}

// ANALYZE reads every relation in the catalog, so it must meet neither
// another query's temp tables nor a relation that DROP TABLE removes under
// its scan. It runs beside two NEST-JA2 loops and a CREATE/DROP TABLE
// loop; any error or panic, in any of them, fails.
func TestAnalyzeBesideQueriesAndDDL(t *testing.T) {
	db := newDB(t, 8, workload.LoadKiessling)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	guarded := func(name string, fn func() error) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%s panicked: %v", name, r)
			}
		}()
		return fn()
	}
	loop := func(name string, fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := guarded(name, fn); err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
			}
		}()
	}
	for range 2 {
		loop("NEST-JA2", func() error {
			_, err := db.Query(workload.KiesslingQ2, engine.Options{Strategy: engine.TransformJA2, NoFallback: true})
			return err
		})
	}
	loop("DDL", func() error {
		if _, err := db.Exec("CREATE TABLE SCRATCH (A INTEGER)", engine.Options{}); err != nil {
			return err
		}
		_, err := db.Exec("DROP TABLE SCRATCH", engine.Options{})
		return err
	})
	for i := 0; i < 3000 && !t.Failed(); i++ {
		if err := guarded("Analyze", db.Analyze); err != nil {
			t.Errorf("Analyze call %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSaveBesideDDL: Save holds the DML lock shared, so a table dropped
// beside it is either in the image whole or not in it at all. Without
// the lock Save looked a dropped table up and dereferenced nil.
func TestSaveBesideDDL(t *testing.T) {
	db := newDB(t, 8, workload.LoadKiessling)
	stop := make(chan struct{})
	done := make(chan error)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := db.Exec("CREATE TABLE SCRATCH (A INTEGER)", engine.Options{}); err != nil {
				done <- err
				return
			}
			if _, err := db.Exec("DROP TABLE SCRATCH", engine.Options{}); err != nil {
				done <- err
				return
			}
		}
	}()
	for i := 0; i < 3000; i++ {
		if err := db.Save(io.Discard); err != nil {
			t.Errorf("Save call %d: %v", i, err)
			break
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Errorf("DDL: %v", err)
	}
}
