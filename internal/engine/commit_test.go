package engine_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wire"
)

// The literal that broke three paths on the parent commit: its display
// form is 1e+21, which the lexer cannot read, and its old 'f' rendering
// had no fractional part, so it came back as an out-of-range INTEGER.
const hugeFloat = "1000000000000000000000.0"

// TestDurabilityFloatLiteralDeleteRecovers: an acked DELETE whose WHERE
// holds a >= 2^63 float literal is logged logically (its SQL text) and
// must replay. On the parent the record read "A < 1e+21" and the next
// recovery failed with `replay LSN n (delete): sql: expected ';'`.
func TestDurabilityFloatLiteralDeleteRecovers(t *testing.T) {
	dir := t.TempDir()
	db, _ := openDurable(t, dir)
	script := `CREATE TABLE T (A FLOAT, B INT);
		INSERT INTO T VALUES (1.5, 1), (` + hugeFloat + `, 2), (3.0, 3), (-0.0, 4);
		DELETE FROM T WHERE A < ` + hugeFloat + ` AND B != 4;
		UPDATE T SET A = 3.0 WHERE A = -0.0`
	res, err := db.Exec(script, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 4+2+1 {
		t.Fatalf("affected %d rows, want 7", res.Affected)
	}
	want := saveImage(t, db)
	re, info := openDurable(t, dir) // crash: db abandoned, WAL replayed
	if info.ReplayedRecords == 0 {
		t.Fatalf("nothing replayed: %+v", info)
	}
	if got := saveImage(t, re); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs from the state the statements were acked against")
	}
}

// TestExecSQLMatchesQuery: the served entry point and the library entry
// point run the same SELECT the same way. On the parent ExecSQL rendered
// the parsed block back to text ("A < 1e+21") and failed to re-parse it.
func TestExecSQLMatchesQuery(t *testing.T) {
	db := engine.New(16)
	if _, err := db.Exec(`CREATE TABLE T (A FLOAT, B INT);
		INSERT INTO T VALUES (1.5, 1), (`+hugeFloat+`, 2), (3.0, 3), (-0.0, 4)`, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT B FROM T WHERE A < " + hugeFloat,
		"SELECT B FROM T WHERE A >= " + hugeFloat,
		"SELECT B FROM T WHERE A = 3.0 OR A = -0.0",
		"SELECT B FROM T WHERE B IN (SELECT B FROM T WHERE A < " + hugeFloat + ")",
	} {
		for _, strat := range []engine.Strategy{engine.NestedIteration, engine.TransformJA2} {
			q, err := db.Query(sql, engine.Options{Strategy: strat})
			if err != nil {
				t.Fatalf("Query(%q): %v", sql, err)
			}
			x, err := db.ExecSQL(sql, engine.Options{Strategy: strat})
			if err != nil {
				t.Fatalf("ExecSQL(%q) failed where Query succeeded: %v", sql, err)
			}
			if fmt.Sprint(q.Columns, q.Rows) != fmt.Sprint(x.Columns, x.Rows) {
				t.Fatalf("%q: ExecSQL %v != Query %v", sql, x.Rows, q.Rows)
			}
		}
	}
}

// TestNonDurableDMLSerialisesAgainstQueries: an engine without a WAL
// takes the same commit lock a durable one does, so a SELECT never scans
// a heap file an INSERT or DELETE is rewriting. Every count a reader
// sees is one a whole statement left behind (inserts add 4 rows, the
// delete removes them all); under -race the parent fails here on
// HeapFile.Scan racing HeapFile.Append.
func TestNonDurableDMLSerialisesAgainstQueries(t *testing.T) {
	db := engine.New(16)
	if _, err := db.Exec("CREATE TABLE T (K INT, V INT)", engine.Options{}); err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	var wg sync.WaitGroup
	fail := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			stmt := fmt.Sprintf("INSERT INTO T VALUES (%d, 1), (%d, 2), (%d, 3), (%d, 4)", i, i, i, i)
			if i%10 == 9 {
				stmt = "DELETE FROM T WHERE V > 0"
			}
			if _, err := db.Exec(stmt, engine.Options{}); err != nil {
				fail <- err
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := db.Query("SELECT K, V FROM T", engine.Options{})
				if err != nil {
					fail <- err
					return
				}
				if len(res.Rows)%4 != 0 {
					fail <- fmt.Errorf("reader saw %d rows: a statement half applied", len(res.Rows))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
}

// TestLoadVetsOutsideInput: Load stores typed rows without SQL, so it
// checks what an INSERT's coercion would have: the column list must be
// the table's, every value NULL or of its column's kind. A refused batch
// leaves the table byte-identical.
func TestLoadVetsOutsideInput(t *testing.T) {
	db := engine.New(16)
	if _, err := db.Exec(`CREATE TABLE T (K INT, S VARCHAR, F FLOAT, D DATE);
		INSERT INTO T VALUES (1, 'a', 1.5, 7-3-79)`, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	cols := []string{"K", "S", "F", "D"}
	date := mustDate(t, "1-1-80")
	good := storage.Tuple{value.NewInt(2), value.NewString("it's; -- x\n"), value.NewFloat(1e21), date}
	before := saveImage(t, db)
	for name, tc := range map[string]struct {
		table string
		cols  []string
		row   storage.Tuple
		want  string
	}{
		"unknown table":  {"NOPE", cols, good, "unknown relation NOPE"},
		"too few cols":   {"T", cols[:3], good, "names 3 columns"},
		"wrong col name": {"T", []string{"K", "S", "D", "F"}, good, "load column 2 is D"},
		"short row":      {"T", cols, good[:3], "does not match schema"},
		"int into float": {"T", cols, storage.Tuple{value.NewInt(2), value.NewString("x"), value.NewInt(3), date}, "cannot store INTEGER into FLOAT"},
		"string as date": {"T", cols, storage.Tuple{value.NewInt(2), value.NewString("x"), value.Null, value.NewString("1-1-80")}, "into DATE column"},
	} {
		err := db.Load(tc.table, tc.cols, []storage.Tuple{good, tc.row})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, tc.want)
		}
		if !bytes.Equal(saveImage(t, db), before) {
			t.Fatalf("%s: a refused Load changed the table", name)
		}
	}
	nulls := storage.Tuple{value.Null, value.Null, value.Null, value.Null}
	if err := db.Load("t", []string{"k", "s", "f", "d"}, []storage.Tuple{good, nulls}); err != nil {
		t.Fatalf("well-formed Load refused: %v", err)
	}
	res, err := db.Query("SELECT K, S, F, D FROM T", engine.Options{})
	if err != nil || len(res.Rows) != 3 || !res.Rows[1][1].Equal(good[1]) || !res.Rows[1][2].Equal(good[2]) {
		t.Fatalf("after Load: %v, %v", res, err)
	}
}

// TestDeletedRowsFreeTheirChunks measures what rows sharing decoded
// chunks cost at rest: 10k rows loaded as a Load frame delivers them,
// 99% deleted so that every survivor sits in a chunk of its own, then a
// GC. A live row pins its whole ~4 KiB chunk, but DELETE copies the rows
// it keeps, so the heap holds no more than the empty table did; without
// that copy each survivor would keep its chunk (≈ 370 KiB here).
func TestDeletedRowsFreeTheirChunks(t *testing.T) {
	const rows, kept = 10000, 100
	db := engine.New(16)
	if _, err := db.Exec(`CREATE TABLE T (K INT, G INT, V INT)`, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	load := wire.RowBatch{Columns: []string{"K", "G", "V"}}
	for i := range rows {
		load.Rows = append(load.Rows, storage.Tuple{value.NewInt(int64(i)), value.NewInt(int64(i % kept)), value.NewInt(int64(i))})
	}
	b, err := wire.DecodeRowBatch(wire.EncodeRowBatch(load))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Load("T", b.Columns, b.Rows); err != nil {
		t.Fatal(err)
	}
	loaded := heap()
	if _, err := db.Exec(`DELETE FROM T WHERE G <> 0`, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	retained := int64(heap()) - int64(base)
	runtime.KeepAlive(db)
	t.Logf("%d rows loaded: %d KiB; %d kept: %d KiB retained, %d bytes a row",
		rows, (loaded-base)>>10, rows/kept, retained>>10, retained/(rows/kept))
	if retained > 64<<10 {
		t.Errorf("%d surviving rows retain %d KiB: they pin the chunks they were decoded into", rows/kept, retained>>10)
	}
}

func mustDate(t *testing.T, s string) value.Value {
	t.Helper()
	d, err := value.ParseDate(s)
	if err != nil {
		t.Fatal(err)
	}
	return value.NewDateValue(d)
}
