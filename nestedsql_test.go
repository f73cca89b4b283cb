package nestedsql_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	nestedsql "repro"
	"repro/internal/qctx"
	"repro/internal/wire"
)

func kiesslingDB(t *testing.T) *nestedsql.DB {
	t.Helper()
	db := nestedsql.Open(nestedsql.WithBufferPages(8))
	if err := db.LoadFixture(nestedsql.FixtureKiessling); err != nil {
		t.Fatal(err)
	}
	return db
}

const q2 = `
	SELECT PNUM FROM PARTS
	WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY
	             WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)`

func firstCol(res *nestedsql.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprint(r[0])
	}
	sort.Strings(out)
	return out
}

func TestPublicAPICountBug(t *testing.T) {
	db := kiesslingDB(t)
	ni, err := db.Query(q2, nestedsql.WithStrategy(nestedsql.StrategyNestedIteration))
	if err != nil {
		t.Fatal(err)
	}
	ja2, err := db.Query(q2) // default strategy is the transformation
	if err != nil {
		t.Fatal(err)
	}
	kim, err := db.Query(q2, nestedsql.WithStrategy(nestedsql.StrategyTransformKim))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(firstCol(ni), ","); got != "10,8" {
		t.Errorf("nested iteration = %v", got)
	}
	if got := strings.Join(firstCol(ja2), ","); got != "10,8" {
		t.Errorf("NEST-JA2 = %v", got)
	}
	if got := strings.Join(firstCol(kim), ","); got != "10" {
		t.Errorf("Kim NEST-JA = %v (the COUNT bug loses part 8)", got)
	}
	if ja2.FellBack {
		t.Error("unexpected fallback")
	}
	// The first query reads PARTS and SUPPLY into the pool; NEST-JA2 then
	// holds its temps in memory and reads nothing.
	if ni.PageIO.Total() <= 0 {
		t.Error("no I/O measured")
	}
	if len(ja2.Columns) != 1 || ja2.Columns[0] != "PNUM" {
		t.Errorf("columns = %v", ja2.Columns)
	}
}

func TestPublicAPICreateInsertQuery(t *testing.T) {
	db := nestedsql.Open()
	if err := db.CreateTable("EMP", []nestedsql.Column{
		{Name: "ID", Type: nestedsql.Int},
		{Name: "NAME", Type: nestedsql.String},
		{Name: "SAL", Type: nestedsql.Float},
		{Name: "HIRED", Type: nestedsql.Date},
	}, 0, "ID"); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("EMP",
		[]any{1, "ada", 10.5, "1-1-80"},
		[]any{2, "bob", 9.0, "1979-06-01"},
		[]any{int64(3), "cyd", nil, nil},
	); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT NAME FROM EMP WHERE HIRED < 1-1-80")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "bob" {
		t.Errorf("rows = %v", res.Rows)
	}
	// NULL round-trips as nil.
	res, err = db.Query("SELECT SAL FROM EMP WHERE ID = 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != nil {
		t.Errorf("NULL came back as %v", res.Rows[0][0])
	}
}

func TestPublicAPIErrors(t *testing.T) {
	db := nestedsql.Open()
	if err := db.Insert("NOPE", []any{1}); err == nil {
		t.Error("insert into unknown table")
	}
	if err := db.CreateTable("T", []nestedsql.Column{{Name: "X", Type: nestedsql.Int}}, 0); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("T", []any{1, 2}); err == nil {
		t.Error("arity mismatch")
	}
	if err := db.Insert("T", []any{struct{}{}}); err == nil {
		t.Error("unsupported Go type")
	}
	// A value its column cannot hold is refused, as an INSERT literal is,
	// so no column ever holds a VARCHAR beside an INTEGER.
	if err := db.Insert("T", []any{"a"}); err == nil {
		t.Error("string into an INTEGER column")
	}
	if err := db.Insert("T", []any{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT * FROM T"); err == nil {
		t.Error("star select is not in the dialect")
	}
	if err := db.LoadFixture(nestedsql.Fixture(99)); err == nil {
		t.Error("unknown fixture")
	}
}

func TestPublicAPIForcedJoins(t *testing.T) {
	db := kiesslingDB(t)
	for _, temp := range []nestedsql.JoinChoice{nestedsql.JoinAuto, nestedsql.JoinMerge, nestedsql.JoinNestedLoops} {
		for _, final := range []nestedsql.JoinChoice{nestedsql.JoinAuto, nestedsql.JoinMerge, nestedsql.JoinNestedLoops} {
			res, err := db.Query(q2, nestedsql.WithForcedJoins(temp, final))
			if err != nil {
				t.Fatalf("temp=%v final=%v: %v", temp, final, err)
			}
			if got := strings.Join(firstCol(res), ","); got != "10,8" {
				t.Errorf("temp=%v final=%v rows = %v", temp, final, got)
			}
		}
	}
}

func TestPublicAPIFallbackControls(t *testing.T) {
	db := nestedsql.Open()
	if err := db.LoadFixture(nestedsql.FixtureSuppliers); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT SNAME FROM S WHERE STATUS > 100 OR SNO IN (SELECT SNO FROM SP WHERE PNO = 'P2')"
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBack {
		t.Error("expected fallback for a subquery under OR")
	}
	if _, err := db.Query(sql, nestedsql.WithoutFallback()); err == nil {
		t.Error("WithoutFallback must error")
	}
}

func TestPublicAPIExplain(t *testing.T) {
	db := kiesslingDB(t)
	rep, err := db.Explain(q2)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"type-JA", "NEST-JA2", "Measured cost"} {
		if !strings.Contains(rep, frag) {
			t.Errorf("Explain missing %q", frag)
		}
	}
}

func TestPublicAPIAllFixtures(t *testing.T) {
	for _, f := range []nestedsql.Fixture{
		nestedsql.FixtureKiessling, nestedsql.FixtureNonEquality,
		nestedsql.FixtureDuplicates, nestedsql.FixtureSuppliers,
	} {
		db := nestedsql.Open()
		if err := db.LoadFixture(f); err != nil {
			t.Errorf("fixture %d: %v", f, err)
		}
	}
}

func ExampleDB_Query() {
	db := nestedsql.Open(nestedsql.WithBufferPages(8))
	if err := db.LoadFixture(nestedsql.FixtureKiessling); err != nil {
		panic(err)
	}
	res, err := db.Query(`
		SELECT PNUM FROM PARTS
		WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY
		             WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)`)
	if err != nil {
		panic(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row[0])
	}
	// Output:
	// 10
	// 8
}

func TestPublicAPIExecScript(t *testing.T) {
	db := nestedsql.Open()
	res, err := db.Exec(`
		CREATE TABLE T (K INTEGER, V INTEGER, PRIMARY KEY (K));
		INSERT INTO T VALUES (1, 10), (2, 20), (3, 30);
		UPDATE T SET V = 99 WHERE K = 2;
		DELETE FROM T WHERE V = 30;
		SELECT K, V FROM T ORDER BY K;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[1][1] != int64(99) {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Affected != 5 { // 3 inserted + 1 updated + 1 deleted
		t.Errorf("Affected = %d, want 5", res.Affected)
	}
	// DDL-only scripts return a bare result without rows.
	res, err = db.Exec("CREATE TABLE U (X INTEGER)")
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(res.Rows) != 0 || res.Affected != 0 {
		t.Errorf("DDL-only Exec returned %+v", res)
	}
	if _, err := db.Exec("GARBAGE"); err == nil {
		t.Error("bad script accepted")
	}
}

func TestPublicAPISaveRestoreAnalyzeIndex(t *testing.T) {
	db := kiesslingDB(t)
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("SUPPLY", "PNUM"); err != nil {
		t.Fatal(err)
	}
	// Save/Restore through the public API.
	f := &strings.Builder{}
	if err := db.Save(f); err != nil {
		t.Fatal(err)
	}
	restored, err := nestedsql.Restore(strings.NewReader(f.String()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := restored.Query(q2)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(firstCol(res), ","); got != "10,8" {
		t.Errorf("restored rows = %v", got)
	}
}

func TestRetryAfterHelper(t *testing.T) {
	// A local overload carries the gateway's hint; the helper surfaces
	// it for any error that wraps one, and stays quiet otherwise.
	ov := &qctx.OverloadError{Reason: "queue full", RetryAfter: 75 * time.Millisecond}
	wrapped := fmt.Errorf("query failed: %w", ov)
	if d, ok := nestedsql.RetryAfter(wrapped); !ok || d != 75*time.Millisecond {
		t.Errorf("RetryAfter(wrapped overload) = %v, %v", d, ok)
	}
	if _, ok := nestedsql.RetryAfter(errors.New("boring")); ok {
		t.Error("RetryAfter matched a non-overload error")
	}
	if _, ok := nestedsql.RetryAfter(nestedsql.ErrOverloaded); ok {
		t.Error("RetryAfter matched the bare sentinel (no hint to give)")
	}
	// The wire client reconstructs the same concrete type, so a remote
	// shed answers the helper identically.
	remote := &wire.RemoteError{Frame: wire.ErrorFrame{
		Code: wire.CodeOverloaded, RetryAfter: 20 * time.Millisecond, Message: "shed",
	}}
	if d, ok := nestedsql.RetryAfter(remote); !ok || d != 20*time.Millisecond {
		t.Errorf("RetryAfter(remote overload) = %v, %v", d, ok)
	}
}
