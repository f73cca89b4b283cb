package nestedsql_test

import (
	"fmt"
	"strings"
	"testing"

	nestedsql "repro"
)

func csvDB(t *testing.T) *nestedsql.DB {
	t.Helper()
	db := nestedsql.Open()
	if err := db.CreateTable("SUPPLY", []nestedsql.Column{
		{Name: "PNUM", Type: nestedsql.Int},
		{Name: "QUAN", Type: nestedsql.Float},
		{Name: "SHIPDATE", Type: nestedsql.Date},
		{Name: "NOTE", Type: nestedsql.String},
	}, 0); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestLoadCSV(t *testing.T) {
	db := csvDB(t)
	data := `pnum,quan,shipdate,note
3,4.5,7-3-79,first
10,1,1979-06-08,
8,,5-7-83,NULL
`
	n, err := db.LoadCSV("SUPPLY", strings.NewReader(data), true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("loaded %d rows, want 3", n)
	}
	res, err := db.Query("SELECT PNUM FROM SUPPLY WHERE SHIPDATE < 1-1-80 ORDER BY PNUM")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != int64(3) || res.Rows[1][0] != int64(10) {
		t.Errorf("rows = %v", res.Rows)
	}
	// Empty and NULL fields round-trip as SQL NULL.
	res, err = db.Query("SELECT QUAN, NOTE FROM SUPPLY WHERE PNUM = 8")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != nil || res.Rows[0][1] != nil {
		t.Errorf("NULL fields = %v", res.Rows[0])
	}
}

func TestLoadCSVNoHeader(t *testing.T) {
	db := csvDB(t)
	n, err := db.LoadCSV("SUPPLY", strings.NewReader("1,2,6-8-78,x\n"), false)
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	db := csvDB(t)
	cases := []struct {
		name, data string
	}{
		{"arity", "1,2\n"},
		{"bad int", "x,2,6-8-78,y\n"},
		{"bad float", "1,x,6-8-78,y\n"},
		{"bad date", "1,2,notadate,y\n"},
	}
	for _, c := range cases {
		if _, err := db.LoadCSV("SUPPLY", strings.NewReader(c.data), false); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := db.LoadCSV("NOPE", strings.NewReader("1\n"), false); err == nil {
		t.Error("unknown table: expected error")
	}
}

// strconv.ParseFloat accepts "NaN", so a FLOAT column can hold one. NaN
// orders after every other number and equals itself (PostgreSQL's rule),
// so sorting, duplicate elimination and = all agree about it.
func TestLoadCSVNaNOrdersLastAndEqualsItself(t *testing.T) {
	db := csvDB(t)
	if _, err := db.LoadCSV("SUPPLY", strings.NewReader("1,5,,\n2,NaN,,\n3,1,,\n4,NaN,,\n5,3,,\n"), false); err != nil {
		t.Fatal(err)
	}
	quans := func(sql string) string {
		res, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range res.Rows {
			out = append(out, fmt.Sprint(r[0]))
		}
		return strings.Join(out, ", ")
	}
	if got := quans("SELECT DISTINCT QUAN FROM SUPPLY"); got != "1, 3, 5, NaN" {
		t.Errorf("DISTINCT QUAN = %s, want 1, 3, 5, NaN", got)
	}
	if got := quans("SELECT QUAN FROM SUPPLY ORDER BY QUAN"); got != "1, 3, 5, NaN, NaN" {
		t.Errorf("ORDER BY QUAN = %s, want 1, 3, 5, NaN, NaN", got)
	}
	if got := quans("SELECT QUAN FROM SUPPLY WHERE QUAN = 3"); got != "3" {
		t.Errorf("WHERE QUAN = 3 returned %s, want 3", got)
	}
}
