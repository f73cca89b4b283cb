package sqlparser

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

// FuzzParseScript asserts the parser never panics and that anything it
// accepts as a single SELECT statement round-trips: print it, re-parse it,
// and the second print is identical. Run with `go test -fuzz FuzzParseScript`
// for coverage-guided exploration; the seed corpus runs as a normal test.
func FuzzParseScript(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := ParseScript(src)
		if err != nil {
			return
		}
		for _, stmt := range stmts {
			sel, ok := stmt.(*SelectStmt)
			if !ok {
				continue
			}
			printed := sel.Query.String()
			re, err := Parse(printed)
			if err != nil {
				t.Fatalf("accepted %q but printed form %q does not re-parse: %v",
					trim(src), printed, err)
			}
			if got := re.String(); got != printed {
				t.Fatalf("print not stable:\n  first:  %s\n  second: %s", printed, got)
			}
		}
	})
}

// FuzzRenderParse pins the renderer the system's remaining text paths
// depend on (per-shard SELECT, DELETE/UPDATE and CREATE TABLE fan-out,
// logical WAL records, repro scripts): whatever the parser accepted, String() must render as SQL
// that parses back to the very same statement — literals included, so
// a FLOAT stays that FLOAT (no exponent the lexer cannot read, no 3.0
// coming back INTEGER, -0.0 keeping its sign).
func FuzzRenderParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := ParseScript(src)
		if err != nil {
			return
		}
		for _, stmt := range stmts {
			printed := render(stmt)
			re, err := ParseStatement(printed)
			if err != nil {
				t.Fatalf("accepted %q but rendered form %q does not re-parse: %v", trim(src), printed, err)
			}
			if !reflect.DeepEqual(re, stmt) {
				again := render(re)
				t.Fatalf("render→parse changed the statement:\n  source:   %s\n  rendered: %s\n  reparsed: %s",
					trim(src), printed, again)
			}
		}
	})
}

func render(stmt Statement) string {
	switch stmt := stmt.(type) {
	case *SelectStmt:
		return stmt.Query.String()
	case *CreateTableStmt:
		return stmt.Relation.CreateSQL()
	}
	return stmt.(fmt.Stringer).String()
}

var fuzzSeeds = []string{
	"SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE PNO = 'P2')",
	"SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)",
	"CREATE TABLE T (X INT, D DATE, PRIMARY KEY (X)); INSERT INTO T VALUES (1, 7-3-79), (2, NULL)",
	"UPDATE T SET X = 1 WHERE X NOT IN (SELECT Y FROM U); DELETE FROM T",
	"SELECT A, COUNT(B) AS C FROM T GROUP BY A HAVING C > 1 ORDER BY A DESC",
	"SELECT X FROM T WHERE NOT (A = 1 OR B != 2) AND C >= ALL (SELECT D FROM U)",
	"SELECT X FROM T WHERE A =+ B AND C <+ 1-1-80",
	"select x from t where y is not in (select z from u) -- comment",
	// One seed per metamorph generator query class (internal/metamorph),
	// so coverage-guided runs start from every nesting shape the
	// correctness fuzzer exercises.
	"SELECT A.R, A.K FROM MM0A A WHERE A.V <= (SELECT MAX(B.W) FROM MM0B B WHERE B.G = 1)",
	"SELECT A.R, A.K FROM MM0A A WHERE A.V < (SELECT AVG(C.W) FROM MM0C C)",
	"SELECT A.R, A.K FROM MM0A A WHERE A.K IN (SELECT B.K FROM MM0B B WHERE B.W <= 5)",
	"SELECT A.R, A.K FROM MM0A A WHERE A.V = ANY (SELECT C.W FROM MM0C C WHERE C.G = 0)",
	"SELECT A.R, A.K FROM MM0A A WHERE A.R IN (SELECT B.ID FROM MM0B B)",
	"SELECT A.R, A.K FROM MM0A A WHERE EXISTS (SELECT B.ID FROM MM0B B WHERE B.K = A.K)",
	"SELECT A.R, A.K FROM MM0A A WHERE A.G IN (SELECT B.G FROM MM0B B WHERE B.K = A.K)",
	"SELECT A.R, A.K FROM MM0A A WHERE A.V >= (SELECT COUNT(*) FROM MM0B B WHERE B.K = A.K)",
	"SELECT A.R, A.K FROM MM0A A WHERE A.V <= (SELECT MIN(B.W) FROM MM0B B WHERE B.K = A.K)",
	"SELECT A.R, A.K FROM MM0A A WHERE A.V >= ALL (SELECT B.W FROM MM0B B WHERE B.K = A.K)",
	"SELECT A.R, A.K FROM MM0A A WHERE A.K IN (SELECT B.K FROM MM0B B WHERE B.W = (SELECT COUNT(*) FROM MM0C C WHERE C.K = B.K))",
	"SELECT A.R, A.K FROM MM0A A WHERE EXISTS (SELECT B.ID FROM MM0B B WHERE B.K = A.K AND B.W = (SELECT COUNT(*) FROM MM0C C WHERE C.G = A.G))",
	"SELECT A.R, A.K FROM MM0A A WHERE NOT EXISTS (SELECT B.ID FROM MM0B B WHERE B.K = A.K) AND A.S = 'oak'",
	"SELECT A.R, A.K FROM MM0A A WHERE A.K NOT IN (SELECT B.K FROM MM0B B WHERE B.W <= 6) ORDER BY A.R",
	"SELECT DISTINCT A.K, A.G FROM MM0A A WHERE A.K IN (SELECT B.K FROM MM0B B) AND A.D <= 6-15-79",
	"SELECT A.K, COUNT(*) AS CNT FROM MM0A A WHERE EXISTS (SELECT B.ID FROM MM0B B WHERE B.K = A.K) GROUP BY A.K HAVING CNT >= 2",
	"SELECT MIN(A.V) AS LO, MAX(A.V) AS HI FROM MM0A A WHERE A.G = 2",
	"SELECT COUNT(*) FROM MM0A A WHERE A.K IN (SELECT C.K FROM MM0C C)",
	// The NULL-safe back-join operator NEST-JA2 emits (and the parser
	// accepts so transformed programs re-parse).
	"SELECT PARTS.PNUM FROM PARTS, TEMP3 WHERE PARTS.QOH = TEMP3.CT AND TEMP3.PNUM <=> PARTS.PNUM",
	"'unterminated",
	"SELECT 1-2-3-4 FROM",
	"((((((",
	"\x00\xff",
	// Nesting bombs: each would overflow the stack (parse-time or in a
	// later tree walk) without the maxParseDepth budget.
	"SELECT X FROM T WHERE " + strings.Repeat("(", 100000) + "A = 1",
	"SELECT X FROM T WHERE " + strings.Repeat("NOT ", 100000) + "A = 1",
	"SELECT X FROM T WHERE " + strings.Repeat("A = 1 AND ", 100000) + "A = 1",
	"SELECT X FROM T WHERE " + strings.Repeat("A = 1 OR ", 100000) + "A = 1",
	"SELECT X FROM T WHERE A IN " + strings.Repeat("(SELECT X FROM T WHERE A IN ", 100000) + "(SELECT X FROM T)",
	// Every column type name, each of which schema.Relation.CreateSQL must
	// render as a name that reads back as the same kind — and its output.
	"CREATE TABLE T (A INT, B INTEGER, C FLOAT, D REAL, E VARCHAR(20), F CHAR, G TEXT, H DATE, PRIMARY KEY (A, H))",
	(&schema.Relation{Name: "MM0A", Key: []string{"R"}, Columns: []schema.Column{
		{Name: "R", Type: value.KindInt}, {Name: "F", Type: value.KindFloat},
		{Name: "S", Type: value.KindString}, {Name: "D", Type: value.KindDate},
	}}).CreateSQL(),
	// Literals whose display form is not their SQL form.
	"DELETE FROM T WHERE A < 1000000000000000000000.0 OR A = -0.0",
	"INSERT INTO T VALUES (3.0, -0.0, 0.000001, 'it''s; -- not a comment\n', 2001-05-06)",
	"UPDATE T SET X = 12345678901234567890.5, Y = '1-1-80' WHERE Z >= 2.50",
	"SELECT A FROM T GROUP BY A HAVING A > 1000000000000000000000.0",
}

func trim(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return strings.ToValidUTF8(s, "?")
}
