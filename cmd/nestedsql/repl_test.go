package main

import (
	"os"
	"strings"
	"testing"

	nestedsql "repro"
)

// runREPL feeds a script through the REPL capturing stdout.
func runREPL(t *testing.T, db *nestedsql.DB, script string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- b.String()
	}()
	repl(db, strings.NewReader(script), false, &session{strategy: nestedsql.StrategyTransform})
	w.Close()
	out := <-done
	os.Stdout = old
	return out
}

func TestREPLSession(t *testing.T) {
	db := nestedsql.Open()
	if err := db.LoadFixture(nestedsql.FixtureKiessling); err != nil {
		t.Fatal(err)
	}
	out := runREPL(t, db, `
\d
SELECT PNUM FROM PARTS
WHERE QOH = 0;
\strategy kim
\timeout 30s
\analyze
\index PARTS PNUM
\explain
SELECT PNUM FROM PARTS WHERE QOH = 1;
\explain
INSERT INTO PARTS VALUES (99, 7);
SELECT PNUM FROM PARTS WHERE PNUM = 99;
`)
	for _, frag := range []string{
		"PARTS(PNUM INTEGER, QOH INTEGER)", // \d
		"strategy set to kim",
		"query timeout set to 30s",
		"statistics collected",
		"index created on PARTS.PNUM",
		"explain mode: true",
		"Strategy: transform (Kim NEST-JA)", // explain output
		"explain mode: false",
		"99", // the inserted row came back
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("REPL output missing %q:\n%s", frag, out)
		}
	}
}

func TestREPLMetaErrors(t *testing.T) {
	db := nestedsql.Open()
	out := runREPL(t, db, `
\strategy bogus
\strategy
\timeout soon
\index onlyone
\nosuchcommand
\parallel 4
\verify
SELECT NOPE FROM NOWHERE;
\q
SELECT THIS FROM NEVERRUNS;
`)
	for _, frag := range []string{
		`unknown strategy "bogus"`,
		`usage: \strategy`,
		`bad duration "soon"`,
		`usage: \index`,
		`unknown command \nosuchcommand`,
		`unknown command \parallel`,
		`unknown command \verify`,
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("REPL output missing %q:\n%s", frag, out)
		}
	}
	if strings.Contains(out, "NEVERRUNS") {
		t.Error("\\q did not stop the session")
	}
}

func TestREPLTrailingStatementWithoutSemicolon(t *testing.T) {
	db := nestedsql.Open()
	if err := db.LoadFixture(nestedsql.FixtureKiessling); err != nil {
		t.Fatal(err)
	}
	out := runREPL(t, db, "SELECT PNUM FROM PARTS WHERE QOH = 0")
	if !strings.Contains(out, "8") {
		t.Errorf("trailing statement not executed:\n%s", out)
	}
}
