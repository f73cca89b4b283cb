package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	nestedsql "repro"
)

func TestReadQuery(t *testing.T) {
	if _, err := readQuery(nil); err == nil {
		t.Error("no args must error with usage")
	}
	got, err := readQuery([]string{"SELECT", "X", "FROM", "T"})
	if err != nil || got != "SELECT X FROM T" {
		t.Errorf("joined args = %q, %v", got, err)
	}
}

func TestFlagTables(t *testing.T) {
	for name := range fixtures {
		db := nestedsql.Open()
		if err := db.LoadFixture(fixtures[name]); err != nil {
			t.Errorf("fixture %s: %v", name, err)
		}
	}
	if len(strategies) != 3 {
		t.Errorf("option tables: %d strategies", len(strategies))
	}
}

func TestPrintResult(t *testing.T) {
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		devnull.Close()
	}()

	db := nestedsql.Open()
	if err := db.LoadFixture(nestedsql.FixtureKiessling); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT PNUM, QOH FROM PARTS WHERE QOH > 100")
	if err != nil {
		t.Fatal(err)
	}
	printResult(res) // empty result: header only, no panic
	res, err = db.Exec("CREATE TABLE W (X INT); INSERT INTO W VALUES (NULL); SELECT X FROM W")
	if err != nil {
		t.Fatal(err)
	}
	printResult(res) // NULL rendering path
}

// TestOpenSnapshotKeepsAdmissionFlags: -open used to build the database
// in a branch that never looked at the admission flags (\stats then said
// "admission gateway disabled") and silently ignored -buffer and -fixture,
// which a snapshot overrides.
func TestOpenSnapshotKeepsAdmissionFlags(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "s.img")
	src := nestedsql.Open()
	if err := src.LoadFixture(nestedsql.FixtureKiessling); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	open := func(args ...string) (*nestedsql.DB, error) {
		fs := flag.NewFlagSet("nestedsql", flag.ContinueOnError)
		o := defineFlags(fs)
		if err := fs.Parse(append([]string{"-open", snap}, args...)); err != nil {
			t.Fatal(err)
		}
		return openDB(o, fs)
	}
	db, err := open("-max-concurrent", "1", "-queue-depth", "2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT PNUM FROM PARTS"); err != nil {
		t.Fatal(err)
	}
	if got := db.AdmissionStats().Admitted; got != 1 {
		t.Errorf("restored database admitted %d queries through the gateway, want 1", got)
	}
	if db, err := open(); err != nil || db.Internal().Admission() != nil {
		t.Errorf("-open alone: err %v, or a gateway nobody asked for", err)
	}
	for _, bad := range [][]string{{"-buffer", "2"}, {"-fixture", "none"}, {"-fixture", "kiessling", "-buffer", "32"}} {
		if _, err := open(bad...); err == nil || !strings.Contains(err.Error(), bad[0]) {
			t.Errorf("-open %v: err %v, want a usage error naming %s", bad, err, bad[0])
		}
	}
}
