package cluster

import (
	"errors"
	"testing"

	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/value"
)

func paperCatalog(t *testing.T) *schema.Catalog {
	t.Helper()
	cat := schema.NewCatalog()
	for _, rel := range []*schema.Relation{
		{Name: "S", Columns: []schema.Column{
			{Name: "SNO", Type: value.KindInt},
			{Name: "SNAME", Type: value.KindString},
			{Name: "CITY", Type: value.KindString},
		}, Key: []string{"SNO"}},
		{Name: "P", Columns: []schema.Column{
			{Name: "PNO", Type: value.KindInt},
			{Name: "PNAME", Type: value.KindString},
			{Name: "CITY", Type: value.KindString},
		}, Key: []string{"PNO"}},
		{Name: "SP", Columns: []schema.Column{
			{Name: "SNO", Type: value.KindInt},
			{Name: "PNO", Type: value.KindInt},
			{Name: "QTY", Type: value.KindInt},
		}},
	} {
		if err := cat.Define(rel); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func analyzeSQL(t *testing.T, sql string) (map[string]string, error) {
	t.Helper()
	qb, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	if _, err := schema.Resolve(paperCatalog(t), qb); err != nil {
		t.Fatalf("resolve %q: %v", sql, err)
	}
	return Analyze(qb)
}

func TestAnalyzeDistributable(t *testing.T) {
	cases := []struct {
		sql  string
		want map[string]string
	}{
		// A single-table scan distributes under any placement.
		{"SELECT SNAME FROM S WHERE CITY = 'PARIS'",
			map[string]string{"S": ""}},
		// Local OR/NOT filters don't constrain placement.
		{"SELECT SNAME FROM S WHERE CITY = 'PARIS' OR CITY = 'LONDON'",
			map[string]string{"S": ""}},
		// The paper's type-N nesting: IN links both sides.
		{"SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE QTY > 100)",
			map[string]string{"S": "SNO", "SP": "SNO"}},
		// Type-JA: correlated aggregate subquery — the distributed
		// NEST-JA2 case. Links come from the correlation conjunct.
		{"SELECT SNAME FROM S WHERE 100 < (SELECT SUM(QTY) FROM SP WHERE SP.SNO = S.SNO)",
			map[string]string{"S": "SNO", "SP": "SNO"}},
		// Equijoin of two tables.
		{"SELECT S.SNAME FROM S, SP WHERE S.SNO = SP.SNO AND SP.QTY > 10",
			map[string]string{"S": "SNO", "SP": "SNO"}},
		// Correlated EXISTS and NOT EXISTS: the per-row set is co-located.
		{"SELECT SNAME FROM S WHERE EXISTS (SELECT PNO FROM SP WHERE SP.SNO = S.SNO)",
			map[string]string{"S": "SNO", "SP": "SNO"}},
		{"SELECT SNAME FROM S WHERE NOT EXISTS (SELECT PNO FROM SP WHERE SP.SNO = S.SNO)",
			map[string]string{"S": "SNO", "SP": "SNO"}},
		// Quantified ALL over a correlated set distributes too (unlike
		// NOT IN, the set is keyed by the correlation, not the value).
		{"SELECT SNAME FROM S WHERE SNO > ALL (SELECT QTY FROM SP WHERE SP.SNO = S.SNO)",
			map[string]string{"S": "SNO", "SP": "SNO"}},
		// Three-way connectivity through transitive equalities.
		{"SELECT S.SNAME FROM S, SP, P WHERE S.SNO = SP.SNO AND SP.SNO = P.PNO",
			map[string]string{"S": "SNO", "SP": "SNO", "P": "PNO"}},
	}
	for _, tc := range cases {
		got, err := analyzeSQL(t, tc.sql)
		if err != nil {
			t.Errorf("%s: unexpected reject: %v", tc.sql, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: got %v, want %v", tc.sql, got, tc.want)
			continue
		}
		for table, col := range tc.want {
			if got[table] != col {
				t.Errorf("%s: table %s got key %q, want %q", tc.sql, table, got[table], col)
			}
		}
	}
}

func TestAnalyzeRejects(t *testing.T) {
	cases := []string{
		// Top-level shapes whose per-shard versions are not their
		// global versions under concatenation-gather.
		"SELECT MAX(QTY) FROM SP",
		"SELECT DISTINCT CITY FROM S",
		"SELECT SNAME FROM S ORDER BY SNAME",
		"SELECT CITY, COUNT(SNO) FROM S GROUP BY CITY",
		// NOT IN: an inner NULL on another shard flips the answer.
		"SELECT SNAME FROM S WHERE SNO NOT IN (SELECT SNO FROM SP)",
		// Cross join: disconnected bindings pair rows across shards.
		"SELECT S.SNAME FROM S, P WHERE S.SNO > 0 AND P.PNO > 0",
		// Non-equality join: hash co-location can't honor an inequality.
		"SELECT S.SNAME FROM S, SP WHERE S.SNO < SP.SNO",
		// One table can't be partitioned on two columns at once.
		"SELECT S.SNAME FROM S, SP, P WHERE S.SNO = SP.SNO AND S.CITY = P.CITY AND SP.PNO = SP.QTY AND P.PNO = SP.SNO",
		// Uncorrelated subquery: its value depends on rows the shard
		// cannot see.
		"SELECT SNAME FROM S WHERE SNO = (SELECT MAX(SNO) FROM SP)",
		"SELECT SNAME FROM S WHERE EXISTS (SELECT SNO FROM SP WHERE QTY > 0)",
		// A subquery left of IN is a block the IN's own link does not
		// tie to the rest.
		"SELECT S.SNAME FROM S WHERE (SELECT MAX(SP.QTY) FROM SP WHERE SP.SNO = S.SNO) IN (SELECT SP.QTY FROM SP WHERE SP.SNO = S.SNO)",
		// Disjunction across tables needs cross-shard reasoning.
		"SELECT S.SNAME FROM S, SP WHERE S.SNO = SP.SNO AND (S.CITY = 'PARIS' OR SP.QTY = 1)",
	}
	for _, sql := range cases {
		got, err := analyzeSQL(t, sql)
		if err == nil {
			t.Errorf("%s: expected reject, got %v", sql, got)
			continue
		}
		if !errors.Is(err, ErrNotDistributable) {
			t.Errorf("%s: error %v does not wrap ErrNotDistributable", sql, err)
		}
	}
}

// TestAnalyzeKeyConflictSelfJoin pins the subtle case: a self-join on
// mismatched columns demands two placements for one table.
func TestAnalyzeKeyConflictSelfJoin(t *testing.T) {
	_, err := analyzeSQL(t, "SELECT S1.SNAME FROM S S1, S S2 WHERE S1.SNO = S2.SNO")
	if err != nil {
		t.Fatalf("aligned self-join should distribute: %v", err)
	}
	_, err = analyzeSQL(t, "SELECT S1.SNAME FROM S S1, SP WHERE S1.SNO = SP.SNO AND S1.SNO = SP.PNO")
	if !errors.Is(err, ErrNotDistributable) {
		t.Fatalf("conflicting keys for SP should reject, got %v", err)
	}
}
