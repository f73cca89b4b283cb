package transform_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/transform"
	"repro/internal/workload"
)

// prep parses and resolves a query against a loaded fixture database.
func prep(t *testing.T, load func(*workload.DB) error, src string) (*workload.DB, *ast.QueryBlock) {
	t.Helper()
	db := workload.NewDB(8)
	if err := load(db); err != nil {
		t.Fatal(err)
	}
	qb, err := sqlparser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := schema.Resolve(db.Cat, qb); err != nil {
		t.Fatalf("resolve: %v", err)
	}
	return db, qb
}

func mustTransform(t *testing.T, db *workload.DB, qb *ast.QueryBlock, v transform.Variant) *transform.Result {
	t.Helper()
	return mustTransformAs(t, db, qb, transform.New(db.Cat, v))
}

// asPaper transforms as the plan the paper costs does: section 8's
// rewrites printed, no quantifier retained.
func asPaper(t *testing.T, db *workload.DB, qb *ast.QueryBlock) *transform.Result {
	t.Helper()
	return mustTransformAs(t, db, qb, transform.New(db.Cat, transform.JA2).AsPaper(true))
}

func mustTransformAs(t *testing.T, db *workload.DB, qb *ast.QueryBlock, tr *transform.Transformer) *transform.Result {
	t.Helper()
	res, err := tr.Transform(qb)
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	return res
}

// wantSQL compares generated SQL text exactly (the paper presents every
// transformation as SQL; these assertions pin our output to its examples).
func wantSQL(t *testing.T, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("SQL mismatch:\n  got:  %s\n  want: %s", got, want)
	}
}

// Section 6.1: NEST-JA2 applied to Kiessling's query Q2 produces exactly
// the paper's three steps.
func TestJA2KiesslingQ2Steps(t *testing.T) {
	db, qb := prep(t, workload.LoadKiessling, workload.KiesslingQ2)
	res := mustTransform(t, db, qb, transform.JA2)

	if len(res.Temps) != 3 {
		t.Fatalf("temps = %d, want 3", len(res.Temps))
	}
	wantSQL(t, res.Temps[0].Def.String(),
		"SELECT DISTINCT PARTS.PNUM FROM PARTS")
	wantSQL(t, res.Temps[1].Def.String(),
		"SELECT SUPPLY.PNUM, SUPPLY.SHIPDATE FROM SUPPLY WHERE SUPPLY.SHIPDATE < 1-1-80")
	wantSQL(t, res.Temps[2].Def.String(),
		"SELECT TEMP1.PNUM, COUNT(TEMP2.SHIPDATE) AS CT FROM TEMP1, TEMP2 "+
			"WHERE TEMP1.PNUM =+ TEMP2.PNUM GROUP BY TEMP1.PNUM")
	wantSQL(t, res.Query.String(),
		"SELECT PARTS.PNUM FROM PARTS, TEMP3 "+
			"WHERE PARTS.QOH = TEMP3.CT AND TEMP3.PNUM <=> PARTS.PNUM")

	// Temp schemas carry usable column definitions.
	if res.Temps[2].Rel.Columns[1].Name != "CT" {
		t.Errorf("TEMP3 columns = %+v", res.Temps[2].Rel.Columns)
	}
}

// Section 5.2.1: COUNT(*) must be converted to COUNT over the inner join
// column.
func TestJA2CountStarConversion(t *testing.T) {
	db, qb := prep(t, workload.LoadKiessling, workload.KiesslingQ2CountStar)
	res := mustTransform(t, db, qb, transform.JA2)
	temp3 := res.Temps[2].Def.String()
	if !strings.Contains(temp3, "COUNT(TEMP2.PNUM) AS CT") {
		t.Errorf("COUNT(*) not converted to inner join column:\n%s", temp3)
	}
}

// Section 5.3.1: the non-equality operator is used (flipped onto the
// projection side) in the temp creation, and the rewritten query uses
// equality; no outer join and no inner restriction temp are needed for
// MAX.
func TestJA2NonEquality(t *testing.T) {
	db, qb := prep(t, workload.LoadNonEquality, workload.GanskiQ5)
	res := mustTransform(t, db, qb, transform.JA2)
	if len(res.Temps) != 2 {
		t.Fatalf("temps = %d, want 2 (no TEMP2 for MAX)", len(res.Temps))
	}
	wantSQL(t, res.Temps[0].Def.String(),
		"SELECT DISTINCT PARTS.PNUM FROM PARTS")
	wantSQL(t, res.Temps[1].Def.String(),
		"SELECT TEMP1.PNUM, MAX(SUPPLY.QUAN) AS MAXQUAN FROM TEMP1, SUPPLY "+
			"WHERE SUPPLY.SHIPDATE < 1-1-80 AND TEMP1.PNUM > SUPPLY.PNUM "+
			"GROUP BY TEMP1.PNUM")
	wantSQL(t, res.Query.String(),
		"SELECT PARTS.PNUM FROM PARTS, TEMP2 "+
			"WHERE PARTS.QOH = TEMP2.MAXQUAN AND TEMP2.PNUM <=> PARTS.PNUM")
}

// Kim's NEST-JA on Q2 reproduces the buggy transformation of section 5.1:
// the temp table is grouped over the inner relation alone.
func TestKimJAKiesslingQ2(t *testing.T) {
	db, qb := prep(t, workload.LoadKiessling, workload.KiesslingQ2)
	res := mustTransform(t, db, qb, transform.KimJA)
	if len(res.Temps) != 1 {
		t.Fatalf("temps = %d, want 1", len(res.Temps))
	}
	wantSQL(t, res.Temps[0].Def.String(),
		"SELECT SUPPLY.PNUM, COUNT(SUPPLY.SHIPDATE) AS CT FROM SUPPLY "+
			"WHERE SUPPLY.SHIPDATE < 1-1-80 GROUP BY SUPPLY.PNUM")
	wantSQL(t, res.Query.String(),
		"SELECT PARTS.PNUM FROM PARTS, TEMP1 "+
			"WHERE PARTS.QOH = TEMP1.CT AND TEMP1.PNUM = PARTS.PNUM")
}

// Kim's NEST-JA on Q5 keeps the original "<" operator in the final join —
// the section 5.3 bug, faithfully reproduced.
func TestKimJANonEqualityKeepsOperator(t *testing.T) {
	db, qb := prep(t, workload.LoadNonEquality, workload.GanskiQ5)
	res := mustTransform(t, db, qb, transform.KimJA)
	wantSQL(t, res.Temps[0].Def.String(),
		"SELECT SUPPLY.PNUM, MAX(SUPPLY.QUAN) AS MAXQUAN FROM SUPPLY "+
			"WHERE SUPPLY.SHIPDATE < 1-1-80 GROUP BY SUPPLY.PNUM")
	wantSQL(t, res.Query.String(),
		"SELECT PARTS.PNUM FROM PARTS, TEMP1 "+
			"WHERE PARTS.QOH = TEMP1.MAXQUAN AND TEMP1.PNUM < PARTS.PNUM")
}

// Section 3.1: NEST-N-J flattens type-N nesting into a join, IS IN -> =.
func TestNestNJTypeN(t *testing.T) {
	db, qb := prep(t, workload.LoadSuppliers, `
		SELECT SNO FROM SP
		WHERE PNO IS IN (SELECT PNO FROM P WHERE WEIGHT > 15)`)
	res := mustTransform(t, db, qb, transform.JA2)
	if len(res.Temps) != 0 {
		t.Fatalf("NEST-N-J must not create temps, got %d", len(res.Temps))
	}
	wantSQL(t, res.Query.String(),
		"SELECT SP.SNO FROM SP, P WHERE SP.PNO = P.PNO AND P.WEIGHT > 15")
}

// Section 3.1 applied to type-J (the paper's example 4).
func TestNestNJTypeJ(t *testing.T) {
	db, qb := prep(t, workload.LoadSuppliers, `
		SELECT SNAME FROM S
		WHERE SNO IS IN (SELECT SNO FROM SP
		                 WHERE QTY > 100 AND SP.ORIGIN = S.CITY)`)
	res := mustTransform(t, db, qb, transform.JA2)
	wantSQL(t, res.Query.String(),
		"SELECT S.SNAME FROM S, SP "+
			"WHERE S.SNO = SP.SNO AND SP.QTY > 100 AND SP.ORIGIN = S.CITY")
}

// Multi-level type-N nesting flattens fully (the algorithm "applies to
// type-N or type-J nested queries with one or more levels of nesting").
func TestNestNJMultiLevel(t *testing.T) {
	db, qb := prep(t, workload.LoadSuppliers, `
		SELECT SNAME FROM S
		WHERE SNO IN (SELECT SNO FROM SP
		              WHERE PNO IN (SELECT PNO FROM P WHERE WEIGHT > 15))`)
	res := mustTransform(t, db, qb, transform.JA2)
	wantSQL(t, res.Query.String(),
		"SELECT S.SNAME FROM S, SP, P "+
			"WHERE S.SNO = SP.SNO AND SP.PNO = P.PNO AND P.WEIGHT > 15")
}

// FROM-clause merging renames colliding bindings and rewrites references.
func TestNestNJAliasCollision(t *testing.T) {
	db, qb := prep(t, workload.LoadSuppliers, `
		SELECT SNO FROM SP
		WHERE QTY IN (SELECT QTY FROM SP WHERE PNO = 'P2')`)
	res := mustTransform(t, db, qb, transform.JA2)
	got := res.Query.String()
	want := "SELECT SP.SNO FROM SP, SP SP_1 " +
		"WHERE SP.QTY = SP_1.QTY AND SP_1.PNO = 'P2'"
	wantSQL(t, got, want)
}

// Type-A blocks are preserved as constant subqueries (evaluated once at
// execution), and IN against an aggregate block becomes =.
func TestTypeAPreserved(t *testing.T) {
	db, qb := prep(t, workload.LoadSuppliers, `
		SELECT SNO FROM SP WHERE PNO = (SELECT MAX(PNO) FROM P)`)
	res := mustTransform(t, db, qb, transform.JA2)
	wantSQL(t, res.Query.String(),
		"SELECT SP.SNO FROM SP WHERE SP.PNO = (SELECT MAX(P.PNO) FROM P)")

	db, qb = prep(t, workload.LoadSuppliers, `
		SELECT SNO FROM SP WHERE PNO IN (SELECT MAX(PNO) FROM P)`)
	res = mustTransform(t, db, qb, transform.JA2)
	wantSQL(t, res.Query.String(),
		"SELECT SP.SNO FROM SP WHERE SP.PNO = (SELECT MAX(P.PNO) FROM P)")
}

// Section 8.1, in the plan the paper costs: EXISTS becomes 0 < COUNT(*),
// then the correlated COUNT goes through NEST-JA2 with the COUNT(*)
// conversion.
func TestExistsRewriteFullPipeline(t *testing.T) {
	db, qb := prep(t, workload.LoadKiessling, `
		SELECT PNUM FROM PARTS
		WHERE EXISTS (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`)
	res := asPaper(t, db, qb)
	if len(res.Temps) != 3 {
		t.Fatalf("temps = %d, want 3", len(res.Temps))
	}
	final := res.Query.String()
	if !strings.Contains(final, "0 < TEMP3.CT") {
		t.Errorf("EXISTS final query lacks 0 < CT: %s", final)
	}
	temp3 := res.Temps[2].Def.String()
	if !strings.Contains(temp3, "COUNT(TEMP2.PNUM)") {
		t.Errorf("COUNT(*) not converted in EXISTS pipeline: %s", temp3)
	}
}

// Section 8.1, in the plan the paper costs: NOT EXISTS becomes 0 =
// COUNT(*).
func TestNotExistsRewrite(t *testing.T) {
	db, qb := prep(t, workload.LoadKiessling, `
		SELECT PNUM FROM PARTS
		WHERE NOT EXISTS (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`)
	res := asPaper(t, db, qb)
	if !strings.Contains(res.Query.String(), "0 = TEMP3.CT") {
		t.Errorf("NOT EXISTS final query: %s", res.Query.String())
	}
}

// Section 8.2, in the plan the paper costs: quantified comparisons become
// scalar aggregates.
func TestQuantRewrites(t *testing.T) {
	cases := []struct {
		src      string
		wantFrag string
	}{
		{"SELECT PNUM FROM PARTS WHERE QOH < ANY (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
			"MAXQUAN"},
		{"SELECT PNUM FROM PARTS WHERE QOH > ANY (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
			"MINQUAN"},
		{"SELECT PNUM FROM PARTS WHERE QOH < ALL (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
			"MINQUAN"},
		{"SELECT PNUM FROM PARTS WHERE QOH >= ALL (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
			"MAXQUAN"},
	}
	for _, c := range cases {
		db, qb := prep(t, workload.LoadKiessling, c.src)
		res := asPaper(t, db, qb)
		if got := res.Query.String(); !strings.Contains(got, c.wantFrag) {
			t.Errorf("%q:\n  final %s lacks %s", c.src, got, c.wantFrag)
		}
	}
	// = ANY becomes IN and is then flattened as type-N/J.
	db, qb := prep(t, workload.LoadSuppliers,
		"SELECT SNO FROM SP WHERE PNO = ANY (SELECT PNO FROM P WHERE WEIGHT > 15)")
	res := mustTransform(t, db, qb, transform.JA2)
	wantSQL(t, res.Query.String(),
		"SELECT SP.SNO FROM SP, P WHERE SP.PNO = P.PNO AND P.WEIGHT > 15")
}

// Section 9.1: a correlated reference two levels down, crossing the
// aggregate block, migrates up through NEST-N-J and is then resolved by
// NEST-JA2 — the Figure 2 walk-through.
func TestNestGTransAggregate(t *testing.T) {
	db, qb := prep(t, workload.LoadSuppliers, `
		SELECT SNAME FROM S
		WHERE STATUS = (SELECT MAX(QTY) FROM SP
		                WHERE PNO IN (SELECT PNO FROM P WHERE P.CITY = S.CITY))`)
	res := mustTransform(t, db, qb, transform.JA2)
	if len(res.Temps) != 2 {
		t.Fatalf("temps = %d, want 2", len(res.Temps))
	}
	wantSQL(t, res.Temps[0].Def.String(),
		"SELECT DISTINCT S.CITY FROM S")
	wantSQL(t, res.Temps[1].Def.String(),
		"SELECT TEMP1.CITY, MAX(SP.QTY) AS MAXQTY FROM TEMP1, SP, P "+
			"WHERE SP.PNO = P.PNO AND TEMP1.CITY = P.CITY GROUP BY TEMP1.CITY")
	wantSQL(t, res.Query.String(),
		"SELECT S.SNAME FROM S, TEMP2 "+
			"WHERE S.STATUS = TEMP2.MAXQTY AND TEMP2.CITY <=> S.CITY")
}

// Section 6, step 1: the outer block's simple predicates restrict the
// projection of the outer join column.
func TestJA2OuterSimplePredicatesInProjection(t *testing.T) {
	db, qb := prep(t, workload.LoadKiessling, `
		SELECT PNUM FROM PARTS
		WHERE QOH > 0 AND
		      QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY
		             WHERE SUPPLY.PNUM = PARTS.PNUM)`)
	res := mustTransform(t, db, qb, transform.JA2)
	wantSQL(t, res.Temps[0].Def.String(),
		"SELECT DISTINCT PARTS.PNUM FROM PARTS WHERE PARTS.QOH > 0")
	// The simple predicate also remains in the outer query.
	if !strings.Contains(res.Query.String(), "PARTS.QOH > 0") {
		t.Errorf("outer simple predicate dropped: %s", res.Query.String())
	}
}

// Queries outside the algorithms' scope fail with ErrNotTransformable so
// the engine can fall back to nested iteration.
func TestNotTransformable(t *testing.T) {
	cases := []string{
		// Subquery under OR.
		"SELECT SNO FROM SP WHERE QTY > 100 OR PNO IN (SELECT PNO FROM P WHERE WEIGHT > 15)",
		// = ALL has no rewrite.
		"SELECT SNO FROM SP WHERE PNO = ALL (SELECT PNO FROM P WHERE WEIGHT > 15)",
		// NOT IN over a non-flat inner block (DISTINCT) cannot become an
		// anti-join and must fall back.
		"SELECT SNO FROM SP WHERE PNO NOT IN (SELECT DISTINCT PNO FROM P WHERE WEIGHT > 15)",
	}
	for _, src := range cases {
		db, qb := prep(t, workload.LoadSuppliers, src)
		_, err := transform.New(db.Cat, transform.JA2).Transform(qb)
		if !errors.Is(err, transform.ErrNotTransformable) {
			t.Errorf("%q: err = %v, want ErrNotTransformable", src, err)
		}
	}
}

// NOT IN over a flat inner block is retained in the canonical form for
// NULL-aware anti-join execution (extension beyond the paper; != ANY
// rewrites into the same path).
func TestNotInRetainedForAntiJoin(t *testing.T) {
	for _, src := range []string{
		"SELECT SNO FROM SP WHERE PNO NOT IN (SELECT PNO FROM P WHERE WEIGHT > 15)",
		"SELECT SNO FROM SP WHERE PNO != ANY (SELECT PNO FROM P WHERE WEIGHT > 15)",
	} {
		db, qb := prep(t, workload.LoadSuppliers, src)
		res := mustTransform(t, db, qb, transform.JA2)
		if len(res.Query.Where) != 1 {
			t.Fatalf("%q: conjuncts = %d", src, len(res.Query.Where))
		}
		in, ok := res.Query.Where[0].(*ast.InPred)
		if !ok || !in.Negated {
			t.Errorf("%q: retained predicate = %T", src, res.Query.Where[0])
		}
	}
}

// Correlation referencing two different outer relations is out of scope.
func TestJA2MultiOuterCorrelationRejected(t *testing.T) {
	db, qb := prep(t, workload.LoadSuppliers, `
		SELECT SNAME FROM S, P
		WHERE S.CITY = P.CITY AND
		      S.STATUS = (SELECT MAX(QTY) FROM SP
		                  WHERE SP.SNO = S.SNO AND SP.PNO = P.PNO)`)
	_, err := transform.New(db.Cat, transform.JA2).Transform(qb)
	if !errors.Is(err, transform.ErrNotTransformable) {
		t.Errorf("err = %v, want ErrNotTransformable", err)
	}
}

// The transformer never mutates its input.
func TestTransformDoesNotMutateInput(t *testing.T) {
	db, qb := prep(t, workload.LoadKiessling, workload.KiesslingQ2)
	before := qb.String()
	mustTransform(t, db, qb, transform.JA2)
	if qb.String() != before {
		t.Errorf("input mutated:\n  before: %s\n  after:  %s", before, qb.String())
	}
}

// Steps trace records every rule application.
func TestStepsTrace(t *testing.T) {
	db, qb := prep(t, workload.LoadKiessling, workload.KiesslingQ2)
	res := mustTransform(t, db, qb, transform.JA2)
	var rules []string
	for _, s := range res.Steps {
		rules = append(rules, s.Rule)
	}
	joined := strings.Join(rules, " ")
	for _, want := range []string{"CREATE TEMP1", "CREATE TEMP2", "CREATE TEMP3", "NEST-JA2"} {
		if !strings.Contains(joined, want) {
			t.Errorf("steps %v missing %q", rules, want)
		}
	}
}

// Temp names skip existing catalog relations.
func TestTempNameCollisionAvoidance(t *testing.T) {
	db := workload.NewDB(8)
	if err := workload.LoadKiessling(db); err != nil {
		t.Fatal(err)
	}
	if err := db.Cat.Define(&schema.Relation{
		Name:    "TEMP1",
		Columns: []schema.Column{{Name: "X"}},
	}); err != nil {
		t.Fatal(err)
	}
	qb := sqlparser.MustParse(workload.KiesslingQ2)
	if _, err := schema.Resolve(db.Cat, qb); err != nil {
		t.Fatal(err)
	}
	res := mustTransform(t, db, qb, transform.JA2)
	for _, temp := range res.Temps {
		if temp.Name == "TEMP1" {
			t.Errorf("temp name collides with existing relation TEMP1")
		}
	}
}

// Variant naming for traces.
func TestVariantString(t *testing.T) {
	if transform.JA2.String() != "NEST-JA2" || transform.KimJA.String() != "NEST-JA (Kim)" {
		t.Errorf("variant names: %s / %s", transform.JA2, transform.KimJA)
	}
}

// Two type-JA predicates in one WHERE clause each get their own temp
// program; both reduce to equality joins.
func TestTwoJAPredicatesInOneBlock(t *testing.T) {
	db, qb := prep(t, workload.LoadKiessling, `
		SELECT PNUM FROM PARTS
		WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY
		             WHERE SUPPLY.PNUM = PARTS.PNUM) AND
		      QOH <= (SELECT MAX(QUAN) FROM SUPPLY
		              WHERE SUPPLY.PNUM = PARTS.PNUM)`)
	res := mustTransform(t, db, qb, transform.JA2)
	// COUNT branch: TEMP1 (projection), TEMP2 (restricted inner), TEMP3
	// (grouped); MAX branch: TEMP4 (projection), TEMP5 (grouped).
	if len(res.Temps) != 5 {
		t.Fatalf("temps = %d, want 5", len(res.Temps))
	}
	final := res.Query.String()
	for _, frag := range []string{"TEMP3.CT", "TEMP5.MAXQUAN", "TEMP3.PNUM <=> PARTS.PNUM", "TEMP5.PNUM <=> PARTS.PNUM"} {
		if !strings.Contains(final, frag) {
			t.Errorf("final query missing %q:\n%s", frag, final)
		}
	}
}

// A type-JA block nested inside another type-JA block: the inner pair is
// transformed first (postorder), producing temps that the outer
// transformation then treats as ordinary inner relations.
func TestJAInsideJA(t *testing.T) {
	db, qb := prep(t, workload.LoadSuppliers, `
		SELECT SNAME FROM S
		WHERE STATUS = (SELECT MAX(QTY) FROM SP
		                WHERE SP.QTY = (SELECT COUNT(PNO) FROM P
		                                WHERE P.CITY = SP.ORIGIN) AND
		                      SP.SNO = S.SNO)`)
	res := mustTransform(t, db, qb, transform.JA2)
	if len(res.Temps) < 3 {
		t.Fatalf("temps = %d, want >= 3", len(res.Temps))
	}
	// The innermost COUNT correlates to SP (the middle block), so its
	// projection is over SP.ORIGIN.
	wantSQL(t, res.Temps[0].Def.String(), "SELECT DISTINCT SP.ORIGIN FROM SP")
	// The final query is flat.
	if res.Query.HasNestedPredicate() {
		t.Errorf("final query still nested: %s", res.Query)
	}
}

// ORDER BY survives transformation on the outermost block.
func TestTransformKeepsOrderBy(t *testing.T) {
	db, qb := prep(t, workload.LoadKiessling, workload.KiesslingQ2+" ORDER BY PNUM DESC")
	res := mustTransform(t, db, qb, transform.JA2)
	if !strings.Contains(res.Query.String(), "ORDER BY PNUM DESC") {
		t.Errorf("ORDER BY lost: %s", res.Query)
	}
}

// An inner alias that collides with a generated temp name cannot be merged
// into the temp-creation join; the engine falls back rather than produce
// an ambiguous FROM clause.
func TestJA2InnerAliasCollidesWithTempName(t *testing.T) {
	db, qb := prep(t, workload.LoadNonEquality, `
		SELECT PNUM FROM PARTS
		WHERE QOH = (SELECT MAX(TEMP1.QUAN) FROM SUPPLY TEMP1
		             WHERE TEMP1.PNUM < PARTS.PNUM)`)
	_, err := transform.New(db.Cat, transform.JA2).Transform(qb)
	if !errors.Is(err, transform.ErrNotTransformable) {
		t.Errorf("err = %v, want ErrNotTransformable", err)
	}
}

// An outer alias equal to a generated temp name: harmless for NEST-JA2
// (the temp appears only in later definitions' FROM clauses, a separate
// scope) but ambiguous for Kim's variant, which merges its temp into the
// outer FROM clause and must therefore fall back.
func TestJAOuterAliasCollidesWithTempName(t *testing.T) {
	src := `
		SELECT TEMP1.PNUM FROM PARTS TEMP1
		WHERE TEMP1.QOH = (SELECT MAX(QUAN) FROM SUPPLY
		                   WHERE SUPPLY.PNUM = TEMP1.PNUM)`
	db, qb := prep(t, workload.LoadNonEquality, src)
	res := mustTransform(t, db, qb, transform.JA2)
	if len(res.Temps) != 2 {
		t.Errorf("JA2 temps = %d", len(res.Temps))
	}
	db2, qb2 := prep(t, workload.LoadNonEquality, src)
	_, err := transform.New(db2.Cat, transform.KimJA).Transform(qb2)
	if !errors.Is(err, transform.ErrNotTransformable) {
		t.Errorf("Kim: err = %v, want ErrNotTransformable", err)
	}
}

// Outside the plan the paper costs, NEST-JA2 keeps a flat EXISTS, NOT
// EXISTS and x θ ANY correlated by an equality for the planner's
// quantified join: no temp, the predicate as written. Range-only and
// uncorrelated blocks, non-flat ones, ALL, = ANY (IN), AsPaper and Kim's
// NEST-JA keep section 8's rewrites.
func TestQuantifiersRetained(t *testing.T) {
	const corr = "FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM"
	for _, c := range []struct {
		pred   string
		retain bool
	}{
		{"EXISTS (SELECT QUAN " + corr + ")", true},
		{"NOT EXISTS (SELECT QUAN " + corr + " AND QUAN > 2)", true},
		{"QOH < ANY (SELECT QUAN " + corr + ")", true},
		{"QOH >= ANY (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM <=> PARTS.PNUM AND SUPPLY.QUAN < PARTS.QOH)", true},
		{"QOH NOT IN (SELECT QUAN " + corr + ")", true},
		{"QOH NOT IN (SELECT QUAN FROM SUPPLY)", true},
		{"EXISTS (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM < PARTS.PNUM)", false},
		{"EXISTS (SELECT QUAN FROM SUPPLY WHERE SUPPLY.QUAN > 2)", false},
		{"EXISTS (SELECT DISTINCT QUAN " + corr + ")", false},
		{"QOH < ALL (SELECT QUAN " + corr + ")", false},
		{"QOH = ANY (SELECT QUAN " + corr + ")", false},
		{"QOH <> ANY (SELECT QUAN " + corr + ")", true}, // NOT IN
	} {
		sql := "SELECT PNUM FROM PARTS WHERE " + c.pred
		db, qb := prep(t, workload.LoadKiessling, sql)
		res := mustTransform(t, db, qb, transform.JA2)
		_, rewritten := res.Query.Where[0].(*ast.Comparison)
		kept := len(res.Temps) == 0 && len(res.Query.From) == 1 && !rewritten
		if kept != c.retain {
			t.Errorf("%s: retained %v, want %v; canonical %s", c.pred, kept, c.retain, res.Query)
		}
		for _, paper := range []*transform.Result{asPaper(t, db, qb), mustTransform(t, db, qb, transform.KimJA)} {
			_, notIn := paper.Query.Where[0].(*ast.InPred)
			if c.retain && !notIn && len(paper.Temps) == 0 {
				t.Errorf("%s: retained under AsPaper or Kim's NEST-JA: %s", c.pred, paper.Query)
			}
		}
	}
}
