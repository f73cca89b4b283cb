package sqlparser

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/value"
)

// roundTrip parses, prints, re-parses, and re-prints, checking stability.
func roundTrip(t *testing.T, src string) *ast.QueryBlock {
	t.Helper()
	qb, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	printed := qb.String()
	qb2, err := Parse(printed)
	if err != nil {
		t.Fatalf("re-Parse(%q): %v", printed, err)
	}
	if printed2 := qb2.String(); printed2 != printed {
		t.Fatalf("print not stable:\n  first:  %s\n  second: %s", printed, printed2)
	}
	return qb
}

// The paper's example queries, numbered as in the text.
var paperQueries = map[string]string{
	"example1-nested-in": `
		SELECT SNAME FROM S
		WHERE SNO IN (SELECT SNO FROM SP WHERE PNO = 'P2');`,
	"example2-typeA": `
		SELECT SNO FROM SP
		WHERE PNO = (SELECT MAX(PNO) FROM P);`,
	"example3-typeN": `
		SELECT SNO FROM SP
		WHERE PNO IS IN (SELECT PNO FROM P WHERE WEIGHT > 50);`,
	"example4-typeJ": `
		SELECT SNAME FROM S
		WHERE SNO IS IN (SELECT SNO FROM SP
		                 WHERE QTY > 100 AND SP.ORIGIN = S.CITY);`,
	"example5-typeJA": `
		SELECT PNAME FROM P
		WHERE PNO = (SELECT MAX(PNO) FROM SP WHERE SP.ORIGIN = P.CITY);`,
	"kiessling-Q2": `
		SELECT PNUM FROM PARTS
		WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY
		             WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80);`,
	"ganski-Q5": `
		SELECT PNUM FROM PARTS
		WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY
		             WHERE SUPPLY.PNUM < PARTS.PNUM AND SHIPDATE < 1-1-80);`,
}

func TestParsePaperQueries(t *testing.T) {
	for name, src := range paperQueries {
		t.Run(name, func(t *testing.T) {
			roundTrip(t, src)
		})
	}
}

func TestParseSimpleSelect(t *testing.T) {
	qb := roundTrip(t, "SELECT SNAME FROM S")
	if len(qb.Select) != 1 || qb.Select[0].Col.Column != "SNAME" {
		t.Errorf("Select = %+v", qb.Select)
	}
	if len(qb.From) != 1 || qb.From[0].Relation != "S" {
		t.Errorf("From = %+v", qb.From)
	}
	if qb.Where != nil || qb.Distinct {
		t.Errorf("unexpected Where/Distinct")
	}
}

func TestParseDistinctAndAlias(t *testing.T) {
	qb := roundTrip(t, "SELECT DISTINCT T.PNUM FROM PARTS T WHERE T.QOH > 0")
	if !qb.Distinct {
		t.Error("DISTINCT not parsed")
	}
	if qb.From[0].Relation != "PARTS" || qb.From[0].Alias != "T" {
		t.Errorf("alias not parsed: %+v", qb.From[0])
	}
	if qb.Select[0].Col != (ast.ColumnRef{Table: "T", Column: "PNUM"}) {
		t.Errorf("qualified column = %+v", qb.Select[0].Col)
	}
}

func TestParseAggregates(t *testing.T) {
	qb := roundTrip(t, "SELECT PNUM, COUNT(SHIPDATE) FROM SUPPLY GROUP BY PNUM")
	if len(qb.Select) != 2 {
		t.Fatalf("Select len = %d", len(qb.Select))
	}
	if qb.Select[1].Agg != value.AggCount || qb.Select[1].Col.Column != "SHIPDATE" {
		t.Errorf("COUNT item = %+v", qb.Select[1])
	}
	if len(qb.GroupBy) != 1 || qb.GroupBy[0].Column != "PNUM" {
		t.Errorf("GroupBy = %+v", qb.GroupBy)
	}

	qb = roundTrip(t, "SELECT COUNT(*) FROM SUPPLY")
	if qb.Select[0].Agg != value.AggCountStar {
		t.Errorf("COUNT(*) = %+v", qb.Select[0])
	}
	for _, fn := range []string{"MAX", "MIN", "SUM", "AVG"} {
		qb := roundTrip(t, "SELECT "+fn+"(QTY) FROM SP")
		if qb.Select[0].Agg.String() != fn {
			t.Errorf("%s parsed as %v", fn, qb.Select[0].Agg)
		}
	}
}

func TestParseSelectItemAS(t *testing.T) {
	qb := roundTrip(t, "SELECT PNUM AS SUPPNUM, COUNT(SHIPDATE) AS CT FROM SUPPLY GROUP BY PNUM")
	if qb.Select[0].As != "SUPPNUM" || qb.Select[1].As != "CT" {
		t.Errorf("AS aliases = %+v", qb.Select)
	}
}

func TestParseNestedDepth(t *testing.T) {
	qb := roundTrip(t, `
		SELECT A1 FROM A WHERE A2 IN (
			SELECT B1 FROM B WHERE B2 IN (
				SELECT C1 FROM C WHERE C2 = 5))`)
	if got := qb.MaxDepth(); got != 2 {
		t.Errorf("MaxDepth = %d, want 2", got)
	}
}

func TestParseOperators(t *testing.T) {
	cases := map[string]value.CompareOp{
		"=": value.OpEq, "!=": value.OpNe, "<>": value.OpNe,
		"<": value.OpLt, "<=": value.OpLe, ">": value.OpGt, ">=": value.OpGe,
		"!<": value.OpGe, "!>": value.OpLe, // System R spellings
		"<=>": value.OpEqNull, // NEST-JA2's NULL-safe back-join
	}
	for opText, want := range cases {
		qb, err := Parse("SELECT X FROM T WHERE X " + opText + " 5")
		if err != nil {
			t.Fatalf("op %q: %v", opText, err)
		}
		cmp, ok := qb.Where[0].(*ast.Comparison)
		if !ok {
			t.Fatalf("op %q: predicate is %T", opText, qb.Where[0])
		}
		if cmp.Op != want {
			t.Errorf("op %q parsed as %v, want %v", opText, cmp.Op, want)
		}
	}
}

func TestParseOuterJoinOperator(t *testing.T) {
	// The paper's TEMP3 definition uses PARTS.PNUM =+ SUPPLY.PNUM.
	qb := roundTrip(t, "SELECT A FROM R, S WHERE R.X =+ S.Y")
	cmp := qb.Where[0].(*ast.Comparison)
	if !cmp.LeftOuter || cmp.Op != value.OpEq {
		t.Errorf("outer eq = %+v", cmp)
	}
	qb = roundTrip(t, "SELECT A FROM R, S WHERE R.X <+ S.Y")
	cmp = qb.Where[0].(*ast.Comparison)
	if !cmp.LeftOuter || cmp.Op != value.OpLt {
		t.Errorf("outer lt = %+v", cmp)
	}
}

func TestParseInForms(t *testing.T) {
	for _, src := range []string{
		"SELECT X FROM T WHERE X IN (SELECT Y FROM U)",
		"SELECT X FROM T WHERE X IS IN (SELECT Y FROM U)",
	} {
		qb := roundTrip(t, src)
		in, ok := qb.Where[0].(*ast.InPred)
		if !ok || in.Negated {
			t.Errorf("%q: predicate = %+v", src, qb.Where[0])
		}
	}
	for _, src := range []string{
		"SELECT X FROM T WHERE X NOT IN (SELECT Y FROM U)",
		"SELECT X FROM T WHERE X IS NOT IN (SELECT Y FROM U)",
	} {
		qb := roundTrip(t, src)
		in, ok := qb.Where[0].(*ast.InPred)
		if !ok || !in.Negated {
			t.Errorf("%q: predicate = %+v", src, qb.Where[0])
		}
	}
}

func TestParseExists(t *testing.T) {
	qb := roundTrip(t, "SELECT X FROM T WHERE EXISTS (SELECT Y FROM U WHERE U.A = T.B)")
	ex, ok := qb.Where[0].(*ast.ExistsPred)
	if !ok || ex.Negated {
		t.Fatalf("predicate = %+v", qb.Where[0])
	}
	qb = roundTrip(t, "SELECT X FROM T WHERE NOT EXISTS (SELECT Y FROM U)")
	ex, ok = qb.Where[0].(*ast.ExistsPred)
	if !ok || !ex.Negated {
		t.Fatalf("NOT EXISTS predicate = %+v", qb.Where[0])
	}
}

func TestParseQuantified(t *testing.T) {
	qb := roundTrip(t, "SELECT X FROM T WHERE X < ANY (SELECT Y FROM U)")
	q, ok := qb.Where[0].(*ast.QuantPred)
	if !ok || q.Quant != ast.Any || q.Op != value.OpLt {
		t.Fatalf("predicate = %+v", qb.Where[0])
	}
	qb = roundTrip(t, "SELECT X FROM T WHERE X >= ALL (SELECT Y FROM U)")
	q = qb.Where[0].(*ast.QuantPred)
	if q.Quant != ast.All || q.Op != value.OpGe {
		t.Fatalf("predicate = %+v", qb.Where[0])
	}
}

func TestParseScalarSubqueryOnLeft(t *testing.T) {
	// Section 8's EXISTS rewrite produces 0 < (SELECT COUNT(...) ...).
	qb := roundTrip(t, "SELECT X FROM T WHERE 0 < (SELECT COUNT(Y) FROM U)")
	cmp := qb.Where[0].(*ast.Comparison)
	if _, ok := cmp.Left.(ast.Const); !ok {
		t.Errorf("left = %T", cmp.Left)
	}
	if _, ok := cmp.Right.(*ast.Subquery); !ok {
		t.Errorf("right = %T", cmp.Right)
	}
	// And a subquery as the left operand.
	qb = roundTrip(t, "SELECT X FROM T WHERE (SELECT COUNT(Y) FROM U) = 0")
	cmp = qb.Where[0].(*ast.Comparison)
	if _, ok := cmp.Left.(*ast.Subquery); !ok {
		t.Errorf("left = %T", cmp.Left)
	}
}

func TestParseAndFlattening(t *testing.T) {
	qb := roundTrip(t, "SELECT X FROM T WHERE A = 1 AND B = 2 AND C = 3")
	if len(qb.Where) != 3 {
		t.Fatalf("conjuncts = %d, want 3", len(qb.Where))
	}
	for _, p := range qb.Where {
		if _, ok := p.(*ast.Comparison); !ok {
			t.Errorf("conjunct is %T", p)
		}
	}
}

func TestParseOrNot(t *testing.T) {
	qb := roundTrip(t, "SELECT X FROM T WHERE A = 1 OR B = 2")
	if len(qb.Where) != 1 {
		t.Fatalf("conjuncts = %d", len(qb.Where))
	}
	if _, ok := qb.Where[0].(*ast.OrPred); !ok {
		t.Fatalf("predicate = %T", qb.Where[0])
	}
	if !qb.HasDisjunction() {
		t.Error("HasDisjunction must be true")
	}

	// Precedence: AND binds tighter than OR.
	qb = roundTrip(t, "SELECT X FROM T WHERE A = 1 AND B = 2 OR C = 3")
	or, ok := qb.Where[0].(*ast.OrPred)
	if !ok {
		t.Fatalf("top = %T", qb.Where[0])
	}
	if _, ok := or.Left.(*ast.AndPred); !ok {
		t.Errorf("or.Left = %T, want AndPred", or.Left)
	}

	qb = roundTrip(t, "SELECT X FROM T WHERE NOT (A = 1 OR B = 2)")
	not, ok := qb.Where[0].(*ast.NotPred)
	if !ok {
		t.Fatalf("top = %T", qb.Where[0])
	}
	if _, ok := not.P.(*ast.OrPred); !ok {
		t.Errorf("not.P = %T", not.P)
	}
}

func TestParseParenthesizedPredicate(t *testing.T) {
	qb := roundTrip(t, "SELECT X FROM T WHERE (A = 1 OR B = 2) AND C = 3")
	if len(qb.Where) != 2 {
		t.Fatalf("conjuncts = %d, want 2", len(qb.Where))
	}
}

func TestParseLiterals(t *testing.T) {
	qb := roundTrip(t, "SELECT X FROM T WHERE A = -7 AND B = 2.5 AND C = 'P2' AND D < 1-1-80 AND E < '1979-07-03'")
	consts := make([]value.Value, 0, 5)
	for _, p := range qb.Where {
		consts = append(consts, p.(*ast.Comparison).Right.(ast.Const).Val)
	}
	if consts[0].Int() != -7 {
		t.Errorf("int literal = %v", consts[0])
	}
	if consts[1].Float() != 2.5 {
		t.Errorf("float literal = %v", consts[1])
	}
	if consts[2].Str() != "P2" {
		t.Errorf("string literal = %v", consts[2])
	}
	if consts[3].Kind() != value.KindDate || consts[3].DateOf().Year() != 1980 {
		t.Errorf("bare date literal = %v", consts[3])
	}
	if consts[4].Kind() != value.KindDate || consts[4].DateOf().Year() != 1979 {
		t.Errorf("quoted ISO date literal = %v", consts[4])
	}
}

func TestParseStringEscapes(t *testing.T) {
	qb := roundTrip(t, "SELECT X FROM T WHERE A = 'O''BRIEN'")
	c := qb.Where[0].(*ast.Comparison).Right.(ast.Const).Val
	if c.Str() != "O'BRIEN" {
		t.Errorf("escaped string = %q", c.Str())
	}
}

func TestParseComments(t *testing.T) {
	qb := roundTrip(t, "SELECT X -- output column\nFROM T -- the relation\n")
	if qb.Select[0].Col.Column != "X" {
		t.Errorf("comment handling broke select: %+v", qb.Select)
	}
}

func TestParseSemicolonAndCase(t *testing.T) {
	qb := roundTrip(t, "select sname from s where sno in (select sno from sp);")
	if _, ok := qb.Where[0].(*ast.InPred); !ok {
		t.Errorf("lower-case keywords: %T", qb.Where[0])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                    // empty
		"SELECT",                              // missing items
		"SELECT X",                            // missing FROM
		"SELECT X FROM",                       // missing table
		"SELECT X FROM T WHERE",               // missing predicate
		"SELECT X FROM T WHERE X",             // missing operator
		"SELECT X FROM T WHERE X = ",          // missing operand
		"SELECT X FROM T WHERE X IN SELECT",   // missing paren
		"SELECT X FROM T WHERE X IS 5",        // IS without IN
		"SELECT MEDIAN(X) FROM T",             // unknown function
		"SELECT MAX(*) FROM T",                // only COUNT(*) allowed
		"SELECT X FROM T WHERE X = 5 GARBAGE", // trailing junk
		"SELECT X FROM T WHERE X = 'unclosed", // unterminated string
		"SELECT X FROM T WHERE X =+ ANY (SELECT Y FROM U)", // quantified outer op
		"SELECT X FROM T WHERE X ! 5",                      // bad operator
		"SELECT X FROM T WHERE X = @",                      // bad character
		"SELECT X.Y.Z FROM T",                              // over-qualified
		"SELECT X FROM T GROUP BY",                         // missing group column
		"SELECT X FROM T WHERE X = -1-1-80",                // negative date
		"SELECT X FROM T WHERE X IN (SELECT Y FROM U",      // unclosed subquery
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := Parse("SELECT X\nFROM T\nWHERE X = @")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q does not mention line 3", err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse must panic on bad input")
		}
	}()
	MustParse("not sql")
}

// TestDepthLimit feeds the parser inputs whose recursion (at parse time
// or in any later tree walk) is proportional to input length; each must
// come back as a clean "nesting depth" error, not a stack overflow. A
// query at a reasonable depth must still parse.
func TestDepthLimit(t *testing.T) {
	bombs := map[string]string{
		"parens":     "SELECT X FROM T WHERE " + strings.Repeat("(", 1<<20) + "A = 1",
		"not":        "SELECT X FROM T WHERE " + strings.Repeat("NOT ", 1<<20) + "A = 1",
		"and":        "SELECT X FROM T WHERE " + strings.Repeat("A = 1 AND ", 1<<20) + "A = 1",
		"or":         "SELECT X FROM T WHERE " + strings.Repeat("A = 1 OR ", 1<<20) + "A = 1",
		"subqueries": "SELECT X FROM T WHERE A IN " + strings.Repeat("(SELECT X FROM T WHERE A IN ", 1<<18) + "(SELECT X FROM T)",
	}
	for name, src := range bombs {
		t.Run(name, func(t *testing.T) {
			_, err := Parse(src)
			if err == nil {
				t.Fatal("expected a depth error")
			}
			if !strings.Contains(err.Error(), "nesting depth") {
				t.Errorf("error %q is not the depth budget", err)
			}
		})
	}
	ok := "SELECT X FROM T WHERE " + strings.Repeat("(", 100) + "A = 1" + strings.Repeat(")", 100) + " AND " +
		strings.Repeat("B = 2 AND ", 100) + "C = 3"
	if _, err := Parse(ok); err != nil {
		t.Errorf("reasonable nesting rejected: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	qb := MustParse(paperQueries["kiessling-Q2"])
	clone := qb.Clone()
	if clone.String() != qb.String() {
		t.Fatalf("clone differs:\n%s\n%s", clone.String(), qb.String())
	}
	// Mutating the clone must not affect the original.
	ast.VisitBlocks(clone, func(b *ast.QueryBlock, _ int) bool {
		b.RewriteLocalColumns(func(c ast.ColumnRef) ast.ColumnRef {
			c.Column = "X" + c.Column
			return c
		})
		return true
	})
	if clone.String() == qb.String() {
		t.Error("deep rewrite of clone affected nothing")
	}
	if strings.Contains(qb.String(), "XPNUM") {
		t.Error("clone shares state with original")
	}
}

func TestPrettyContainsNestedIndent(t *testing.T) {
	qb := MustParse(paperQueries["kiessling-Q2"])
	pretty := qb.Pretty()
	if !strings.Contains(pretty, "\n    SELECT COUNT(SHIPDATE)") {
		t.Errorf("Pretty output not indented:\n%s", pretty)
	}
}

func TestParseOrderBy(t *testing.T) {
	qb := roundTrip(t, "SELECT A, B FROM T ORDER BY A DESC, B")
	if len(qb.OrderBy) != 2 {
		t.Fatalf("OrderBy = %+v", qb.OrderBy)
	}
	if !qb.OrderBy[0].Desc || qb.OrderBy[1].Desc {
		t.Errorf("directions = %+v", qb.OrderBy)
	}
	// ASC is accepted and normalized away in printing.
	qb = sqlparseMust(t, "SELECT A FROM T ORDER BY A ASC")
	if qb.OrderBy[0].Desc {
		t.Error("ASC parsed as DESC")
	}
	if got := qb.String(); got != "SELECT A FROM T ORDER BY A" {
		t.Errorf("ASC printing = %q", got)
	}
	// After GROUP BY.
	roundTrip(t, "SELECT A, COUNT(B) FROM T GROUP BY A ORDER BY A DESC")
	// Errors.
	for _, src := range []string{
		"SELECT A FROM T ORDER A",
		"SELECT A FROM T ORDER BY",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func sqlparseMust(t *testing.T, src string) *ast.QueryBlock {
	t.Helper()
	qb, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return qb
}

func TestParseHaving(t *testing.T) {
	qb := roundTrip(t, "SELECT A, COUNT(B) AS CT FROM T GROUP BY A HAVING CT > 2 AND A < 10 ORDER BY A")
	if len(qb.Having) != 2 {
		t.Fatalf("Having = %+v", qb.Having)
	}
	if qb.Having[0].Col.Column != "CT" || qb.Having[0].Op != value.OpGt {
		t.Errorf("Having[0] = %+v", qb.Having[0])
	}
	for _, src := range []string{
		"SELECT A FROM T HAVING",
		"SELECT A FROM T HAVING A",
		"SELECT A FROM T HAVING A IN (SELECT B FROM U)",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}
