package querygraph_test

import (
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/querygraph"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

func buildGraph(t *testing.T, src string) *querygraph.Node {
	t.Helper()
	db := workload.NewDB(8)
	if err := workload.LoadSuppliers(db); err != nil {
		t.Fatal(err)
	}
	qb := sqlparser.MustParse(src)
	if _, err := schema.Resolve(db.Cat, qb); err != nil {
		t.Fatal(err)
	}
	return querygraph.Build(qb)
}

// The Figure 2 shape: a trans-aggregate reference makes type-JA nesting
// visible at the root even though the aggregate and the join predicate
// live at different levels.
func TestFigure2Shape(t *testing.T) {
	root := buildGraph(t, `
		SELECT SNAME FROM S
		WHERE STATUS < (SELECT MAX(QTY) FROM SP
		                WHERE PNO IN (SELECT PNO FROM P WHERE P.CITY = S.CITY))`)
	if root.Blocks() != 3 || root.Depth() != 2 {
		t.Errorf("blocks=%d depth=%d", root.Blocks(), root.Depth())
	}
	if !root.HasTypeJA() {
		t.Error("type-JA nesting not detected")
	}
	if root.Edges[0].Type != classify.TypeJA {
		t.Errorf("root edge = %v", root.Edges[0].Type)
	}
	b := root.Edges[0].To
	if len(b.TransAggRefs) != 1 || b.TransAggRefs[0].String() != "S.CITY" {
		t.Errorf("trans-aggregate refs = %v", b.TransAggRefs)
	}
	if b.Edges[0].Type != classify.TypeJ {
		t.Errorf("B->C edge = %v", b.Edges[0].Type)
	}
}

func TestASCIIAndDOT(t *testing.T) {
	root := buildGraph(t, `
		SELECT SNAME FROM S
		WHERE STATUS < (SELECT MAX(QTY) FROM SP
		                WHERE PNO IN (SELECT PNO FROM P WHERE P.CITY = S.CITY))`)
	ascii := root.ASCII()
	for _, frag := range []string{
		"A: SELECT S.SNAME FROM S",
		"[type-JA]─ B: SELECT MAX(SP.QTY) FROM SP",
		"[aggregate block; outer refs: S.CITY]",
		"[type-J]─ C: SELECT P.PNO FROM P",
	} {
		if !strings.Contains(ascii, frag) {
			t.Errorf("ASCII missing %q:\n%s", frag, ascii)
		}
	}
}

func TestMultipleEdgesAndNames(t *testing.T) {
	root := buildGraph(t, `
		SELECT SNAME FROM S
		WHERE SNO IN (SELECT SNO FROM SP WHERE QTY > 100) AND
		      STATUS = (SELECT MAX(STATUS) FROM S)`)
	if len(root.Edges) != 2 {
		t.Fatalf("edges = %d", len(root.Edges))
	}
	if root.Edges[0].To.Name != "B" || root.Edges[1].To.Name != "C" {
		t.Errorf("names = %s, %s", root.Edges[0].To.Name, root.Edges[1].To.Name)
	}
	if root.Edges[0].Type != classify.TypeN || root.Edges[1].Type != classify.TypeA {
		t.Errorf("types = %v, %v", root.Edges[0].Type, root.Edges[1].Type)
	}
	if root.HasTypeJA() {
		t.Error("no type-JA here")
	}
	ascii := root.ASCII()
	if !strings.Contains(ascii, "├─[type-N]") || !strings.Contains(ascii, "└─[type-A]") {
		t.Errorf("tree connectors wrong:\n%s", ascii)
	}
}

func TestFlatQueryGraph(t *testing.T) {
	root := buildGraph(t, "SELECT SNAME FROM S WHERE STATUS > 10")
	if root.Blocks() != 1 || root.Depth() != 0 || len(root.Edges) != 0 {
		t.Errorf("flat graph = %+v", root)
	}
	if !strings.HasPrefix(root.ASCII(), "A: SELECT S.SNAME FROM S") {
		t.Errorf("ASCII = %q", root.ASCII())
	}
}
