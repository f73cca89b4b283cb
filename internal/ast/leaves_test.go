package ast_test

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/sqlparser"
)

// A comparison between two subqueries nests both: every reader of the
// block tree must reach the left one as well as the right.
func TestBothSubqueriesOfAComparison(t *testing.T) {
	qb := sqlparser.MustParse(`SELECT S.SNAME FROM S WHERE
		(SELECT COUNT(SP.PNO) FROM SP WHERE SP.SNO = S.SNO) = (SELECT COUNT(SP.QTY) FROM SP WHERE SP.SNO = S.SNO)`)
	var blocks []*ast.QueryBlock
	ast.VisitBlocks(qb, func(b *ast.QueryBlock, _ int) bool {
		blocks = append(blocks, b)
		return true
	})
	if len(blocks) != 3 {
		t.Fatalf("VisitBlocks reached %d blocks, want 3", len(blocks))
	}
	if got := blocks[1].Select[0].Col.Column; got != "PNO" {
		t.Errorf("second block visited selects %s, want the left subquery's PNO", got)
	}
	if d := qb.MaxDepth(); d != 1 {
		t.Errorf("MaxDepth = %d, want 1", d)
	}
	if n := classify.Profile(qb).Blocks; n != 3 {
		t.Errorf("classify.Profile counts %d blocks, want 3", n)
	}
}

// Leaves visits the leaves under OR, AND and NOT left to right and stops
// where fn says.
func TestLeavesOrderAndStop(t *testing.T) {
	qb := sqlparser.MustParse(`SELECT S.SNO FROM S WHERE S.SNO = 1 OR NOT (S.SNO = 2 OR EXISTS (SELECT SP.SNO FROM SP)) OR S.SNO = 3`)
	var seen []string
	if !ast.Leaves(qb.Where[0], func(leaf ast.Predicate) bool {
		seen = append(seen, leaf.String())
		return true
	}) {
		t.Error("Leaves reported a stop that fn never asked for")
	}
	if len(seen) != 4 || seen[0] != "S.SNO = 1" || seen[3] != "S.SNO = 3" {
		t.Errorf("leaves = %q", seen)
	}
	n := 0
	if ast.Leaves(qb.Where[0], func(ast.Predicate) bool { n++; return n < 2 }) || n != 2 {
		t.Errorf("stop after the second leaf: visited %d", n)
	}
}
