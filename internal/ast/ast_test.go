package ast

import (
	"strings"
	"testing"

	"repro/internal/value"
)

// mkBlock builds SELECT S.A FROM S WHERE S.B = 1 by hand.
func mkBlock() *QueryBlock {
	return &QueryBlock{
		Select: []SelectItem{{Col: ColumnRef{Table: "S", Column: "A"}}},
		From:   []TableRef{{Relation: "S"}},
		Where: []Predicate{&Comparison{
			Left:  ColumnRef{Table: "S", Column: "B"},
			Op:    value.OpEq,
			Right: Const{Val: value.NewInt(1)},
		}},
	}
}

func TestStringForms(t *testing.T) {
	qb := mkBlock()
	if got := qb.String(); got != "SELECT S.A FROM S WHERE S.B = 1" {
		t.Errorf("String = %q", got)
	}
	qb.Distinct = true
	qb.GroupBy = []ColumnRef{{Table: "S", Column: "A"}}
	if got := qb.String(); got != "SELECT DISTINCT S.A FROM S WHERE S.B = 1 GROUP BY S.A" {
		t.Errorf("String = %q", got)
	}
}

func TestPredicateStrings(t *testing.T) {
	sub := mkBlock()
	x := ColumnRef{Column: "X"}
	cases := []struct {
		p    Predicate
		want string
	}{
		{&InPred{Left: x, Sub: sub}, "X IN (SELECT S.A FROM S WHERE S.B = 1)"},
		{&InPred{Left: x, Sub: sub, Negated: true}, "X NOT IN (SELECT S.A FROM S WHERE S.B = 1)"},
		{&ExistsPred{Sub: sub}, "EXISTS (SELECT S.A FROM S WHERE S.B = 1)"},
		{&ExistsPred{Sub: sub, Negated: true}, "NOT EXISTS (SELECT S.A FROM S WHERE S.B = 1)"},
		{&QuantPred{Left: x, Op: value.OpLt, Quant: Any, Sub: sub}, "X < ANY (SELECT S.A FROM S WHERE S.B = 1)"},
		{&QuantPred{Left: x, Op: value.OpGe, Quant: All, Sub: sub}, "X >= ALL (SELECT S.A FROM S WHERE S.B = 1)"},
		{&Comparison{Left: x, Op: value.OpEq, Right: ColumnRef{Column: "Y"}, LeftOuter: true}, "X =+ Y"},
		{&OrPred{Left: &Comparison{Left: x, Op: value.OpEq, Right: Const{Val: value.NewInt(1)}},
			Right: &Comparison{Left: x, Op: value.OpEq, Right: Const{Val: value.NewInt(2)}}},
			"(X = 1 OR X = 2)"},
		{&NotPred{P: &Comparison{Left: x, Op: value.OpEq, Right: Const{Val: value.NewInt(1)}}},
			"NOT (X = 1)"},
		{&AndPred{Left: &Comparison{Left: x, Op: value.OpEq, Right: Const{Val: value.NewInt(1)}},
			Right: &Comparison{Left: x, Op: value.OpEq, Right: Const{Val: value.NewInt(2)}}},
			"(X = 1 AND X = 2)"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestSelectItemForms(t *testing.T) {
	cases := []struct {
		item SelectItem
		str  string
		name string
	}{
		{SelectItem{Col: ColumnRef{Column: "X"}}, "X", "X"},
		{SelectItem{Agg: value.AggMax, Col: ColumnRef{Column: "X"}}, "MAX(X)", "MAX"},
		{SelectItem{Agg: value.AggCountStar}, "COUNT(*)", "COUNT"},
		{SelectItem{Agg: value.AggCount, Col: ColumnRef{Column: "X"}, As: "CT"}, "COUNT(X) AS CT", "CT"},
	}
	for _, c := range cases {
		if got := c.item.String(); got != c.str {
			t.Errorf("String = %q, want %q", got, c.str)
		}
		if got := c.item.OutputName(); got != c.name {
			t.Errorf("OutputName = %q, want %q", got, c.name)
		}
	}
}

func TestTableRefBinding(t *testing.T) {
	if (TableRef{Relation: "S"}).Binding() != "S" {
		t.Error("default binding")
	}
	tr := TableRef{Relation: "S", Alias: "X"}
	if tr.Binding() != "X" || tr.String() != "S X" {
		t.Errorf("aliased binding: %s / %s", tr.Binding(), tr.String())
	}
}

func TestSubqueryOfAndNested(t *testing.T) {
	sub := mkBlock()
	preds := []Predicate{
		&InPred{Left: ColumnRef{Column: "X"}, Sub: sub},
		&ExistsPred{Sub: sub},
		&QuantPred{Left: ColumnRef{Column: "X"}, Sub: sub},
		&Comparison{Left: ColumnRef{Column: "X"}, Op: value.OpEq, Right: &Subquery{Block: sub}},
		&Comparison{Left: &Subquery{Block: sub}, Op: value.OpEq, Right: Const{Val: value.NewInt(1)}},
	}
	for _, p := range preds {
		if SubqueryOf(p) != sub || !IsNested(p) {
			t.Errorf("SubqueryOf(%T) failed", p)
		}
	}
	simple := &Comparison{Left: ColumnRef{Column: "X"}, Op: value.OpEq, Right: Const{Val: value.NewInt(1)}}
	if SubqueryOf(simple) != nil || IsNested(simple) {
		t.Error("simple comparison must not be nested")
	}
}

func TestSubqueriesOfDescends(t *testing.T) {
	sub1, sub2 := mkBlock(), mkBlock()
	p := &OrPred{
		Left:  &InPred{Left: ColumnRef{Column: "X"}, Sub: sub1},
		Right: &NotPred{P: &ExistsPred{Sub: sub2}},
	}
	subs := SubqueriesOf(p)
	if len(subs) != 2 || subs[0] != sub1 || subs[1] != sub2 {
		t.Errorf("SubqueriesOf = %v", subs)
	}
	both := &Comparison{Left: &Subquery{Block: sub1}, Op: value.OpEq, Right: &Subquery{Block: sub2}}
	if got := SubqueriesOf(both); len(got) != 2 {
		t.Errorf("two-sided comparison subqueries = %d", len(got))
	}
}

func TestVisitBlocksDepth(t *testing.T) {
	inner := mkBlock()
	outer := mkBlock()
	outer.Where = append(outer.Where, &InPred{Left: ColumnRef{Table: "S", Column: "A"}, Sub: inner})
	var depths []int
	VisitBlocks(outer, func(_ *QueryBlock, d int) bool {
		depths = append(depths, d)
		return true
	})
	if len(depths) != 2 || depths[0] != 0 || depths[1] != 1 {
		t.Errorf("depths = %v", depths)
	}
	if outer.MaxDepth() != 1 || inner.MaxDepth() != 0 {
		t.Errorf("MaxDepth = %d / %d", outer.MaxDepth(), inner.MaxDepth())
	}
	// Early stop.
	count := 0
	VisitBlocks(outer, func(_ *QueryBlock, _ int) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestLocalColumnRefsAndRewrite(t *testing.T) {
	qb := mkBlock()
	qb.GroupBy = []ColumnRef{{Table: "S", Column: "A"}}
	refs := qb.LocalColumnRefs()
	if len(refs) != 3 { // select, group by, where-left
		t.Errorf("LocalColumnRefs = %v", refs)
	}
	qb.RewriteLocalColumns(func(c ColumnRef) ColumnRef {
		c.Table = "T"
		return c
	})
	if !strings.Contains(qb.String(), "T.A") || strings.Contains(qb.String(), "S.A") {
		t.Errorf("rewrite failed: %s", qb.String())
	}
}

func TestFreeRefs(t *testing.T) {
	inner := mkBlock()
	// Add a correlated reference: S.B = OUT.C where OUT is not in scope.
	inner.Where = append(inner.Where, &Comparison{
		Left:  ColumnRef{Table: "S", Column: "B"},
		Op:    value.OpEq,
		Right: ColumnRef{Table: "OUT", Column: "C"},
	})
	free := FreeRefs(inner)
	if len(free) != 1 || free[0] != (ColumnRef{Table: "OUT", Column: "C"}) {
		t.Errorf("FreeRefs = %v", free)
	}
	if !IsCorrelated(inner) {
		t.Error("IsCorrelated must be true")
	}
	// Binding case-insensitivity: "s" binds "S".
	inner2 := mkBlock()
	inner2.Where = append(inner2.Where, &Comparison{
		Left:  ColumnRef{Table: "s", Column: "B"},
		Op:    value.OpEq,
		Right: Const{Val: value.NewInt(1)},
	})
	if IsCorrelated(inner2) {
		t.Error("lower-case binding must not be free")
	}
	// Unqualified references are treated as local.
	inner3 := mkBlock()
	inner3.Where = append(inner3.Where, &Comparison{
		Left:  ColumnRef{Column: "B"},
		Op:    value.OpEq,
		Right: Const{Val: value.NewInt(1)},
	})
	if IsCorrelated(inner3) {
		t.Error("unqualified ref must not be free")
	}
}

func TestFreeRefsNestedScopes(t *testing.T) {
	// outer(S) -> mid(T) -> leaf references S: free w.r.t. mid, bound
	// w.r.t. outer.
	leaf := &QueryBlock{
		Select: []SelectItem{{Col: ColumnRef{Table: "U", Column: "A"}}},
		From:   []TableRef{{Relation: "U"}},
		Where: []Predicate{&Comparison{
			Left:  ColumnRef{Table: "U", Column: "B"},
			Op:    value.OpEq,
			Right: ColumnRef{Table: "S", Column: "B"},
		}},
	}
	mid := &QueryBlock{
		Select: []SelectItem{{Col: ColumnRef{Table: "T", Column: "A"}}},
		From:   []TableRef{{Relation: "T"}},
		Where:  []Predicate{&InPred{Left: ColumnRef{Table: "T", Column: "A"}, Sub: leaf}},
	}
	outer := mkBlock()
	outer.Where = append(outer.Where, &InPred{Left: ColumnRef{Table: "S", Column: "A"}, Sub: mid})
	if !IsCorrelated(mid) {
		t.Error("mid subtree references S and must be correlated")
	}
	if IsCorrelated(outer) {
		t.Error("whole tree has no free refs")
	}
}

func TestHasNestedPredicateAndBindings(t *testing.T) {
	qb := mkBlock()
	if qb.HasNestedPredicate() {
		t.Error("flat block")
	}
	qb.Where = append(qb.Where, &ExistsPred{Sub: mkBlock()})
	if !qb.HasNestedPredicate() {
		t.Error("nested predicate not detected")
	}
	qb.From = append(qb.From, TableRef{Relation: "T", Alias: "X"})
	if got := strings.Join(qb.Bindings(), ","); got != "S,X" {
		t.Errorf("Bindings = %v", got)
	}
}

func TestHasAggregateAndDisjunction(t *testing.T) {
	qb := mkBlock()
	if qb.HasAggregate() {
		t.Error("no aggregate yet")
	}
	qb.Select = append(qb.Select, SelectItem{Agg: value.AggCountStar})
	if !qb.HasAggregate() {
		t.Error("aggregate not detected")
	}
	if qb.HasDisjunction() {
		t.Error("no disjunction yet")
	}
	qb.Where = append(qb.Where, &OrPred{
		Left:  &Comparison{Left: ColumnRef{Column: "X"}, Op: value.OpEq, Right: Const{Val: value.NewInt(1)}},
		Right: &Comparison{Left: ColumnRef{Column: "X"}, Op: value.OpEq, Right: Const{Val: value.NewInt(2)}},
	})
	if !qb.HasDisjunction() {
		t.Error("disjunction not detected")
	}
}

func TestClonePanicsOnUnknownTypes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ClonePredicate must panic on unknown type")
		}
	}()
	ClonePredicate(nil)
}

func TestQuantifierString(t *testing.T) {
	if Any.String() != "ANY" || All.String() != "ALL" {
		t.Error("quantifier names")
	}
}

func TestCloneNil(t *testing.T) {
	var qb *QueryBlock
	if qb.Clone() != nil {
		t.Error("Clone(nil) must be nil")
	}
}

func TestPrettyAllPredicateForms(t *testing.T) {
	sub := mkBlock()
	qb := mkBlock()
	qb.Where = append(qb.Where,
		&InPred{Left: ColumnRef{Table: "S", Column: "A"}, Sub: sub.Clone()},
		&ExistsPred{Sub: sub.Clone(), Negated: true},
		&QuantPred{Left: ColumnRef{Table: "S", Column: "A"}, Op: value.OpLt, Quant: All, Sub: sub.Clone()},
		&Comparison{Left: ColumnRef{Table: "S", Column: "A"}, Op: value.OpEq, Right: &Subquery{Block: sub.Clone()}},
	)
	qb.OrderBy = []OrderItem{{Col: ColumnRef{Table: "S", Column: "A"}, Desc: true}}
	pretty := qb.Pretty()
	for _, frag := range []string{"IN (", "NOT EXISTS (", "< ALL (", "= (", "ORDER BY S.A DESC"} {
		if !strings.Contains(pretty, frag) {
			t.Errorf("Pretty missing %q:\n%s", frag, pretty)
		}
	}
	// Subquery on the left renders through the generic path.
	qb2 := mkBlock()
	qb2.Where = []Predicate{
		&Comparison{Left: &Subquery{Block: sub.Clone()}, Op: value.OpEq, Right: Const{Val: value.NewInt(0)}},
	}
	if !strings.Contains(qb2.Pretty(), "(SELECT") {
		t.Errorf("left-subquery Pretty:\n%s", qb2.Pretty())
	}
}

func TestCloneCoversOrderBy(t *testing.T) {
	qb := mkBlock()
	qb.OrderBy = []OrderItem{{Col: ColumnRef{Table: "S", Column: "A"}}}
	c := qb.Clone()
	c.OrderBy[0].Desc = true
	if qb.OrderBy[0].Desc {
		t.Error("Clone shares OrderBy backing array")
	}
}
