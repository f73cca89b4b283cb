package trace

import (
	"errors"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/value"
)

// Every kind renders its own line; none falls through to the fallback.
func TestEveryKindRenders(t *testing.T) {
	boom := errors.New("boom")
	col := func(table, column string) exec.ColID { return exec.ColID{Table: table, Column: column} }
	keys := []exec.ColID{col("R", "A"), col("S", "A"), col("R", "B"), col("S", "B")}
	pred := &ast.Comparison{Left: ast.ColumnRef{Table: "R", Column: "A"}, Op: value.OpLt, Right: ast.ColumnRef{Table: "S", Column: "A"}}
	for _, c := range []struct {
		e    Event
		want string
	}{
		{Event{Kind: Step, Label: "NEST-N-J", Text: "type-N predicate becomes join"}, "NEST-N-J: type-N predicate becomes join"},
		{Event{Kind: Step, Label: "NEST-JA2", Text: "reduced to ", Detail: &Detail{Preds: []ast.Predicate{pred, pred}}}, "NEST-JA2: reduced to R.A < S.A AND R.A < S.A"},
		{Event{Kind: Step, Label: "CREATE TEMP1", Detail: &Detail{Rel: &schema.Relation{Name: "TEMP1", Columns: []schema.Column{{Name: "A"}, {Name: "B"}}},
			Block: &ast.QueryBlock{Select: []ast.SelectItem{{Col: ast.ColumnRef{Table: "R", Column: "A"}}}, From: []ast.TableRef{{Relation: "R"}}}}},
			"CREATE TEMP1: TEMP1(A, B) = SELECT R.A FROM R"},
		{Event{Kind: NestedIteration}, "evaluated by nested iteration"},
		{Event{Kind: Fallback, Detail: &Detail{Err: boom}}, "fallback to nested iteration: boom"},
		{Event{Kind: SequentialRerun, Detail: &Detail{Err: boom}}, "hash plan failed (boom); retrying with the sequential plan"},
		{Event{Kind: ForcedSpillRerun, Detail: &Detail{Err: boom}}, "memory budget exceeded (boom); retrying with forced spill"},
		{Event{Kind: TransientRetry, N: 2, Detail: &Detail{Err: boom, Delay: 3 * time.Millisecond}}, "transient fault (boom); retry 2 after 3ms"},
		{Event{Kind: Spill, N: 4, M: 4096}, "spill: 4 run(s), 4096 bytes"},
		{Event{Kind: Plan, Label: "final"}, "final plan:\n"},
		{Event{Kind: Materialized, Label: "TEMP1", N: 3, M: 1}, "TEMP1 materialized: 3 tuples, 1 pages"},
		{Event{Kind: Resident, Label: "TEMP1", N: 3, M: 1}, "TEMP1 held in memory, not materialized: 3 tuples, 1 pages"},
		{Event{Kind: Constant, Detail: &Detail{Val: value.NewString("P6")}}, "type-A subquery evaluated to constant 'P6'"},
		{Event{Kind: IndexScan, Label: "final", Cols: keys[:1], Op: value.OpEq, N: 5, Detail: &Detail{Val: value.NewInt(17)}},
			"final: index scan on R.A (= 17, ~5 matches)"},
		{Event{Kind: HashJoin, Label: "final", Cols: keys}, "final: hash join R.A with S.A and R.B with S.B"},
		{Event{Kind: HashJoin, Label: "TEMP3", Outer: true, Cols: keys[:2]}, "TEMP3: outer hash join R.A with S.A"},
		{Event{Kind: MergeJoin, Label: "TEMP3", Outer: true, Cols: keys[:2], N: 32}, "TEMP3: outer merge join R.A with S.A (B=32)"},
		{Event{Kind: GroupJoin, Label: "TEMP3", Outer: true, Cols: keys[:2], B: 32, N: 100, M: 4},
			"TEMP3: outer group join R.A with S.A, left resident in 4 of B=32 pages (estimated 100 groups)"},
		{Event{Kind: NestedLoops, Label: "TEMP2", Detail: &Detail{Preds: []ast.Predicate{pred, pred}}}, "TEMP2: nested-loops join on R.A < S.A AND R.A < S.A"},
		{Event{Kind: NestedLoops, Label: "final", Outer: true, Detail: &Detail{}}, "final: outer nested-loops join on (cartesian)"},
		{Event{Kind: NestedLoops, Label: "final", Text: "NOT IN", Detail: &Detail{Preds: []ast.Predicate{pred}}}, "final: nested-loops join on R.A < S.A deciding NOT IN"},
		{Event{Kind: MergeInapplicable, Label: "TEMP2", Detail: &Detail{Preds: []ast.Predicate{pred}}}, "TEMP2: merge join not applicable to R.A < S.A; using nested loops"},
		{Event{Kind: SortElided, Label: "final", Text: "right"}, "final: right input already in join-column order, sort elided"},
		{Event{Kind: SortInput, Label: "final", Text: "left", Cols: keys[:1]}, "final: sort left input on R.A"},
		{Event{Kind: RightMaterialized, Label: "TEMP2", N: 1}, "TEMP2: right side restricted and materialized (1 pages)"},
		{Event{Kind: OrderBy, Label: "final", N: 1}, "final: ORDER BY sort over 1 key(s)"},
		{Event{Kind: DistinctSort, Label: "TEMP1", N: 1}, "TEMP1: duplicates removed by sort over 1 column(s)"},
		{Event{Kind: GroupOrdered, Label: "TEMP3"}, "TEMP3: input already in GROUP BY order, sort elided"},
		{Event{Kind: GroupSort, Label: "TEMP3"}, "TEMP3: sort for GROUP BY"},
		{Event{Kind: HashGroup, Label: "TEMP3", N: 1}, "TEMP3: hash aggregation over 1 group column(s)"},
		{Event{Kind: Having, Label: "final", N: 2}, "final: HAVING filter over 2 conjunct(s)"},
	} {
		if got := c.e.String(); got != c.want {
			t.Errorf("kind %d renders %q, want %q", c.e.Kind, got, c.want)
		}
	}
	for k := Step; k <= Having; k++ {
		if got := (Event{Kind: k, Cols: keys, Detail: &Detail{}}).String(); strings.HasPrefix(got, "trace.Event(") {
			t.Errorf("kind %d has no line of its own", k)
		}
	}
}

// An event's size is what a query's trace costs per line: rendered on
// read, a trace must not take more memory than the text it replaces.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 112 {
		t.Errorf("trace.Event is %d bytes, budget 112: move a rarely set field into Detail", n)
	}
}
