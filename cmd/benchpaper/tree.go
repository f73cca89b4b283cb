package main

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/engine"
	"repro/internal/querygraph"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/trace"
	"repro/internal/transform"
	"repro/internal/workload"
)

// expTree demonstrates the recursive procedure nest_g of section 9.1 on a
// Figure-2-style query: the innermost block references a relation of the
// outermost block, the reference crosses the aggregate block in the
// middle, and the transformation must first merge the inner blocks
// (NEST-N-J) so the aggregate block inherits the "trans-aggregate" join
// predicate, at which point type-JA nesting becomes visible and NEST-JA2
// applies.
func expTree() {
	// A (over S) -> B (MAX over SP) -> C (over P, references S.CITY).
	sql := `
		SELECT SNAME FROM S
		WHERE STATUS < (SELECT MAX(QTY) FROM SP
		                WHERE PNO IN (SELECT PNO FROM P
		                              WHERE P.CITY = S.CITY))`
	db := newDB(8, workload.LoadSuppliers)

	qb := sqlparser.MustParse(sql)
	if _, err := schema.Resolve(db.Catalog(), qb); err != nil {
		panic(err)
	}
	fmt.Println("  Query tree (A -> B -> C, C references A's relation):")
	fmt.Println(indentLines(qb.Pretty(), "    "))
	fmt.Println("\n  Figure 2 — the query as a multi-way tree of query blocks:")
	fmt.Println(indentLines(querygraph.Build(qb).ASCII(), "    "))

	prof := classify.Profile(qb)
	fmt.Printf("\n  %d query blocks, nesting depth %d\n", prof.Blocks, prof.MaxDepth)
	fmt.Printf("  Outermost nested predicate classifies as %v:\n", prof.Types[0])
	fmt.Println("    the aggregate block's subtree references S.CITY — the join")
	fmt.Println("    predicate reference spans the query block containing the")
	fmt.Println("    aggregate function, so type-JA nesting is present (section 9.1).")

	tr, err := transform.New(db.Catalog(), transform.JA2).Transform(qb)
	if err != nil {
		panic(err)
	}
	fmt.Println("\n  nest_g transformation steps (postorder):")
	for _, s := range tr.Steps {
		fmt.Printf("    %-14s %s\n", s.Rule+":", trace.StepText(s.Text, &trace.Detail{Rel: s.Rel, Block: s.Block, Preds: s.Preds}))
	}
	fmt.Printf("\n  Canonical query: %s\n\n", tr.Query)

	ni := runStrategy(db, sql, engine.NestedIteration)
	printRows("Nested iteration result:", ni.Rows)
	ja2 := runStrategy(db, sql, engine.TransformJA2)
	printRows("Transformed result (must agree):", ja2.Rows)
}

func indentLines(s, prefix string) string {
	out := prefix
	for _, c := range s {
		out += string(c)
		if c == '\n' {
			out += prefix
		}
	}
	return out
}

// expPredicates demonstrates the section 8 extensions: each EXISTS / NOT
// EXISTS / ANY / ALL predicate is rewritten into aggregate or IN form and
// then processed by the core algorithms; results are compared with nested
// iteration.
func expPredicates() {
	cases := []struct {
		label string
		sql   string
	}{
		{"EXISTS -> 0 < COUNT(*)", `
			SELECT PNUM FROM PARTS
			WHERE EXISTS (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`},
		{"NOT EXISTS -> 0 = COUNT(*)", `
			SELECT PNUM FROM PARTS
			WHERE NOT EXISTS (SELECT QUAN FROM SUPPLY
			                  WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)`},
		{"< ANY -> < MAX", `
			SELECT PNUM FROM PARTS
			WHERE QOH < ANY (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`},
		{"> ALL -> > MAX", `
			SELECT PNUM FROM PARTS
			WHERE QOH > ALL (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`},
		{"= ANY -> IN", `
			SELECT PNUM FROM PARTS
			WHERE QOH = ANY (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`},
	}
	for _, c := range cases {
		db := newDB(8, workload.LoadKiessling)
		fmt.Printf("  %s\n", c.label)
		ni := runStrategy(db, c.sql, engine.NestedIteration)
		ja2 := runStrategy(db, c.sql, engine.TransformJA2)
		agree := fmt.Sprint(ni.Rows) == fmt.Sprint(ja2.Rows)
		for _, e := range ja2.Trace {
			if e.Kind == trace.Step && e.Label == "EXTEND" {
				fmt.Printf("    %s\n", e)
			}
		}
		fmt.Printf("    nested iteration: %v   transformed: %v   agree: %v\n\n",
			ni.Rows, ja2.Rows, agree)
	}
}
