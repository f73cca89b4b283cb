package transform

import (
	"strings"

	"repro/internal/ast"
	"repro/internal/schema"
)

// nestJAKim applies Kim's original algorithm NEST-JA (section 3.2) to one
// type-JA nested predicate of qb, immediately followed by NEST-N-J. It is
// retained — selectable via the KimJA variant — to reproduce the paper's
// counterexamples:
//
//   - The COUNT bug (section 5.1): the grouped temporary table is built
//     from the inner relation alone, so groups with no qualifying inner
//     tuples simply do not exist and COUNT can never be 0; outer tuples
//     whose correlated count is zero are lost.
//   - The non-equality bug (section 5.3): the temp table groups by the
//     inner join-column value, but a predicate like SUPPLY.PNUM <
//     PARTS.PNUM needs the aggregate over a *range* of join-column values
//     per outer tuple.
//   - The duplicates hazard does not arise here because the outer relation
//     never participates in temp creation; it arises in naive corrections
//     (section 5.4 tests it against the fixed algorithm's step 1).
func (t *Transformer) nestJAKim(qb *ast.QueryBlock, p ast.Predicate) ([]ast.Predicate, error) {
	info, err := t.analyzeJA(qb, p)
	if err != nil {
		return nil, err
	}

	var localCols []ast.ColumnRef
	for _, j := range info.joins {
		localCols = append(localCols, j.local)
	}
	localCols = ast.UniqueRefs(localCols)
	names := tempColNames(localCols)

	aggName := aggOutputName(info.agg)
	aggType, err := t.aggResultType(info.agg, info.inner.From)
	if err != nil {
		return nil, err
	}

	// Rt(C1..Cn, Cn+1) = SELECT join cols, AGG(Cm) FROM R2
	//                    WHERE <simple predicates> GROUP BY join cols.
	temp := t.freshTempName()
	def := &ast.QueryBlock{From: info.inner.From, Where: info.locals}
	var cols []schema.Column
	for _, c := range localCols {
		item := ast.SelectItem{Col: c}
		if names[c] != c.Column {
			item.As = names[c]
		}
		def.Select = append(def.Select, item)
		def.GroupBy = append(def.GroupBy, c)
		typ, err := t.colType(c, info.inner.From)
		if err != nil {
			return nil, err
		}
		cols = append(cols, schema.Column{Name: names[c], Type: typ})
	}
	def.Select = append(def.Select, ast.SelectItem{Agg: info.agg.Agg, Col: info.agg.Col, As: aggName})
	cols = append(cols, schema.Column{Name: aggName, Type: aggType})
	t.addTemp(temp, cols, def)

	// The inner block becomes a reference to Rt (type-J), then NEST-N-J
	// merges it: join predicates keep their original operators — which is
	// exactly the section 5.3 bug when an operator is not equality.
	for _, tr := range qb.From {
		if strings.EqualFold(tr.Binding(), temp) {
			return nil, notTransformable("outer binding %s collides with generated temp name", tr.Binding())
		}
	}
	conjs := []ast.Predicate{&ast.Comparison{
		Left:  info.outerExpr,
		Op:    info.op0,
		Right: ast.ColumnRef{Table: temp, Column: aggName},
	}}
	for _, j := range info.joins {
		conjs = append(conjs, &ast.Comparison{
			Left:  ast.ColumnRef{Table: temp, Column: names[j.local]},
			Op:    j.op,
			Right: j.outer,
		})
	}
	qb.From = append(qb.From, ast.TableRef{Relation: temp})
	t.addStep("NEST-JA", "type-JA predicate reduced to joins with %s: %s", temp, predsString(conjs))
	return conjs, nil
}
