package cluster

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/value"
)

// ErrNotDistributable marks a query the coordinator must not scatter.
// Every rejection wraps it, so callers test with errors.Is and fall back
// to a designated single node (or report the reason).
var ErrNotDistributable = errors.New("cluster: query is not distributable")

func notDistributable(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrNotDistributable, fmt.Sprintf(format, args...))
}

// Analyze decides whether a resolved query block tree can run as a
// co-located distributed plan — every shard evaluates the whole query
// over its local slices and the coordinator concatenates — and, if so,
// returns the placement each relation requires: a map from UPPER(table)
// to UPPER(partition column), where "" means any placement works (a
// single-table scan is a union of shard scans no matter how the rows
// were split).
//
// The soundness argument has three legs, each enforced here:
//
//  1. Per-table key consistency. Every cross-binding equality (an
//     equijoin conjunct, a correlation conjunct, or the implicit
//     equality of a non-negated IN) demands its column be the table's
//     partition key. Two conjuncts demanding different keys for one
//     table cannot both be co-located — reject.
//
//  2. Join-graph connectivity. Equalities force equal hash — and thus
//     equal shard — on both sides (value.Hash is Equal-consistent,
//     NULL-safe included). If the equality graph over ALL bindings in
//     the tree is connected, every combination of rows that could
//     satisfy the query lies on one shard, so per-shard evaluation
//     misses nothing; a disconnected binding (an uncorrelated subquery,
//     a cross join) could pair rows across shards — reject.
//
//  3. Set-complete negation. NOT EXISTS and quantified ALL evaluate a
//     per-outer-row set that legs 1–2 prove is entirely on the outer
//     row's shard, so they distribute. NOT IN does not: its inner set
//     is defined by the IN column itself, and an inner NULL — which
//     poisons NOT IN globally — hashes to the NULL shard, invisible to
//     outer rows elsewhere. Negated IN is rejected outright.
//
// The top block must be a plain select-project (no DISTINCT, GROUP BY,
// HAVING, ORDER BY, or aggregates): the gather is a concatenation, and
// per-shard versions of those operators are not their global versions.
// Inner blocks are unrestricted — their evaluation sets are co-located,
// so any local computation over them (aggregates included, which is
// what makes NEST-JA2's per-group COUNT/AVG distribute) is exact.
func Analyze(qb *ast.QueryBlock) (map[string]string, error) {
	if qb == nil {
		return nil, notDistributable("empty query")
	}
	switch {
	case qb.Distinct:
		return nil, notDistributable("top-level DISTINCT needs a global dedup")
	case len(qb.GroupBy) > 0 || len(qb.Having) > 0:
		return nil, notDistributable("top-level GROUP BY groups span shards")
	case len(qb.OrderBy) > 0:
		return nil, notDistributable("top-level ORDER BY needs a global sort")
	case qb.HasAggregate():
		return nil, notDistributable("top-level aggregates span shards")
	}
	a := &analyzer{keys: make(map[string]string)}
	if _, err := a.block(qb, nil); err != nil {
		return nil, err
	}
	if err := a.connected(); err != nil {
		return nil, err
	}
	out := make(map[string]string, len(a.tables))
	for _, t := range a.tables {
		out[t] = a.keys[t] // "" when the table never needed a key
	}
	return out, nil
}

// scopeFrame maps UPPER(binding name) to binding id for one FROM clause.
type scopeFrame map[string]int

type analyzer struct {
	keys    map[string]string // UPPER(table) -> UPPER(required key column)
	tables  []string          // distinct UPPER(table) names, first-seen order
	bindTab []string          // binding id -> UPPER(table)
	parent  []int             // union-find over binding ids
}

func (a *analyzer) newBinding(table string) int {
	id := len(a.parent)
	a.parent = append(a.parent, id)
	a.bindTab = append(a.bindTab, table)
	if _, ok := a.keys[table]; !ok {
		a.keys[table] = ""
		a.tables = append(a.tables, table)
	}
	return id
}

func (a *analyzer) find(x int) int {
	for a.parent[x] != x {
		a.parent[x] = a.parent[a.parent[x]]
		x = a.parent[x]
	}
	return x
}

func (a *analyzer) union(x, y int) { a.parent[a.find(x)] = a.find(y) }

func (a *analyzer) connected() error {
	if len(a.parent) <= 1 {
		return nil
	}
	root := a.find(0)
	for i := 1; i < len(a.parent); i++ {
		if a.find(i) != root {
			return notDistributable("table %s is not joined to the rest by an equality; rows could pair across shards", a.bindTab[i])
		}
	}
	return nil
}

// block analyzes one query block against the enclosing scope chain and
// returns the block's own frame (for IN-link extraction by the caller).
func (a *analyzer) block(qb *ast.QueryBlock, scope []scopeFrame) (scopeFrame, error) {
	if len(qb.From) == 0 {
		return nil, notDistributable("block has no FROM clause")
	}
	frame := make(scopeFrame, len(qb.From))
	for _, t := range qb.From {
		frame[strings.ToUpper(t.Binding())] = a.newBinding(strings.ToUpper(t.Relation))
	}
	inner := append(append([]scopeFrame(nil), scope...), frame)
	for _, p := range qb.Where {
		if err := a.pred(p, inner); err != nil {
			return nil, err
		}
	}
	return frame, nil
}

// resolve finds the binding id for a qualified column reference,
// innermost frame first (matching schema resolution's scoping).
func resolve(ref ast.ColumnRef, scope []scopeFrame) (int, bool) {
	if ref.Table == "" {
		return 0, false
	}
	up := strings.ToUpper(ref.Table)
	for i := len(scope) - 1; i >= 0; i-- {
		if id, ok := scope[i][up]; ok {
			return id, true
		}
	}
	return 0, false
}

// link records the co-location demand of an equality between two
// bindings' columns: each table's partition key must be that column,
// and the two bindings land in one join-graph component.
func (a *analyzer) link(lid int, lcol string, rid int, rcol string) error {
	if err := a.setKey(lid, lcol); err != nil {
		return err
	}
	if err := a.setKey(rid, rcol); err != nil {
		return err
	}
	a.union(lid, rid)
	return nil
}

func (a *analyzer) setKey(bid int, col string) error {
	table := a.bindTab[bid]
	up := strings.ToUpper(col)
	if have := a.keys[table]; have != "" && have != up {
		return notDistributable("table %s would need partitioning on both %s and %s", table, have, up)
	}
	a.keys[table] = up
	return nil
}

func (a *analyzer) pred(p ast.Predicate, scope []scopeFrame) error {
	switch p := p.(type) {
	case *ast.Comparison:
		return a.comparison(p, scope)
	case *ast.InPred:
		if p.Negated {
			return notDistributable("NOT IN: an inner NULL on another shard would flip the result")
		}
		if _, ok := p.Left.(*ast.Subquery); ok {
			return notDistributable("subquery on both sides of IN")
		}
		subFrame, err := a.block(p.Sub, scope)
		if err != nil {
			return err
		}
		// The IN itself is an equality between the left column and the
		// subquery's output column; when both are plain columns, that
		// equality is a co-location link just like an equijoin. Other
		// shapes (constant left, aggregate output) contribute no link,
		// and the subquery must then be tied in by its own correlation —
		// connectivity rejects it otherwise.
		left, lok := p.Left.(ast.ColumnRef)
		if !lok || len(p.Sub.Select) != 1 || p.Sub.Select[0].IsAggregate() {
			return nil
		}
		out := p.Sub.Select[0].Col
		rid, rok := resolve(out, []scopeFrame{subFrame})
		lid, lok := resolve(left, scope)
		if !rok || !lok {
			return nil
		}
		return a.link(lid, left.Column, rid, out.Column)
	case *ast.ExistsPred:
		_, err := a.block(p.Sub, scope)
		return err
	case *ast.QuantPred:
		if _, ok := p.Left.(*ast.Subquery); ok {
			return notDistributable("subquery on both sides of a quantified comparison")
		}
		_, err := a.block(p.Sub, scope)
		return err
	case *ast.OrPred, *ast.AndPred, *ast.NotPred:
		return a.boolean(p, scope)
	default:
		return notDistributable("unsupported predicate %T", p)
	}
}

func (a *analyzer) comparison(p *ast.Comparison, scope []scopeFrame) error {
	// Subquery sides recurse; their correlation conjuncts carry the
	// links. A scalar subquery with no correlation stays disconnected
	// and is rejected by connectivity — correctly, since its value
	// depends on rows the shard cannot see.
	for _, sub := range ast.SubqueriesOf(p) {
		if _, err := a.block(sub, scope); err != nil {
			return err
		}
	}
	lref, lok := p.Left.(ast.ColumnRef)
	rref, rok := p.Right.(ast.ColumnRef)
	if !lok || !rok {
		return nil // column-vs-constant or subquery side: local filter
	}
	lid, lr := resolve(lref, scope)
	rid, rr := resolve(rref, scope)
	if !lr {
		return notDistributable("unresolved column reference %s", lref)
	}
	if !rr {
		return notDistributable("unresolved column reference %s", rref)
	}
	if lid == rid {
		return nil // same binding: row-local filter
	}
	if p.Op != value.OpEq && p.Op != value.OpEqNull {
		return notDistributable("cross-table %s comparison cannot be co-located by hash", p.Op)
	}
	return a.link(lid, lref.Column, rid, rref.Column)
}

// boolean handles OR / NOT / nested AND conjuncts: allowed only as a
// row-local filter — no subqueries inside, and every column it touches
// from one binding. Anything wider would need cross-shard reasoning
// under negation, which concatenation-gather cannot do.
func (a *analyzer) boolean(p ast.Predicate, scope []scopeFrame) error {
	if len(ast.SubqueriesOf(p)) > 0 {
		return notDistributable("OR/NOT over a subquery")
	}
	seen := -1
	for _, ref := range ast.PredicateRefs(p) {
		id, ok := resolve(ref, scope)
		if !ok {
			return notDistributable("unresolved column reference %s", ref.String())
		}
		if seen == -1 {
			seen = id
		} else if id != seen {
			return notDistributable("OR/NOT spans more than one table")
		}
	}
	return nil
}
