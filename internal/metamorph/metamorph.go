// Package metamorph is the engine's metamorphic correctness fuzzer: the
// first oracle that can falsify the transformation layer itself rather
// than just the executors.
//
// Every other correctness gate in this repository (VerifyParallel, the
// chaos storms, the serve-load byte diff) compares the engine's own
// execution paths against each other, so a logic bug shared by every
// path — exactly the COUNT-bug / duplicates-bug class Kim's NEST-JA is
// famous for — is invisible to all of them. This package instead
// generates query *pairs* whose results stand in a provable set
// relation regardless of how any path evaluates them:
//
//   - predicate strengthening: adding a conjunct can only shrink the
//     result (a sub-bag);
//   - partition scans: restricting a scan to R < c and R >= c and
//     unioning the two halves reproduces the full scan exactly when the
//     partition column is NULL-free, and loses exactly the NULL rows —
//     never gains any — when it is not (the 3VL regime of Libkin's
//     two-valued-logic critique, where unnesting bugs historically hide);
//   - DISTINCT projection: equal as a set, smaller as a bag;
//   - aggregate monotonicity: COUNT can only fall, MIN only rise, MAX
//     only fall under a strengthened predicate;
//   - unnest round trips: the same query evaluated by the transformation
//     pipeline and by nested iteration must agree as a set (Kim's Lemma 1
//     semantics), and sequential/parallel/network paths must agree as a
//     bag;
//   - 3VL form rewrites: x IN (...) is set-equal to its correlated
//     EXISTS form, and NOT IN is contained in NOT EXISTS (they differ
//     exactly on NULLs, and only in one direction).
//
// A seeded generator produces small schemas and NULL-dense,
// duplicate-heavy data together with pairs from this catalog; a runner
// executes both queries of each pair through every execution regime the
// engine has (sequential transform, parallel transform, nested
// iteration, and the network client against a live server, optionally
// with one internal/fault plan armed on engine and wire) and checks
// the relation rather than the exact output. A violated relation is
// shrunk to a minimal reproducing instance and written to a corpus
// directory as a replayable SQL script.
package metamorph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/classify"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
)

// Relation is the machine-checkable oracle relation a pair's results
// must satisfy in every execution regime. Q0 is always the "larger"
// query of the pair.
type Relation uint8

// The relation catalog.
const (
	// SubsetBag: bag(Q1) ⊆ bag(Q0). Q1 is Q0 with an extra restriction
	// on the outer relation, which can only remove (outer row × match)
	// combinations, never add or multiply them.
	SubsetBag Relation = iota
	// SubsetSet: set(Q1) ⊆ set(Q0). Used where multiplicities are not
	// comparable across the pair's two query forms (NOT IN vs NOT
	// EXISTS: they differ exactly on NULL members, and only downward).
	SubsetSet
	// SetEqual: set(Q0) = set(Q1). Form rewrites (IN vs EXISTS,
	// GROUP BY vs DISTINCT) that preserve the set but not multiplicity.
	SetEqual
	// PartitionEqual: bag(Q1) ⊎ bag(Q2) = bag(Q0), for partitions over a
	// NULL-free column: every row lands in exactly one half.
	PartitionEqual
	// PartitionSubset: bag(Q1) ⊎ bag(Q2) ⊆ bag(Q0), for partitions over
	// a NULLable column: under 3VL a NULL satisfies neither X < c nor
	// X >= c, so the union may only lose rows — never gain or double
	// them.
	PartitionSubset
	// CountBound: both queries yield one COUNT(*) row; count(Q1) ≤
	// count(Q0).
	CountBound
	// MinMaxBound: both queries yield one (MIN(x), MAX(x)) row over
	// superset/subset inputs: when Q1's MIN is non-NULL, Q0's is too and
	// min(Q0) ≤ min(Q1); symmetrically max(Q0) ≥ max(Q1).
	MinMaxBound
	// DistinctEqual: Q1 is Q0 with DISTINCT: equal as sets, and bag(Q1)
	// ⊆ bag(Q0).
	DistinctEqual
)

// String names the relation.
func (r Relation) String() string {
	switch r {
	case SubsetBag:
		return "subset-bag"
	case SubsetSet:
		return "subset-set"
	case SetEqual:
		return "set-equal"
	case PartitionEqual:
		return "partition-equal"
	case PartitionSubset:
		return "partition-subset"
	case CountBound:
		return "count-bound"
	case MinMaxBound:
		return "minmax-bound"
	case DistinctEqual:
		return "distinct-equal"
	default:
		return fmt.Sprintf("Relation(%d)", uint8(r))
	}
}

// Arity is the number of queries the relation connects.
func (r Relation) Arity() int {
	if r == PartitionEqual || r == PartitionSubset {
		return 3
	}
	return 2
}

// relationByName inverts String, for repro files.
func relationByName(s string) (Relation, bool) {
	for r := SubsetBag; r <= DistinctEqual; r++ {
		if r.String() == s {
			return r, true
		}
	}
	return 0, false
}

// Query is one generated SQL statement plus the nesting profile the
// generator built it with (the classification every one of its nested
// predicates must receive, in preorder — see internal/classify).
type Query struct {
	SQL string
	// Want is the expected classify.Profile().Types of the query.
	Want []classify.NestType
}

// Pair is one metamorphic test case: Relation.Arity() queries whose
// results must satisfy Relation under every execution regime.
type Pair struct {
	ID       int
	Class    string // generator class, e.g. "strengthen/typeJA"
	Relation Relation
	Queries  []Query
}

// Table is one generated relation: schema plus rows.
type Table struct {
	Name string
	Cols []schema.Column
	Key  []string
	Rows []storage.Tuple
}

// Scenario is one generated database instance plus the pairs to run on
// it. Table names embed the scenario ID so scenarios can share one
// engine without colliding.
type Scenario struct {
	Seed   int64
	ID     int
	Tables []Table
	Pairs  []Pair
}

// relation renders the table's schema for engine.CreateRelation.
func (t Table) relation() *schema.Relation {
	rel := &schema.Relation{Name: t.Name, Key: t.Key}
	rel.Columns = append(rel.Columns, t.Cols...)
	return rel
}

// Catalog builds a standalone catalog of the scenario's tables, for
// resolution outside an engine (the classify shape tests use it).
func (s *Scenario) Catalog() (*schema.Catalog, error) {
	cat := schema.NewCatalog()
	for _, t := range s.Tables {
		if err := cat.Define(t.relation()); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// SetupSQL renders the scenario's tables as a CREATE TABLE + INSERT
// script — the replayable half of a repro file — through the renderers
// every other SQL text path uses, so it parses back to the same tables.
func (s *Scenario) SetupSQL() string {
	var b strings.Builder
	for _, t := range s.Tables {
		b.WriteString(t.relation().CreateSQL() + ";\n")
		if len(t.Rows) == 0 {
			continue
		}
		ins := sqlparser.InsertStmt{Table: t.Name}
		for _, row := range t.Rows {
			ins.Rows = append(ins.Rows, row)
		}
		b.WriteString(ins.String() + ";\n")
	}
	return b.String()
}

// ---- Relation checking ----
//
// Results are compared in storage.Canon form (printed rows, sorted; a set
// is that without duplicates) and equality is storage.DiffCanon — the
// comparator of every differential oracle in the repository. Containment
// and multiset union are the relations' own.

// subBag reports "" when small ⊆ big as sorted multisets, else a
// description of the first element of small that big cannot cover.
func subBag(small, big []string) string {
	i, j := 0, 0
	for i < len(small) {
		switch {
		case j >= len(big) || small[i] < big[j]:
			return fmt.Sprintf("row %s present in the smaller query's result but not (often enough) in the larger's (%d vs %d rows)",
				small[i], len(small), len(big))
		case small[i] == big[j]:
			i++
			j++
		default:
			j++
		}
	}
	return ""
}

// mergeBags is the multiset union of two sorted bags.
func mergeBags(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Strings(out)
	return out
}

// scalarAt extracts the single-row aggregate value at column col, or an
// error when the result is not the one-row shape aggregate queries
// produce.
func scalarAt(rows []storage.Tuple, col int) (value.Value, error) {
	if len(rows) != 1 || col >= len(rows[0]) {
		return value.Null, fmt.Errorf("aggregate query returned %d rows (want 1)", len(rows))
	}
	return rows[0][col], nil
}

// Check verifies the pair's relation over the results of its queries
// (results[i] belongs to Queries[i]). It returns "" when the relation
// holds and a human-readable violation otherwise.
func (p *Pair) Check(results ...[]storage.Tuple) string {
	if len(results) != p.Relation.Arity() {
		return fmt.Sprintf("internal: %d results for %v (arity %d)", len(results), p.Relation, p.Relation.Arity())
	}
	switch p.Relation {
	case SubsetBag:
		return prefixed("strengthened result is not a sub-bag of the base result",
			subBag(storage.Canon(storage.AgreeBag, results[1]), storage.Canon(storage.AgreeBag, results[0])))
	case SubsetSet:
		return prefixed("restricted form's result is not a subset of the wider form's",
			subBag(storage.Canon(storage.AgreeSet, results[1]), storage.Canon(storage.AgreeSet, results[0])))
	case SetEqual:
		return prefixed("equivalent forms disagree as sets",
			storage.DiffCanon(storage.Canon(storage.AgreeSet, results[0]), storage.Canon(storage.AgreeSet, results[1])))
	case PartitionEqual:
		return prefixed("partition halves do not reassemble the full scan",
			storage.DiffCanon(mergeBags(storage.Canon(storage.AgreeBag, results[1]), storage.Canon(storage.AgreeBag, results[2])), storage.Canon(storage.AgreeBag, results[0])))
	case PartitionSubset:
		return prefixed("partition halves exceed the full scan (NULL rows may only be lost, never gained)",
			subBag(mergeBags(storage.Canon(storage.AgreeBag, results[1]), storage.Canon(storage.AgreeBag, results[2])), storage.Canon(storage.AgreeBag, results[0])))
	case CountBound:
		c0, err := scalarAt(results[0], 0)
		if err != nil {
			return err.Error()
		}
		c1, err := scalarAt(results[1], 0)
		if err != nil {
			return err.Error()
		}
		if c0.Kind() != value.KindInt || c1.Kind() != value.KindInt {
			return fmt.Sprintf("COUNT returned non-integer values %v / %v", c0, c1)
		}
		if c1.Int() > c0.Int() {
			return fmt.Sprintf("COUNT grew under a strengthened predicate: %d > %d", c1.Int(), c0.Int())
		}
		return ""
	case MinMaxBound:
		min0, err := scalarAt(results[0], 0)
		if err != nil {
			return err.Error()
		}
		max0 := results[0][0][1]
		min1, err := scalarAt(results[1], 0)
		if err != nil {
			return err.Error()
		}
		max1 := results[1][0][1]
		if !min1.IsNull() {
			if min0.IsNull() {
				return fmt.Sprintf("subset has MIN %v but superset has MIN NULL", min1)
			}
			if cmp, err := value.Compare(min0, min1); err != nil {
				return err.Error()
			} else if cmp > 0 {
				return fmt.Sprintf("superset MIN %v exceeds subset MIN %v", min0, min1)
			}
		}
		if !max1.IsNull() {
			if max0.IsNull() {
				return fmt.Sprintf("subset has MAX %v but superset has MAX NULL", max1)
			}
			if cmp, err := value.Compare(max0, max1); err != nil {
				return err.Error()
			} else if cmp < 0 {
				return fmt.Sprintf("superset MAX %v below subset MAX %v", max0, max1)
			}
		}
		return ""
	case DistinctEqual:
		if d := storage.DiffCanon(storage.Canon(storage.AgreeSet, results[0]), storage.Canon(storage.AgreeSet, results[1])); d != "" {
			return "DISTINCT changed the result as a set: " + d
		}
		return prefixed("DISTINCT result is not a sub-bag of the plain projection",
			subBag(storage.Canon(storage.AgreeBag, results[1]), storage.Canon(storage.AgreeBag, results[0])))
	default:
		return fmt.Sprintf("internal: unknown relation %v", p.Relation)
	}
}

// CheckRelaxed is Check with the bag relations degraded to their set
// forms. The runner uses it when the pair's queries took different
// execution shapes within one regime (one transformed, one fell back to
// nested iteration): the transform preserves sets but carries
// join-multiplicity duplicates, so duplicate counts across the pair are
// not comparable, while the set containments still are.
func (p *Pair) CheckRelaxed(results ...[]storage.Tuple) string {
	if len(results) != p.Relation.Arity() {
		return fmt.Sprintf("internal: %d results for %v (arity %d)", len(results), p.Relation, p.Relation.Arity())
	}
	switch p.Relation {
	case SubsetBag:
		return prefixed("strengthened result is not a subset of the base result",
			subBag(storage.Canon(storage.AgreeSet, results[1]), storage.Canon(storage.AgreeSet, results[0])))
	case PartitionEqual:
		union := storage.Canon(storage.AgreeSet, append(append([]storage.Tuple{}, results[1]...), results[2]...))
		return prefixed("partition halves do not reassemble the full scan (as sets)",
			storage.DiffCanon(union, storage.Canon(storage.AgreeSet, results[0])))
	case PartitionSubset:
		union := storage.Canon(storage.AgreeSet, append(append([]storage.Tuple{}, results[1]...), results[2]...))
		return prefixed("partition halves exceed the full scan (as sets)",
			subBag(union, storage.Canon(storage.AgreeSet, results[0])))
	case DistinctEqual:
		return prefixed("DISTINCT changed the result as a set",
			storage.DiffCanon(storage.Canon(storage.AgreeSet, results[0]), storage.Canon(storage.AgreeSet, results[1])))
	default:
		return p.Check(results...)
	}
}

func prefixed(msg, diff string) string {
	if diff == "" {
		return ""
	}
	return msg + ": " + diff
}
