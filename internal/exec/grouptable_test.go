package exec

import (
	"encoding/binary"
	"math"
	"math/bits"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// Tests of the one group table from inside the package: what a group is
// (NULL with NULL, 3 with 3.0), the order groups come out in, the index
// under growth, bucket-mates and collisions, the index-free global
// aggregate, DISTINCT, and what folding costs in allocations.

// countMax groups on column 0 and computes COUNT(*) and MAX(column 1).
var countMax = []GroupItem{{Agg: value.AggNone, Col: 0}, {Agg: value.AggCountStar}, {Agg: value.AggMax, Col: 1}}

func fold(t *testing.T, g *groupTable, rows ...storage.Tuple) {
	t.Helper()
	for _, r := range rows {
		i, h := g.find(r)
		if i < 0 {
			i = g.insert(r, h)
		}
		if err := g.add(i, r); err != nil {
			t.Fatal(err)
		}
	}
}

func groupRows(g *groupTable) []string {
	var out []string
	for i := range g.n {
		out = append(out, g.row(i).String())
	}
	return out
}

func TestGroupTableFirstSeenOrder(t *testing.T) {
	g := groupTable{cols: []int{0}, items: countMax}
	fold(t, &g, intRow(3, 30), intRow(1, 10), intRow(3, 31), intRow(2, 20), intRow(1, 12))
	wantRows(t, "groups", groupRows(&g), "(3, 2, 31)", "(1, 2, 12)", "(2, 1, 20)")
}

func TestGroupTableKeysEqualAsSQLDistinctDoes(t *testing.T) {
	g := groupTable{cols: []int{0}, items: countMax}
	fold(t, &g, row(value.Null, 1), intRow(3, 2), row(value.Null, 3), row(value.NewFloat(3.0), 4))
	wantRows(t, "NULL with NULL, 3 with 3.0", groupRows(&g), "(NULL, 2, 3)", "(3, 2, 4)")
}

// TestGroupTableBucketMatesApart: two keys whose hashes differ but land in
// one bucket, and two whose hashes are equal, share a chain and stay two
// groups.
func TestGroupTableBucketMatesApart(t *testing.T) {
	a, k := intRow(0, 10), int64(0)
	sized := newHashTable([]storage.Tuple{a, a}, []int{0}) // the size a two-group table has
	for k = 1; sized.slot(hashKey(intRow(k, 0), []int{0})) != sized.slot(hashKey(a, []int{0})); k++ {
	}
	g := groupTable{cols: []int{0}, items: countMax}
	fold(t, &g, a, intRow(k, 20), a, intRow(k, 21), intRow(k, 22))
	x := &g.index
	if x.slot(x.hashes[0]) != x.slot(x.hashes[1]) || x.hashes[0] == x.hashes[1] {
		t.Fatalf("groups 0 and 1 do not share one bucket under different hashes: hashes %x", x.hashes)
	}
	wantRows(t, "bucket-mates", groupRows(&g), "(0, 2, 10)", "("+intRow(k, 0)[0].String()+", 3, 22)")

	var b [8]byte // a string whose bytes are 1.0's float bits hashes like the integer 1
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(1))
	s := row(value.NewString(string(b[:])), 40)
	if hashKey(s, []int{0}) != hashKey(intRow(1, 0), []int{0}) {
		t.Fatal("the two keys no longer collide; pick another pair")
	}
	g = groupTable{cols: []int{0}, items: countMax}
	fold(t, &g, intRow(1, 10), s, intRow(1, 11))
	if g.n != 2 {
		t.Fatalf("a collision merged two keys: %d groups", g.n)
	}
	wantRows(t, "collision", groupRows(&g)[:1], "(1, 2, 11)")
}

// TestGroupTableFindsAfterGrowth: the index is relinked at every doubling;
// every group is still found, by its number, after ten of them and after
// a reset.
func TestGroupTableFindsAfterGrowth(t *testing.T) {
	const n = 1000
	g := groupTable{cols: []int{0}, items: countMax}
	for pass := range 2 {
		for k := range int64(n) {
			fold(t, &g, intRow(k*7919%n, k))
		}
		if pass == 0 {
			g.reset()
		}
	}
	if g.n != n || len(g.index.heads) < 2*n {
		t.Fatalf("%d groups in %d buckets, want %d in at least %d", g.n, len(g.index.heads), n, 2*n)
	}
	for k := range int64(n) {
		r := intRow(k*7919%n, 0)
		if i, _ := g.find(r); i != int(k) {
			t.Fatalf("key %v: group %d, want %d", r[0], i, k)
		}
		if got := g.row(int(k)); got[1].Int() != 1 {
			t.Fatalf("group %d: %v, want one row", k, got)
		}
	}
}

func TestGroupTableNoGroupColumns(t *testing.T) {
	items := []GroupItem{{Agg: value.AggCount, Col: 0}, {Agg: value.AggMax, Col: 1}}
	g := groupTable{items: items}
	if i, _ := g.find(intRow(1, 1)); i != -1 {
		t.Fatalf("an empty table found group %d", i)
	}
	fold(t, &g, intRow(1, 5), row(value.Null, 7), intRow(2, 6))
	wantRows(t, "one group", groupRows(&g), "(2, 7)")
	if g.index.heads != nil || g.index.hashes != nil {
		t.Error("a table without grouping columns built an index")
	}
	g.reset()
	g.open(nil)
	wantRows(t, "over empty input", groupRows(&g), "(0, NULL)")
}

func TestDedupeRowsKeepsFirstOccurrences(t *testing.T) {
	three := storage.Tuple{value.NewFloat(3.0), value.NewString("x")}
	rows := []storage.Tuple{intRow(1, 1), row(value.Null, 2), intRow(1, 1), three,
		row(value.Null, 2), {value.NewInt(3), value.NewString("x")}, intRow(1, 2)}
	got := dedupeRows(rows, 2)
	var printed []string
	for _, r := range got {
		printed = append(printed, r.String())
	}
	wantRows(t, "distinct", printed, "(1, 1)", "(NULL, 2)", three.String(), "(1, 2)")
	if &got[2][0] != &three[0] {
		t.Error("DISTINCT kept a later duplicate, not the first occurrence")
	}
}

// TestGroupTableAllocs: a group costs no allocation of its own. Folding n
// groups grows the key and accumulator slices and the index by doubling:
// 60 allocations for 1,000 groups and 94 for 10,000 (71 and 113 under the
// race detector), where heap objects per group (the group, its key, its
// accumulators) made them several thousand. The budget is 10 log2(n).
func TestGroupTableAllocs(t *testing.T) {
	for _, n := range []int{1000, 10000} {
		rows := make([]storage.Tuple, 2*n)
		for i := range rows {
			rows[i] = intRow(int64(i%n), int64(i))
		}
		allocs := testing.AllocsPerRun(5, func() {
			g := groupTable{cols: []int{0}, items: countMax}
			fold(t, &g, rows...)
		})
		if budget := float64(10 * bits.Len(uint(n))); allocs > budget {
			t.Errorf("folding %d groups made %.0f allocations, budget %.0f", n, allocs, budget)
		}
	}
}
