package exec

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// Tests of the flat hash-join table and the morsel pool from inside the
// package: the probe loop over a hand-built table, and the pool's
// put-back-once rule.

func row(k value.Value, v int64) storage.Tuple { return storage.Tuple{k, value.NewInt(v)} }

func intRow(k, v int64) storage.Tuple { return row(value.NewInt(k), v) }

// probeAll runs the one probe loop: every probe row against a table over
// build, joined on column 0 (NULL-safely when nullEq), NULL-padded when
// outer. It returns the joined rows rendered, in output order.
func probeAll(t *testing.T, build, probe []storage.Tuple, nullEq, outer bool) []string {
	t.Helper()
	sch := make(RowSchema, 2)
	var held Resident
	for _, r := range probe {
		held.rows.add(r)
	}
	j := &ParallelHashJoin{Left: &ResidentScan{Rows: &held}, Outer: outer,
		key: newJoinKey(0, 0, nullEq, nil), rows: newRowBuilder(nil, sch, sch), build: build}
	p := newProber(j)
	var got []string
	for {
		r, ok, err := p.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return got
		}
		got = append(got, r.String())
	}
}

func wantRows(t *testing.T, what string, got []string, want ...string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Errorf("%s:\n  got  %q\n  want %q", what, got, want)
	}
}

func TestHashTableEqualKeysInBuildOrder(t *testing.T) {
	build := []storage.Tuple{intRow(1, 10), intRow(2, 20), intRow(1, 11), intRow(3, 30), intRow(1, 12)}
	wantRows(t, "three build rows of one key", probeAll(t, build, []storage.Tuple{intRow(1, 90)}, false, false),
		"(1, 90, 1, 10)", "(1, 90, 1, 11)", "(1, 90, 1, 12)")
}

// TestHashTableBucketMateSkipped: two keys whose hashes differ but land in
// one bucket share a chain, and a probe of one never joins the other.
func TestHashTableBucketMateSkipped(t *testing.T) {
	key := []int{0}
	a, k := intRow(0, 10), int64(0)
	sized := newHashTable([]storage.Tuple{a, a}, key) // the size every two-row table has
	for k = 1; sized.slot(hashKey(intRow(k, 0), key)) != sized.slot(hashKey(a, key)); k++ {
	}
	b := intRow(k, 20)
	tb := newHashTable([]storage.Tuple{a, b}, key)
	if head := tb.heads[tb.slot(tb.hashes[0])]; head != 1 || tb.next[0] != 2 || tb.hashes[0] == tb.hashes[1] {
		t.Fatalf("rows 0 and 1 do not share one chain under different hashes: head %d, next %v, hashes %x", head, tb.next, tb.hashes)
	}
	wantRows(t, "probe of the first", probeAll(t, []storage.Tuple{a, b}, []storage.Tuple{intRow(0, 90)}, false, false),
		"(0, 90, 0, 10)")
	wantRows(t, "probe of the second", probeAll(t, []storage.Tuple{a, b}, []storage.Tuple{intRow(k, 90)}, false, false),
		storage.Tuple{b[0], value.NewInt(90), b[0], b[1]}.String())
}

// TestHashTableCollisionRejected: a string whose bytes are an integer's
// float bits hashes like that integer; joinKey.equal tells them apart.
func TestHashTableCollisionRejected(t *testing.T) {
	var bits [8]byte
	binary.LittleEndian.PutUint64(bits[:], math.Float64bits(1))
	build := []storage.Tuple{intRow(1, 10)}
	probe := []storage.Tuple{row(value.NewString(string(bits[:])), 90)}
	if hashKey(build[0], []int{0}) != hashKey(probe[0], []int{0}) {
		t.Fatal("the two keys no longer collide; pick another pair")
	}
	wantRows(t, "inner", probeAll(t, build, probe, false, false))
	wantRows(t, "outer", probeAll(t, build, probe, false, true), append(probe[0], value.Null, value.Null).String())
}

func TestHashTableEmptyAndOneRow(t *testing.T) {
	probe := []storage.Tuple{intRow(1, 90), intRow(2, 91)}
	wantRows(t, "empty build, inner", probeAll(t, nil, probe, false, false))
	wantRows(t, "empty build, outer", probeAll(t, nil, probe, false, true), "(1, 90, NULL, NULL)", "(2, 91, NULL, NULL)")
	one := []storage.Tuple{intRow(2, 20)}
	wantRows(t, "one-row build, inner", probeAll(t, one, probe, false, false), "(2, 91, 2, 20)")
	wantRows(t, "one-row build, outer", probeAll(t, one, probe, false, true), "(1, 90, NULL, NULL)", "(2, 91, 2, 20)")
}

func TestHashTableNulls(t *testing.T) {
	build := []storage.Tuple{row(value.Null, 40), intRow(0, 50)}
	probe := []storage.Tuple{row(value.Null, 90)}
	wantRows(t, "NULL-safe", probeAll(t, build, probe, true, false), "(NULL, 90, NULL, 40)")
	wantRows(t, "plain =", probeAll(t, build, probe, false, false))
	wantRows(t, "plain =, outer", probeAll(t, build, probe, false, true), "(NULL, 90, NULL, NULL)")
}

// TestMorselsRecycledOnce: collected rows flattened twice, and a resident
// temp released twice, put each morsel back once, so no two morsels handed
// out later share a buffer.
func TestMorselsRecycledOnce(t *testing.T) {
	var c rowChunks
	c.add(intRow(1, 10))
	if rows := c.flatten(); len(rows) != 1 {
		t.Fatalf("first flatten: %d rows, want 1", len(rows))
	}
	if rows := c.flatten(); rows != nil {
		t.Fatalf("second flatten: %d rows, want none", len(rows))
	}
	var r Resident
	r.rows.add(intRow(2, 20))
	r.Release(nil)
	r.Release(nil)
	a, b := newMorsel(), newMorsel()
	if &a[:1][0] == &b[:1][0] {
		t.Fatal("two morsels share one buffer: a morsel was put back twice")
	}
}
