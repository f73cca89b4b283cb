package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wire"
)

// randValue draws from a small domain so collisions (equal values in
// independent rows) are common — the property below is vacuous without
// them. NULLs are dense for the same reason.
func randValue(rng *rand.Rand) value.Value {
	switch rng.Intn(6) {
	case 0:
		return value.Null
	case 1:
		return value.NewInt(int64(rng.Intn(5)))
	case 2:
		// Cross-kind equality: 3 == 3.0 under value.Equal, so they must
		// co-locate too.
		return value.NewFloat(float64(rng.Intn(5)))
	case 3:
		return value.NewFloat(float64(rng.Intn(5)) + 0.5)
	case 4:
		return value.NewString(string(rune('a' + rng.Intn(4))))
	default:
		if rng.Intn(2) == 0 {
			return value.NewFloat(0.0) // exercises the -0.0 fold
		}
		return value.NewInt(0)
	}
}

// eqNull reports a <=> b: the NULL-safe equality the NEST-JA2 back-join
// uses (PR 7's COUNT=0/NULL-key fix). The partitioner must never split
// a <=>-equal pair across shards, or a distributed back-join would drop
// exactly the COUNT=0 groups that fix recovered.
func eqNull(t *testing.T, a, b value.Value) bool {
	t.Helper()
	tri, err := value.OpEqNull.Apply(a, b)
	if err != nil {
		return false // incomparable kinds: not equal, nothing to assert
	}
	return tri == value.True
}

// TestPartitionerRespectsNullSafeEquality is the property test pinning
// the PR 7 fix across the network boundary: for any two rows whose key
// columns are pairwise equal under <=> — including NULL <=> NULL — the
// partitioner must route both rows to the same shard, at every shard
// count.
func TestPartitionerRespectsNullSafeEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const rows = 400
	for _, shards := range []int{1, 2, 3, 4, 7} {
		for _, keyCols := range [][]int{{0}, {1}, {0, 2}} {
			p := Partitioner{NumShards: shards, KeyCols: keyCols}
			pool := make([]storage.Tuple, rows)
			for i := range pool {
				pool[i] = storage.Tuple{randValue(rng), randValue(rng), randValue(rng)}
			}
			matched := 0
			for i := range pool {
				for j := i + 1; j < len(pool); j++ {
					equal := true
					for _, k := range keyCols {
						if !eqNull(t, pool[i][k], pool[j][k]) {
							equal = false
							break
						}
					}
					if !equal {
						continue
					}
					matched++
					si, sj := p.Shard(pool[i]), p.Shard(pool[j])
					if si != sj {
						t.Fatalf("shards=%d keys=%v: rows %v and %v are <=>-equal on the key but hash to shards %d and %d",
							shards, keyCols, pool[i], pool[j], si, sj)
					}
				}
			}
			if matched == 0 {
				t.Fatalf("shards=%d keys=%v: no <=>-equal pairs drawn; domain too wide for the property to bite", shards, keyCols)
			}
		}
	}
}

// TestPartitionerNullKeysCoLocate pins the headline special case: every
// row whose entire key is NULL lands on one shard.
func TestPartitionerNullKeysCoLocate(t *testing.T) {
	for _, shards := range []int{2, 3, 5} {
		p := Partitioner{NumShards: shards, KeyCols: []int{0}}
		want := p.Shard(storage.Tuple{value.Null, value.NewInt(1)})
		for i := 0; i < 50; i++ {
			row := storage.Tuple{value.Null, value.NewInt(int64(i))}
			if got := p.Shard(row); got != want {
				t.Fatalf("shards=%d: NULL-key row %d landed on shard %d, want %d", shards, i, got, want)
			}
		}
	}
}

// TestPartitionerBounds: results stay in range, and degenerate
// configurations (one shard, no key columns, short rows) route to 0.
func TestPartitionerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := Partitioner{NumShards: 4, KeyCols: []int{0, 1}}
	for i := 0; i < 200; i++ {
		row := storage.Tuple{randValue(rng), randValue(rng)}
		if s := p.Shard(row); s < 0 || s >= 4 {
			t.Fatalf("shard %d out of range for %v", s, row)
		}
	}
	if s := (Partitioner{NumShards: 1, KeyCols: []int{0}}).Shard(storage.Tuple{value.NewInt(9)}); s != 0 {
		t.Fatalf("single shard routed to %d", s)
	}
	if s := (Partitioner{NumShards: 3}).Shard(storage.Tuple{value.NewInt(9)}); s != 0 {
		t.Fatalf("empty key routed to %d", s)
	}
	// A key column beyond the row hashes as NULL rather than panicking.
	short := Partitioner{NumShards: 3, KeyCols: []int{5}}
	if s := short.Shard(storage.Tuple{value.NewInt(1)}); s < 0 || s >= 3 {
		t.Fatalf("short-row shard %d out of range", s)
	}
}

// TestPartitionerSpreads sanity-checks that distinct keys actually use
// more than one shard (the hash is not constant).
func TestPartitionerSpreads(t *testing.T) {
	p := Partitioner{NumShards: 4, KeyCols: []int{0}}
	used := map[int]bool{}
	for i := 0; i < 64; i++ {
		used[p.Shard(storage.Tuple{value.NewInt(int64(i))})] = true
	}
	if len(used) < 3 {
		t.Fatalf("64 distinct keys used only %d of 4 shards", len(used))
	}
}

// TestPartitionerSurvivesTheWire pins what the shuffle relies on since
// the coordinator, not the worker, partitions a scattered slice: it
// hashes values decoded off a RowBatch, never the worker's stored ones,
// so Shard must route a decoded row exactly where it routes the row that
// was encoded — for TestRowsSurviveEveryPath's values, at every shard
// count and key shape.
func TestPartitionerSurvivesTheWire(t *testing.T) {
	d, err := value.ParseDate("7-3-79")
	if err != nil {
		t.Fatal(err)
	}
	corpus := []value.Value{
		value.Null,
		value.NewFloat(math.NaN()),
		value.NewFloat(math.Copysign(0, -1)), value.NewFloat(0),
		value.NewInt(3), value.NewFloat(3),
		value.NewFloat(9223372036854775808.0), value.NewFloat(1e21),
		value.NewInt(math.MinInt64),
		value.NewDateValue(d),
		value.NewString("it's"), value.NewString("a;b"), value.NewString("a -- b"),
		value.NewString("line1\nline2"), value.NewString(""),
	}
	var rows []storage.Tuple
	for i, a := range corpus {
		for _, b := range corpus[i:] {
			rows = append(rows, storage.Tuple{a, b})
		}
	}
	b, err := wire.DecodeRowBatch(wire.EncodeRowBatch(wire.RowBatch{Columns: []string{"A", "B"}, Rows: rows}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    Partitioner
	}{
		{"2 shards on A", Partitioner{NumShards: 2, KeyCols: []int{0}}},
		{"3 shards on B", Partitioner{NumShards: 3, KeyCols: []int{1}}},
		{"7 shards on (A, B)", Partitioner{NumShards: 7, KeyCols: []int{0, 1}}},
		{"5 shards on (B, A)", Partitioner{NumShards: 5, KeyCols: []int{1, 0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, row := range rows {
				if got, want := tc.p.Shard(b.Rows[i]), tc.p.Shard(row); got != want {
					t.Errorf("row %v: decoded copy routes to shard %d, the encoded row to %d", row, got, want)
				}
			}
		})
	}
}
