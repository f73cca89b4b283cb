package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

func TestShardQueryRoundtrip(t *testing.T) {
	cases := []ShardQuery{
		{NumShards: 1, SQL: "SELECT SNO FROM S"},
		{TimeoutMicros: 250_000, Strategy: StrategyTransform, NumShards: 3,
			KeyCols: []int64{0}, SQL: "SELECT PNUM, QOH FROM PARTS"},
		{NumShards: 4, KeyCols: []int64{2, 0}, SQL: "SELECT A, B, C FROM T"},
	}
	for _, q := range cases {
		got, err := DecodeShardQuery(EncodeShardQuery(q))
		if err != nil {
			t.Fatalf("DecodeShardQuery(%+v): %v", q, err)
		}
		if !reflect.DeepEqual(got, q) {
			t.Fatalf("roundtrip: got %+v, want %+v", got, q)
		}
	}
}

func TestShardQueryDecodeRejects(t *testing.T) {
	bad := [][]byte{
		{},     // empty
		{0x00}, // truncated before strategy
		EncodeShardQuery(ShardQuery{NumShards: 0, SQL: "X"}),                            // zero shards
		EncodeShardQuery(ShardQuery{NumShards: maxShards + 1, SQL: "X"}),                // too many shards
		EncodeShardQuery(ShardQuery{NumShards: 2, KeyCols: []int64{-1}, SQL: "X"}),      // negative key col
		EncodeShardQuery(ShardQuery{NumShards: 2, KeyCols: []int64{maxCols}, SQL: "X"}), // key col too big
	}
	for i, p := range bad {
		if _, err := DecodeShardQuery(p); err == nil {
			t.Fatalf("case %d: decode accepted malformed payload % x", i, p)
		}
	}
}

func TestShardBatchRoundtrip(t *testing.T) {
	b := ShardBatch{
		Shard: 2,
		Batch: RowBatch{
			Columns: []string{"PNUM", "QOH"},
			Rows: []storage.Tuple{
				{value.NewInt(3), value.Null},
				{value.Null, value.NewString("x")},
			},
		},
	}
	got, err := DecodeShardBatch(EncodeShardBatch(b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != b.Shard || len(got.Batch.Rows) != 2 || got.Batch.Columns[1] != "QOH" {
		t.Fatalf("roundtrip: got %+v", got)
	}
	if !got.Batch.Rows[0][0].Equal(b.Batch.Rows[0][0]) || !got.Batch.Rows[0][1].IsNull() {
		t.Fatalf("values mutated: %+v", got.Batch.Rows)
	}
}

func TestShardBatchDecodeRejectsHugeShard(t *testing.T) {
	b := ShardBatch{Shard: maxShards, Batch: RowBatch{Columns: []string{"A"}}}
	if _, err := DecodeShardBatch(EncodeShardBatch(b)); err == nil {
		t.Fatal("decode accepted out-of-range shard tag")
	}
}

func TestShardDoneRoundtrip(t *testing.T) {
	d := ShardDone{Reads: 42, Writes: 7, PerShard: []int64{10, 0, 3}}
	got, err := DecodeShardDone(EncodeShardDone(d))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("roundtrip: got %+v, want %+v", got, d)
	}
	// Empty PerShard must survive too (a worker with zero shards is
	// nonsense, but zero rows everywhere is not).
	if got, err := DecodeShardDone(EncodeShardDone(ShardDone{})); err != nil || len(got.PerShard) != 0 {
		t.Fatalf("empty roundtrip: %+v, %v", got, err)
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	s, err := DecodeSnapshot(EncodeSnapshot(Snapshot{Table: "SP__S2"}))
	if err != nil || s.Table != "SP__S2" {
		t.Fatalf("roundtrip: %+v, %v", s, err)
	}
	m, err := DecodeSnapshotMeta(EncodeSnapshotMeta(SnapshotMeta{CreateSQL: "CREATE TABLE SP__S2 (SNO INTEGER)"}))
	if err != nil || m.CreateSQL != "CREATE TABLE SP__S2 (SNO INTEGER)" {
		t.Fatalf("meta roundtrip: %+v, %v", m, err)
	}
}

func TestSnapshotDecodeRejects(t *testing.T) {
	if _, err := DecodeSnapshot(nil); err == nil {
		t.Fatal("decode accepted an empty snapshot request")
	}
	if _, err := DecodeSnapshot(make([]byte, maxSnapshotName+1)); err == nil {
		t.Fatal("decode accepted an oversized table name")
	}
	if _, err := DecodeSnapshotMeta(nil); err == nil {
		t.Fatal("decode accepted an empty snapshot meta")
	}
}

func TestShardDoneDecodeRejects(t *testing.T) {
	neg := EncodeShardDone(ShardDone{PerShard: []int64{-1}})
	if _, err := DecodeShardDone(neg); err == nil {
		t.Fatal("decode accepted negative per-shard count")
	}
	trailing := append(EncodeShardDone(ShardDone{}), 0xFF)
	if _, err := DecodeShardDone(trailing); err == nil {
		t.Fatal("decode accepted trailing bytes")
	}
}

func TestLoadRoundtrip(t *testing.T) {
	want := Load{Table: "SP__S2", Batch: RowBatch{
		Columns: []string{"SNO", "NOTE", "W", "D"},
		Rows: []storage.Tuple{
			{value.NewInt(math.MinInt64), value.NewString("it's; -- not a comment\n"), value.NewFloat(1e21), date(t, "7-3-79")},
			{value.Null, value.NewString(""), value.NewFloat(math.Copysign(0, -1)), value.Null},
		},
	}}
	got, err := DecodeLoad(EncodeLoad(want))
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip: %+v, %v", got, err)
	}
	if f := got.Batch.Rows[1][2].Float(); !math.Signbit(f) {
		t.Fatal("-0.0 lost its sign")
	}
	// A Load is a table name in front of the RowBatch body, nothing else.
	if body := EncodeLoad(want)[1+len(want.Table):]; !bytes.Equal(body, EncodeRowBatch(want.Batch)) {
		t.Fatal("load body is not the RowBatch encoding")
	}
}

func TestLoadDecodeRejects(t *testing.T) {
	batch := EncodeRowBatch(RowBatch{Columns: []string{"A"}, Rows: []storage.Tuple{{value.NewInt(1)}}})
	for name, p := range map[string][]byte{
		"empty":           nil,
		"no table name":   append([]byte{0}, batch...),
		"truncated name":  {9, 'T'},
		"oversized name":  append(binary.AppendUvarint(nil, maxSnapshotName+1), make([]byte, maxSnapshotName+1)...),
		"name only":       {1, 'T'},
		"rows sans cols":  {1, 'T', 0, 1},
		"huge row count":  {1, 'T', 1, 1, 'A', 0xFF, 0xFF, 0xFF, 0x7F},
		"trailing bytes":  append(append([]byte{1, 'T'}, batch...), 0),
		"unknown kind":    {1, 'T', 1, 1, 'A', 1, 0x7F},
		"truncated value": {1, 'T', 1, 1, 'A', 1, byte(value.KindFloat), 0, 0},
	} {
		if _, err := DecodeLoad(p); err == nil {
			t.Errorf("%s: decode accepted % x", name, p)
		}
	}
}
