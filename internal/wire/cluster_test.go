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
