package server_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wire"
)

func tableImage(t *testing.T, db *engine.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadFrame drives the worker end of the coordinator's row path over
// a real connection: a well-formed Load stores its rows exactly (no SQL
// between the bytes on the wire and the heap file) and answers Done with
// the count; a Load naming the wrong columns or carrying the wrong kinds
// is outside input gone bad — a typed Error frame, the session still
// serving, the table byte-identical.
func TestLoadFrame(t *testing.T) {
	db := engine.New(16)
	if _, err := db.Exec("CREATE TABLE T (K INT, S VARCHAR, F FLOAT)", engine.Options{}); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)
	if !c.Cluster() {
		t.Fatal("engine-backed server did not grant the cluster feature")
	}
	cols := []string{"K", "S", "F"}
	rows := []storage.Tuple{
		{value.NewInt(math.MinInt64), value.NewString("it's; -- x\n"), value.NewFloat(1e21)},
		{value.Null, value.NewString(""), value.NewFloat(math.Copysign(0, -1))},
	}
	done, err := c.Load("T", wire.RowBatch{Columns: cols, Rows: rows})
	if err != nil || done.Rows != 2 {
		t.Fatalf("Load: %+v, %v", done, err)
	}
	res, err := c.Collect("SELECT K, S, F FROM T", client.Options{})
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("read back: %v, %v", res, err)
	}
	for i, row := range res.Rows {
		if row.String() != rows[i].String() || math.Signbit(row[2].Float()) != math.Signbit(rows[i][2].Float()) {
			t.Errorf("row %d came back %v, loaded %v", i, row, rows[i])
		}
	}

	before := tableImage(t, db)
	for name, b := range map[string]wire.RowBatch{
		"wrong column name": {Columns: []string{"K", "S", "G"}, Rows: rows},
		"too few columns":   {Columns: cols[:2], Rows: []storage.Tuple{rows[0][:2]}},
		"wrong kind":        {Columns: cols, Rows: []storage.Tuple{rows[0], {value.NewInt(1), value.NewInt(2), value.Null}}},
	} {
		_, err := c.Load("T", b)
		var re *wire.RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("%s: got %v, want a typed remote error", name, err)
		}
		if !bytes.Equal(tableImage(t, db), before) {
			t.Fatalf("%s: a refused Load changed the table", name)
		}
	}
	if _, err := c.Load("NOPE", wire.RowBatch{Columns: cols}); err == nil || !strings.Contains(err.Error(), "unknown relation") {
		t.Fatalf("Load into a missing table: %v", err)
	}
	// The session survived every refusal.
	if done, err := c.Load("T", wire.RowBatch{Columns: cols}); err != nil || done.Rows != 0 {
		t.Fatalf("zero-row Load after the refusals: %+v, %v", done, err)
	}
}

// TestLoadNeedsClusterFeature: Load is a cluster frame. A session that
// did not negotiate FeatureCluster gets a protocol error and the door.
func TestLoadNeedsClusterFeature(t *testing.T) {
	db := engine.New(16)
	if _, err := db.Exec("CREATE TABLE T (K INT)", engine.Options{}); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, db, server.Config{})
	nc, br, codec := rawHandshake(t, addr, wire.Hello{Version: wire.Version, Flags: wire.FeatureChecksum})
	before := tableImage(t, db)
	load := wire.EncodeLoad(wire.Load{Table: "T", Batch: wire.RowBatch{
		Columns: []string{"K"}, Rows: []storage.Tuple{{value.NewInt(1)}},
	}})
	if err := codec.WriteFrame(nc, wire.FrameLoad, load); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := codec.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := wire.DecodeError(payload)
	if typ != wire.FrameError || f.Code != wire.CodeProtocol {
		t.Fatalf("got frame 0x%02x %+v, want a protocol Error", typ, f)
	}
	if _, _, err := codec.ReadFrame(br); err == nil {
		t.Error("session stayed open after a cluster frame without the feature")
	}
	if !bytes.Equal(tableImage(t, db), before) {
		t.Error("a Load without the cluster feature changed the table")
	}
}

// TestRetiredShardFrameRefused: 0x08 was the shuffle's worker-side
// scatter request. A coordinator from before its retirement still sends
// it, on a session that did negotiate the cluster feature; the worker
// must answer with a typed protocol Error and close, so that coordinator
// fails typed instead of waiting on frames that never come.
func TestRetiredShardFrameRefused(t *testing.T) {
	db := engine.New(16)
	if _, err := db.Exec("CREATE TABLE T (K INT); INSERT INTO T VALUES (1), (2)", engine.Options{}); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, db, server.Config{})
	nc, br, codec := rawHandshake(t, addr, wire.Hello{Version: wire.Version, Flags: wire.FeatureChecksum | wire.FeatureCluster})
	// The pre-retirement payload, well formed: timeout, strategy, shard
	// count, key columns, then the SQL.
	p := binary.AppendVarint(nil, 0)
	p = append(p, wire.StrategyNested)
	p = binary.AppendVarint(p, 2)
	p = binary.AppendUvarint(p, 1)
	p = binary.AppendVarint(p, 0)
	p = append(p, "SELECT K FROM T"...)
	if err := codec.WriteFrame(nc, 0x08, p); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := codec.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := wire.DecodeError(payload)
	if typ != wire.FrameError || f.Code != wire.CodeProtocol {
		t.Fatalf("got frame 0x%02x %+v, want a protocol Error", typ, f)
	}
	if _, _, err := codec.ReadFrame(br); err == nil {
		t.Error("session stayed open after a retired frame")
	}
}
