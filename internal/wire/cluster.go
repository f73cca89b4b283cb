// Cluster frames: the requests only a worker answers.
//
// Rows leave a worker one way, as the answer to an ordinary Query: the
// coordinator's gather reads a shard's result that way, and so does the
// shuffle's scatter, which partitions the rows it receives itself
// (internal/cluster.Partitioner). The frames here cover what a Query
// cannot: FrameSnapshot streams one table out of a worker with the
// CREATE statement that rebuilds it, and FrameLoad lands typed rows in
// one — the single way the coordinator moves rows to a worker, so no row
// is ever rendered to SQL text and parsed back on its way between nodes.
// Errors use the ordinary FrameError taxonomy, and the frames ride the
// negotiated codec, so CRC32C checksums and heartbeats cover cluster
// traffic exactly as they cover client traffic.
package wire

import "fmt"

// Cluster frame types, continuing the 0x01–0x07 sequence in wire.go.
// 0x08–0x0A are retired — they were the shuffle's worker-partitioned
// scatter request, its shard-tagged batches and its per-shard counts,
// which a worker now refuses as a protocol error — and must not be
// reused: a peer from before the retirement would read them as the old
// frames.
const (
	// FrameSnapshot asks a worker to ship a full copy of one table: a
	// FrameSnapshotMeta (the table's CREATE statement), RowBatch frames,
	// then FrameDone. Rejoining workers rebuild lost shards from it.
	FrameSnapshot byte = 0x0B
	// FrameSnapshotMeta opens a snapshot stream with the schema needed
	// to recreate the table on the receiving side.
	FrameSnapshotMeta byte = 0x0C
	// FrameLoad lands typed rows in one of a worker's tables — the way a
	// coordinator moves rows to a worker (routed INSERT, shuffle
	// landing, snapshot re-ship). The worker answers FrameDone with the
	// row count, or FrameError.
	FrameLoad byte = 0x0D
)

// FeatureCluster is the Hello feature bit for the frames in this file. A
// server grants it only when it fronts a local engine (a worker);
// coordinators leave it unset, and clients must not send FrameSnapshot
// or FrameLoad without it.
const FeatureCluster byte = 1 << 2

// maxSnapshotName bounds the table name a snapshot decoder will believe.
const maxSnapshotName = 1 << 10

// Snapshot asks a worker for a full copy of one physical table.
type Snapshot struct {
	Table string
}

// EncodeSnapshot builds a Snapshot payload.
func EncodeSnapshot(s Snapshot) []byte {
	return []byte(s.Table)
}

// DecodeSnapshot parses a Snapshot payload.
func DecodeSnapshot(p []byte) (Snapshot, error) {
	if len(p) == 0 {
		return Snapshot{}, fmt.Errorf("wire: snapshot without a table name")
	}
	if len(p) > maxSnapshotName {
		return Snapshot{}, fmt.Errorf("wire: snapshot table name %d bytes exceeds limit", len(p))
	}
	return Snapshot{Table: string(p)}, nil
}

// Load is a batch of rows bound for Table: a RowBatch whose columns name
// the table's columns in order and whose values already have the
// columns' kinds. The receiver checks both — a Load is outside input.
type Load struct {
	Table string
	Batch RowBatch
}

// EncodeLoad builds a Load payload: the table name, then the RowBatch
// body.
func EncodeLoad(l Load) []byte {
	return appendRowBatch(appendString(nil, l.Table), l.Batch)
}

// DecodeLoad parses a Load payload.
func DecodeLoad(p []byte) (Load, error) {
	var l Load
	var err error
	if l.Table, p, err = getString(p, "load table name"); err != nil {
		return l, err
	}
	if l.Table == "" || len(l.Table) > maxSnapshotName {
		return l, fmt.Errorf("wire: load table name of %d bytes out of range", len(l.Table))
	}
	l.Batch, err = DecodeRowBatch(p)
	return l, err
}

// SnapshotMeta opens a snapshot stream: the CREATE TABLE statement that
// rebuilds the table's schema on the receiving side. Rows follow as
// ordinary RowBatch frames, terminated by FrameDone.
type SnapshotMeta struct {
	CreateSQL string
}

// EncodeSnapshotMeta builds a SnapshotMeta payload.
func EncodeSnapshotMeta(m SnapshotMeta) []byte {
	return []byte(m.CreateSQL)
}

// DecodeSnapshotMeta parses a SnapshotMeta payload.
func DecodeSnapshotMeta(p []byte) (SnapshotMeta, error) {
	if len(p) == 0 {
		return SnapshotMeta{}, fmt.Errorf("wire: snapshot meta without a schema")
	}
	return SnapshotMeta{CreateSQL: string(p)}, nil
}
