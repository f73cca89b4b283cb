// Cluster frames: the shard scatter/gather extension of the protocol.
//
// A coordinator sends FrameShardQuery to a worker; the worker executes
// the query locally and streams FrameShardBatch frames — RowBatches
// tagged with the destination partition each row hashes to — finishing
// with FrameShardDone (per-partition row counts, so the coordinator can
// cross-check nothing was dropped in flight). Errors use the ordinary
// FrameError taxonomy. The frames ride the negotiated codec, so CRC32C
// checksums and heartbeats cover shuffle traffic exactly as they cover
// client traffic.
//
// Two more requests serve replication: FrameSnapshot streams one table
// out of a worker, and FrameLoad lands typed rows in one — the single
// way the coordinator moves rows to a worker, so no row is ever rendered
// to SQL text and parsed back on its way between nodes.
//
// Partitioning happens worker-side (internal/cluster.Partitioner) so a
// shuffle ships each row once; the coordinator only forwards batches to
// their destination. The hash is value.Hash, which is Equal-consistent
// with NULL-safe <=> semantics: every NULL key lands on partition 0.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Cluster frame types, continuing the 0x01–0x07 sequence in wire.go.
const (
	// FrameShardQuery asks a worker to run a query and partition every
	// result row by the hash of its key columns.
	FrameShardQuery byte = 0x08
	// FrameShardBatch is a RowBatch tagged with the partition its rows
	// hash to.
	FrameShardBatch byte = 0x09
	// FrameShardDone ends a successful shard stream with per-partition
	// row counts.
	FrameShardDone byte = 0x0A
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
// coordinators leave it unset, and clients must not send
// FrameShardQuery, FrameSnapshot or FrameLoad without it.
const FeatureCluster byte = 1 << 2

// maxShards bounds the partition counts a decoder will believe. Far above
// any plausible cluster size, far below anything allocation-hazardous.
const maxShards = 1 << 10

// ShardQuery asks a worker to execute SQL and scatter the result.
// KeyCols are indexes into the result columns forming the partition key;
// an empty KeyCols sends every row to partition 0 (a broadcast-gather).
type ShardQuery struct {
	TimeoutMicros int64
	Strategy      byte
	NumShards     int64
	KeyCols       []int64
	SQL           string
}

// EncodeShardQuery builds a ShardQuery payload.
func EncodeShardQuery(q ShardQuery) []byte {
	p := binary.AppendVarint(nil, q.TimeoutMicros)
	p = append(p, q.Strategy)
	p = binary.AppendVarint(p, q.NumShards)
	p = binary.AppendUvarint(p, uint64(len(q.KeyCols)))
	for _, k := range q.KeyCols {
		p = binary.AppendVarint(p, k)
	}
	return append(p, q.SQL...)
}

// DecodeShardQuery parses a ShardQuery payload.
func DecodeShardQuery(p []byte) (ShardQuery, error) {
	var q ShardQuery
	var err error
	if q.TimeoutMicros, p, err = getVarint(p, "shard query timeout"); err != nil {
		return q, err
	}
	if len(p) < 1 {
		return q, fmt.Errorf("wire: shard query truncated before strategy")
	}
	q.Strategy, p = p[0], p[1:]
	if q.NumShards, p, err = getVarint(p, "shard count"); err != nil {
		return q, err
	}
	if q.NumShards < 1 || q.NumShards > maxShards {
		return q, fmt.Errorf("wire: shard count %d out of range", q.NumShards)
	}
	nkeys, p, err := getUvarint(p, "key column count")
	if err != nil {
		return q, err
	}
	if nkeys > maxCols {
		return q, fmt.Errorf("wire: %d key columns exceeds limit", nkeys)
	}
	for i := uint64(0); i < nkeys; i++ {
		var k int64
		if k, p, err = getVarint(p, "key column"); err != nil {
			return q, err
		}
		if k < 0 || k >= maxCols {
			return q, fmt.Errorf("wire: key column %d out of range", k)
		}
		q.KeyCols = append(q.KeyCols, k)
	}
	q.SQL = string(p)
	return q, nil
}

// ShardBatch is one partition-tagged chunk of a scattered result.
type ShardBatch struct {
	Shard uint32
	Batch RowBatch
}

// EncodeShardBatch builds a ShardBatch payload.
func EncodeShardBatch(b ShardBatch) []byte {
	return appendRowBatch(binary.AppendUvarint(nil, uint64(b.Shard)), b.Batch)
}

// DecodeShardBatch parses a ShardBatch payload.
func DecodeShardBatch(p []byte) (ShardBatch, error) {
	var b ShardBatch
	shard, p, err := getUvarint(p, "shard tag")
	if err != nil {
		return b, err
	}
	if shard >= maxShards {
		return b, fmt.Errorf("wire: shard tag %d out of range", shard)
	}
	b.Shard = uint32(shard)
	if b.Batch, err = DecodeRowBatch(p); err != nil {
		return b, err
	}
	return b, nil
}

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

// ShardDone ends a successful shard stream. PerShard holds the number of
// rows emitted to each partition, in partition order, so the coordinator
// can verify its gathered counts against what the worker sent.
type ShardDone struct {
	Reads    int64
	Writes   int64
	PerShard []int64
}

// EncodeShardDone builds a ShardDone payload.
func EncodeShardDone(d ShardDone) []byte {
	p := binary.AppendVarint(nil, d.Reads)
	p = binary.AppendVarint(p, d.Writes)
	p = binary.AppendUvarint(p, uint64(len(d.PerShard)))
	for _, n := range d.PerShard {
		p = binary.AppendVarint(p, n)
	}
	return p
}

// DecodeShardDone parses a ShardDone payload.
func DecodeShardDone(p []byte) (ShardDone, error) {
	var d ShardDone
	var err error
	if d.Reads, p, err = getVarint(p, "shard done reads"); err != nil {
		return d, err
	}
	if d.Writes, p, err = getVarint(p, "shard done writes"); err != nil {
		return d, err
	}
	nshards, p, err := getUvarint(p, "shard done count")
	if err != nil {
		return d, err
	}
	if nshards > maxShards {
		return d, fmt.Errorf("wire: %d per-shard counts exceeds limit", nshards)
	}
	for i := uint64(0); i < nshards; i++ {
		var n int64
		if n, p, err = getVarint(p, "per-shard rows"); err != nil {
			return d, err
		}
		if n < 0 {
			return d, fmt.Errorf("wire: negative per-shard row count")
		}
		d.PerShard = append(d.PerShard, n)
	}
	if len(p) != 0 {
		return d, fmt.Errorf("wire: %d trailing bytes after shard done", len(p))
	}
	return d, nil
}
