// Package cluster is the coordinator/worker subsystem: heap files
// hash-partitioned by a chosen column across N engine nodes, exchanging
// rows over internal/wire connections (a plan on one node runs on one
// goroutine and exchanges none). The paper's NEST-JA2 transformation is
// what makes this work: correlated nesting becomes joins on the
// correlation column, a shape that partitions cleanly by join key — so a
// distributed run is at most a 2-round shuffle (scatter rows by hash of
// the required key, then run the whole transformed plan locally on each
// shard and gather).
//
// The pieces:
//
//   - Partitioner: the NULL-safe hash routing rows to shards.
//   - Analyze: decides whether a query is distributable and derives the
//     partition key each table must be on.
//   - Coordinator: the client-facing backend (server.Backend) that owns
//     the catalog + placement map, fans DDL/DML out to the workers, and
//     runs distributable SELECTs via scatter/gather over internal/client
//     connections.
package cluster

import (
	"repro/internal/storage"
)

// Partitioner routes a row to a shard by hashing its key columns. The
// hash is value.Hash, which is Equal-consistent under NULL-safe <=>
// semantics: NULL hashes like NULL (so all-NULL keys land on one shard,
// matching the NEST-JA2 back-join's <=> conjuncts), and an integer 3
// hashes like a float 3.0 (Equal values across numeric kinds
// co-locate). That consistency is the entire correctness argument for
// co-located joins: rows that could ever compare equal on the key are
// guaranteed to be on the same shard.
//
// An empty KeyCols sends every row to shard 0 (a gather with no
// repartitioning). A key column index outside the row hashes as NULL —
// the coordinator takes indexes from its catalog and checks a worker's
// answer has exactly the columns it asked for, so this is defense in
// depth, not an expected path.
type Partitioner struct {
	NumShards int
	KeyCols   []int
}

// fnv64 constants, matching internal/value's hash family.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Shard returns the destination shard for row, in [0, NumShards).
func (p Partitioner) Shard(row storage.Tuple) int {
	if p.NumShards <= 1 || len(p.KeyCols) == 0 {
		return 0
	}
	h := uint64(fnvOffset)
	for _, k := range p.KeyCols {
		var hv uint64
		if k >= 0 && k < len(row) {
			hv = row[k].Hash()
		}
		// Mix each column hash FNV-style so (a, b) and (b, a) differ.
		for i := 0; i < 8; i++ {
			h ^= hv & 0xff
			h *= fnvPrime
			hv >>= 8
		}
	}
	return int(h % uint64(p.NumShards))
}
