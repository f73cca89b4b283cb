package engine

import (
	"bytes"
	"fmt"

	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/value"
	"repro/internal/wal"
)

// Crash-safe durability. With EnableDurability the engine follows the
// commit discipline documented in internal/wal: every DML operation is
// applied in memory under the exclusive DML lock, appended to the log,
// and acknowledged only after Commit.Wait says it is durable. Queries
// hold the lock shared, so readers never observe a half-applied
// statement and the log order equals the apply order — which is what
// makes logical replay (re-running DELETE/UPDATE statements over the
// snapshot state) deterministic.
//
// If an append fails the log is poisoned: the in-memory state is ahead
// of the log, so every later DML is refused with wal.ErrBroken until
// Checkpoint re-establishes the invariant by snapshotting the exact
// live state and retiring all segments.

// RecoveryInfo reports what EnableDurability reconstructed on boot.
type RecoveryInfo struct {
	Enabled          bool
	SnapshotLoaded   bool
	ReplayedRecords  int
	TruncatedBytes   int64 // torn/corrupt WAL tail discarded
	DroppedSegments  int
	DroppedSnapshots int
}

// Recovered reports whether any prior state was found.
func (r RecoveryInfo) Recovered() bool { return r.SnapshotLoaded || r.ReplayedRecords > 0 }

func (r RecoveryInfo) String() string {
	if !r.Enabled {
		return "durability disabled"
	}
	s := "fresh data directory"
	if r.Recovered() {
		s = fmt.Sprintf("recovered: snapshot=%v, %d record(s) replayed", r.SnapshotLoaded, r.ReplayedRecords)
	}
	if r.TruncatedBytes > 0 || r.DroppedSegments > 0 || r.DroppedSnapshots > 0 {
		s += fmt.Sprintf(" (truncated %d tail byte(s), dropped %d segment(s), %d snapshot(s))",
			r.TruncatedBytes, r.DroppedSegments, r.DroppedSnapshots)
	}
	return s
}

// EnableDurability opens (creating if needed) the write-ahead log under
// dir and recovers any prior state into the database by replaying records
// twice: the newest valid checkpoint image's, then the WAL tail's.
// Call it on an empty database, before loading fixtures and before
// serving traffic. After it returns, every CreateRelation/Insert and
// every Exec DML statement is logged and acknowledged only once
// durable.
func (db *DB) EnableDurability(dir string, opts wal.Options) (RecoveryInfo, error) {
	if db.wal != nil {
		return db.recovery, fmt.Errorf("engine: durability already enabled")
	}
	if len(db.cat.Names()) > 0 {
		return RecoveryInfo{}, fmt.Errorf("engine: EnableDurability requires an empty database")
	}
	l, rec, err := wal.Open(dir, opts)
	if err != nil {
		return RecoveryInfo{}, err
	}
	info := RecoveryInfo{
		Enabled:          true,
		TruncatedBytes:   rec.TruncatedBytes,
		DroppedSegments:  rec.DroppedSegments,
		DroppedSnapshots: rec.DroppedSnaps,
	}
	// db.wal is still nil here, so the apply paths below run without
	// logging — recovery must not re-log what the WAL already holds.
	if rec.SnapshotPayload != nil {
		if err := readImage(bytes.NewReader(rec.SnapshotPayload), func(int) *DB { return db }); err != nil {
			l.Close()
			return info, fmt.Errorf("engine: recovery snapshot: %w", err)
		}
		info.SnapshotLoaded = true
	}
	for _, r := range rec.Records {
		if err := contain(func() error { return db.applyRecord(r) }); err != nil {
			l.Close()
			return info, fmt.Errorf("engine: replay LSN %d (%s): %w", r.LSN, r.Type, err)
		}
		info.ReplayedRecords++
	}
	db.wal = l
	db.recovery = info
	return info, nil
}

// applyRecord re-executes one recovered commit record. Records apply in
// LSN order over the snapshot state, exactly the order the original
// operations held the DML lock in, so the logical DELETE/UPDATE replay
// sees the same prior state the original statement saw.
func (db *DB) applyRecord(r wal.Record) error {
	switch r.Type {
	case wal.RecCreateTable:
		rel := &schema.Relation{Name: r.Schema.Name, Key: r.Schema.Key}
		for _, c := range r.Schema.Columns {
			rel.Columns = append(rel.Columns, schema.Column{Name: c.Name, Type: value.Kind(c.Kind)})
		}
		return db.CreateRelation(rel, r.Schema.TuplesPerPage)
	case wal.RecInsert:
		if err := db.Insert(r.Table, r.Rows...); err != nil {
			return err
		}
		return db.Seal(r.Table)
	case wal.RecDelete, wal.RecUpdate:
		stmt, err := sqlparser.ParseStatement(r.SQL)
		if err != nil {
			return err
		}
		switch stmt := stmt.(type) {
		case *sqlparser.DeleteStmt:
			if r.Type == wal.RecDelete {
				_, err = db.execDelete(stmt)
				return err
			}
		case *sqlparser.UpdateStmt:
			if r.Type == wal.RecUpdate {
				_, err = db.execUpdate(stmt)
				return err
			}
		}
		return fmt.Errorf("engine: %s record holds %T", r.Type, stmt)
	case wal.RecDrop:
		return db.DropRelation(r.Table)
	default:
		return fmt.Errorf("engine: unknown WAL record type %v", r.Type)
	}
}

// Checkpoint writes an atomic snapshot of the database and retires the
// log (see wal.Log.Checkpoint). It takes the exclusive DML lock, so it
// waits out in-flight queries and DML and blocks new ones while the
// image is written. A no-op without durability.
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return nil
	}
	db.dmlMu.Lock()
	defer db.dmlMu.Unlock()
	return db.wal.Checkpoint(db.Save)
}

// WAL exposes the log (nil without EnableDurability) — for stats
// surfaces and the crash tests' file checks.
func (db *DB) WAL() *wal.Log { return db.wal }

// WALStats snapshots log activity; ok is false without durability.
func (db *DB) WALStats() (wal.Stats, bool) {
	if db.wal == nil {
		return wal.Stats{}, false
	}
	return db.wal.Stats(), true
}

// RecoveryInfo reports what the last EnableDurability reconstructed.
func (db *DB) RecoveryInfo() RecoveryInfo { return db.recovery }
