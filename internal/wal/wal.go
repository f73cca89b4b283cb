// Package wal is the durability subsystem: a write-ahead log of commit
// records in segment files under a data directory, plus atomic
// checkpoint snapshots (write-temp-then-rename) of the whole database
// image. A segment is an 8-byte magic, then one rowcodec record frame
// (DESIGN.md §13) per commit; the payload is a uvarint LSN, a type byte,
// and a type-specific body (see record.go).
//
// Commit discipline (the engine's side of the contract): apply the
// operation in memory, append its record, wait for durability, then
// acknowledge. Append failures — a torn write from the fault injector,
// a full disk — poison the log: every later append is refused with
// ErrBroken, so the on-disk log always stays a consistent prefix of the
// applied history. A checkpoint heals a poisoned log, because the
// snapshot captures the exact live state and all segments are retired.
//
// Recovery (Open) loads the newest snapshot whose checksum verifies,
// then replays segment records in LSN order, truncating the log at the
// first torn or corrupt record and deleting everything past it. A
// record is either fully recovered bit-for-bit or not recovered at all
// — never garbled, never reordered.
package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/rowcodec"
)

const (
	segMagic  = "NSQLWAL1"
	snapMagic = "NSQLSNP1"
	// DefaultSegmentBytes is the rotation threshold when Options does
	// not set one.
	DefaultSegmentBytes = 1 << 20
)

// ErrBroken is returned by Append after a failed append has poisoned
// the log. The in-memory state may be ahead of the log, so no further
// records may be written until a checkpoint re-establishes the
// snapshot-plus-log invariant.
var ErrBroken = fmt.Errorf("wal: log poisoned by failed append; commits suspended until checkpoint")

// ErrCorrupt tags recovery-time corruption (bad magic, bad checksum,
// torn frame). Open handles it by truncating; it surfaces only through
// Recovery counters and tests.
var ErrCorrupt = fmt.Errorf("wal: corrupt record")

// Options configure a log.
type Options struct {
	// Fsync makes Commit.Wait fsync the active segment (group commit:
	// one fsync covers every record appended since the last). Without
	// it durability is the OS page cache — which survives kill -9,
	// though not power loss.
	Fsync bool
	// SegmentBytes rotates the active segment once it grows past this
	// size. <= 0 uses DefaultSegmentBytes.
	SegmentBytes int64
}

// Stats is a snapshot of log activity, surfaced by \stats, server
// stats, and the EXPLAIN trace alongside the spill counters.
type Stats struct {
	Segments       int   // segment files on disk (including active)
	ActiveBytes    int64 // bytes in the active segment
	Appends        int64 // records appended since Open
	AppendedBytes  int64 // frame bytes appended since Open
	Syncs          int64 // fsync batches (group commits)
	Checkpoints    int64 // snapshots taken since Open
	NextLSN        uint64
	Broken         bool
	LastCheckpoint time.Time // zero if none since Open
}

func (s Stats) String() string {
	age := "never"
	if !s.LastCheckpoint.IsZero() {
		age = time.Since(s.LastCheckpoint).Round(time.Millisecond).String() + " ago"
	}
	return fmt.Sprintf("%d segment(s), %d bytes active, %d appends, %d syncs, %d checkpoint(s) (last %s), next LSN %d",
		s.Segments, s.ActiveBytes, s.Appends, s.Syncs, s.Checkpoints, age, s.NextLSN)
}

// Log is an open write-ahead log rooted at a data directory. Appends
// are serialized internally; Commit.Wait may be called from many
// goroutines and batches their fsyncs (group commit).
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex // guards the append path and file state
	f        *os.File   // active segment
	seq      uint64     // active segment sequence number
	segBytes int64      // bytes written to the active segment
	segCount int        // segment files on disk
	nextLSN  uint64
	written  uint64 // last LSN fully handed to the OS
	broken   error  // non-nil once poisoned

	syncMu  sync.Mutex // guards group-commit state
	syncOk  *sync.Cond
	flushed uint64 // last LSN covered by a completed fsync
	syncing bool
	syncErr error

	faults atomic.Pointer[fault.Injector]

	appends     atomic.Int64
	appendBytes atomic.Int64
	syncs       atomic.Int64
	checkpoints atomic.Int64
	lastCkpt    atomic.Int64 // unix nanos, 0 = none
}

// SetFaults arms (or, with nil, disarms) the torn-append site.
func (l *Log) SetFaults(in *fault.Injector) { l.faults.Store(in) }

// Commit is a handle to one appended record; Wait blocks until the
// record is durable under the log's sync policy.
type Commit struct {
	log *Log
	lsn uint64
}

// LSN returns the record's log sequence number.
func (c Commit) LSN() uint64 { return c.lsn }

// Wait blocks until the committed record is durable. Without Fsync the
// write already sits in the OS page cache and Wait returns immediately;
// with Fsync it joins the group commit: the first waiter becomes the
// sync leader and one fsync acknowledges every record appended before
// it started.
func (c Commit) Wait() error {
	if c.log == nil || !c.log.opts.Fsync {
		return nil
	}
	return c.log.waitDurable(c.lsn)
}

func (l *Log) waitDurable(lsn uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	for {
		if l.syncErr != nil {
			return l.syncErr
		}
		if l.flushed >= lsn {
			return nil
		}
		if l.syncing {
			l.syncOk.Wait()
			continue
		}
		// Become the sync leader: snapshot how far the append path has
		// written, fsync once, and credit everyone up to that point.
		l.syncing = true
		l.syncMu.Unlock()
		l.mu.Lock()
		target, f := l.written, l.f
		l.mu.Unlock()
		var err error
		if f != nil {
			err = f.Sync()
		}
		l.syncs.Add(1)
		l.syncMu.Lock()
		l.syncing = false
		if err != nil {
			l.syncErr = fmt.Errorf("wal: fsync: %w", err)
		} else if target > l.flushed {
			l.flushed = target
		}
		l.syncOk.Broadcast()
	}
}

// Err reports whether the log is poisoned (see ErrBroken). Callers
// check it before applying a mutation so that a poisoned log refuses
// DML without touching state; only the single torn append itself can
// leave memory ahead of the log.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.broken
}

// Append assigns the next LSN to rec, frames it, and writes it to the
// active segment. On success the returned Commit's Wait gates the
// caller's acknowledgment. On any write failure the log is poisoned
// (see ErrBroken) and the error is returned.
func (l *Log) Append(rec Record) (Commit, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return Commit{}, l.broken
	}
	if err := l.rotateLocked(); err != nil {
		l.broken = err
		return Commit{}, err
	}
	rec.LSN = l.nextLSN
	frame := AppendRecord(nil, rec)

	if in := l.faults.Load(); in.Hit(fault.WALTear) {
		// A torn append: a random prefix of the frame reaches the OS and
		// the log is poisoned — the crash-mid-write case. Recovery
		// truncates this tail.
		cut := in.Intn(fault.WALTear, len(frame))
		l.f.Write(frame[:cut])
		l.segBytes += int64(cut)
		l.broken = fmt.Errorf("%w (injected torn append at LSN %d)", ErrBroken, rec.LSN)
		return Commit{}, l.broken
	}
	if _, err := l.f.Write(frame); err != nil {
		l.broken = fmt.Errorf("wal: append LSN %d: %v: %w", rec.LSN, err, ErrBroken)
		return Commit{}, l.broken
	}
	l.nextLSN++
	l.written = rec.LSN
	l.segBytes += int64(len(frame))
	l.appends.Add(1)
	l.appendBytes.Add(int64(len(frame)))
	return Commit{log: l, lsn: rec.LSN}, nil
}

// rotateLocked opens a fresh segment when the active one is past the
// rotation threshold. Called with mu held.
func (l *Log) rotateLocked() error {
	limit := l.opts.SegmentBytes
	if limit <= 0 {
		limit = DefaultSegmentBytes
	}
	if l.f != nil && l.segBytes < limit {
		return nil
	}
	if l.f != nil {
		if l.opts.Fsync {
			if err := l.f.Sync(); err != nil {
				return fmt.Errorf("wal: sync before rotate: %w", err)
			}
		}
		l.f.Close()
	}
	return l.openSegmentLocked(l.seq + 1)
}

// openSegmentLocked creates segment seq and makes it active.
func (l *Log) openSegmentLocked(seq uint64) error {
	f, err := os.OpenFile(segmentPath(l.dir, seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	l.f, l.seq, l.segBytes = f, seq, int64(len(segMagic))
	l.segCount++
	if l.opts.Fsync {
		syncDir(l.dir)
	}
	return nil
}

// Checkpoint writes an atomic snapshot of the database image (produced
// by write) and retires the log: the snapshot lands via
// write-temp-then-rename, every segment — all fully covered, since the
// caller holds the engine's exclusive DML lock — is deleted along with
// older snapshots, and a fresh active segment opens. A poisoned log is
// healed: the snapshot is the exact live state.
func (l *Log) Checkpoint(write func(w io.Writer) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()

	tmp, err := os.CreateTemp(l.dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("wal: checkpoint temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	crc := rowcodec.NewChecksum()
	w := io.MultiWriter(tmp, crc)
	if _, err = w.Write(binary.BigEndian.AppendUint64([]byte(snapMagic), l.nextLSN)); err == nil {
		err = write(w)
	}
	if err == nil {
		_, err = tmp.Write(binary.BigEndian.AppendUint32(nil, crc.Sum32()))
	}
	if err == nil && l.opts.Fsync {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	final := snapshotPath(l.dir, l.nextLSN)
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	if l.opts.Fsync {
		syncDir(l.dir)
	}

	// The snapshot is durable; retire everything it covers.
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	entries, _ := os.ReadDir(l.dir)
	for _, e := range entries {
		name := e.Name()
		if name == filepath.Base(final) {
			continue
		}
		if isSegmentName(name) || isSnapshotName(name) || filepath.Ext(name) == ".tmp" {
			os.Remove(filepath.Join(l.dir, name))
		}
	}
	l.segCount = 0
	l.broken = nil
	if err := l.openSegmentLocked(l.seq + 1); err != nil {
		return err
	}
	// Records before the snapshot are all durable by construction.
	l.written = l.nextLSN - 1
	l.syncMu.Lock()
	if l.written > l.flushed {
		l.flushed = l.written
	}
	l.syncErr = nil
	l.syncMu.Unlock()
	l.checkpoints.Add(1)
	l.lastCkpt.Store(time.Now().UnixNano())
	return nil
}

// Stats snapshots the counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	s := Stats{
		Segments:    l.segCount,
		ActiveBytes: l.segBytes,
		NextLSN:     l.nextLSN,
		Broken:      l.broken != nil,
	}
	l.mu.Unlock()
	s.Appends = l.appends.Load()
	s.AppendedBytes = l.appendBytes.Load()
	s.Syncs = l.syncs.Load()
	s.Checkpoints = l.checkpoints.Load()
	if ns := l.lastCkpt.Load(); ns != 0 {
		s.LastCheckpoint = time.Unix(0, ns)
	}
	return s
}

// LiveFiles lists every file under the data directory — the leak probe
// for crash tests, mirroring spill.Manager.LiveFiles. After a
// checkpoint it should name exactly one snapshot and one segment.
func (l *Log) LiveFiles() []string {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out
}

// Close releases the active segment handle. It does not checkpoint.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if l.opts.Fsync {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", seq))
}

func snapshotPath(dir string, lsn uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", lsn))
}

func isSegmentName(name string) bool {
	var seq uint64
	_, err := fmt.Sscanf(name, "wal-%d.seg", &seq)
	return err == nil && filepath.Ext(name) == ".seg"
}

func isSnapshotName(name string) bool {
	var lsn uint64
	_, err := fmt.Sscanf(name, "snap-%x.snap", &lsn)
	return err == nil && filepath.Ext(name) == ".snap"
}

// syncDir fsyncs a directory so renames and creations in it are
// durable. Errors are ignored: not all filesystems support it.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
