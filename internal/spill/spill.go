// Package spill is the run-file manager behind graceful degradation
// under memory pressure: when a buffering operator (hash join build,
// hash aggregation, sort) cannot reserve budget for its working set, it
// writes row runs to disk through this package and streams them back
// later, so the query degrades to slower-but-correct instead of dying
// with qctx.ErrMemoryBudget.
//
// A run file is a sequence of rowcodec record frames (DESIGN.md §13),
// one encoded tuple per payload. Any corruption — a flipped bit, a
// short write, a truncated tail — surfaces as a typed error wrapping
// qctx.ErrSpillCorrupt, never as wrong rows.
//
// Lifecycle: a Manager owns the spill directory and the cumulative
// counters; each query gets a Session namespaced by query id (mirroring
// the TEMPn#qN temp-table scheme). Operators create runs through the
// session and drop them eagerly when consumed; Session.Close removes
// everything that survived — on success, cancel, timeout, or panic
// alike — so a query can never leak spill files.
package spill

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/qctx"
	"repro/internal/rowcodec"
	"repro/internal/storage"
)

// Stats counts spill activity: run files written and payload bytes in
// them. Per-query sessions and the manager both expose a snapshot.
type Stats struct {
	Runs  int64
	Bytes int64
}

func (s Stats) String() string {
	return fmt.Sprintf("%d spill runs, %d bytes", s.Runs, s.Bytes)
}

// Manager owns one spill directory and the cumulative counters across
// every query that spilled into it. All methods are safe for concurrent
// use; a nil Manager is inert.
type Manager struct {
	dir    string
	seq    atomic.Int64
	runs   atomic.Int64
	bytes  atomic.Int64
	faults atomic.Pointer[fault.Injector]
}

// NewManager creates (if needed) the spill directory and returns a
// manager rooted there.
func NewManager(dir string) (*Manager, error) {
	if dir == "" {
		return nil, fmt.Errorf("spill: empty spill directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	return &Manager{dir: dir}, nil
}

// Stats snapshots the cumulative counters. Safe on nil.
func (m *Manager) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	return Stats{Runs: m.runs.Load(), Bytes: m.bytes.Load()}
}

// SetFaults arms (or, with nil, disarms) the spill sites on every
// subsequent run-file read and write. Safe on nil.
func (m *Manager) SetFaults(in *fault.Injector) {
	if m != nil {
		m.faults.Store(in)
	}
}

// injected is what a SpillWrite or SpillRead hit returns: unlike storage,
// spill I/O is plumbed with errors end to end, so the fault is returned,
// in the transient family (qctx.Retryable).
func injected(op, path string) error {
	return fmt.Errorf("spill: injected %s fault on %s: %w", op, path, fault.ErrInjected)
}

// LiveFiles counts the files currently present in the spill directory —
// the leak-check invariant is zero once no query is in flight.
func (m *Manager) LiveFiles() (int, error) {
	if m == nil {
		return 0, nil
	}
	ents, err := os.ReadDir(m.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() {
			n++
		}
	}
	return n, nil
}

// NewSession opens a per-query spill namespace; name is the query tag
// (for example "q17", matching the TEMPn#q17 temp-table suffix). Safe on
// a nil manager, which returns a nil (inert) session.
func (m *Manager) NewSession(name string) *Session {
	if m == nil {
		return nil
	}
	return &Session{m: m, name: name, files: make(map[string]struct{})}
}

// Session tracks every run file one query creates so that Close can
// remove whatever the operators have not already dropped — the backstop
// that makes cancel, timeout, and panic paths leak-free. A nil Session
// means "spilling disabled" and every method is a safe no-op; operators
// only consult it after qctx.ReserveBuffered refuses a reservation.
type Session struct {
	m    *Manager
	name string

	runs  atomic.Int64
	bytes atomic.Int64

	mu     sync.Mutex
	files  map[string]struct{}
	closed bool
}

// Enabled reports whether spilling is available (non-nil session).
func (s *Session) Enabled() bool { return s != nil }

// Stats snapshots this query's spill counters. Safe on nil.
func (s *Session) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{Runs: s.runs.Load(), Bytes: s.bytes.Load()}
}

// Close removes every run file the session still tracks. Idempotent,
// safe on nil, and safe to race with operator Close paths (double
// removes are ignored).
func (s *Session) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	paths := make([]string, 0, len(s.files))
	for p := range s.files {
		paths = append(paths, p)
	}
	s.files = nil
	s.mu.Unlock()
	for _, p := range paths {
		os.Remove(p)
	}
}

// track registers a newly-created file; forget stops tracking one that
// an operator removed eagerly.
func (s *Session) track(path string) {
	s.mu.Lock()
	if !s.closed {
		s.files[path] = struct{}{}
	}
	s.mu.Unlock()
}

func (s *Session) forget(path string) {
	s.mu.Lock()
	if !s.closed {
		delete(s.files, path)
	}
	s.mu.Unlock()
}

// Run buffers are pooled: a fresh 64 KiB bufio buffer per run written and
// per Open was 96% of a forced-spill query's allocated bytes.
var (
	writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 1<<16) }}
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 1<<16) }}
)

// NewWriter opens a new run file for writing. The caller must call
// Finish (keeping the run) or Abort (discarding it) exactly once.
func (s *Session) NewWriter() (*Writer, error) {
	if s == nil {
		return nil, fmt.Errorf("spill: no spill session")
	}
	path := filepath.Join(s.m.dir, fmt.Sprintf("%s-%d.run", s.name, s.m.seq.Add(1)))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	s.track(path)
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(f)
	return &Writer{s: s, f: f, bw: bw, path: path}, nil
}

// Writer appends encoded, checksummed rows to one run file.
type Writer struct {
	s      *Session
	f      *os.File
	bw     *bufio.Writer // pooled; nil once Finish or Abort returned it
	path   string
	tuples int
	bytes  int64
	frame  []byte // reused across rows
}

// Append encodes and writes one row.
func (w *Writer) Append(t storage.Tuple) error {
	in := w.s.m.faults.Load()
	if in.Hit(fault.SpillWrite) {
		return injected("write", w.path)
	}
	w.frame = rowcodec.AppendFrame(w.frame[:0], func(b []byte) []byte { return rowcodec.AppendTuple(b, t) })
	if in.Hit(fault.SpillCorrupt) {
		// Flip the payload's middle byte after the checksum was taken:
		// the reader's CRC verification must surface ErrSpillCorrupt — a
		// run that decodes wrong rows instead is a test failure.
		w.frame[len(w.frame)/2] ^= 0x40
	}
	if _, err := w.bw.Write(w.frame); err != nil {
		return fmt.Errorf("spill: write %s: %w", w.path, err)
	}
	w.tuples++
	w.bytes += int64(len(w.frame))
	return nil
}

// Finish flushes and closes the file, returning the completed run and
// folding its size into the session and manager counters.
func (w *Writer) Finish() (*Run, error) {
	defer w.releaseBuffer()
	if w.s.m.faults.Load().Hit(fault.SpillWrite) {
		w.f.Close()
		return nil, injected("write", w.path)
	}
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return nil, fmt.Errorf("spill: flush %s: %w", w.path, err)
	}
	if err := w.f.Close(); err != nil {
		return nil, fmt.Errorf("spill: close %s: %w", w.path, err)
	}
	w.s.runs.Add(1)
	w.s.bytes.Add(w.bytes)
	w.s.m.runs.Add(1)
	w.s.m.bytes.Add(w.bytes)
	return &Run{s: w.s, path: w.path, Tuples: w.tuples, Bytes: w.bytes}, nil
}

// Abort discards the half-written run.
func (w *Writer) Abort() {
	w.releaseBuffer()
	w.f.Close()
	os.Remove(w.path)
	w.s.forget(w.path)
}

// releaseBuffer returns the write buffer to the pool, once: callers abort
// a writer whose Finish failed.
func (w *Writer) releaseBuffer() {
	if w.bw != nil {
		w.bw.Reset(nil)
		writerPool.Put(w.bw)
		w.bw = nil
	}
}

// Run is one completed, immutable run file. It can be opened for
// reading any number of times (merge-join groups re-read theirs once
// per duplicate outer key).
type Run struct {
	s      *Session
	path   string
	Tuples int
	Bytes  int64
}

// Open starts a sequential scan of the run.
func (r *Run) Open() (*Reader, error) {
	f, err := os.Open(r.path)
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(f)
	return &Reader{r: r, f: f, br: br, fr: rowcodec.NewFrameReader(br)}, nil
}

// Remove deletes the run file eagerly (the session Close would get it
// anyway; eager removal keeps disk usage proportional to the live
// working set). Idempotent.
func (r *Run) Remove() {
	os.Remove(r.path)
	r.s.forget(r.path)
}

// Reader streams a run back. Next returns io.EOF cleanly at the end of
// the run; any checksum mismatch, impossible length, or mid-record
// truncation returns an error wrapping qctx.ErrSpillCorrupt.
type Reader struct {
	r  *Run
	f  *os.File
	br *bufio.Reader // pooled; nil once Close returned it
	fr *rowcodec.FrameReader
}

// Next decodes the next row.
func (rd *Reader) Next() (storage.Tuple, error) {
	if rd.r.s.m.faults.Load().Hit(fault.SpillRead) {
		return nil, injected("read", rd.r.path)
	}
	payload, err := rd.fr.Next()
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, corruptf(rd.r.path, "%v", err)
	}
	t, err := rowcodec.DecodeTuple(payload)
	if err != nil {
		return nil, corruptf(rd.r.path, "%v", err)
	}
	return t, nil
}

// Rewind restarts the scan at the run's first row: a merge join re-reads
// its spilled group once per duplicate outer key through one Reader.
func (rd *Reader) Rewind() error {
	if _, err := rd.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("spill: rewind %s: %w", rd.r.path, err)
	}
	rd.br.Reset(rd.f)
	return nil
}

// Close releases the file handle and the read buffer. Idempotent.
func (rd *Reader) Close() error {
	if rd.br == nil {
		return nil
	}
	rd.br.Reset(nil)
	readerPool.Put(rd.br)
	rd.br = nil
	return rd.f.Close()
}

func corruptf(path, format string, args ...any) error {
	return fmt.Errorf("spill: run %s: %s: %w", filepath.Base(path), fmt.Sprintf(format, args...), qctx.ErrSpillCorrupt)
}
