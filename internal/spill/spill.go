// Package spill is the run manager behind graceful degradation under
// memory pressure: a buffering operator (a sort, or a merge join's
// duplicate-key group) that cannot reserve budget for its working set writes
// row runs to disk through this package and streams them back later, so
// the query gets slower but stays correct instead of dying with
// qctx.ErrMemoryBudget. A run is a sequence of rowcodec record frames
// (DESIGN.md §13), one encoded tuple each; any corruption — a flipped bit,
// a truncated tail, a missing row — is a typed qctx.ErrSpillCorrupt, never
// wrong rows.
//
// A Manager owns the spill directory and the cumulative counters; each
// query gets a Session (named by the engine's query counter) that keeps
// all its runs in one file of fixed-size slots (DESIGN.md §12), so a run
// costs the bytes it holds, not a file and two buffers of its own.
// Operators drop runs eagerly, which frees their slots for the next run;
// Session.Close removes the file — on success, cancel, timeout, or panic
// alike — so a query can never leak spill space.
package spill

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/qctx"
	"repro/internal/rowcodec"
	"repro/internal/storage"
)

// Stats counts spill activity: runs written and the frame bytes in them.
type Stats struct{ Runs, Bytes int64 }

func (s Stats) String() string { return fmt.Sprintf("%d spill runs, %d bytes", s.Runs, s.Bytes) }

// Manager owns one spill directory and the counters over every query that
// spilled into it. Safe for concurrent use; a nil Manager is inert.
type Manager struct {
	dir              string
	seq, runs, bytes atomic.Int64
	live             atomic.Int64 // see LiveRuns
	faults           atomic.Pointer[fault.Injector]
}

// NewManager creates the spill directory, if needed, and a manager on it.
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

// SetFaults arms (or, with nil, disarms) the spill sites. Safe on nil.
func (m *Manager) SetFaults(in *fault.Injector) {
	if m != nil {
		m.faults.Store(in)
	}
}

// injected is what a SpillWrite or SpillRead hit returns: spill I/O is
// plumbed with errors end to end, so the fault is one (qctx.Retryable).
func injected(op, path string) error {
	return fmt.Errorf("spill: injected %s fault on %s: %w", op, path, fault.ErrInjected)
}

// LiveFiles counts the files in the spill directory: one per open session
// that has flushed anything, so zero once no query is in flight.
func (m *Manager) LiveFiles() (int, error) {
	if m == nil {
		return 0, nil
	}
	ents, err := os.ReadDir(m.dir)
	return len(slices.DeleteFunc(ents, os.DirEntry.IsDir)), err
}

// LiveRuns counts the open sessions' runs not yet removed or aborted: what
// an operator leaks shows here while its query still runs. Safe on nil.
func (m *Manager) LiveRuns() int64 {
	if m == nil {
		return 0
	}
	return m.live.Load()
}

// NewSession opens a query's spill namespace; name is the query tag
// ("q17"). A nil manager returns a nil, inert session.
func (m *Manager) NewSession(name string) *Session {
	if m == nil {
		return nil
	}
	return &Session{m: m, path: filepath.Join(m.dir, fmt.Sprintf("%s-%d.spill", name, m.seq.Add(1)))}
}

// slotSize is the unit the session file is allocated in, and the size of
// the buffer a writer fills before it touches the file. A run is a byte
// stream cut into slots wherever they fill, so frames may straddle them.
const slotSize = 1 << 16

// buffer is one slot in memory, plus the scratch a writer encodes each
// frame in. Writers and readers draw on one pool.
type buffer struct {
	data  [slotSize]byte
	frame []byte
}

var buffers = sync.Pool{New: func() any { return new(buffer) }}

// Session holds every run one query writes in one file, created by the
// first flush and removed by Close — the backstop that makes cancel,
// timeout, and panic paths leak-free. A nil Session means no spilling.
type Session struct {
	m           *Manager
	path        string
	runs, bytes atomic.Int64

	mu     sync.Mutex // over what follows and every Run's readers and removed
	f      *os.File
	end    int64   // slots the file has grown to
	free   []int64 // slots of removed runs, reused before the file grows
	live   int64   // this session's share of Manager.live
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

// Close removes the file and with it every run the operators have not.
// Idempotent, safe on nil, and safe to race with operator Close paths
// (I/O on the session then fails, removes are ignored).
func (s *Session) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	f := s.f
	s.m.live.Add(-s.live)
	s.f, s.live, s.closed = nil, 0, true
	s.mu.Unlock()
	if f != nil {
		f.Close()
		os.Remove(s.path)
	}
}

// NewWriter starts a new run. The caller must call Finish (keeping the
// run) or Abort (discarding it); Abort after either is a no-op.
func (s *Session) NewWriter() (*Writer, error) {
	if s == nil {
		return nil, fmt.Errorf("spill: no spill session")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed { // else the first flush fails
		s.live++
		s.m.live.Add(1)
	}
	return &Writer{run: &Run{s: s}, buf: buffers.Get().(*buffer)}, nil
}

// Writer appends encoded, checksummed rows to one run: into a pooled
// buffer, and from it into a slot of the file when it fills and on Finish.
type Writer struct {
	run *Run
	buf *buffer // nil once Finish or Abort returned it
	n   int     // bytes of buf.data filled
}

// Append encodes and writes one row.
func (w *Writer) Append(t storage.Tuple) error {
	s := w.run.s
	in := s.m.faults.Load()
	if in.Hit(fault.SpillWrite) {
		return injected("write", s.path)
	}
	frame := rowcodec.AppendFrame(w.buf.frame[:0], func(b []byte) []byte { return rowcodec.AppendTuple(b, t) })
	w.buf.frame = frame
	if in.Hit(fault.SpillCorrupt) {
		// Flip a payload byte after the checksum was taken: the reader
		// must report ErrSpillCorrupt, not decode wrong rows.
		frame[len(frame)/2] ^= 0x40
	}
	w.run.Tuples++
	w.run.Bytes += int64(len(frame))
	for len(frame) > 0 {
		c := copy(w.buf.data[w.n:], frame)
		w.n, frame = w.n+c, frame[c:]
		if w.n == slotSize {
			if err := w.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush writes the buffer into a slot of the session file — a free one,
// else a new one at its end — creating the file on first use. Writes to one
// file are serial in the kernel anyway, so the lock is held across this one.
func (w *Writer) flush() (err error) {
	s := w.run.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("spill: session %s is closed", filepath.Base(s.path))
	}
	if s.f == nil {
		if s.f, err = os.OpenFile(s.path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644); err != nil {
			return fmt.Errorf("spill: %w", err)
		}
	}
	slot := s.end
	if n := len(s.free); n > 0 {
		slot, s.free = s.free[n-1], s.free[:n-1]
	} else {
		s.end++
	}
	w.run.slots = append(w.run.slots, slot) // before the write: Abort frees it either way
	if _, err := s.f.WriteAt(w.buf.data[:w.n], slot*slotSize); err != nil {
		return fmt.Errorf("spill: write %s: %w", s.path, err)
	}
	w.n = 0
	return nil
}

// Finish flushes what is buffered and returns the completed run, folded
// into the session's and manager's counters; if it fails, the run is aborted.
func (w *Writer) Finish() (*Run, error) {
	s, err := w.run.s, error(nil)
	if s.m.faults.Load().Hit(fault.SpillWrite) {
		err = injected("write", s.path)
	} else if w.n > 0 {
		err = w.flush()
	}
	if err != nil {
		w.Abort()
		return nil, err
	}
	buffers.Put(w.buf)
	w.buf = nil
	s.runs.Add(1)
	s.bytes.Add(w.run.Bytes)
	s.m.runs.Add(1)
	s.m.bytes.Add(w.run.Bytes)
	return w.run, nil
}

// Abort discards the half-written run.
func (w *Writer) Abort() {
	if w.buf != nil {
		buffers.Put(w.buf)
		w.buf = nil
		w.run.Remove()
	}
}

// Run is one completed, immutable run: Bytes of frames in the listed
// slots, the last partly filled. Any number of readers may open it, at once.
type Run struct {
	s       *Session
	slots   []int64
	Tuples  int
	Bytes   int64
	readers int
	removed bool
}

// Open starts a sequential scan of the run.
func (r *Run) Open() (*Reader, error) {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if r.removed || r.s.closed {
		return nil, fmt.Errorf("spill: open of a removed run in %s", filepath.Base(r.s.path))
	}
	r.readers++
	rd := &Reader{r: r, f: r.s.f, buf: buffers.Get().(*buffer)}
	rd.fr = rowcodec.NewFrameReader((*slotReader)(rd))
	return rd, nil
}

// Remove drops the run eagerly, keeping the file proportional to the live
// working set. Its slots are reused from now, or from when the last reader
// still open on it closes: a reader never sees another run's bytes. Idempotent.
func (r *Run) Remove() {
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.removed || s.closed {
		return
	}
	r.removed = true
	s.live--
	s.m.live.Add(-1)
	if r.readers == 0 {
		s.free = append(s.free, r.slots...)
	}
}

// Reader streams a run back, one slot in memory at a time. A checksum
// mismatch, a short file, or fewer rows than written is ErrSpillCorrupt.
type Reader struct {
	r    *Run
	f    *os.File
	fr   *rowcodec.FrameReader // over the slotReader side of this Reader
	buf  *buffer               // nil once closed
	data []byte                // the loaded slot's share of the run
	off  int                   // bytes of data consumed
	next int                   // index in r.slots to load when data runs out
	rows int
	vals rowcodec.Chunks // what the rows read back are carved from
}

// slotReader is the Reader as the byte stream its FrameReader parses.
type slotReader Reader

func (rd *slotReader) Read(p []byte) (int, error) {
	if rd.off == len(rd.data) {
		if rd.next == len(rd.r.slots) {
			return 0, io.EOF
		}
		// A short read is a truncated file: never the FrameReader's clean io.EOF.
		data := rd.buf.data[:min(slotSize, rd.r.Bytes-int64(rd.next)*slotSize)]
		if _, err := rd.f.ReadAt(data, rd.r.slots[rd.next]*slotSize); err != nil {
			return 0, fmt.Errorf("slot %d of %d: %v", rd.next, len(rd.r.slots), err)
		}
		rd.data, rd.off, rd.next = data, 0, rd.next+1
	}
	n := copy(p, rd.data[rd.off:])
	rd.off += n
	return n, nil
}

// Next decodes the next row.
func (rd *Reader) Next() (storage.Tuple, error) {
	if rd.r.s.m.faults.Load().Hit(fault.SpillRead) {
		return nil, injected("read", rd.r.s.path)
	}
	var t storage.Tuple
	payload, err := rd.fr.Next()
	if err == nil {
		// A payload holds one row, so a fresh chunk is bounded by the rows
		// and bytes left in the run, this frame's included.
		left := rd.r.Bytes - int64(rd.next-1)*slotSize - int64(rd.off) + int64(len(payload))
		t, err = rd.vals.Tuple(payload, rd.r.Tuples-rd.rows, int(left))
	}
	switch {
	case err == nil:
		rd.rows++
		return t, nil
	case err == io.EOF && rd.rows != rd.r.Tuples:
		err = fmt.Errorf("%d rows read back, %d written", rd.rows, rd.r.Tuples)
	case err == io.EOF:
		return nil, io.EOF
	}
	return nil, fmt.Errorf("spill: run in %s: %v: %w", filepath.Base(rd.r.s.path), err, qctx.ErrSpillCorrupt)
}

// Rewind restarts the scan at the first row (a merge join re-reads its
// group once per duplicate outer key); one slot is re-read from memory.
func (rd *Reader) Rewind() {
	if rd.next != 1 {
		rd.next, rd.data = 0, nil
	}
	rd.off, rd.rows = 0, 0
}

// Close returns the buffer and, as the last reader of a removed run, the
// run's slots. Idempotent.
func (rd *Reader) Close() error {
	s := rd.r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if rd.buf == nil {
		return nil
	}
	buffers.Put(rd.buf)
	rd.buf, rd.data, rd.next = nil, nil, len(rd.r.slots) // a Next after Close reads nothing
	if rd.r.readers--; rd.r.readers == 0 && rd.r.removed {
		s.free = append(s.free, rd.r.slots...)
	}
	return nil
}
