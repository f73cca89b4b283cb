package spill

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/qctx"
	"repro/internal/storage"
	"repro/internal/value"
)

func date(t *testing.T, s string) value.Value {
	t.Helper()
	d, err := value.ParseDate(s)
	if err != nil {
		t.Fatalf("ParseDate(%q): %v", s, err)
	}
	return value.NewDateValue(d)
}

// testRows covers every value kind, including edge values the varint
// and float encodings must round-trip exactly.
func testRows(t *testing.T) []storage.Tuple {
	return []storage.Tuple{
		{value.NewInt(0), value.NewString(""), value.Null},
		{value.NewInt(-1), value.NewString("hello"), value.NewFloat(3.25)},
		{value.NewInt(1<<62 - 1), value.NewString("a|b,c\nd"), value.NewFloat(-0.0)},
		{value.Null, value.Null, value.Null},
		{value.NewInt(42), date(t, "7-3-79"), value.NewFloat(1e300)},
	}
}

func newTestSession(t *testing.T) (*Manager, *Session) {
	t.Helper()
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return m, m.NewSession("q1")
}

func writeRun(t *testing.T, s *Session, rows []storage.Tuple) *Run {
	t.Helper()
	w, err := s.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func readAll(run *Run) ([]storage.Tuple, error) {
	rd, err := run.Open()
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	return drain(rd)
}

// drain reads rd to the end of its run.
func drain(rd *Reader) ([]storage.Tuple, error) {
	var out []storage.Tuple
	for {
		row, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, row)
	}
}

func TestRoundTrip(t *testing.T) {
	_, s := newTestSession(t)
	defer s.Close()
	rows := testRows(t)
	run := writeRun(t, s, rows)
	if run.Tuples != len(rows) {
		t.Fatalf("run.Tuples = %d, want %d", run.Tuples, len(rows))
	}
	// Runs are re-readable, by a second reader as well as by Rewind.
	for pass := 0; pass < 2; pass++ {
		got, err := readAll(run)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if len(got) != len(rows) {
			t.Fatalf("pass %d: %d rows, want %d", pass, len(got), len(rows))
		}
		for i := range rows {
			if len(got[i]) != len(rows[i]) {
				t.Fatalf("row %d: %d cols, want %d", i, len(got[i]), len(rows[i]))
			}
			for j := range rows[i] {
				if got[i][j].Kind() != rows[i][j].Kind() || got[i][j].String() != rows[i][j].String() {
					t.Fatalf("row %d col %d: got %v, want %v", i, j, got[i][j], rows[i][j])
				}
			}
		}
	}
}

// liveBytes lists the session-file offsets the run's bytes sit at.
func liveBytes(run *Run) []int64 {
	offs := make([]int64, run.Bytes)
	for i := range offs {
		offs[i] = run.slots[i/slotSize]*slotSize + int64(i%slotSize)
	}
	return offs
}

// TestEveryByteFlipDetected is the checksum's contract: flipping any
// single bit of a run's live bytes in the session file must surface as a
// typed ErrSpillCorrupt on read-back — never as silently wrong rows.
func TestEveryByteFlipDetected(t *testing.T) {
	_, s := newTestSession(t)
	defer s.Close()
	writeRun(t, s, testRows(t)).Remove() // the run under test sits in a reused slot
	run := writeRun(t, s, testRows(t)[:4])
	if len(run.slots) != 1 || run.slots[0] != 0 {
		t.Fatalf("slots = %v, want the freed slot 0", run.slots)
	}
	var b [1]byte
	for _, off := range liveBytes(run) {
		if _, err := s.f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x10
		s.f.WriteAt(b[:], off)
		_, err := readAll(run)
		b[0] ^= 0x10
		s.f.WriteAt(b[:], off)
		if err == nil {
			t.Fatalf("byte %d flipped: read-back succeeded", off)
		}
		if !errors.Is(err, qctx.ErrSpillCorrupt) {
			t.Fatalf("byte %d flipped: error %v is not ErrSpillCorrupt", off, err)
		}
	}
	if _, err := readAll(run); err != nil {
		t.Fatalf("restored file: %v", err)
	}
}

// TestTruncation: a session file cut anywhere inside a run — in the
// middle of a record or exactly between two — is corruption. The reader
// knows how many bytes and how many rows were written, so no operator has
// to count for itself.
func TestTruncation(t *testing.T) {
	_, s := newTestSession(t)
	defer s.Close()
	run := writeRun(t, s, testRows(t))
	for cut := int64(0); cut < run.Bytes; cut++ {
		if err := s.f.Truncate(cut); err != nil {
			t.Fatal(err)
		}
		if rows, err := readAll(run); !errors.Is(err, qctx.ErrSpillCorrupt) {
			t.Fatalf("cut %d: %d rows, error %v; want ErrSpillCorrupt", cut, len(rows), err)
		}
	}
}

// TestShortRunIsCorrupt: a run whose frames all verify but are fewer than
// were appended (what a cut at a record boundary looked like when every
// run was a file of its own) is typed corruption at the end of the run.
func TestShortRunIsCorrupt(t *testing.T) {
	_, s := newTestSession(t)
	defer s.Close()
	rows := testRows(t)
	whole := writeRun(t, s, rows)
	short := writeRun(t, s, rows[:3])
	short.Tuples = whole.Tuples
	got, err := readAll(short)
	if len(got) != 3 || !errors.Is(err, qctx.ErrSpillCorrupt) {
		t.Fatalf("%d rows, error %v; want 3 rows then ErrSpillCorrupt", len(got), err)
	}
}

func fileSize(t *testing.T, s *Session) int64 {
	t.Helper()
	fi, err := os.Stat(s.path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestSessionCloseRemovesFile(t *testing.T) {
	m, s := newTestSession(t)
	if n, _ := m.LiveFiles(); n != 0 {
		t.Fatalf("LiveFiles before the first flush = %d, want 0", n)
	}
	writeRun(t, s, testRows(t))
	writeRun(t, s, testRows(t))
	if n, _ := m.LiveFiles(); n != 1 || m.LiveRuns() != 2 {
		t.Fatalf("LiveFiles = %d, LiveRuns = %d; want 1 file holding 2 runs", n, m.LiveRuns())
	}
	s.Close()
	s.Close() // idempotent
	if n, _ := m.LiveFiles(); n != 0 || m.LiveRuns() != 0 {
		t.Fatalf("after Close: LiveFiles = %d, LiveRuns = %d; want 0, 0", n, m.LiveRuns())
	}
	// A writer on a closed session must not bring the file back.
	w, err := s.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	w.Append(testRows(t)[0])
	if _, err := w.Finish(); err == nil {
		t.Fatal("a run was written to a closed session")
	}
	if n, _ := m.LiveFiles(); n != 0 || m.LiveRuns() != 0 {
		t.Fatalf("writer on a closed session: LiveFiles = %d, LiveRuns = %d; want 0, 0", n, m.LiveRuns())
	}
}

func TestRunRemoveAndWriterAbort(t *testing.T) {
	m, s := newTestSession(t)
	defer s.Close()
	run := writeRun(t, s, testRows(t))
	run.Remove()
	run.Remove() // idempotent
	if m.LiveRuns() != 0 {
		t.Fatalf("LiveRuns after Remove = %d, want 0", m.LiveRuns())
	}
	if _, err := run.Open(); err == nil {
		t.Fatal("Open of a removed run succeeded")
	}
	w, err := s.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(storage.Tuple{value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if m.LiveRuns() != 1 {
		t.Fatalf("LiveRuns with a writer open = %d, want 1", m.LiveRuns())
	}
	w.Abort()
	w.Abort() // idempotent
	if m.LiveRuns() != 0 {
		t.Fatalf("LiveRuns after Abort = %d, want 0", m.LiveRuns())
	}
}

// TestSlotReuse: a removed run's slot takes the next run, so the file
// holds the live working set, not everything ever written.
func TestSlotReuse(t *testing.T) {
	_, s := newTestSession(t)
	defer s.Close()
	run := writeRun(t, s, testRows(t))
	size := fileSize(t, s)
	for i := 0; i < 5; i++ {
		run.Remove()
		run = writeRun(t, s, testRows(t))
	}
	if got := fileSize(t, s); got != size || s.end != 1 {
		t.Fatalf("file is %d bytes in %d slots after rewriting one run; was %d in 1", got, s.end, size)
	}
	if got, err := readAll(run); err != nil || len(got) != run.Tuples {
		t.Fatalf("read back %d rows, %v", len(got), err)
	}
}

// wideRows returns n rows of about width bytes each, all distinct.
func wideRows(tag string, n, width int) []storage.Tuple {
	rows := make([]storage.Tuple, n)
	for i := range rows {
		rows[i] = storage.Tuple{value.NewInt(int64(i)), value.NewString(tag + strings.Repeat("x", width))}
	}
	return rows
}

func wantRows(t *testing.T, got, want []storage.Tuple) {
	t.Helper()
	if d := storage.Diff(storage.AgreeBag, got, want); d != "" || len(got) != len(want) {
		t.Fatalf("read back %d rows, want %d: %s", len(got), len(want), d)
	}
}

// TestRemoveWhileReaderOpen: a run removed under an open reader stays
// readable to the end, whatever is written meanwhile. One file per run got
// this from unlink; the slotted file has to hold the slots back.
func TestRemoveWhileReaderOpen(t *testing.T) {
	_, s := newTestSession(t)
	defer s.Close()
	mine := wideRows("mine", 200, 1000) // four slots
	run := writeRun(t, s, mine)
	rd, err := run.Open()
	if err != nil {
		t.Fatal(err)
	}
	run.Remove()
	other := writeRun(t, s, wideRows("other", 200, 1000))
	got, err := drain(rd)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, got, mine)
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	rd.Close() // idempotent
	rest, err := readAll(other)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, rest, wideRows("other", 200, 1000))
}

// TestSlotsFreedAtLastClose is the other half: the removed run's slots
// are reused, but only once its last reader has closed.
func TestSlotsFreedAtLastClose(t *testing.T) {
	_, s := newTestSession(t)
	defer s.Close()
	run := writeRun(t, s, testRows(t))
	rd1, _ := run.Open()
	rd2, _ := run.Open()
	run.Remove()
	rd1.Close()
	if second := writeRun(t, s, testRows(t)); second.slots[0] == run.slots[0] {
		t.Fatal("slot reused while a reader was open on it")
	}
	rd2.Close()
	if third := writeRun(t, s, testRows(t)); third.slots[0] != run.slots[0] {
		t.Fatalf("slot %d not reused after the last Close (got %d)", run.slots[0], third.slots[0])
	}
}

// TestOversizedTuple: a frame larger than a slot runs on through as many
// slots as it needs — here reused ones, not adjacent in the file — and all
// of them are freed with the run.
func TestOversizedTuple(t *testing.T) {
	_, s := newTestSession(t)
	defer s.Close()
	a, b := writeRun(t, s, testRows(t)), writeRun(t, s, testRows(t))
	a.Remove()
	rows := append(testRows(t), wideRows("big", 1, 2*slotSize+100)...)
	rows = append(rows, testRows(t)...)
	run := writeRun(t, s, rows)
	b.Remove()
	if len(run.slots) != 3 || run.slots[0] != 0 || s.end != 4 {
		t.Fatalf("slots %v of %d; want three, the freed slot 0 first, of 4", run.slots, s.end)
	}
	got, err := readAll(run)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, got, rows)
	run.Remove()
	if len(s.free) != 4 {
		t.Fatalf("%d slots free after Remove, want 4", len(s.free))
	}
}

// TestConcurrentRuns: the workers of one parallel operator write and read
// their runs through one session at once (run under -race).
func TestConcurrentRuns(t *testing.T) {
	m, s := newTestSession(t)
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				rows := wideRows(fmt.Sprintf("g%d-%d-", g, i), 30+g, 500*(i%7))
				w, err := s.NewWriter()
				if err != nil {
					t.Error(err)
					return
				}
				for _, r := range rows {
					if err := w.Append(r); err != nil {
						t.Error(err)
						return
					}
				}
				run, err := w.Finish()
				if err != nil {
					t.Error(err)
					return
				}
				got, err := readAll(run)
				if d := storage.Diff(storage.AgreeBag, got, rows); err != nil || d != "" {
					t.Errorf("writer %d run %d: %v %s", g, i, err, d)
				}
				run.Remove()
			}
		}(g)
	}
	wg.Wait()
	if m.LiveRuns() != 0 || int64(len(s.free)) != s.end {
		t.Fatalf("LiveRuns = %d, %d of %d slots free; want everything returned", m.LiveRuns(), len(s.free), s.end)
	}
}

func TestRewind(t *testing.T) {
	_, s := newTestSession(t)
	defer s.Close()
	for name, rows := range map[string][]storage.Tuple{
		"one slot":    testRows(t),
		"three slots": wideRows("w", 150, 1000),
		"empty":       nil,
	} {
		run := writeRun(t, s, rows)
		rd, err := run.Open()
		if err != nil {
			t.Fatal(err)
		}
		read := func(n int) (got []storage.Tuple) {
			t.Helper()
			for len(got) < n {
				row, err := rd.Next()
				if err != nil {
					t.Fatalf("%s: row %d: %v", name, len(got), err)
				}
				got = append(got, row)
			}
			return got
		}
		read(len(rows) / 2) // mid-run, mid-slot
		rd.Rewind()
		wantRows(t, read(len(rows)), rows)
		if _, err := rd.Next(); err != io.EOF {
			t.Fatalf("%s: after the last row: %v, want io.EOF", name, err)
		}
		rd.Rewind() // after EOF
		wantRows(t, read(len(rows)), rows)
		rd.Close()
		run.Remove()
	}
}

func TestStatsFold(t *testing.T) {
	m, s := newTestSession(t)
	defer s.Close()
	run := writeRun(t, s, testRows(t))
	ss, ms := s.Stats(), m.Stats()
	if ss.Runs != 1 || ss.Bytes != run.Bytes || ss.Bytes == 0 {
		t.Fatalf("session stats = %+v, want 1 run of %d bytes", ss, run.Bytes)
	}
	if ms != ss {
		t.Fatalf("manager stats %+v != session stats %+v", ms, ss)
	}
	// A second session folds into the same manager counters.
	s2 := m.NewSession("q2")
	defer s2.Close()
	writeRun(t, s2, testRows(t))
	if got := m.Stats(); got.Runs != 2 || got.Bytes != 2*run.Bytes {
		t.Fatalf("manager stats after 2 runs = %+v", got)
	}
}

func TestNilSafety(t *testing.T) {
	var m *Manager
	var s *Session
	if m.Stats() != (Stats{}) {
		t.Fatal("nil manager not inert")
	}
	if n, err := m.LiveFiles(); n != 0 || err != nil {
		t.Fatal("nil manager LiveFiles not inert")
	}
	if m.NewSession("x") != nil {
		t.Fatal("nil manager NewSession != nil")
	}
	if s.Enabled() || s.Stats() != (Stats{}) {
		t.Fatal("nil session not inert")
	}
	s.Close()
	if _, err := s.NewWriter(); err == nil {
		t.Fatal("nil session NewWriter should error")
	}
}

func TestInjectedWriteAndReadFaults(t *testing.T) {
	m, s := newTestSession(t)
	defer s.Close()
	m.SetFaults(fault.New(fault.Plan{Seed: 1, Rates: fault.Rates{fault.SpillWrite: 1}}))
	w, err := s.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	err = w.Append(storage.Tuple{value.NewInt(1)})
	if !errors.Is(err, fault.ErrInjected) || !qctx.Retryable(err) {
		t.Fatalf("write fault = %v, want retryable injected fault", err)
	}
	w.Abort()

	m.SetFaults(nil)
	run := writeRun(t, s, testRows(t))
	m.SetFaults(fault.New(fault.Plan{Seed: 2, Rates: fault.Rates{fault.SpillRead: 1}}))
	_, err = readAll(run)
	if !errors.Is(err, fault.ErrInjected) || !qctx.Retryable(err) {
		t.Fatalf("read fault = %v, want retryable injected fault", err)
	}
	m.SetFaults(nil)
	if _, err := readAll(run); err != nil {
		t.Fatalf("clean read after removing injector: %v", err)
	}
}

func TestInjectedCorruptionCaughtByChecksum(t *testing.T) {
	m, s := newTestSession(t)
	defer s.Close()
	inj := fault.New(fault.Plan{Seed: 3, Rates: fault.Rates{fault.SpillCorrupt: 1}})
	m.SetFaults(inj)
	run := writeRun(t, s, testRows(t))
	m.SetFaults(nil)
	_, err := readAll(run)
	if !errors.Is(err, qctx.ErrSpillCorrupt) {
		t.Fatalf("corrupted run read = %v, want ErrSpillCorrupt", err)
	}
	if !qctx.Retryable(err) {
		t.Fatalf("spill corruption should be retryable, got %v", err)
	}
	if inj.Injected() == 0 {
		t.Fatal("injector reported no faults")
	}
}
