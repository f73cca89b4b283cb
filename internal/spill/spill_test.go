package spill

import (
	"errors"
	"io"
	"os"
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
	// Runs are re-readable: merge join re-opens its group run once per
	// duplicate outer key.
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

// TestEveryByteFlipDetected is the checksum's contract: flipping any
// single bit of a run file must surface as a typed ErrSpillCorrupt on
// read-back — never as silently wrong rows.
func TestEveryByteFlipDetected(t *testing.T) {
	_, s := newTestSession(t)
	defer s.Close()
	run := writeRun(t, s, testRows(t))
	orig, err := os.ReadFile(run.path)
	if err != nil {
		t.Fatal(err)
	}
	for pos := range orig {
		mut := append([]byte(nil), orig...)
		mut[pos] ^= 0x10
		if err := os.WriteFile(run.path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := readAll(run)
		if err == nil {
			t.Fatalf("byte %d flipped: read-back succeeded", pos)
		}
		if !errors.Is(err, qctx.ErrSpillCorrupt) {
			t.Fatalf("byte %d flipped: error %v is not ErrSpillCorrupt", pos, err)
		}
	}
}

// TestTruncation: a mid-record truncation is corruption; a truncation
// exactly at a record boundary reads back clean but short — operators
// that know their expected row count (merge join groups) catch that
// case themselves.
func TestTruncation(t *testing.T) {
	_, s := newTestSession(t)
	defer s.Close()
	run := writeRun(t, s, testRows(t))
	orig, err := os.ReadFile(run.path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(orig); cut++ {
		if err := os.WriteFile(run.path, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rows, err := readAll(run)
		if err == nil {
			if len(rows) >= run.Tuples {
				t.Fatalf("cut %d: full read from truncated file", cut)
			}
			continue // boundary truncation: clean but short
		}
		if !errors.Is(err, qctx.ErrSpillCorrupt) {
			t.Fatalf("cut %d: error %v is not ErrSpillCorrupt", cut, err)
		}
	}
}

func TestSessionCloseRemovesFiles(t *testing.T) {
	m, s := newTestSession(t)
	writeRun(t, s, testRows(t))
	writeRun(t, s, testRows(t))
	if n, _ := m.LiveFiles(); n != 2 {
		t.Fatalf("LiveFiles = %d, want 2", n)
	}
	s.Close()
	s.Close() // idempotent
	if n, _ := m.LiveFiles(); n != 0 {
		t.Fatalf("LiveFiles after Close = %d, want 0", n)
	}
}

func TestRunRemoveAndWriterAbort(t *testing.T) {
	m, s := newTestSession(t)
	defer s.Close()
	run := writeRun(t, s, testRows(t))
	run.Remove()
	run.Remove() // idempotent
	if n, _ := m.LiveFiles(); n != 0 {
		t.Fatalf("LiveFiles after Remove = %d, want 0", n)
	}
	w, err := s.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(storage.Tuple{value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if n, _ := m.LiveFiles(); n != 0 {
		t.Fatalf("LiveFiles after Abort = %d, want 0", n)
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
