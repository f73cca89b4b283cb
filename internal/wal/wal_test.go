package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/value"
)

func intRow(vals ...int64) storage.Tuple {
	t := make(storage.Tuple, len(vals))
	for i, v := range vals {
		t[i] = value.NewInt(v)
	}
	return t
}

// appendN appends n insert records and waits for each commit.
func appendN(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		c, err := l.Append(Record{Type: RecInsert, Table: "T", Rows: []storage.Tuple{intRow(int64(i), int64(i*10))}})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if err := c.Wait(); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
	}
}

func TestAppendRecoverRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotPayload != nil || len(rec.Records) != 0 {
		t.Fatalf("expected fresh recovery, got %+v", rec)
	}
	types := []Record{
		{Type: RecCreateTable, Schema: &TableSchema{
			Name:    "T",
			Columns: []TableColumn{{Name: "K", Kind: uint8(value.KindInt)}, {Name: "S", Kind: uint8(value.KindString)}},
			Key:     []string{"K"},
		}},
		{Type: RecInsert, Table: "T", Rows: []storage.Tuple{
			intRow(1, 2),
			{value.Null, value.NewString("it's")},
			{value.NewFloat(2.5), mustDate(t, 1979, 7, 3)},
		}},
		{Type: RecDelete, SQL: "DELETE FROM T WHERE K = 1"},
		{Type: RecUpdate, SQL: "UPDATE T SET S = 'x' WHERE K = 2"},
	}
	for i, r := range types {
		c, err := l.Append(r)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if got, want := c.LSN(), uint64(i+1); got != want {
			t.Fatalf("LSN = %d, want %d", got, want)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	_, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Records) != len(types) {
		t.Fatalf("recovered %d records, want %d", len(rec2.Records), len(types))
	}
	for i, r := range rec2.Records {
		want := types[i]
		if r.LSN != uint64(i+1) || r.Type != want.Type {
			t.Fatalf("record %d = %+v", i, r)
		}
		switch r.Type {
		case RecCreateTable:
			if r.Schema.Name != "T" || len(r.Schema.Columns) != 2 ||
				r.Schema.Columns[1].Name != "S" || len(r.Schema.Key) != 1 {
				t.Fatalf("schema did not round-trip: %+v", r.Schema)
			}
		case RecInsert:
			if r.Table != "T" || len(r.Rows) != 3 || r.Rows[1][1].Str() != "it's" {
				t.Fatalf("insert did not round-trip: %+v", r)
			}
		case RecDelete, RecUpdate:
			if r.SQL != want.SQL {
				t.Fatalf("SQL did not round-trip: %q", r.SQL)
			}
		}
	}
}

func mustDate(t testing.TB, y, m, d int) value.Value {
	t.Helper()
	dt, err := value.NewDate(y, m, d)
	if err != nil {
		t.Fatal(err)
	}
	return value.NewDateValue(dt)
}

func TestGroupCommitConcurrentAppenders(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const writers, per = 8, 25
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c, err := l.Append(Record{Type: RecInsert, Table: "T", Rows: []storage.Tuple{intRow(int64(w), int64(i))}})
				if err != nil {
					errc <- err
					return
				}
				if err := c.Wait(); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appends != writers*per {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*per)
	}
	// Group commit: far fewer fsyncs than commits is the whole point.
	if st.Syncs >= st.Appends {
		t.Fatalf("no batching: %d syncs for %d appends", st.Syncs, st.Appends)
	}
	l.Close()
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != writers*per {
		t.Fatalf("recovered %d, want %d", len(rec.Records), writers*per)
	}
}

func TestSegmentRotationAndContinuity(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 64)
	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("expected rotation, got %d segment(s)", st.Segments)
	}
	l.Close()
	_, rec, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 64 {
		t.Fatalf("recovered %d records across segments, want 64", len(rec.Records))
	}
	for i, r := range rec.Records {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
}

func TestCheckpointPrunesEverything(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 40)
	image := []byte("fake database image v1")
	if err := l.Checkpoint(func(w io.Writer) error { _, err := w.Write(image); return err }); err != nil {
		t.Fatal(err)
	}
	files := l.LiveFiles()
	if len(files) != 2 {
		t.Fatalf("after checkpoint want exactly snapshot+segment, got %v", files)
	}
	var snaps, segsN int
	for _, f := range files {
		switch {
		case isSnapshotName(f):
			snaps++
		case isSegmentName(f):
			segsN++
		default:
			t.Fatalf("unexpected file %s", f)
		}
	}
	if snaps != 1 || segsN != 1 {
		t.Fatalf("want 1 snapshot + 1 segment, got %v", files)
	}
	// Post-checkpoint appends land in the fresh segment and recovery
	// stitches snapshot + tail back together.
	appendN(t, l, 5)
	l.Close()
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.SnapshotPayload, image) {
		t.Fatalf("snapshot payload did not round-trip: %q", rec.SnapshotPayload)
	}
	if rec.SnapshotLSN != 41 {
		t.Fatalf("snapshot LSN = %d, want 41", rec.SnapshotLSN)
	}
	if len(rec.Records) != 5 || rec.Records[0].LSN != 41 {
		t.Fatalf("tail = %+v", rec.Records)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 10)
	seg := filepath.Join(dir, "wal-00000001.seg")
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Cut the last record mid-frame.
	if err := os.Truncate(seg, st.Size()-7); err != nil {
		t.Fatal(err)
	}
	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 9 {
		t.Fatalf("recovered %d records after torn tail, want 9", len(rec.Records))
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("expected truncated bytes to be counted")
	}
	// The log must keep accepting appends at the right LSN.
	c, err := l2.Append(Record{Type: RecInsert, Table: "T", Rows: []storage.Tuple{intRow(99)}})
	if err != nil {
		t.Fatal(err)
	}
	if c.LSN() != 10 {
		t.Fatalf("resumed at LSN %d, want 10", c.LSN())
	}
	l2.Close()
	_, rec3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec3.Records) != 10 {
		t.Fatalf("recovered %d after resume, want 10", len(rec3.Records))
	}
}

func TestBitFlipTruncatesFromFlip(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 10)
	l.Close()
	seg := filepath.Join(dir, "wal-00000001.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) >= 10 {
		t.Fatalf("corrupt record not dropped: recovered %d", len(rec.Records))
	}
	for i, r := range rec.Records {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d — ghost after corruption", i, r.LSN)
		}
		if len(r.Rows) != 1 || r.Rows[0][0].Int() != int64(i) {
			t.Fatalf("record %d garbled: %+v", i, r)
		}
	}
}

func TestTornAppendPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5)
	l.SetFaults(fault.New(fault.Plan{Seed: 7, Max: 1, Rates: fault.Rates{fault.WALTear: 1}}))
	_, err = l.Append(Record{Type: RecInsert, Table: "T", Rows: []storage.Tuple{intRow(6)}})
	if !errors.Is(err, ErrBroken) {
		t.Fatalf("torn append error = %v, want ErrBroken", err)
	}
	// Poisoned: further appends refused even though the injector is done.
	if _, err := l.Append(Record{Type: RecInsert, Table: "T"}); !errors.Is(err, ErrBroken) {
		t.Fatalf("append after poison = %v, want ErrBroken", err)
	}
	if !l.Stats().Broken {
		t.Fatal("stats should report broken")
	}
	// A checkpoint heals the log.
	if err := l.Checkpoint(func(w io.Writer) error { _, err := w.Write([]byte("img")); return err }); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Broken {
		t.Fatal("checkpoint did not heal the log")
	}
	appendN(t, l, 2)
	l.Close()
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.SnapshotPayload) != "img" || len(rec.Records) != 2 {
		t.Fatalf("recovery after heal = %+v", rec)
	}
}

func TestTornAppendRecoversAckedPrefix(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 7)
	l.SetFaults(fault.New(fault.Plan{Seed: 3, Max: 1, Rates: fault.Rates{fault.WALTear: 1}}))
	l.Append(Record{Type: RecInsert, Table: "T", Rows: []storage.Tuple{intRow(100)}})
	l.Close()
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The 7 acked records must all survive; the torn 8th must not
	// appear in any garbled form.
	if len(rec.Records) != 7 {
		t.Fatalf("recovered %d, want exactly the 7 acked", len(rec.Records))
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3)
	if err := l.Checkpoint(func(w io.Writer) error { _, err := w.Write([]byte("good")); return err }); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2)
	l.Close()
	// Plant a newer snapshot with a bad checksum: recovery must ignore
	// and delete it, falling back to the good one.
	bad := snapshotPath(dir, 99)
	if err := os.WriteFile(bad, []byte(snapMagic+"garbagegarbagegarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.SnapshotPayload) != "good" {
		t.Fatalf("snapshot payload = %q, want the older valid one", rec.SnapshotPayload)
	}
	if rec.DroppedSnaps != 1 {
		t.Fatalf("DroppedSnaps = %d, want 1", rec.DroppedSnaps)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatal("corrupt snapshot not deleted")
	}
	if len(rec.Records) != 2 {
		t.Fatalf("tail records = %d, want 2", len(rec.Records))
	}
}

func TestStaleSegmentsAfterCheckpointCrash(t *testing.T) {
	// Simulate a crash between the snapshot rename and the segment
	// deletion: stale segments (all LSNs below the snapshot) must be
	// scrubbed, not replayed.
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4)
	seg := filepath.Join(dir, "wal-00000001.seg")
	keep, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(func(w io.Writer) error { _, err := w.Write([]byte("img")); return err }); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Resurrect the pre-checkpoint segment, as if deletion never ran.
	if err := os.WriteFile(seg, keep, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("stale records replayed: %+v", rec.Records)
	}
	if string(rec.SnapshotPayload) != "img" {
		t.Fatalf("snapshot payload = %q", rec.SnapshotPayload)
	}
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Fatal("stale segment not scrubbed")
	}
}

func TestTmpFilesScrubbedOnOpen(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snap-12345.tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range l.LiveFiles() {
		if strings.HasSuffix(f, ".tmp") {
			t.Fatalf("tmp file survived open: %s", f)
		}
	}
}

func TestStatsString(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1)
	s := l.Stats()
	if s.Segments != 1 || s.NextLSN != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if str := s.String(); !strings.Contains(str, "1 segment(s)") || !strings.Contains(str, "never") {
		t.Fatalf("stats string = %q", str)
	}
	if err := l.Checkpoint(func(w io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if str := l.Stats().String(); strings.Contains(str, "never") {
		t.Fatalf("checkpoint age missing: %q", str)
	}
}

func TestSegmentNameParsing(t *testing.T) {
	for name, want := range map[string]bool{
		"wal-00000001.seg":       true,
		"snap-000000000029.snap": false,
		"wal-xx.seg":             false,
		"other.txt":              false,
	} {
		if got := isSegmentName(name); got != want {
			t.Errorf("isSegmentName(%q) = %v", name, got)
		}
	}
	if !isSnapshotName(fmt.Sprintf("snap-%016x.snap", uint64(41))) {
		t.Error("snapshot name not recognized")
	}
}
