package engine_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/rowcodec"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/workload"
)

func TestSaveRestoreRoundTrip(t *testing.T) {
	db := newDB(t, 8, workload.LoadKiessling)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := engine.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Same buffer pool size.
	if restored.Store().BufferPages() != 8 {
		t.Errorf("buffer pages = %d", restored.Store().BufferPages())
	}
	// Same query results, including NULL/date round-trips.
	for _, sql := range []string{
		workload.KiesslingQ2,
		"SELECT PNUM, QUAN, SHIPDATE FROM SUPPLY ORDER BY PNUM, QUAN",
	} {
		a := query(t, db, sql, engine.Options{Strategy: engine.TransformJA2})
		b := query(t, restored, sql, engine.Options{Strategy: engine.TransformJA2})
		if sortedRows(a) != sortedRows(b) {
			t.Errorf("%q: restored results differ:\n  %v\n  %v", sql, sortedRows(a), sortedRows(b))
		}
	}
	// Same page shapes (cost measurements reproduce).
	orig, _ := db.Store().Lookup("SUPPLY")
	rest, _ := restored.Store().Lookup("SUPPLY")
	if orig.NumPages() != rest.NumPages() || orig.NumTuples() != rest.NumTuples() {
		t.Errorf("SUPPLY shape: %d/%d pages, %d/%d tuples",
			orig.NumPages(), rest.NumPages(), orig.NumTuples(), rest.NumTuples())
	}
	// Keys survive.
	db2 := newDB(t, 8, workload.LoadSuppliers)
	buf.Reset()
	if err := db2.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored2, err := engine.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := restored2.Catalog().Lookup("S")
	if !s.IsKey("SNO") {
		t.Error("key lost in round trip")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := engine.Restore(strings.NewReader("not a snapshot")); err == nil {
		t.Error("garbage accepted")
	}
	var buf bytes.Buffer
	buf.WriteString("\x00\x01\x02")
	if _, err := engine.Restore(&buf); err == nil {
		t.Error("binary garbage accepted")
	}
}

func TestSaveRestoreWithNullsAndFloats(t *testing.T) {
	db := engine.New(4)
	if _, err := db.Exec(`
		CREATE TABLE T (A INT, B FLOAT, C VARCHAR(10), D DATE);
		INSERT INTO T VALUES (1, 2.5, 'x', 7-3-79), (NULL, NULL, NULL, NULL);
	`, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := engine.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := query(t, db, "SELECT A, B, C, D FROM T", engine.Options{})
	b := query(t, restored, "SELECT A, B, C, D FROM T", engine.Options{})
	if sortedRows(a) != sortedRows(b) {
		t.Errorf("round trip:\n  %v\n  %v", sortedRows(a), sortedRows(b))
	}
}

// chunkedDB holds one relation at 3 tuples per page whose 2,050 rows take
// three RecInsert chunks of an image (1,023 + 1,023 + 4: whole pages, then
// one that ends on a partial page), every kind and NULL among them.
func chunkedDB(t *testing.T, rows int) *engine.DB {
	t.Helper()
	db := engine.New(8)
	rel := &schema.Relation{Name: "WIDE", Key: []string{"K"}, Columns: []schema.Column{
		{Name: "K", Type: value.KindInt}, {Name: "F", Type: value.KindFloat},
		{Name: "S", Type: value.KindString}, {Name: "D", Type: value.KindDate}}}
	if err := db.CreateRelation(rel, 3); err != nil {
		t.Fatal(err)
	}
	day, err := value.NewDate(1979, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]storage.Tuple, rows)
	for i := range batch {
		batch[i] = storage.Tuple{value.NewInt(int64(i)), value.NewFloat(float64(i) / 4), value.NewString(fmt.Sprint("s", i)), value.NewDateValue(day)}
		if i%7 == 0 {
			batch[i] = storage.Tuple{value.NewInt(int64(i)), value.Null, value.Null, value.Null}
		}
	}
	if err := db.Insert("WIDE", batch...); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal("WIDE"); err != nil {
		t.Fatal(err)
	}
	return db
}

// imageRecords reads an image's records back with the exported halves of
// the format: the frame reader and the record decoder.
func imageRecords(t *testing.T, img []byte) []wal.Record {
	t.Helper()
	fr := rowcodec.NewFrameReader(bytes.NewReader(img[8:])) // past the magic
	if _, err := fr.Next(); err != nil {
		t.Fatalf("image header: %v", err)
	}
	var recs []wal.Record
	for {
		rec, err := wal.ReadRecord(fr)
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
}

func TestSaveIsDeterministic(t *testing.T) {
	db := newDB(t, 8, workload.LoadKiessling)
	if a, b := saveImage(t, db), saveImage(t, db); !bytes.Equal(a, b) {
		t.Error("two saves of one database differ")
	}
}

// TestRestoredDatabaseMeasuresTheSame is persist.go's promise: an image
// restores to a database that saves to the same bytes, has the same page
// shapes, and charges a query the same page I/O.
func TestRestoredDatabaseMeasuresTheSame(t *testing.T) {
	db, cfg := jaSeqShape(t, 10)
	img := saveImage(t, db)
	restored, err := engine.Restore(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveImage(t, restored), img) {
		t.Error("save → restore → save changed the image")
	}
	for _, name := range db.Catalog().Names() {
		a, _ := db.Store().Lookup(name)
		b, ok := restored.Store().Lookup(name)
		if !ok || a.NumPages() != b.NumPages() || a.NumTuples() != b.NumTuples() || a.TuplesPerPage() != b.TuplesPerPage() {
			t.Errorf("%s: shape changed across the round trip", name)
		}
	}
	opts := engine.Options{Strategy: engine.TransformJA2}
	sql := workload.TypeJAQuery(cfg)
	for run := 0; run < 2; run++ { // the second run starts from the pool state the first left
		a, b := query(t, db, sql, opts), query(t, restored, sql, opts)
		if a.Stats != b.Stats || a.Stats.Total() == 0 {
			t.Errorf("run %d: page I/O %v on the original, %v on the restored database", run, a.Stats, b.Stats)
		}
		if sortedRows(a) != sortedRows(b) {
			t.Errorf("run %d: results differ", run)
		}
	}
}

func TestSaveChunksOnPageBoundaries(t *testing.T) {
	db := chunkedDB(t, 2050)
	img := saveImage(t, db)
	var chunks []int
	for _, rec := range imageRecords(t, img) {
		if rec.Type == wal.RecInsert {
			chunks = append(chunks, len(rec.Rows))
		}
	}
	if fmt.Sprint(chunks) != "[1023 1023 4]" {
		t.Fatalf("insert chunks = %v, want [1023 1023 4]", chunks)
	}
	restored, err := engine.Restore(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := db.Store().Lookup("WIDE")
	f, _ := restored.Store().Lookup("WIDE")
	if f.NumTuples() != 2050 || f.NumPages() != orig.NumPages() {
		t.Errorf("restored %d tuples on %d pages, want 2050 on %d", f.NumTuples(), f.NumPages(), orig.NumPages())
	}
	// Every page is written once: no chunk's Seal re-counted a partial page.
	if w := restored.Store().Stats().Writes; w != int64(f.NumPages()) {
		t.Errorf("restore charged %d page writes for %d pages", w, f.NumPages())
	}
	a := query(t, db, "SELECT K, F, S, D FROM WIDE", engine.Options{})
	b := query(t, restored, "SELECT K, F, S, D FROM WIDE", engine.Options{})
	if sortedRows(a) != sortedRows(b) {
		t.Error("rows changed across the round trip")
	}
	if !bytes.Equal(saveImage(t, restored), img) {
		t.Error("save → restore → save changed the image")
	}
}

// TestRestoreRefusesDamagedImages: every prefix, every flipped byte, a
// length prefix past the cap, trailing bytes and a v1 (gob) image are
// each an error, and none leaves a database behind.
func TestRestoreRefusesDamagedImages(t *testing.T) {
	img := saveImage(t, chunkedDB(t, 10))
	refused := func(what string, data []byte) {
		t.Helper()
		if db, err := engine.Restore(bytes.NewReader(data)); err == nil || db != nil {
			t.Errorf("%s: restored (db %v, err %v)", what, db != nil, err)
		}
	}
	for cut := 0; cut < len(img); cut++ {
		refused(fmt.Sprint("truncated to ", cut, " of ", len(img)), img[:cut])
	}
	for i := range img {
		bad := bytes.Clone(img)
		bad[i] ^= 0x10
		refused(fmt.Sprint("bit flipped in byte ", i), bad)
	}
	hdr := 8 + 4 + int(binary.BigEndian.Uint32(img[8:])) + 4 // magic and header frame
	oversized := bytes.Clone(img)
	binary.BigEndian.PutUint32(oversized[hdr:], rowcodec.MaxLen+1)
	refused("first record's length past the cap", oversized)
	refused("bytes after the last record", append(bytes.Clone(img), 0))
	refused("a second image after the first", append(bytes.Clone(img), img...))

	// An image holds schemas and rows only: a well-framed statement record
	// is not replayed.
	stmt := rowcodec.AppendFrame([]byte("NSQLIMG2"), func(b []byte) []byte { return append(b, 8, 2) }) // B = 8, two records
	stmt = wal.AppendRecord(stmt, wal.Record{Type: wal.RecCreateTable, Schema: &wal.TableSchema{
		Name: "T", Columns: []wal.TableColumn{{Name: "K", Kind: uint8(value.KindInt)}}}})
	refused("one record where the header promises two", stmt)
	row := wal.Record{Type: wal.RecInsert, Table: "T", Rows: []storage.Tuple{{value.NewInt(1)}}}
	if _, err := engine.Restore(bytes.NewReader(wal.AppendRecord(bytes.Clone(stmt), row))); err != nil {
		t.Fatalf("hand-built image with a row record: %v", err)
	}
	refused("a DROP record in an image", wal.AppendRecord(bytes.Clone(stmt), wal.Record{Type: wal.RecDrop, Table: "T"}))

	v1, err := os.ReadFile(filepath.Join("testdata", "v1-image.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Restore(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "gob") {
		t.Errorf("v1 gob image: %v, want an error naming the format", err)
	}
}

// TestSaveAllocBudget: Save streams. Eight times the rows may not
// allocate more than the one chunk both databases fill — the encoded
// frame and the row slice — allows.
func TestSaveAllocBudget(t *testing.T) {
	measure := func(rows int) (mallocs, bytes uint64) {
		db := chunkedDB(t, rows)
		mallocs = ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := db.Save(io.Discard)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if m := after.Mallocs - before.Mallocs; m < mallocs {
				mallocs, bytes = m, after.TotalAlloc-before.TotalAlloc
			}
		}
		return mallocs, bytes
	}
	m2, b2 := measure(2 * 1023)
	m16, b16 := measure(16 * 1023)
	if m16 > m2+4 || b16 > b2+4096 {
		t.Errorf("Save of 8x the rows: %d allocations (%d bytes), against %d (%d bytes)", m16, b16, m2, b2)
	}
}
