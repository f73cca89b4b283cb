package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/rowcodec"
	"repro/internal/storage"
	"repro/internal/wal"
)

// A database image — what Save writes, Restore and -open read, and a
// checkpoint holds — is the database as a run of the records the log
// already knows (DESIGN.md §13):
//
//	"NSQLIMG2" | frame(uvarint buffer pages, uvarint records) | frame(record)...
//
// per relation one RecCreateTable, then its rows in heap order as
// RecInsert records of whole pages, about imageChunkRows rows each — so
// the Seal that follows every insert on replay never re-counts a partial
// page and a restored database measures the same costs. Loading an image
// is replaying it through applyRecord, the loader of the WAL tail; the
// record count up front makes an image cut short at a frame boundary an
// error rather than a smaller database.
const (
	imageMagic     = "NSQLIMG2"
	imageChunkRows = 1024
)

// chunkPages is how many of f's pages one RecInsert of an image carries.
func chunkPages(f *storage.HeapFile) int { return max(1, imageChunkRows/f.TuplesPerPage()) }

// Save writes an image of the database, streaming each relation from
// its heap file a chunk at a time. Reading the rows goes through the
// buffer pool and is charged like any other scan; snapshot outside
// measured query windows.
func (db *DB) Save(w io.Writer) error {
	var files []*storage.HeapFile
	records := 0
	for _, name := range db.cat.Names() {
		if strings.Contains(name, "#") {
			// A per-query TEMPn#qN materialization: transient by
			// definition, never part of a snapshot. None should exist
			// when snapshotting under the exclusive DML lock; this is a
			// belt against an abandoned temp from a failed query.
			continue
		}
		f, ok := db.store.Lookup(name)
		if !ok {
			return fmt.Errorf("engine: relation %s has no storage", name)
		}
		files = append(files, f)
		records += 1 + (f.NumPages()+chunkPages(f)-1)/chunkPages(f)
	}
	buf := rowcodec.AppendFrame([]byte(imageMagic), func(b []byte) []byte {
		b = binary.AppendUvarint(b, uint64(db.store.BufferPages()))
		return binary.AppendUvarint(b, uint64(records))
	})
	if _, err := w.Write(buf); err != nil {
		return err
	}
	emit := func(rec wal.Record) error {
		buf = wal.AppendRecord(buf[:0], rec)
		records--
		_, err := w.Write(buf)
		return err
	}
	var rows []storage.Tuple
	for _, f := range files {
		rel, _ := db.cat.Lookup(f.Name())
		if err := emit(wal.Record{Type: wal.RecCreateTable, Schema: tableSchema(rel, f.TuplesPerPage())}); err != nil {
			return err
		}
		for p, n, step := 0, f.NumPages(), chunkPages(f); p < n; p += step {
			rows = rows[:0]
			for q := p; q < min(p+step, n); q++ {
				rows = append(rows, f.ReadPage(q)...)
			}
			if err := emit(wal.Record{Type: wal.RecInsert, Table: rel.Name, Rows: rows}); err != nil {
				return err
			}
		}
	}
	if records != 0 {
		return errors.New("engine: save: the database changed while it was being saved")
	}
	return nil
}

// Restore reads an image written by Save into a new database.
func Restore(r io.Reader) (*DB, error) {
	var db *DB
	if err := readImage(r, func(bufferPages int) *DB { db = New(bufferPages); return db }); err != nil {
		return nil, fmt.Errorf("engine: restore: %w", err)
	}
	return db, nil
}

// readImage replays the image in r into the empty database that open
// returns for the image's buffer pool size. Anything but a whole, verified
// image is an error, and open's database is then to be thrown away; the
// caller must keep WAL logging off while it runs.
func readImage(r io.Reader, open func(bufferPages int) *DB) error {
	var magic [len(imageMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || string(magic[:]) != imageMagic {
		return errors.New("not a " + imageMagic + " database image (the gob snapshots and checkpoints written before PR 19 are not readable)")
	}
	fr := rowcodec.NewFrameReader(r)
	hdr, err := fr.Next()
	if err != nil {
		return fmt.Errorf("image header: %w", err)
	}
	pages, n := binary.Uvarint(hdr)
	records, m := binary.Uvarint(hdr[max(n, 0):])
	if n <= 0 || m <= 0 || n+m != len(hdr) {
		return errors.New("image header: malformed")
	}
	db := open(int(pages))
	for i := uint64(1); i <= records; i++ {
		rec, err := wal.ReadRecord(fr)
		if err == nil && rec.Type != wal.RecCreateTable && rec.Type != wal.RecInsert {
			err = errors.New("not a schema or a chunk of rows")
		}
		if err == nil {
			err = contain(func() error { return db.applyRecord(rec) })
		}
		if err != nil {
			return fmt.Errorf("image record %d of %d: %w", i, records, err)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		return fmt.Errorf("data after the image's %d record(s)", records)
	}
	return nil
}
