package wal

import (
	"bytes"
	"encoding/binary"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/storage"
)

// The golden corpus pins the recovery contract on concrete bytes: each
// committed file under testdata/ is the deterministic base segment with
// one specific mutilation (a torn tail, a flipped bit, a corrupt
// header), and the test asserts exactly how many records survive and
// that every survivor is identical to the original — a strict,
// ungarbled prefix, never a ghost commit. Regenerate with
// `go test -run TestGoldenCorpus -update ./internal/wal` after a
// deliberate format change; an accidental change fails the test instead.

var updateGolden = flag.Bool("update", false, "rewrite the golden WAL corpus")

// goldenRecords is the fixed content of the base segment: five records
// covering every type, with rows, NULLs-free ints, and rendered SQL.
func goldenRecords() []Record {
	recs := []Record{
		{Type: RecCreateTable, Schema: &TableSchema{
			Name: "T",
			Columns: []TableColumn{
				{Name: "K", Kind: 1},
				{Name: "V", Kind: 1},
			},
			Key:           []string{"K"},
			TuplesPerPage: 4,
		}},
		{Type: RecInsert, Table: "T", Rows: []storage.Tuple{
			intRow(1, 10), intRow(2, 20), intRow(3, 30),
		}},
		{Type: RecUpdate, SQL: "UPDATE T SET V = 99 WHERE K = 2"},
		{Type: RecInsert, Table: "T", Rows: []storage.Tuple{intRow(4, 40)}},
		{Type: RecDelete, SQL: "DELETE FROM T WHERE V = 30"},
	}
	for i := range recs {
		recs[i].LSN = uint64(i + 1)
	}
	return recs
}

// buildGoldenBase frames the base records into one segment image and
// returns it together with the start offset of every frame. It spells the
// frame out by hand, not through rowcodec.AppendFrame, so the corpus pins
// the bytes and not whatever the shared function currently writes.
func buildGoldenBase() (seg []byte, offsets []int) {
	seg = []byte(segMagic)
	for _, r := range goldenRecords() {
		offsets = append(offsets, len(seg))
		payload := appendPayload(nil, r)
		seg = binary.BigEndian.AppendUint32(seg, uint32(len(payload)))
		seg = append(seg, payload...)
		seg = binary.BigEndian.AppendUint32(seg, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	}
	return seg, offsets
}

// goldenVariant is one corpus file: a mutation of the base segment and
// the number of records that must survive its recovery scan.
type goldenVariant struct {
	name    string
	survive int  // records recovered before the scan stops
	clean   bool // scan reports no corruption (base only)
	mutate  func(seg []byte, off []int) []byte
}

func goldenVariants() []goldenVariant {
	return []goldenVariant{
		{name: "base.seg", survive: 5, clean: true,
			mutate: func(seg []byte, off []int) []byte { return seg }},
		{name: "trunc-mid-body.seg", survive: 2,
			mutate: func(seg []byte, off []int) []byte { return seg[:off[2]+7] }},
		{name: "trunc-len-prefix.seg", survive: 1,
			mutate: func(seg []byte, off []int) []byte { return seg[:off[1]+2] }},
		{name: "trunc-last-crc.seg", survive: 4,
			mutate: func(seg []byte, off []int) []byte { return seg[:len(seg)-2] }},
		{name: "trailing-zeros.seg", survive: 5,
			mutate: func(seg []byte, off []int) []byte { return append(seg, make([]byte, 12)...) }},
		{name: "bitflip-payload.seg", survive: 1,
			mutate: func(seg []byte, off []int) []byte {
				seg[off[1]+6] ^= 0x10
				return seg
			}},
		{name: "bitflip-crc.seg", survive: 3,
			mutate: func(seg []byte, off []int) []byte {
				seg[off[4]-1] ^= 0x01 // last CRC byte of record 4
				return seg
			}},
		{name: "bitflip-len.seg", survive: 0,
			mutate: func(seg []byte, off []int) []byte {
				seg[off[0]] ^= 0x80 // length prefix now exceeds maxRecordLen
				return seg
			}},
		{name: "bad-magic.seg", survive: 0,
			mutate: func(seg []byte, off []int) []byte {
				seg[0] ^= 0xFF
				return seg
			}},
	}
}

func goldenBytes(v goldenVariant) []byte {
	seg, off := buildGoldenBase()
	return v.mutate(seg, off)
}

func TestGoldenCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	want := goldenRecords()
	for _, v := range goldenVariants() {
		t.Run(v.name, func(t *testing.T) {
			path := filepath.Join(dir, v.name)
			data := goldenBytes(v)
			if *updateGolden {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			committed, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing corpus file (run with -update): %v", err)
			}
			if !bytes.Equal(committed, data) {
				t.Fatalf("committed corpus drifted from the in-code builder; "+
					"the WAL format changed (len %d vs %d)", len(committed), len(data))
			}
			recs, validLen, scanErr := ScanSegment(committed, 1)
			if v.clean && scanErr != nil {
				t.Fatalf("clean segment reported corruption: %v", scanErr)
			}
			if !v.clean && scanErr == nil {
				t.Fatal("mutilated segment scanned clean")
			}
			if len(recs) != v.survive {
				t.Fatalf("recovered %d records, want %d", len(recs), v.survive)
			}
			if validLen > len(committed) {
				t.Fatalf("validLen %d beyond segment end %d", validLen, len(committed))
			}
			// Every survivor must be the original record, bit for bit —
			// a strict prefix with nothing garbled and nothing invented.
			for i, r := range recs {
				if !reflect.DeepEqual(r, want[i]) {
					t.Fatalf("record %d garbled:\n got %+v\nwant %+v", i, r, want[i])
				}
			}
		})
	}
}
