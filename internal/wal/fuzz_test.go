package wal

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// FuzzWALReplay feeds arbitrary bytes to the recovery scanner and pins
// the two invariants every mutilation of a log must preserve:
//
//   - never a panic — the scanner is total on hostile input;
//   - never a ghost commit — every record it does return decodes from a
//     CRC-valid frame, carries a strictly increasing LSN starting at or
//     above minLSN, and re-encodes to the exact payload bytes the frame
//     held, so corruption can truncate history but never rewrite it.
//
// The corpus seeds with the golden mutilations (testdata/golden), the
// record run of a database image, plus the fuzz engine's own discoveries.
func FuzzWALReplay(f *testing.F) {
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		f.Fatalf("golden corpus missing: %v", err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint64(1))
	}
	// A database image's body — a schema, then its rows cut into RecInsert
	// chunks — is this decoder's other input (engine.Restore, checkpoints).
	image := AppendRecord([]byte(segMagic), goldenRecords()[0])
	for lsn, rows := range [][]storage.Tuple{
		{intRow(1, 10), {value.Null, value.NewString("it's")}, {value.NewFloat(-2.5), mustDate(f, 1979, 7, 3)}},
		{intRow(4, 40)},
	} {
		image = AppendRecord(image, Record{LSN: uint64(lsn + 2), Type: RecInsert, Table: "T", Rows: rows})
	}
	f.Add(image, uint64(1))
	f.Add([]byte(segMagic), uint64(1))
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, minLSN uint64) {
		recs, validLen, scanErr := ScanSegment(data, minLSN)
		if validLen < 0 || validLen > len(data) {
			t.Fatalf("validLen %d outside [0, %d]", validLen, len(data))
		}
		if scanErr == nil && validLen != len(data) {
			t.Fatalf("clean scan stopped at %d of %d bytes", validLen, len(data))
		}
		prev := minLSN
		for i, r := range recs {
			if i == 0 {
				if r.LSN < minLSN {
					t.Fatalf("record 0 LSN %d below minLSN %d", r.LSN, minLSN)
				}
			} else if r.LSN != prev+1 {
				t.Fatalf("record %d LSN %d not contiguous after %d", i, r.LSN, prev)
			}
			prev = r.LSN
			// Round-trip: a returned record must re-encode to a payload
			// that decodes back to itself — the scanner cannot have
			// invented or garbled fields.
			back, err := decodePayload(appendPayload(nil, r))
			if err != nil {
				t.Fatalf("record %d does not round-trip: %v", i, err)
			}
			if back.LSN != r.LSN || back.Type != r.Type || back.SQL != r.SQL ||
				back.Table != r.Table || len(back.Rows) != len(r.Rows) {
				t.Fatalf("record %d changed across round-trip", i)
			}
		}
	})
}
