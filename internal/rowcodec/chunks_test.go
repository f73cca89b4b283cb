package rowcodec_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/rowcodec"
	"repro/internal/spill"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/wire"
)

// TestDecodedRowsShareCappedChunks: the three decoders that turn bytes
// back into rows — a spill run read back, a wire row batch, a WAL insert
// record — carve them from shared chunks. A thousand one-column rows cost
// about ten allocations, not a thousand; every row is capped, so an
// append to one leaves its neighbour alone; and a rewound spill reader
// reads back the same values without touching the rows it handed out.
func TestDecodedRowsShareCappedChunks(t *testing.T) {
	const n = 1000
	rows := make([]storage.Tuple, n)
	for i := range rows {
		rows[i] = storage.Tuple{value.NewInt(int64(i))}
	}

	m, err := spill.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sess := m.NewSession("q1")
	defer sess.Close()
	w, err := sess.NewWriter()
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
	readRun := func(rd *spill.Reader, out []storage.Tuple) []storage.Tuple {
		for {
			row, err := rd.Next()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, row)
		}
	}

	batch := wire.EncodeRowBatch(wire.RowBatch{Columns: []string{"K"}, Rows: rows})
	record := wal.AppendRecord(nil, wal.Record{Type: wal.RecInsert, Table: "T", Rows: rows})
	var src bytes.Reader
	fr := rowcodec.NewFrameReader(&src) // one reader, so its frame buffer is not counted

	out := make([]storage.Tuple, 0, n)
	for _, c := range []struct {
		name   string
		decode func() []storage.Tuple
	}{
		{"spill run", func() []storage.Tuple {
			rd, err := run.Open()
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			return readRun(rd, out[:0])
		}},
		{"row batch", func() []storage.Tuple {
			b, err := wire.DecodeRowBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			return b.Rows
		}},
		{"insert record", func() []storage.Tuple {
			src.Reset(record)
			rec, err := wal.ReadRecord(fr)
			if err != nil {
				t.Fatal(err)
			}
			return rec.Rows
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if a := testing.AllocsPerRun(5, func() { c.decode() }); a > 15 {
				t.Errorf("decoding %d rows took %.0f allocations, want at most 15", n, a)
			}
			got := append([]storage.Tuple(nil), c.decode()...)
			checkRows(t, got, rows)
			for i := range got[:n-1] {
				if len(got[i]) != cap(got[i]) {
					t.Fatalf("row %d: len %d, cap %d", i, len(got[i]), cap(got[i]))
				}
				next := got[i+1][0]
				_ = append(got[i], value.NewInt(-1))
				if got[i+1][0] != next {
					t.Fatalf("an append to row %d wrote into row %d", i, i+1)
				}
			}
		})
	}

	rd, err := run.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	first := readRun(rd, nil)
	rd.Rewind()
	checkRows(t, readRun(rd, nil), rows)
	checkRows(t, first, rows)
}

func checkRows(t *testing.T, got, want []storage.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != 1 || got[i][0] != want[i][0] {
			t.Fatalf("row %d: %v, want %v", i, got[i], want[i])
		}
	}
}

// TestLyingCountsStayCheap: a declared row count the bytes do not back
// fails typed, after allocating for the rows really there — a chunk is
// never larger than the bytes left, one value a byte.
func TestLyingCountsStayCheap(t *testing.T) {
	batch := binary.AppendUvarint(nil, 1) // one column, "K"
	batch = append(batch, 1, 'K')
	batch = binary.AppendUvarint(batch, 1<<20)
	for range 3 {
		batch = rowcodec.AppendValue(batch, value.Null)
	}
	record := rowcodec.AppendFrame(nil, func(b []byte) []byte {
		b = append(binary.AppendUvarint(b, 1), byte(wal.RecInsert), 1, 'T')
		b = binary.AppendUvarint(b, rowcodec.MaxLen)
		return rowcodec.AppendTuple(b, storage.Tuple{value.NewInt(7)})
	})
	for _, c := range []struct {
		name, want string
		decode     func() error
	}{
		{"row batch of 2^20 rows in 3 bytes", "wire: ", func() error {
			_, err := wire.DecodeRowBatch(batch)
			return err
		}},
		{"insert record of MaxLen rows in one", "row 1: ", func() (err error) {
			fr := rowcodec.NewFrameReader(bytes.NewReader(record))
			_, err = wal.ReadRecord(fr)
			return err
		}},
	} {
		least := ^uint64(0)
		for range 3 { // the least of three, past any other goroutine's allocations
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.decode()
			runtime.ReadMemStats(&after)
			if err == nil || !strings.HasPrefix(err.Error(), c.want) {
				t.Fatalf("%s: %v, want an error starting %q", c.name, err, c.want)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= 1<<10 {
			t.Errorf("%s: allocated %d bytes before failing, want under 1 KiB", c.name, least)
		}
	}
}
