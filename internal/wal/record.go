package wal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/rowcodec"
	"repro/internal/storage"
)

// RecType tags what a commit record carries.
type RecType uint8

// The record types. CreateTable and Insert are structural (schema /
// rows encoded directly); Delete and Update are logical (the rendered
// SQL statement), because their row-level effects are computed during
// apply and replaying the statement over the same prior state is
// deterministic.
const (
	RecCreateTable RecType = 1
	RecInsert      RecType = 2
	RecDelete      RecType = 3
	RecUpdate      RecType = 4
	RecDrop        RecType = 5
)

// String names the record type.
func (t RecType) String() string {
	switch t {
	case RecCreateTable:
		return "create-table"
	case RecInsert:
		return "insert"
	case RecDelete:
		return "delete"
	case RecUpdate:
		return "update"
	case RecDrop:
		return "drop-table"
	default:
		return fmt.Sprintf("RecType(%d)", uint8(t))
	}
}

// TableColumn is one column of a logged schema.
type TableColumn struct {
	Name string
	Kind uint8 // value.Kind
}

// TableSchema is the structural payload of a RecCreateTable record —
// everything needed to re-issue the CreateRelation on replay.
type TableSchema struct {
	Name          string
	Columns       []TableColumn
	Key           []string
	TuplesPerPage int
}

// Record is one committed operation. LSN is assigned by the log on
// append; exactly one of the type-specific payloads is set.
type Record struct {
	LSN  uint64
	Type RecType

	Schema *TableSchema    // RecCreateTable
	Table  string          // RecInsert, RecDrop
	Rows   []storage.Tuple // RecInsert
	SQL    string          // RecDelete, RecUpdate
}

// AppendRecord appends the record's frame (rowcodec.AppendFrame around
// its payload) to dst: what a segment holds per commit and a database
// image per relation and chunk of rows.
func AppendRecord(dst []byte, r Record) []byte {
	return rowcodec.AppendFrame(dst, func(b []byte) []byte { return appendPayload(b, r) })
}

// ReadRecord reads and decodes the next framed record; the errors are
// FrameReader.Next's, or a plain one for a verified payload that is not a
// record.
func ReadRecord(fr *rowcodec.FrameReader) (Record, error) {
	payload, err := fr.Next()
	if err != nil {
		return Record{}, err
	}
	return decodePayload(payload)
}

// appendPayload appends the record's frame payload to dst: uvarint LSN,
// type byte, then the type-specific body.
func appendPayload(dst []byte, r Record) []byte {
	dst = binary.AppendUvarint(dst, r.LSN)
	dst = append(dst, byte(r.Type))
	switch r.Type {
	case RecCreateTable:
		s := r.Schema
		dst = appendString(dst, s.Name)
		dst = binary.AppendUvarint(dst, uint64(len(s.Columns)))
		for _, c := range s.Columns {
			dst = appendString(dst, c.Name)
			dst = append(dst, c.Kind)
		}
		dst = binary.AppendUvarint(dst, uint64(len(s.Key)))
		for _, k := range s.Key {
			dst = appendString(dst, k)
		}
		dst = binary.AppendUvarint(dst, uint64(s.TuplesPerPage))
	case RecInsert:
		dst = appendString(dst, r.Table)
		dst = binary.AppendUvarint(dst, uint64(len(r.Rows)))
		for _, t := range r.Rows {
			dst = rowcodec.AppendTuple(dst, t)
		}
	case RecDelete, RecUpdate:
		dst = append(dst, r.SQL...)
	case RecDrop:
		dst = appendString(dst, r.Table)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decodePayload parses one frame payload back into a Record. It is
// total: any malformed input yields an error, never a panic — the fuzz
// target drives arbitrary bytes through it.
func decodePayload(p []byte) (Record, error) {
	var r Record
	lsn, n := binary.Uvarint(p)
	if n <= 0 {
		return r, fmt.Errorf("bad LSN")
	}
	p = p[n:]
	if len(p) == 0 {
		return r, fmt.Errorf("missing record type")
	}
	r.LSN, r.Type = lsn, RecType(p[0])
	p = p[1:]
	switch r.Type {
	case RecCreateTable:
		s := &TableSchema{}
		var err error
		if s.Name, p, err = takeString(p); err != nil {
			return r, fmt.Errorf("schema name: %w", err)
		}
		ncols, n := binary.Uvarint(p)
		if n <= 0 || ncols > rowcodec.MaxLen {
			return r, fmt.Errorf("bad column count")
		}
		p = p[n:]
		s.Columns = make([]TableColumn, ncols)
		for i := range s.Columns {
			if s.Columns[i].Name, p, err = takeString(p); err != nil {
				return r, fmt.Errorf("column name: %w", err)
			}
			if len(p) == 0 {
				return r, fmt.Errorf("missing column kind")
			}
			s.Columns[i].Kind = p[0]
			p = p[1:]
		}
		nkey, n := binary.Uvarint(p)
		if n <= 0 || nkey > ncols {
			return r, fmt.Errorf("bad key count")
		}
		p = p[n:]
		for i := uint64(0); i < nkey; i++ {
			var k string
			if k, p, err = takeString(p); err != nil {
				return r, fmt.Errorf("key column: %w", err)
			}
			s.Key = append(s.Key, k)
		}
		tpp, n := binary.Uvarint(p)
		if n <= 0 || tpp > rowcodec.MaxLen {
			return r, fmt.Errorf("bad tuples-per-page")
		}
		p = p[n:]
		s.TuplesPerPage = int(tpp)
		if len(p) != 0 {
			return r, fmt.Errorf("trailing bytes")
		}
		r.Schema = s
	case RecInsert:
		var err error
		if r.Table, p, err = takeString(p); err != nil {
			return r, fmt.Errorf("table name: %w", err)
		}
		nrows, n := binary.Uvarint(p)
		if n <= 0 || nrows > rowcodec.MaxLen {
			return r, fmt.Errorf("bad row count")
		}
		p = p[n:]
		r.Rows = make([]storage.Tuple, 0, min(nrows, uint64(len(p)))) // a row takes a byte at least
		var vals rowcodec.Chunks
		for i := uint64(0); i < nrows; i++ {
			var t storage.Tuple
			if t, p, err = vals.TuplePrefix(p, int(nrows-i), len(p)); err != nil {
				return r, fmt.Errorf("row %d: %w", i, err)
			}
			r.Rows = append(r.Rows, t)
		}
		if len(p) != 0 {
			return r, fmt.Errorf("trailing bytes")
		}
	case RecDelete, RecUpdate:
		r.SQL = string(p)
	case RecDrop:
		var err error
		if r.Table, p, err = takeString(p); err != nil {
			return r, fmt.Errorf("table name: %w", err)
		}
		if len(p) != 0 {
			return r, fmt.Errorf("trailing bytes")
		}
	default:
		return r, fmt.Errorf("unknown record type %d", r.Type)
	}
	return r, nil
}

func takeString(p []byte) (string, []byte, error) {
	l, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < l {
		return "", nil, fmt.Errorf("bad string length")
	}
	return string(p[n : n+int(l)]), p[n+int(l):], nil
}
