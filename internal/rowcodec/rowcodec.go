// Package rowcodec is the system's one binary encoding of values and
// tuples — a tuple is a uvarint column count followed by one kind-tagged
// value per column — and the one checksummed record frame (frame.go)
// that carries them to disk. Spill runs, WAL segments and database
// images are frames of it, and the wire protocol's row batches carry the
// same per-value encoding, so a value that round-trips in one subsystem
// round-trips in all of them.
package rowcodec

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/storage"
	"repro/internal/value"
)

// MaxLen caps one encoded payload. Anything larger in a length prefix is
// treated as corruption rather than attempted as an allocation.
const MaxLen = 1 << 28

// AppendValue appends the encoding of one value: a kind byte, then a
// payload shaped by the kind — varint for integers and dates (dates as
// their year*10000+month*100+day encoding), 8-byte big-endian IEEE bits
// for floats, uvarint-length-prefixed bytes for strings, nothing for
// NULL. It is the system's one per-value encoding: tuples at rest here,
// and the wire protocol's row batches through wire.AppendValue.
func AppendValue(dst []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.KindInt:
		dst = append(dst, byte(value.KindInt))
		return binary.AppendVarint(dst, v.Int())
	case value.KindFloat:
		dst = append(dst, byte(value.KindFloat))
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(v.Float()))
	case value.KindString:
		s := v.Str()
		dst = append(dst, byte(value.KindString))
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		return append(dst, s...)
	case value.KindDate:
		d := v.DateOf()
		dst = append(dst, byte(value.KindDate))
		return binary.AppendVarint(dst, int64(d.Year())*10000+int64(d.Month())*100+int64(d.Day()))
	default:
		// NULL — and, rather than corrupting the stream, any kind a
		// well-formed value cannot have.
		return append(dst, byte(value.KindNull))
	}
}

// DecodeValue parses one value from the front of p, returning the
// remainder. Malformed input is an error, never a panic.
func DecodeValue(p []byte) (value.Value, []byte, error) {
	if len(p) == 0 {
		return value.Null, nil, fmt.Errorf("short value")
	}
	kind := value.Kind(p[0])
	p = p[1:]
	switch kind {
	case value.KindNull:
		return value.Null, p, nil
	case value.KindInt, value.KindDate:
		x, n := binary.Varint(p)
		if n <= 0 {
			return value.Null, nil, fmt.Errorf("bad %s", kind)
		}
		if kind == value.KindInt {
			return value.NewInt(x), p[n:], nil
		}
		d, err := value.NewDate(int(x/10000), int(x/100)%100, int(x%100))
		if err != nil {
			return value.Null, nil, fmt.Errorf("bad date payload")
		}
		return value.NewDateValue(d), p[n:], nil
	case value.KindFloat:
		if len(p) < 8 {
			return value.Null, nil, fmt.Errorf("short float")
		}
		return value.NewFloat(math.Float64frombits(binary.BigEndian.Uint64(p[:8]))), p[8:], nil
	case value.KindString:
		l, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < l {
			return value.Null, nil, fmt.Errorf("bad string length")
		}
		p = p[n:]
		return value.NewString(string(p[:l])), p[l:], nil
	default:
		return value.Null, nil, fmt.Errorf("unknown kind %d", kind)
	}
}

// AppendTuple appends the encoding of t to dst: a uvarint column count,
// then each column's AppendValue encoding.
func AppendTuple(dst []byte, t storage.Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = AppendValue(dst, v)
	}
	return dst
}

// DecodeTuple parses one payload produced by AppendTuple, rejecting any
// malformed input with an error (never a panic). The whole payload must
// be consumed: trailing bytes are corruption.
func DecodeTuple(p []byte) (storage.Tuple, error) {
	t, rest, err := DecodeTuplePrefix(p)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("trailing bytes")
	}
	return t, nil
}

// DecodeTuplePrefix parses one tuple from the front of p, returning the
// remainder — for payloads that carry several tuples back to back.
func DecodeTuplePrefix(p []byte) (storage.Tuple, []byte, error) {
	ncols, n := binary.Uvarint(p)
	if n <= 0 || ncols > uint64(len(p)-n) { // every column takes a byte at least
		return nil, nil, fmt.Errorf("bad column count")
	}
	p = p[n:]
	t := make(storage.Tuple, ncols)
	for i := range t {
		var err error
		if t[i], p, err = DecodeValue(p); err != nil {
			return nil, nil, err
		}
	}
	return t, p, nil
}
