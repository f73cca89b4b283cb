package rowcodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"testing"
	"testing/iotest"

	"repro/internal/storage"
	"repro/internal/value"
)

func date(t *testing.T, y, m, d int) value.Value {
	t.Helper()
	dt, err := value.NewDate(y, m, d)
	if err != nil {
		t.Fatal(err)
	}
	return value.NewDateValue(dt)
}

// TestValueRoundTrip is the one codec's contract: every kind, NULL, the
// sign of -0.0 and the edges of each payload shape come back as written.
func TestValueRoundTrip(t *testing.T) {
	row := storage.Tuple{
		value.Null,
		value.NewInt(42), value.NewInt(-7), value.NewInt(math.MinInt64),
		value.NewFloat(2.5), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(math.Inf(1)), value.NewFloat(1 << 63),
		value.NewString(""), value.NewString("O'BRIEN|x"),
		date(t, 1979, 7, 3),
	}
	got, err := DecodeTuple(AppendTuple(nil, row))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(row) {
		t.Fatalf("%d columns, want %d", len(got), len(row))
	}
	for i, v := range row {
		if got[i].Kind() != v.Kind() || got[i].String() != v.String() {
			t.Errorf("column %d: %v (%s) came back as %v (%s)", i, v, v.Kind(), got[i], got[i].Kind())
		}
		if v.Kind() == value.KindFloat && math.Float64bits(got[i].Float()) != math.Float64bits(v.Float()) {
			t.Errorf("column %d: float bits changed: %v -> %v", i, v, got[i])
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	for _, b := range [][]byte{
		nil,
		{99},                    // unknown kind
		{byte(value.KindInt)},   // missing varint
		{byte(value.KindFloat)}, // short float
		{byte(value.KindFloat), 1, 2, 3},
		{byte(value.KindString), 5, 'a'}, // string shorter than its length
		{byte(value.KindDate), 0x80, 0x80, 0x80, 2}, // not a calendar date
	} {
		if _, _, err := DecodeValue(b); err == nil {
			t.Errorf("DecodeValue(%v): expected error", b)
		}
	}
	for _, b := range [][]byte{
		nil,
		{2, byte(value.KindNull)}, // two columns promised, one there
		{1, byte(value.KindNull), byte(value.KindNull)}, // trailing bytes
	} {
		if _, err := DecodeTuple(b); err == nil {
			t.Errorf("DecodeTuple(%v): expected error", b)
		}
	}
}

func frames(payloads ...string) []byte {
	var out []byte
	for _, p := range payloads {
		out = AppendFrame(out, func(b []byte) []byte { return append(b, p...) })
	}
	return out
}

// TestFrameLayout pins the bytes against a frame spelled out by hand.
func TestFrameLayout(t *testing.T) {
	want := []byte{0, 0, 0, 3, 'a', 'b', 'c'}
	want = binary.BigEndian.AppendUint32(want, crc32.Checksum([]byte("abc"), crc32.MakeTable(crc32.Castagnoli)))
	if got := frames("abc"); !bytes.Equal(got, want) {
		t.Fatalf("frame = %x, want %x", got, want)
	}
	if got := AppendFrame([]byte("head"), func(b []byte) []byte { return append(b, "abc"...) }); !bytes.Equal(got, append([]byte("head"), want...)) {
		t.Fatalf("frame after a prefix = %x", got)
	}
}

func TestFrameReader(t *testing.T) {
	data := frames("one", "", "three")
	// A reader that hands out one byte at a time must change nothing.
	for _, r := range []io.Reader{bytes.NewReader(data), iotest.OneByteReader(bytes.NewReader(data))} {
		fr := NewFrameReader(r)
		for _, want := range []string{"one", "", "three"} {
			got, err := fr.Next()
			if err != nil || string(got) != want {
				t.Fatalf("Next = %q, %v; want %q", got, err, want)
			}
		}
		if _, err := fr.Next(); err != io.EOF {
			t.Fatalf("after the last frame: %v, want io.EOF", err)
		}
	}
}

// TestFrameReaderTellsFailuresApart: the end of input between frames is
// io.EOF, inside one ErrTorn; any changed byte is ErrChecksum or a
// length that no longer fits (torn or impossible) — never a payload.
func TestFrameReaderTellsFailuresApart(t *testing.T) {
	data := frames("first", "second record")
	first := len(frames("first"))
	for cut := 0; cut < len(data); cut++ {
		fr := NewFrameReader(bytes.NewReader(data[:cut]))
		var err error
		n := 0
		for ; err == nil; n++ {
			_, err = fr.Next()
		}
		n-- // frames read before the error
		whole := 0
		if cut >= first {
			whole = 1
		}
		want := ErrTorn
		if cut == 0 || cut == first {
			want = io.EOF
		}
		if !errors.Is(err, want) || n != whole {
			t.Errorf("cut at %d: %d frame(s), %v; want %d, %v", cut, n, err, whole, want)
		}
	}
	for i := first; i < len(data); i++ {
		for bit := 0; bit < 8; bit++ {
			bad := bytes.Clone(data)
			bad[i] ^= 1 << bit
			fr := NewFrameReader(bytes.NewReader(bad))
			if _, err := fr.Next(); err != nil {
				t.Fatalf("flip at %d: the frame before it: %v", i, err)
			}
			p, err := fr.Next()
			if err == nil || err == io.EOF {
				t.Fatalf("flip of bit %d at %d: got %q, %v", bit, i, p, err)
			}
			inLength := i < first+4
			if !inLength && !errors.Is(err, ErrChecksum) {
				t.Errorf("flip of bit %d at %d: %v, want ErrChecksum", bit, i, err)
			}
		}
	}
}

// TestFrameReaderLengthCap: a length prefix above MaxLen is refused
// outright, and one below it that lies costs no more memory than the
// input holds.
func TestFrameReaderLengthCap(t *testing.T) {
	over := binary.BigEndian.AppendUint32(nil, MaxLen+1)
	if _, err := NewFrameReader(bytes.NewReader(over)).Next(); err == nil || errors.Is(err, ErrTorn) {
		t.Errorf("length above the cap: %v", err)
	}
	lie := append(binary.BigEndian.AppendUint32(nil, MaxLen), make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewFrameReader(bytes.NewReader(lie)).Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTorn) {
		t.Errorf("lying length: %v, want ErrTorn", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Errorf("a lying length prefix made the reader allocate %d bytes for 100", got)
	}
}
