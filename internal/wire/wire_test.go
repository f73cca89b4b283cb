package wire

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/qctx"
	"repro/internal/storage"
	"repro/internal/value"
)

func date(t *testing.T, s string) value.Value {
	t.Helper()
	d, err := value.ParseDate(s)
	if err != nil {
		t.Fatal(err)
	}
	return value.NewDateValue(d)
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {1, 2, 3}, bytes.Repeat([]byte{0xAB}, 4096)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != byte(i+1) || !bytes.Equal(got, p) {
			t.Errorf("frame %d: type=%d payload %d bytes, want type=%d %d bytes",
				i, typ, len(got), i+1, len(p))
		}
	}
}

func TestFrameLengthBounds(t *testing.T) {
	// A declared length beyond MaxFrame must be rejected before allocation.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Error("oversized frame length accepted")
	}
	// Zero length (no type byte) is likewise malformed.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Error("zero-length frame accepted")
	}
	if err := WriteFrame(&bytes.Buffer{}, FrameRowBatch, make([]byte, MaxFrame)); err == nil {
		t.Error("writing an over-large frame must fail")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h, err := DecodeHello(EncodeHello(Hello{Version: Version}))
	if err != nil || h.Version != Version || h.Flags != 0 {
		t.Fatalf("hello round trip: %+v, %v", h, err)
	}
	// A Hello without the flags byte ("NSQD\x01") is malformed like the rest.
	for _, bad := range [][]byte{nil, []byte("NSQ"), []byte("XXXX\x01\x00"), []byte("NSQD"), []byte("NSQD\x01"), []byte("NSQD\x01\x03\x00")} {
		if _, err := DecodeHello(bad); err == nil {
			t.Errorf("DecodeHello(%q) accepted", bad)
		}
	}
}

// TestHelloFeatureNegotiation: the Hello carries the feature flags.
func TestHelloFeatureNegotiation(t *testing.T) {
	ext := Hello{Version: Version, Flags: FeatureChecksum | FeatureHeartbeat}
	got, err := DecodeHello(EncodeHello(ext))
	if err != nil || got != ext {
		t.Fatalf("hello with flags: %+v, %v", got, err)
	}
}

// TestChecksummedFrameRoundTrip: the negotiated codec writes a CRC32C
// trailer and strips it on read; plain and checksummed framings of the
// same payload differ only by the 4 trailer bytes.
func TestChecksummedFrameRoundTrip(t *testing.T) {
	codec := Codec{Checksums: true}
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {1, 2, 3}, bytes.Repeat([]byte{0xAB}, 4096)}
	for i, p := range payloads {
		if err := codec.WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		typ, got, err := codec.ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != byte(i+1) || !bytes.Equal(got, p) {
			t.Errorf("frame %d: type=%d payload %d bytes, want type=%d %d bytes",
				i, typ, len(got), i+1, len(p))
		}
	}
	// Oversize guard accounts for the trailer.
	if err := codec.WriteFrame(&bytes.Buffer{}, FrameRowBatch, make([]byte, MaxFrame-4)); err == nil {
		t.Error("checksummed over-large frame accepted")
	}
}

// TestChecksumDetectsCorruption: flipping any single byte after the
// length prefix must surface as ErrCorruptFrame, never a decoded frame.
// (FuzzFrameCorruption generalizes this over arbitrary payloads.)
func TestChecksumDetectsCorruption(t *testing.T) {
	codec := Codec{Checksums: true}
	var buf bytes.Buffer
	if err := codec.WriteFrame(&buf, FrameRowBatch, EncodeRowBatch(RowBatch{
		Columns: []string{"K"},
		Rows:    []storage.Tuple{{value.NewInt(42)}},
	})); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for pos := 4; pos < len(frame); pos++ {
		bad := append([]byte(nil), frame...)
		bad[pos] ^= 0x5A
		_, _, err := codec.ReadFrame(bytes.NewReader(bad))
		if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("corrupting byte %d: err = %v, want ErrCorruptFrame", pos, err)
		}
	}
	// The pristine frame still reads back.
	if _, _, err := codec.ReadFrame(bytes.NewReader(frame)); err != nil {
		t.Fatalf("pristine frame: %v", err)
	}
}

// TestPingRoundTrip covers the heartbeat payload codec.
func TestPingRoundTrip(t *testing.T) {
	for _, seq := range []uint64{0, 1, 1 << 40} {
		got, err := DecodePing(EncodePing(seq))
		if err != nil || got != seq {
			t.Errorf("ping seq %d: got %d, %v", seq, got, err)
		}
	}
	for _, bad := range [][]byte{{}, {0x80}, {0x01, 0x00}} {
		if _, err := DecodePing(bad); err == nil {
			t.Errorf("DecodePing(% x) accepted", bad)
		}
	}
}

func TestQueryRoundTrip(t *testing.T) {
	q := Query{
		TimeoutMicros: 2_500_000,
		MaxRows:       1 << 20,
		Strategy:      StrategyTransform,
		Parallelism:   -1,
		SQL:           "SELECT PNUM FROM PARTS WHERE QOH = 0",
	}
	got, err := DecodeQuery(EncodeQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if got != q {
		t.Errorf("query round trip:\n got  %+v\n want %+v", got, q)
	}
	if _, err := DecodeQuery(nil); err == nil {
		t.Error("empty query payload accepted")
	}
}

func TestRowBatchRoundTrip(t *testing.T) {
	b := RowBatch{
		Columns: []string{"PNUM", "NAME", "RATIO", "SHIPDATE", "NOTE"},
		Rows: []storage.Tuple{
			{value.NewInt(3), value.NewString("widget"), value.NewFloat(0.5), date(t, "7-3-79"), value.Null},
			{value.NewInt(-9), value.NewString(""), value.NewFloat(-1e300), date(t, "1999-12-31"), value.NewString("x\x00y")},
		},
	}
	got, err := DecodeRowBatch(EncodeRowBatch(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Errorf("row batch round trip:\n got  %+v\n want %+v", got, b)
	}

	// Zero rows still carries the columns (how empty results travel).
	empty := RowBatch{Columns: []string{"A"}}
	got, err = DecodeRowBatch(EncodeRowBatch(empty))
	if err != nil || len(got.Rows) != 0 || len(got.Columns) != 1 {
		t.Errorf("empty batch: %+v, %v", got, err)
	}
}

func TestRowBatchMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":             {},
		"huge column count": {0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		"rows sans columns": {0, 2},
		"truncated row":     append(EncodeRowBatch(RowBatch{Columns: []string{"A"}}), 0xFF),
		"trailing bytes":    append(EncodeRowBatch(RowBatch{Columns: []string{"A"}, Rows: []storage.Tuple{{value.NewInt(1)}}}), 0),
		"bad value kind":    {1, 1, 'A', 1, 0x7F},
		"truncated string":  {1, 1, 'A', 1, byte(value.KindString), 200},
		"huge row count":    {1, 1, 'A', 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		"bad date value":    {1, 1, 'A', 1, byte(value.KindDate), 0x01},
	}
	for name, p := range cases {
		if _, err := DecodeRowBatch(p); err == nil {
			t.Errorf("%s: malformed batch accepted", name)
		}
	}
}

func TestDoneRoundTrip(t *testing.T) {
	d := Done{Rows: 42, Reads: 100, Writes: 7, FellBack: true}
	got, err := DecodeDone(EncodeDone(d))
	if err != nil || got != d {
		t.Fatalf("done round trip: %+v, %v", got, err)
	}
	if _, err := DecodeDone([]byte{1}); err == nil {
		t.Error("truncated done accepted")
	}
}

// TestErrorTaxonomyAcrossWire is the satellite-1/tentpole contract: every
// typed engine failure classifies to its code, and the client-side
// reconstruction still answers errors.Is — with the overload retry-after
// hint intact through errors.As.
func TestErrorTaxonomyAcrossWire(t *testing.T) {
	cases := []struct {
		err  error
		code byte
		is   error
	}{
		{qctx.ErrQueryTimeout, CodeTimeout, qctx.ErrQueryTimeout},
		{fmt.Errorf("wrapped: %w", qctx.ErrQueryTimeout), CodeTimeout, qctx.ErrQueryTimeout},
		{qctx.ErrCanceled, CodeCanceled, qctx.ErrCanceled},
		{qctx.ErrRowBudget, CodeRowBudget, qctx.ErrBudgetExceeded},
		{qctx.ErrMemoryBudget, CodeMemoryBudget, qctx.ErrMemoryBudget},
		{qctx.ErrBudgetExceeded, CodeBudget, qctx.ErrBudgetExceeded},
		{&qctx.OverloadError{Reason: "queue full", RetryAfter: 80 * time.Millisecond}, CodeOverloaded, qctx.ErrOverloaded},
		{fmt.Errorf("spill: read x: %w", qctx.ErrSpillCorrupt), CodeSpillCorrupt, qctx.ErrSpillCorrupt},
		{fmt.Errorf("spill: injected read fault on x: %w", qctx.ErrInjectedFault), CodeInjectedFault, qctx.ErrInjectedFault},
		{errors.New("parse error"), CodeInternal, nil},
		// A contained worker panic is untyped: no code refuses parallel
		// plans after one.
		{qctx.Recovered("worker panic"), CodeInternal, nil},
	}
	for _, c := range cases {
		f := ErrorFrameFor(c.err)
		if f.Code != c.code {
			t.Errorf("%v: code = %d, want %d", c.err, f.Code, c.code)
			continue
		}
		dec, err := DecodeError(EncodeError(f))
		if err != nil {
			t.Fatalf("%v: decode: %v", c.err, err)
		}
		remote := &RemoteError{Frame: dec}
		if c.is != nil && !errors.Is(remote, c.is) {
			t.Errorf("%v: reconstructed error does not match sentinel %v", c.err, c.is)
		}
		if qctx.Retryable(remote) != qctx.Retryable(c.err) {
			t.Errorf("%v: retryable in process = %v, across the wire = %v", c.err, qctx.Retryable(c.err), qctx.Retryable(remote))
		}
		if !strings.Contains(remote.Error(), c.err.Error()) {
			t.Errorf("%v: message lost: %q", c.err, remote.Error())
		}
	}

	// The retry-after hint must survive the round trip.
	f := ErrorFrameFor(&qctx.OverloadError{Reason: "queue full", RetryAfter: 80 * time.Millisecond})
	dec, err := DecodeError(EncodeError(f))
	if err != nil {
		t.Fatal(err)
	}
	var ov *qctx.OverloadError
	if !errors.As(&RemoteError{Frame: dec}, &ov) || ov.RetryAfter != 80*time.Millisecond {
		t.Errorf("retry-after lost across the wire: %+v", ov)
	}

	// A slow-client eviction frame is typed on the receiving end too.
	evict := &RemoteError{Frame: ErrorFrame{Code: CodeSlowClient, Message: "evicted"}}
	if !errors.Is(evict, ErrSlowConsumer) {
		t.Errorf("CodeSlowClient does not unwrap to ErrSlowConsumer")
	}

	// Code 7, the parallel circuit breaker's refusal, is retired: no row
	// above classifies to it, and the frame a server from before the
	// retirement still sends is an untyped remote error — it matches no
	// sentinel and is never retried.
	const retired = 7
	for _, c := range cases {
		if ErrorFrameFor(c.err).Code == retired {
			t.Errorf("%v: classified to the retired code %d", c.err, retired)
		}
	}
	old := &RemoteError{Frame: ErrorFrame{Code: retired, Message: "engine: parallel plan refused: parallel circuit open"}}
	if dec, err := DecodeError(EncodeError(old.Frame)); err != nil || dec != old.Frame {
		t.Fatalf("code %d frame round trip: %+v, %v", retired, dec, err)
	}
	for _, sentinel := range []error{
		qctx.ErrQueryTimeout, qctx.ErrCanceled, qctx.ErrBudgetExceeded, qctx.ErrRowBudget, qctx.ErrMemoryBudget,
		qctx.ErrOverloaded, qctx.ErrInjectedFault, qctx.ErrSpillCorrupt, ErrSlowConsumer,
	} {
		if errors.Is(old, sentinel) {
			t.Errorf("code %d frame matches %v", retired, sentinel)
		}
	}
	if old.Unwrap() != nil || qctx.Retryable(old) {
		t.Errorf("code %d frame unwraps to %v (retryable %v), want an untyped error", retired, old.Unwrap(), qctx.Retryable(old))
	}
}
