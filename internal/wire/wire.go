// Package wire defines the nestedsql network protocol: the length-prefixed
// binary frames spoken between cmd/nestedsqld (internal/server) and the Go
// client (internal/client).
//
// Every frame is
//
//	uint32 length (big endian) | byte type | payload
//
// where length counts the type byte plus the payload, so the smallest legal
// frame is length 1. The conversation is a strict handshake followed by
// request/response streams:
//
//	client → Hello      magic "NSQD" + version byte
//	server → Hello      magic + the version it will speak
//	client → Query      deadline, max-rows, strategy, parallelism, SQL
//	server → RowBatch*  column names + rows (zero or more frames)
//	server → Done       row count, page I/Os, fell-back flag
//	   or  → Error      taxonomy code, retry-after hint, message
//
// A client may pipeline the next Query before Done arrives; responses are
// strictly sequential. The per-request deadline and row budget ride in the
// Query frame and are mapped onto the engine's qctx limits; typed failures
// come back as Error frames whose code preserves the qctx/admission error
// taxonomy (an overload shed keeps its retry-after hint across the wire).
//
// Decoding is defensive: frames are size-capped, every varint and length is
// bounds-checked, and malformed input yields an error, never a panic — the
// decoder is fuzzed (FuzzDecodeFrame, FuzzFrameCorruption) on that contract.
//
// # Fault tolerance extensions
//
// Peers that both support it negotiate two extensions through the Hello
// exchange (see Hello.Flags): per-frame CRC32C checksums, so a byte
// corrupted in flight surfaces as ErrCorruptFrame instead of a garbled
// row, and Ping/Pong heartbeat frames, so an idle server can tell a dead
// peer from a quiet one. Hello frames are always plain — they carry the
// negotiation. That is why this is not rowcodec's record frame: the
// type byte sits under the checksum and the trailer is optional.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/rowcodec"
	"repro/internal/storage"
	"repro/internal/value"
)

// Version is the protocol version this package speaks. A server answers a
// client Hello with its own version; a client must disconnect on mismatch.
const Version = 1

// Magic opens every Hello payload, so a stray connection from some other
// protocol fails fast and explicitly.
const Magic = "NSQD"

// MaxFrame caps a frame's declared length (type byte + payload). Row
// batches are produced well under this; a peer declaring more is broken or
// hostile and the connection is dropped before allocating.
const MaxFrame = 16 << 20

// Frame types.
const (
	FrameHello    byte = 0x01
	FrameQuery    byte = 0x02
	FrameRowBatch byte = 0x03
	FrameDone     byte = 0x04
	FrameError    byte = 0x05
	// FramePing and FramePong are negotiated heartbeats (FeatureHeartbeat):
	// the payload is a uvarint sequence number, and a Pong echoes the Ping's.
	FramePing byte = 0x06
	FramePong byte = 0x07
)

// Feature bits carried in Hello.Flags. A peer requests the features it
// supports; the server answers with the subset it accepts, and both sides
// then speak only the agreed set for the rest of the connection.
const (
	// FeatureChecksum appends a CRC32C of type+payload to every frame.
	FeatureChecksum byte = 1 << 0
	// FeatureHeartbeat enables Ping/Pong dead-peer detection.
	FeatureHeartbeat byte = 1 << 1
)

// ErrCorruptFrame is the typed failure for a frame whose CRC32C trailer
// does not match its contents, or whose length prefix is impossible: the
// bytes were damaged in flight. It is a framing-level error — after it,
// the stream cannot be resynchronized and the connection must be dropped.
var ErrCorruptFrame = errors.New("wire: corrupt frame")

// checksumLen is the CRC32C trailer appended to each frame when
// FeatureChecksum is negotiated. The checksum covers the type byte and
// payload (everything the length counts except the trailer itself) and
// travels big-endian.
const checksumLen = 4

// castagnoli is the CRC32C polynomial table; Castagnoli has hardware
// support on amd64/arm64, so the per-frame cost is a few ns per KiB.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Strategy bytes carried in the Query frame. They mirror the engine's
// strategies without importing it, so both peers share one tiny vocabulary.
const (
	StrategyDefault   byte = 0 // server default (normally NEST-JA2 transform)
	StrategyNested    byte = 1 // nested iteration
	StrategyTransform byte = 2 // NEST-JA2 transform
	StrategyKim       byte = 3 // Kim's NEST-JA (the buggy variant, for demos)
)

// Codec is one connection's framing configuration, fixed by the Hello
// negotiation. The zero value is the original plain framing, which is
// what both handshake directions are always read and written with.
type Codec struct {
	// Checksums appends/verifies a CRC32C trailer on every frame.
	Checksums bool
}

// trailer is the number of bytes this codec appends after the payload.
func (c Codec) trailer() int {
	if c.Checksums {
		return checksumLen
	}
	return 0
}

// WriteFrame writes one frame under this codec's framing: the length
// prefix, the type byte, the payload and, with checksums on, the CRC32C
// trailer.
func (c Codec) WriteFrame(w io.Writer, typ byte, payload []byte) error {
	n := len(payload) + 1 + c.trailer()
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame", n)
	}
	var b [5 + checksumLen]byte // header, then room for the trailer
	binary.BigEndian.PutUint32(b[:4], uint32(n))
	b[4] = typ
	if _, err := w.Write(b[:5]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil || !c.Checksums {
		return err
	}
	crc := crc32.Update(crc32.Checksum(b[4:5], castagnoli), castagnoli, payload)
	binary.BigEndian.PutUint32(b[5:], crc)
	_, err := w.Write(b[5:])
	return err
}

// ReadFrame reads one frame under this codec's framing, enforcing
// MaxFrame before allocating the payload. With checksums on, a trailer
// mismatch returns an error satisfying errors.Is(err, ErrCorruptFrame).
func (c Codec) ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n < 1+c.trailer() || n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame length %d out of range: %w", n, ErrCorruptFrame)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	body := buf[:n-c.trailer()]
	if c.Checksums {
		want := binary.BigEndian.Uint32(buf[len(body):])
		if got := crc32.Checksum(body, castagnoli); got != want {
			return 0, nil, fmt.Errorf("wire: frame type 0x%02x crc %08x != %08x: %w",
				body[0], got, want, ErrCorruptFrame)
		}
	}
	return body[0], body[1:], nil
}

// WriteFrame writes one frame in the plain (pre-negotiation) framing
// both Hello directions use.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	return Codec{}.WriteFrame(w, typ, payload)
}

// ReadFrame reads one plain length-prefixed frame.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	return Codec{}.ReadFrame(r)
}

// Hello is the handshake payload in both directions. Flags carries the
// Feature* bits: a client requests, the server answers with the granted
// subset.
type Hello struct {
	Version byte
	Flags   byte
}

// EncodeHello builds a Hello payload: magic, version, flags.
func EncodeHello(h Hello) []byte {
	return append([]byte(Magic), h.Version, h.Flags)
}

// DecodeHello parses a Hello payload. Anything but magic + version +
// flags byte is rejected, a Hello without the flags byte included.
func DecodeHello(p []byte) (Hello, error) {
	if len(p) != len(Magic)+2 || string(p[:len(Magic)]) != Magic {
		return Hello{}, fmt.Errorf("wire: bad hello")
	}
	return Hello{Version: p[len(Magic)], Flags: p[len(Magic)+1]}, nil
}

// EncodePing builds a Ping (or Pong) payload: a uvarint sequence number.
func EncodePing(seq uint64) []byte {
	return binary.AppendUvarint(nil, seq)
}

// DecodePing parses a Ping/Pong payload.
func DecodePing(p []byte) (uint64, error) {
	seq, n := binary.Uvarint(p)
	if n <= 0 || n != len(p) {
		return 0, fmt.Errorf("wire: bad heartbeat payload")
	}
	return seq, nil
}

// Query is a request to run one SQL statement. TimeoutMicros and MaxRows
// are the caller's lifecycle limits (0 = none, though the server may cap
// both); Strategy and Parallelism select the evaluation path, with
// StrategyDefault / Parallelism 0 deferring to the server's configuration.
type Query struct {
	TimeoutMicros int64
	MaxRows       int64
	Strategy      byte
	Parallelism   int64
	SQL           string
}

// EncodeQuery builds a Query payload.
func EncodeQuery(q Query) []byte {
	p := binary.AppendVarint(nil, q.TimeoutMicros)
	p = binary.AppendVarint(p, q.MaxRows)
	p = append(p, q.Strategy)
	p = binary.AppendVarint(p, q.Parallelism)
	return append(p, q.SQL...)
}

// DecodeQuery parses a Query payload.
func DecodeQuery(p []byte) (Query, error) {
	var q Query
	var err error
	if q.TimeoutMicros, p, err = getVarint(p, "timeout"); err != nil {
		return q, err
	}
	if q.MaxRows, p, err = getVarint(p, "max-rows"); err != nil {
		return q, err
	}
	if len(p) < 1 {
		return q, fmt.Errorf("wire: query missing strategy")
	}
	q.Strategy, p = p[0], p[1:]
	if q.Parallelism, p, err = getVarint(p, "parallelism"); err != nil {
		return q, err
	}
	q.SQL = string(p)
	return q, nil
}

// RowBatch is one chunk of a streamed result. Every batch repeats the
// column names, which keeps the decoder stateless (an empty result is one
// batch with zero rows, so clients always learn the columns).
type RowBatch struct {
	Columns []string
	Rows    []storage.Tuple
}

// maxCols and maxBatchRows bound the counts a decoder will believe before
// reading the corresponding data, so a short hostile payload cannot demand
// a huge allocation.
const (
	maxCols      = 1 << 12
	maxBatchRows = 1 << 20
)

// EncodeRowBatch builds a RowBatch payload.
func EncodeRowBatch(b RowBatch) []byte { return appendRowBatch(nil, b) }

// appendRowBatch appends a RowBatch body — also the tail of the Load
// payload.
func appendRowBatch(p []byte, b RowBatch) []byte {
	p = binary.AppendUvarint(p, uint64(len(b.Columns)))
	for _, c := range b.Columns {
		p = appendString(p, c)
	}
	p = binary.AppendUvarint(p, uint64(len(b.Rows)))
	for _, row := range b.Rows {
		for _, v := range row {
			p = AppendValue(p, v)
		}
	}
	return p
}

// DecodeRowBatch parses a RowBatch payload.
func DecodeRowBatch(p []byte) (RowBatch, error) {
	var b RowBatch
	ncols, p, err := getUvarint(p, "column count")
	if err != nil {
		return b, err
	}
	if ncols > maxCols {
		return b, fmt.Errorf("wire: %d columns exceeds limit", ncols)
	}
	b.Columns = make([]string, ncols)
	for i := range b.Columns {
		if b.Columns[i], p, err = getString(p, "column name"); err != nil {
			return b, err
		}
	}
	nrows, p, err := getUvarint(p, "row count")
	if err != nil {
		return b, err
	}
	if nrows > maxBatchRows {
		return b, fmt.Errorf("wire: %d rows exceeds batch limit", nrows)
	}
	if nrows > 0 && ncols == 0 {
		return b, fmt.Errorf("wire: rows without columns")
	}
	// Rows are allocated as they parse out, so a huge declared count backed
	// by no bytes fails on the first missing value, not after a giant make.
	for r := uint64(0); r < nrows; r++ {
		row := make(storage.Tuple, ncols)
		for c := range row {
			if row[c], p, err = DecodeValue(p); err != nil {
				return b, err
			}
		}
		b.Rows = append(b.Rows, row)
	}
	if len(p) != 0 {
		return b, fmt.Errorf("wire: %d trailing bytes after row batch", len(p))
	}
	return b, nil
}

// Done ends a successful result stream.
type Done struct {
	Rows     int64
	Reads    int64
	Writes   int64
	FellBack bool
}

// EncodeDone builds a Done payload.
func EncodeDone(d Done) []byte {
	p := binary.AppendVarint(nil, d.Rows)
	p = binary.AppendVarint(p, d.Reads)
	p = binary.AppendVarint(p, d.Writes)
	var flags byte
	if d.FellBack {
		flags |= 1
	}
	return append(p, flags)
}

// DecodeDone parses a Done payload.
func DecodeDone(p []byte) (Done, error) {
	var d Done
	var err error
	if d.Rows, p, err = getVarint(p, "done rows"); err != nil {
		return d, err
	}
	if d.Reads, p, err = getVarint(p, "done reads"); err != nil {
		return d, err
	}
	if d.Writes, p, err = getVarint(p, "done writes"); err != nil {
		return d, err
	}
	if len(p) != 1 {
		return d, fmt.Errorf("wire: bad done flags")
	}
	d.FellBack = p[0]&1 != 0
	return d, nil
}

// AppendValue and DecodeValue are the row batches' per-value codec. It
// is rowcodec's — one kind byte, then a payload shaped by the kind, the
// encoding spill runs and the WAL use — and these two names remain as
// forwards only because bench/ (which this repo's benchmark contract
// freezes) calls wire.AppendValue.

// AppendValue appends the wire encoding of v.
func AppendValue(p []byte, v value.Value) []byte { return rowcodec.AppendValue(p, v) }

// DecodeValue parses one value, returning the remaining bytes.
func DecodeValue(p []byte) (value.Value, []byte, error) {
	v, rest, err := rowcodec.DecodeValue(p)
	if err != nil {
		return value.Null, nil, fmt.Errorf("wire: %w", err)
	}
	return v, rest, nil
}

func appendString(p []byte, s string) []byte {
	p = binary.AppendUvarint(p, uint64(len(s)))
	return append(p, s...)
}

func getString(p []byte, what string) (string, []byte, error) {
	n, p, err := getUvarint(p, what)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(p)) < n {
		return "", nil, fmt.Errorf("wire: truncated %s", what)
	}
	return string(p[:n]), p[n:], nil
}

func getVarint(p []byte, what string) (int64, []byte, error) {
	v, n := binary.Varint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("wire: bad %s", what)
	}
	return v, p[n:], nil
}

func getUvarint(p []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("wire: bad %s", what)
	}
	return v, p[n:], nil
}
