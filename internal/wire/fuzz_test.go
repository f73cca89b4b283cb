package wire

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// FuzzDecodeFrame asserts the wire decoder's defensive contract: arbitrary
// bytes — a frame header plus payload as they would arrive off a socket —
// never panic, never hang, and never demand an allocation beyond MaxFrame.
// Anything that decodes as a well-formed payload must re-encode and
// re-decode identically (the server and client both rely on the codec
// being a bijection on the valid subset). Malformed frames must come back
// as errors, which the server turns into CodeProtocol Error frames.
func FuzzDecodeFrame(f *testing.F) {
	frame := func(typ byte, payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(frame(FrameHello, EncodeHello(Hello{Version: Version})))
	f.Add(frame(FrameQuery, EncodeQuery(Query{
		TimeoutMicros: 1000, MaxRows: 10, Strategy: StrategyTransform, Parallelism: -1,
		SQL: "SELECT PNUM FROM PARTS",
	})))
	f.Add(frame(FrameRowBatch, EncodeRowBatch(RowBatch{Columns: []string{"A", "B"}})))
	f.Add(frame(FrameDone, EncodeDone(Done{Rows: 3, Reads: 5, Writes: 1, FellBack: true})))
	f.Add(frame(FrameError, EncodeError(ErrorFrame{Code: CodeOverloaded, Message: "queue full"})))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00})
	f.Add([]byte{0, 0, 0, 2, FrameRowBatch, 0xFF})
	// Fault-tolerance extensions: the extended Hello, heartbeats, and
	// checksummed frames (which a plain reader sees as payload+trailer).
	f.Add(frame(FrameHello, EncodeHello(Hello{Version: Version, Flags: FeatureChecksum | FeatureHeartbeat})))
	f.Add(frame(FramePing, EncodePing(7)))
	f.Add(frame(FramePong, EncodePing(1<<40)))
	cframe := func(typ byte, payload []byte) []byte {
		var buf bytes.Buffer
		if err := (Codec{Checksums: true}).WriteFrame(&buf, typ, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(cframe(FrameQuery, EncodeQuery(Query{SQL: "SELECT PNUM FROM PARTS"})))
	f.Add(cframe(FrameError, EncodeError(ErrorFrame{Code: CodeSlowClient, Message: "evicted"})))
	// The retired shard frames 0x08–0x0A, plain and checksummed: a peer
	// from before the retirement still sends them, and they must frame
	// like any other type so the worker can answer a protocol Error
	// instead of losing its place in the stream.
	f.Add(frame(0x08, EncodeQuery(Query{SQL: "SELECT PNUM, QOH FROM PARTS"})))
	f.Add(frame(0x09, EncodeRowBatch(RowBatch{Columns: []string{"PNUM"}})))
	f.Add(frame(0x0A, EncodeDone(Done{Rows: 9})))
	f.Add(cframe(0x08, EncodeQuery(Query{SQL: "SELECT SNO FROM S"})))
	f.Add(cframe(0x0A, EncodeDone(Done{Rows: 1})))
	// Replication extensions: snapshot shipping for worker rejoin.
	f.Add(frame(FrameSnapshot, EncodeSnapshot(Snapshot{Table: "SP__S1"})))
	f.Add(frame(FrameSnapshotMeta, EncodeSnapshotMeta(SnapshotMeta{CreateSQL: "CREATE TABLE SP__S1 (SNO INTEGER)"})))
	f.Add(cframe(FrameSnapshot, EncodeSnapshot(Snapshot{Table: "S__S0"})))
	// The coordinator→worker row path: a Load is a table name in front
	// of a RowBatch body, and is outside input to the worker.
	load := EncodeLoad(Load{Table: "SP__S1", Batch: RowBatch{
		Columns: []string{"SNO", "NOTE"},
		Rows:    []storage.Tuple{{value.NewInt(-1), value.NewString("it's")}, {value.Null, value.NewFloat(1e21)}},
	}})
	f.Add(frame(FrameLoad, load))
	f.Add(cframe(FrameLoad, load))
	f.Add(frame(FrameLoad, []byte{0}))                       // no table name
	f.Add(frame(FrameLoad, []byte{2, 'T'}))                  // name longer than the payload
	f.Add(frame(FrameLoad, []byte{1, 'T', 1, 1, 'A', 0xFF})) // row count runs off the end

	f.Fuzz(func(t *testing.T, raw []byte) {
		// The checksummed reader must be as panic-proof as the plain one,
		// whatever the bytes; its successes are checked by
		// FuzzFrameCorruption, here it only has to survive.
		_, _, _ = (Codec{Checksums: true}).ReadFrame(bytes.NewReader(raw))

		typ, payload, err := ReadFrame(bytes.NewReader(raw))
		if err != nil {
			return
		}
		switch typ {
		case FrameHello:
			if h, err := DecodeHello(payload); err == nil {
				if got := EncodeHello(h); !bytes.Equal(got, payload) {
					t.Fatalf("hello not stable: % x vs % x", got, payload)
				}
			}
		case FrameQuery:
			if q, err := DecodeQuery(payload); err == nil {
				q2, err := DecodeQuery(EncodeQuery(q))
				if err != nil || q2 != q {
					t.Fatalf("query not stable: %+v vs %+v (%v)", q2, q, err)
				}
			}
		case FrameRowBatch:
			if b, err := DecodeRowBatch(payload); err == nil {
				// Re-encoding may differ byte-for-byte (varints are not
				// canonical under fuzzed over-long forms), but it must
				// decode back to the same batch.
				b2, err := DecodeRowBatch(EncodeRowBatch(b))
				if err != nil {
					t.Fatalf("re-decode failed: %v", err)
				}
				if len(b2.Rows) != len(b.Rows) || len(b2.Columns) != len(b.Columns) {
					t.Fatalf("batch not stable: %d/%d cols, %d/%d rows",
						len(b2.Columns), len(b.Columns), len(b2.Rows), len(b.Rows))
				}
			}
		case FrameDone:
			if d, err := DecodeDone(payload); err == nil {
				if d2, err := DecodeDone(EncodeDone(d)); err != nil || d2 != d {
					t.Fatalf("done not stable: %+v vs %+v (%v)", d2, d, err)
				}
			}
		case FrameError:
			if e, err := DecodeError(payload); err == nil {
				if e2, err := DecodeError(EncodeError(e)); err != nil || e2 != e {
					t.Fatalf("error frame not stable: %+v vs %+v (%v)", e2, e, err)
				}
				// Reconstructing the client-side error must never panic,
				// whatever the code byte says.
				_ = (&RemoteError{Frame: e}).Unwrap()
			}
		case FrameSnapshot:
			if s, err := DecodeSnapshot(payload); err == nil {
				if s2, err := DecodeSnapshot(EncodeSnapshot(s)); err != nil || s2 != s {
					t.Fatalf("snapshot not stable: %+v vs %+v (%v)", s2, s, err)
				}
			}
		case FrameSnapshotMeta:
			if m, err := DecodeSnapshotMeta(payload); err == nil {
				if m2, err := DecodeSnapshotMeta(EncodeSnapshotMeta(m)); err != nil || m2 != m {
					t.Fatalf("snapshot meta not stable: %+v vs %+v (%v)", m2, m, err)
				}
			}
		case FrameLoad:
			if l, err := DecodeLoad(payload); err == nil {
				l2, err := DecodeLoad(EncodeLoad(l))
				if err != nil || l2.Table != l.Table ||
					len(l2.Batch.Rows) != len(l.Batch.Rows) || len(l2.Batch.Columns) != len(l.Batch.Columns) {
					t.Fatalf("load not stable: %+v vs %+v (%v)", l2, l, err)
				}
			}
		case FramePing, FramePong:
			if seq, err := DecodePing(payload); err == nil {
				// Over-long varint forms are accepted, so bytes need not
				// round-trip — but the value must.
				if seq2, err := DecodePing(EncodePing(seq)); err != nil || seq2 != seq {
					t.Fatalf("ping not stable: %d vs %d (%v)", seq2, seq, err)
				}
			}
		}
	})
}

// FuzzFrameCorruption asserts the checksum's reason for existing: ANY
// single-byte corruption of a checksummed frame's body — the type byte,
// the payload, or the CRC trailer itself — is detected and surfaces as
// ErrCorruptFrame, never as a silently garbled frame. (CRC32 detects all
// single-burst errors up to 32 bits, so a one-byte XOR can never alias.)
// The length prefix is left alone: corrupting it re-frames the stream
// rather than damaging this frame, and is exercised by FuzzDecodeFrame.
func FuzzFrameCorruption(f *testing.F) {
	f.Add(FrameQuery, EncodeQuery(Query{SQL: "SELECT PNUM FROM PARTS"}), uint16(9), byte(0x01))
	f.Add(FrameRowBatch, EncodeRowBatch(RowBatch{Columns: []string{"A"}}), uint16(5), byte(0x80))
	f.Add(FramePing, EncodePing(7), uint16(4), byte(0xFF))
	f.Add(FrameDone, EncodeDone(Done{Rows: 3}), uint16(0), byte(0x40))
	f.Add(byte(0x08), EncodeQuery(Query{SQL: "SELECT PNUM FROM SUPPLY"}), uint16(6), byte(0x02)) // retired types too
	f.Add(byte(0x09), EncodeRowBatch(RowBatch{Columns: []string{"PNUM"}}), uint16(2), byte(0x08))
	f.Add(byte(0x0A), EncodeDone(Done{Rows: 2}), uint16(3), byte(0x20))
	f.Add(FrameLoad, EncodeLoad(Load{Table: "SP__S1", Batch: RowBatch{Columns: []string{"SNO"}, Rows: []storage.Tuple{{value.NewInt(7)}}}}), uint16(8), byte(0x10))

	f.Fuzz(func(t *testing.T, typ byte, payload []byte, idx uint16, mask byte) {
		codec := Codec{Checksums: true}
		var buf bytes.Buffer
		if err := codec.WriteFrame(&buf, typ, payload); err != nil {
			t.Skip("oversize payload")
		}
		pristine := buf.Bytes()
		typ2, payload2, err := codec.ReadFrame(bytes.NewReader(pristine))
		if err != nil {
			t.Fatalf("pristine frame rejected: %v", err)
		}
		if typ2 != typ || !bytes.Equal(payload2, payload) {
			t.Fatalf("pristine frame mutated: typ %02x/%02x, %d/%d payload bytes",
				typ2, typ, len(payload2), len(payload))
		}
		if mask == 0 {
			return // XOR by zero is not corruption
		}
		frame := bytes.Clone(pristine)
		i := 4 + int(idx)%(len(frame)-4)
		frame[i] ^= mask
		_, _, err = codec.ReadFrame(bytes.NewReader(frame))
		if err == nil {
			t.Fatalf("single-byte corruption at offset %d (mask %02x) decoded cleanly", i, mask)
		}
		if !errors.Is(err, ErrCorruptFrame) {
			// A flipped type/payload byte must be caught by the checksum,
			// typed; only garbage that breaks framing itself may surface
			// as a different decode error.
			t.Fatalf("corruption at %d surfaced untyped: %v", i, err)
		}
	})
}
