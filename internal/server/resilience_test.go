package server_test

import (
	"bufio"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wire"
)

// Resilience tests: the failure modes a hostile network inflicts on a
// session — consumers that stop reading, peers that die silently,
// frames corrupted in flight, malformed Hellos — must each resolve into
// a typed error and a released resource, never a wedged goroutine.

// wideDB builds BIG(K, V, P) with rows rows and a ~1 KiB string payload
// per row, so a full result overflows any write buffer plus the kernel
// socket buffers and genuinely wedges a writer whose peer stops reading.
func wideDB(t *testing.T, rows int) *engine.DB {
	t.Helper()
	db := engine.New(6)
	pad := strings.Repeat("x", 1024)
	rel := &schema.Relation{Name: "BIG", Columns: []schema.Column{
		{Name: "K", Type: value.KindInt},
		{Name: "V", Type: value.KindInt},
		{Name: "P", Type: value.KindString},
	}}
	if err := db.CreateRelation(rel, 8); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		row := storage.Tuple{value.NewInt(int64(i)), value.NewInt(int64(i % 5)), value.NewString(pad)}
		if err := db.Insert("BIG", row); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Seal("BIG"); err != nil {
		t.Fatal(err)
	}
	rb := &schema.Relation{Name: "RB", Columns: []schema.Column{
		{Name: "K", Type: value.KindInt},
		{Name: "V", Type: value.KindInt},
	}}
	if err := db.CreateRelation(rb, 2); err != nil {
		t.Fatal(err)
	}
	for i := range 40 {
		row := storage.Tuple{value.NewInt(int64(i % 7)), value.NewInt(int64(i % 5))}
		if err := db.Insert("RB", row); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Seal("RB"); err != nil {
		t.Fatal(err)
	}
	return db
}

const wideQuery = "SELECT T1.K, T1.P FROM BIG T1 WHERE T1.V IN (SELECT T2.V FROM RB T2)"

// rawHandshake dials addr and completes a Hello exchange with the given
// flags, returning the conn and the negotiated codec.
func rawHandshake(t *testing.T, addr string, h wire.Hello) (net.Conn, *bufio.Reader, wire.Codec) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	// Pin the receive buffer small: kernel autotuning would otherwise
	// grow it to tens of MiB on loopback and absorb an entire "wedged"
	// result, making backpressure tests vacuous.
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetReadBuffer(32 << 10)
	}
	if err := wire.WriteFrame(nc, wire.FrameHello, wire.EncodeHello(h)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	typ, payload, err := wire.ReadFrame(br)
	if err != nil || typ != wire.FrameHello {
		t.Fatalf("handshake reply: typ=0x%02x err=%v", typ, err)
	}
	reply, err := wire.DecodeHello(payload)
	if err != nil {
		t.Fatal(err)
	}
	return nc, br, wire.Codec{Checksums: reply.Flags&wire.FeatureChecksum != 0}
}

// TestSlowClientEvicted: a consumer that submits a big query and never
// reads a byte must be evicted once a flush exceeds the write deadline —
// the query cancelled, the admission slot released, the session gone —
// instead of wedging a goroutine for as long as the client feels like
// staying silent.
func TestSlowClientEvicted(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// ~32 MiB of result (the JA2 join multiplies the 4000 outer rows by
	// the subquery's duplicate V values): decisively more than the
	// server's write buffer plus both kernel socket buffers can absorb,
	// so the flush wedges.
	db := wideDB(t, 4000)
	db.EnableAdmission(admission.Config{MaxConcurrent: 4})
	srv, addr := startServer(t, db, server.Config{
		Strategy:     engine.TransformJA2,
		WriteTimeout: 300 * time.Millisecond,
	})

	nc, _, codec := rawHandshake(t, addr, wire.Hello{Version: wire.Version, Flags: wire.FeatureChecksum})
	q := wire.Query{SQL: wideQuery}
	if err := codec.WriteFrame(nc, wire.FrameQuery, wire.EncodeQuery(q)); err != nil {
		t.Fatal(err)
	}
	// Do not read. The server fills its write buffer and the socket,
	// then the flush stalls until the deadline evicts us. First wait for
	// the query to actually occupy its slot, or the idle Running==0
	// below would pass vacuously before execution begins.
	deadline := time.Now().Add(10 * time.Second)
	for db.Admission().Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	deadline = time.Now().Add(15 * time.Second)
	for db.Admission().Stats().Running != 0 || db.Admission().Stats().PoolUsed != 0 {
		if time.Now().After(deadline) {
			st := db.Admission().Stats()
			t.Fatalf("query still holds resources after eviction window: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The session must be gone: drain whatever was buffered and hit the
	// close. Among the final frames we should find the CodeSlowClient
	// notice if the socket had room for it; either way, EOF — not a hang.
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(nc)
	sawEviction, sawDone := false, false
	for {
		typ, payload, err := codec.ReadFrame(br)
		if err != nil {
			break // EOF/reset/torn frame: the close reached us
		}
		switch typ {
		case wire.FrameDone:
			sawDone = true
		case wire.FrameError:
			if f, err := wire.DecodeError(payload); err == nil && f.Code == wire.CodeSlowClient {
				sawEviction = true
			}
		}
	}
	if sawDone {
		t.Fatal("query completed despite the stalled consumer; the result fit in kernel buffers and nothing was evicted")
	}
	t.Logf("CodeSlowClient notice delivered: %v", sawEviction)
	nc.Close()

	// The server is still healthy for other clients.
	c := dial(t, addr)
	if _, err := c.Collect("SELECT T2.K, T2.V FROM RB T2 WHERE T2.V IN (SELECT T3.V FROM RB T3)", client.Options{}); err != nil {
		t.Fatalf("server unhealthy after eviction: %v", err)
	}
	srv.Shutdown(5 * time.Second)
	waitGoroutineBaseline(t, baseline, "slow-client eviction")
}

// TestShutdownBoundedWithStalledConsumer pins the bounded-shutdown fix:
// with an hour-long write deadline (so eviction never fires) and a
// client wedged mid-drain, Shutdown(300ms) must still return promptly by
// force-closing the connection — not block until the write deadline or
// the admission drain's internal grace would get around to it.
func TestShutdownBoundedWithStalledConsumer(t *testing.T) {
	db := wideDB(t, 4000)
	db.EnableAdmission(admission.Config{MaxConcurrent: 4})
	srv := server.New(db, server.Config{
		Strategy:     engine.TransformJA2,
		WriteTimeout: time.Hour,
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	nc, _, codec := rawHandshake(t, lis.Addr().String(), wire.Hello{Version: wire.Version})
	if err := codec.WriteFrame(nc, wire.FrameQuery, wire.EncodeQuery(wire.Query{SQL: wideQuery})); err != nil {
		t.Fatal(err)
	}
	// Wait until the query is running and has certainly wedged its flush.
	deadline := time.Now().Add(10 * time.Second)
	for db.Admission().Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond)

	start := time.Now()
	srv.Shutdown(300 * time.Millisecond)
	elapsed := time.Since(start)
	// Budget: timeout + clamped grace (100ms) + scheduling slack. The
	// regression this guards against blocked for the full 5s+ admission
	// drain grace (or, worse, the write deadline).
	if elapsed > 3*time.Second {
		t.Errorf("Shutdown took %v with a stalled consumer, want bounded by ~timeout+grace", elapsed)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("Serve: %v", err)
	}
	// The force-close must have cut the stream: the client drains what
	// was buffered and finds a torn end, not a Done frame.
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(nc)
	for {
		typ, _, err := wire.ReadFrame(br)
		if err != nil {
			break
		}
		if typ == wire.FrameDone {
			t.Fatal("stalled consumer received a complete result; the shutdown never had to cut anything")
		}
	}
	nc.Close()
}

// TestHeartbeatEvictsSilentPeer: an idle session whose client negotiated
// heartbeats but stopped answering pings is evicted after two unanswered
// intervals, with a typed goodbye.
func TestHeartbeatEvictsSilentPeer(t *testing.T) {
	_, addr := startServer(t, serverDB(t), server.Config{
		Strategy:          engine.TransformJA2,
		HeartbeatInterval: 50 * time.Millisecond,
	})
	nc, br, codec := rawHandshake(t, addr, wire.Hello{
		Version: wire.Version, Flags: wire.FeatureHeartbeat,
	})
	// Read frames but answer nothing: pings arrive, then the eviction
	// notice, then EOF.
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	pings := 0
	for {
		typ, payload, err := codec.ReadFrame(br)
		if err != nil {
			t.Fatalf("connection died before a typed eviction (after %d pings): %v", pings, err)
		}
		if typ == wire.FramePing {
			pings++
			continue
		}
		if typ != wire.FrameError {
			t.Fatalf("unexpected frame 0x%02x", typ)
		}
		f, err := wire.DecodeError(payload)
		if err != nil {
			t.Fatal(err)
		}
		if f.Code != wire.CodeProtocol || !strings.Contains(f.Message, "heartbeat") {
			t.Errorf("eviction frame %+v, want CodeProtocol heartbeat timeout", f)
		}
		break
	}
	if pings < 2 {
		t.Errorf("evicted after %d pings, want at least 2 chances to answer", pings)
	}
	if _, _, err := codec.ReadFrame(br); err == nil {
		t.Error("connection still open after heartbeat eviction")
	}
}

// TestHeartbeatSparesResponsivePeer: a real client answers pings from
// its read pump, so an idle-but-alive connection survives many
// heartbeat intervals and still runs queries afterwards.
func TestHeartbeatSparesResponsivePeer(t *testing.T) {
	_, addr := startServer(t, serverDB(t), server.Config{
		Strategy:          engine.TransformJA2,
		HeartbeatInterval: 30 * time.Millisecond,
	})
	c := dial(t, addr)
	if !c.Heartbeats() {
		t.Fatal("client did not negotiate heartbeats")
	}
	time.Sleep(400 * time.Millisecond) // a dozen intervals of idleness
	if got, err := c.Collect(serverQuery, client.Options{}); err != nil || len(got.Rows) == 0 {
		t.Fatalf("idle-but-alive client evicted: %v", err)
	}
}

// TestHelloWithoutFlagsRejected: a peer sending a five-byte Hello (magic
// and version, no flags byte) is answered with a typed protocol Error
// frame, not a hang or a silent drop.
func TestHelloWithoutFlagsRejected(t *testing.T) {
	_, addr := startServer(t, serverDB(t), server.Config{Strategy: engine.TransformJA2})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, wire.FrameHello, []byte{'N', 'S', 'Q', 'D', wire.Version}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := wire.ReadFrame(bufio.NewReader(nc))
	if err != nil || typ != wire.FrameError {
		t.Fatalf("reply: typ=0x%02x err=%v, want an Error frame", typ, err)
	}
	if f, err := wire.DecodeError(payload); err != nil || f.Code != wire.CodeProtocol {
		t.Errorf("got %+v, %v; want CodeProtocol", f, err)
	}
}

// TestCorruptQueryFrameTypedError: a checksummed frame damaged in
// flight is detected server-side and answered with a protocol Error
// frame naming the corruption — never decoded into a garbled query.
func TestCorruptQueryFrameTypedError(t *testing.T) {
	_, addr := startServer(t, serverDB(t), server.Config{Strategy: engine.TransformJA2})
	nc, br, codec := rawHandshake(t, addr, wire.Hello{
		Version: wire.Version, Flags: wire.FeatureChecksum,
	})
	if !codec.Checksums {
		t.Fatal("server did not grant checksums")
	}
	// Encode a valid checksummed Query frame, then flip one payload byte.
	var buf strings.Builder
	if err := codec.WriteFrame(&buf, wire.FrameQuery, wire.EncodeQuery(wire.Query{SQL: serverQuery})); err != nil {
		t.Fatal(err)
	}
	frame := []byte(buf.String())
	frame[len(frame)/2] ^= 0x40
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := codec.ReadFrame(br)
	if err != nil {
		t.Fatalf("no typed reply to a corrupt frame: %v", err)
	}
	if typ != wire.FrameError {
		t.Fatalf("got frame 0x%02x, want Error", typ)
	}
	f, err := wire.DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if f.Code != wire.CodeProtocol || !strings.Contains(f.Message, "corrupt") {
		t.Errorf("corruption surfaced as %+v, want CodeProtocol mentioning corruption", f)
	}
}

// TestChecksumNegotiationOptOut: a peer that leaves FeatureChecksum out
// of its Hello gets plain framing without breaking the session.
func TestChecksumNegotiationOptOut(t *testing.T) {
	_, addr := startServer(t, serverDB(t), server.Config{Strategy: engine.TransformJA2})
	nc, br, codec := rawHandshake(t, addr, wire.Hello{Version: wire.Version, Flags: wire.FeatureHeartbeat})
	if codec.Checksums {
		t.Fatal("server granted checksums the peer never asked for")
	}
	// Plain framing end to end: a query must stream back and finish.
	if err := codec.WriteFrame(nc, wire.FrameQuery, wire.EncodeQuery(wire.Query{SQL: serverQuery})); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	for rows := 0; ; {
		typ, payload, err := codec.ReadFrame(br)
		if err != nil {
			t.Fatalf("plain-framing stream broke: %v", err)
		}
		if typ == wire.FrameDone {
			if rows == 0 {
				t.Error("plain-framing query returned no rows")
			}
			return
		}
		b, err := wire.DecodeRowBatch(payload)
		if typ != wire.FrameRowBatch || err != nil {
			t.Fatalf("unexpected frame 0x%02x (%v)", typ, err)
		}
		rows += len(b.Rows)
	}
}

// TestWriteErrorSinkFenceReleasesPromptly: errors.Is works through the
// ConnectionLostError multi-unwrap when corruption killed the link.
func TestConnectionLostUnwrapsCause(t *testing.T) {
	cause := wire.ErrCorruptFrame
	err := error(&client.ConnectionLostError{Cause: cause})
	if !errors.Is(err, client.ErrConnectionLost) {
		t.Error("ConnectionLostError does not match ErrConnectionLost")
	}
	if !errors.Is(err, wire.ErrCorruptFrame) {
		t.Error("ConnectionLostError hides its cause from errors.Is")
	}
}
