package client_test

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/qctx"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wire"
)

// The client's failure semantics are pinned against a scripted fake
// server: each test controls exactly what happens on the Nth connection
// — refuse, die mid-stream, answer overloaded — which no real server
// can be asked to do deterministically.

// fakeServer runs handler once per accepted connection, passing the
// zero-based connection index.
type fakeServer struct {
	lis   net.Listener
	conns atomic.Int64
}

func newFakeServer(t *testing.T, handler func(idx int, nc net.Conn)) *fakeServer {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{lis: lis}
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			idx := int(fs.conns.Add(1)) - 1
			go func() {
				defer nc.Close()
				handler(idx, nc)
			}()
		}
	}()
	t.Cleanup(func() { lis.Close() })
	return fs
}

func (fs *fakeServer) addr() string { return fs.lis.Addr().String() }

// serverHandshake performs the server side of the Hello exchange,
// granting every requested feature, and returns the negotiated codec.
func serverHandshake(t *testing.T, nc net.Conn, br *bufio.Reader) wire.Codec {
	t.Helper()
	typ, payload, err := wire.ReadFrame(br)
	if err != nil || typ != wire.FrameHello {
		t.Errorf("fake server: handshake frame 0x%02x err=%v", typ, err)
		return wire.Codec{}
	}
	h, err := wire.DecodeHello(payload)
	if err != nil {
		t.Error(err)
		return wire.Codec{}
	}
	reply := wire.Hello{Version: wire.Version, Flags: h.Flags}
	if err := wire.WriteFrame(nc, wire.FrameHello, wire.EncodeHello(reply)); err != nil {
		t.Error(err)
	}
	return wire.Codec{Checksums: h.Flags&wire.FeatureChecksum != 0}
}

func readQuery(t *testing.T, codec wire.Codec, br *bufio.Reader) (wire.Query, bool) {
	t.Helper()
	typ, payload, err := codec.ReadFrame(br)
	if err != nil {
		return wire.Query{}, false
	}
	if typ != wire.FrameQuery {
		t.Errorf("fake server: got frame 0x%02x, want Query", typ)
		return wire.Query{}, false
	}
	q, err := wire.DecodeQuery(payload)
	if err != nil {
		t.Error(err)
		return wire.Query{}, false
	}
	return q, true
}

func oneRowResult() (wire.RowBatch, wire.Done) {
	return wire.RowBatch{
		Columns: []string{"K"},
		Rows:    []storage.Tuple{{value.NewInt(42)}},
	}, wire.Done{Rows: 1}
}

// TestRowsStayValidAfterNext pins the Stream row contract Collect and
// the cluster gather rely on to skip a copy: every Row() slice, kept
// across four batches without copying, still holds the server's row
// after the stream is closed — the stream never reuses one.
func TestRowsStayValidAfterNext(t *testing.T) {
	var sent []storage.Tuple
	for i := 0; i < 12; i++ {
		sent = append(sent, storage.Tuple{value.NewInt(int64(i)), value.NewString(strings.Repeat("r", i))})
	}
	fs := newFakeServer(t, func(idx int, nc net.Conn) {
		br := bufio.NewReader(nc)
		codec := serverHandshake(t, nc, br)
		if _, ok := readQuery(t, codec, br); !ok {
			return
		}
		for b := 0; b < len(sent); b += 3 {
			codec.WriteFrame(nc, wire.FrameRowBatch, wire.EncodeRowBatch(wire.RowBatch{Columns: []string{"K", "S"}, Rows: sent[b : b+3]}))
		}
		codec.WriteFrame(nc, wire.FrameDone, wire.EncodeDone(wire.Done{Rows: int64(len(sent))}))
	})
	c, err := client.Dial(fs.addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Query("SELECT K, S FROM T", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var kept []storage.Tuple
	for st.Next() {
		kept = append(kept, st.Row())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if len(kept) != len(sent) {
		t.Fatalf("kept %d rows, server sent %d", len(kept), len(sent))
	}
	for i, row := range kept {
		if row.String() != sent[i].String() {
			t.Errorf("row %d reads %v after Close, server sent %v", i, row, sent[i])
		}
	}
}

// TestNoResubmitAfterFirstBatch: a connection that dies after delivering
// a RowBatch fails the stream typed. Nothing sends the query again — a
// second execution would duplicate the delivered rows — so the server
// sees one connection.
func TestNoResubmitAfterFirstBatch(t *testing.T) {
	fs := newFakeServer(t, func(idx int, nc net.Conn) {
		br := bufio.NewReader(nc)
		codec := serverHandshake(t, nc, br)
		if _, ok := readQuery(t, codec, br); !ok {
			return
		}
		batch, _ := oneRowResult()
		codec.WriteFrame(nc, wire.FrameRowBatch, wire.EncodeRowBatch(batch))
		// Die mid-stream: batch delivered, no Done.
	})
	c, err := client.Dial(fs.addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Query("SELECT 1", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for st.Next() {
		rows++
	}
	if rows != 1 {
		t.Errorf("delivered %d rows before the loss, want 1", rows)
	}
	err = st.Err()
	if !errors.Is(err, client.ErrConnectionLost) {
		t.Fatalf("err = %v, want ErrConnectionLost", err)
	}
	var lost *client.ConnectionLostError
	if !errors.As(err, &lost) {
		t.Fatal("error does not expose *ConnectionLostError")
	}
	if n := fs.conns.Load(); n != 1 {
		t.Errorf("server saw %d connections, want 1: the query was sent again", n)
	}
}

// TestLostConnStaysFailed: a connection that lost its link stays failed.
// The next query on it returns the same typed loss without dialing; a
// fresh Dial is what runs it.
func TestLostConnStaysFailed(t *testing.T) {
	fs := newFakeServer(t, func(idx int, nc net.Conn) {
		br := bufio.NewReader(nc)
		codec := serverHandshake(t, nc, br)
		if _, ok := readQuery(t, codec, br); !ok {
			return
		}
		batch, done := oneRowResult()
		codec.WriteFrame(nc, wire.FrameRowBatch, wire.EncodeRowBatch(batch))
		if idx == 0 {
			return // first query dies after its batch
		}
		codec.WriteFrame(nc, wire.FrameDone, wire.EncodeDone(done))
	})
	c, err := client.Dial(fs.addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Collect("SELECT 1", client.Options{}); !errors.Is(err, client.ErrConnectionLost) {
		t.Fatalf("first query: err = %v, want ErrConnectionLost", err)
	}
	if _, err := c.Collect("SELECT 1", client.Options{}); !errors.Is(err, client.ErrConnectionLost) {
		t.Fatalf("second query on the lost conn: err = %v, want ErrConnectionLost", err)
	}
	if c.Healthy() {
		t.Error("a lost connection reports healthy")
	}
	if n := fs.conns.Load(); n != 1 {
		t.Fatalf("server saw %d connections, want 1: the lost conn dialed again", n)
	}
	fresh, err := client.Dial(fs.addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	res, err := fresh.Collect("SELECT 1", client.Options{})
	if err != nil {
		t.Fatalf("query on a fresh conn: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("fresh conn got %d rows, want 1", len(res.Rows))
	}
}

// TestOverloadLeavesConnUsable: a shed is an answer, not a loss. The
// caller gets the typed OverloadError carrying the server's retry-after
// hint, and the same connection runs the next query.
func TestOverloadLeavesConnUsable(t *testing.T) {
	const hint = 400 * time.Millisecond
	fs := newFakeServer(t, func(idx int, nc net.Conn) {
		br := bufio.NewReader(nc)
		codec := serverHandshake(t, nc, br)
		if _, ok := readQuery(t, codec, br); !ok {
			return
		}
		codec.WriteFrame(nc, wire.FrameError, wire.EncodeError(wire.ErrorFrame{
			Code: wire.CodeOverloaded, Message: "shed", RetryAfter: hint,
		}))
		if _, ok := readQuery(t, codec, br); !ok {
			return
		}
		batch, done := oneRowResult()
		codec.WriteFrame(nc, wire.FrameRowBatch, wire.EncodeRowBatch(batch))
		codec.WriteFrame(nc, wire.FrameDone, wire.EncodeDone(done))
	})
	c, err := client.Dial(fs.addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Collect("SELECT 1", client.Options{})
	var ov *qctx.OverloadError
	if !errors.As(err, &ov) || ov.RetryAfter != hint {
		t.Fatalf("err = %v, want OverloadError carrying %v", err, hint)
	}
	res, err := c.Collect("SELECT 1", client.Options{})
	if err != nil {
		t.Fatalf("query after a shed: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("got %d rows, want 1", len(res.Rows))
	}
	if n := fs.conns.Load(); n != 1 {
		t.Errorf("server saw %d connections, want 1", n)
	}
}

// TestCancelAbandonsConn: closing Cancel while the server is silent ends
// the wait promptly with ErrCanceled. The answer may still be in flight,
// so the connection is abandoned: the next query on it returns the same
// error, and nothing is dialed.
func TestCancelAbandonsConn(t *testing.T) {
	fs := newFakeServer(t, func(idx int, nc net.Conn) {
		br := bufio.NewReader(nc)
		codec := serverHandshake(t, nc, br)
		readQuery(t, codec, br)
		codec.ReadFrame(br) // silent until the client hangs up
	})
	c, err := client.Dial(fs.addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cancel := make(chan struct{})
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(cancel)
	}()
	start := time.Now()
	_, err = c.Collect("SELECT 1", client.Options{Cancel: cancel})
	if !errors.Is(err, qctx.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancel took %v to take effect", elapsed)
	}
	if _, err := c.Collect("SELECT 1", client.Options{}); !errors.Is(err, qctx.ErrCanceled) {
		t.Errorf("query on the abandoned conn: err = %v, want the sticky ErrCanceled", err)
	}
	if n := fs.conns.Load(); n != 1 {
		t.Errorf("server saw %d connections, want 1", n)
	}
}

// TestClientAnswersPings: the read pump answers a server Ping with a
// Pong echoing the sequence, even while the caller is idle.
func TestClientAnswersPings(t *testing.T) {
	gotPong := make(chan uint64, 1)
	fs := newFakeServer(t, func(idx int, nc net.Conn) {
		br := bufio.NewReader(nc)
		codec := serverHandshake(t, nc, br)
		if err := codec.WriteFrame(nc, wire.FramePing, wire.EncodePing(7)); err != nil {
			return
		}
		typ, payload, err := codec.ReadFrame(br)
		if err != nil || typ != wire.FramePong {
			t.Errorf("fake server: got frame 0x%02x err=%v, want Pong", typ, err)
			return
		}
		seq, err := wire.DecodePing(payload)
		if err != nil {
			t.Error(err)
			return
		}
		gotPong <- seq
	})
	c, err := client.Dial(fs.addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	select {
	case seq := <-gotPong:
		if seq != 7 {
			t.Errorf("pong echoed seq %d, want 7", seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle client never answered the ping")
	}
}

// TestIOTimeoutSurfacesTyped: a server that accepts a query and then
// goes silent (a partition without RST) trips the client's IOTimeout
// with an error matching ErrConnectionLost instead of hanging forever.
func TestIOTimeoutSurfacesTyped(t *testing.T) {
	fs := newFakeServer(t, func(idx int, nc net.Conn) {
		br := bufio.NewReader(nc)
		codec := serverHandshake(t, nc, br)
		readQuery(t, codec, br)
		time.Sleep(10 * time.Second) // silence, connection held open
	})
	c, err := client.DialOpts(fs.addr(), client.DialOptions{IOTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Collect("SELECT 1", client.Options{})
	if !errors.Is(err, client.ErrConnectionLost) {
		t.Fatalf("err = %v, want ErrConnectionLost via IOTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("IOTimeout of 200ms surfaced after %v", elapsed)
	}
}

// TestGarbledHandshakeIsTyped: the Hello reply travels unchecksummed, so
// a reply damaged in flight — an impossible length, another frame type, a
// mangled payload — must still fail the dial typed, as a link failure.
func TestGarbledHandshakeIsTyped(t *testing.T) {
	hello := wire.EncodeHello(wire.Hello{Version: wire.Version})
	mangled := append([]byte(nil), hello...)
	mangled[0] ^= 0x20
	replies := map[string][]byte{
		"length":  {0x01, 0x00, 0x00, 0x07, wire.FrameHello},
		"type":    append([]byte{0, 0, 0, byte(1 + len(hello)), 0x7F}, hello...),
		"payload": append([]byte{0, 0, 0, byte(1 + len(hello)), wire.FrameHello}, mangled...),
		"error":   {0, 0, 0, 1, wire.FrameError},
	}
	for name, reply := range replies {
		fs := newFakeServer(t, func(idx int, nc net.Conn) {
			wire.ReadFrame(bufio.NewReader(nc))
			nc.Write(reply)
		})
		_, err := client.DialOpts(fs.addr(), client.DialOptions{Timeout: 2 * time.Second})
		if !errors.Is(err, wire.ErrCorruptFrame) || !client.LinkFailure(err) {
			t.Errorf("%s: dial error = %v, want a typed corrupt-frame link failure", name, err)
		}
	}
}
