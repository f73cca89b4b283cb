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

// reconnectCfg is a fast deterministic backoff for tests.
func reconnectCfg() *client.ReconnectConfig {
	return &client.ReconnectConfig{BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 1}
}

// TestReconnectResubmitsWhenNothingReceived: the first connection dies
// right after the query is submitted — before any RowBatch — so the
// client redials and resubmits transparently; the caller sees only the
// clean result from the second connection.
func TestReconnectResubmitsWhenNothingReceived(t *testing.T) {
	fs := newFakeServer(t, func(idx int, nc net.Conn) {
		br := bufio.NewReader(nc)
		codec := serverHandshake(t, nc, br)
		if _, ok := readQuery(t, codec, br); !ok {
			return
		}
		if idx == 0 {
			return // die without answering: zero batches received
		}
		batch, done := oneRowResult()
		codec.WriteFrame(nc, wire.FrameRowBatch, wire.EncodeRowBatch(batch))
		codec.WriteFrame(nc, wire.FrameDone, wire.EncodeDone(done))
	})
	c, err := client.DialOpts(fs.addr(), client.DialOptions{Reconnect: reconnectCfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Collect("SELECT 1", client.Options{})
	if err != nil {
		t.Fatalf("reconnect did not heal a pre-batch loss: %v", err)
	}
	if len(res.Rows) != 1 || res.Done.Rows != 1 {
		t.Errorf("got %d rows (done=%d), want 1", len(res.Rows), res.Done.Rows)
	}
	if n := fs.conns.Load(); n != 2 {
		t.Errorf("server saw %d connections, want 2 (original + one reconnect)", n)
	}
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

// TestNoResubmitAfterFirstBatch: once a RowBatch has been delivered, a
// dying connection must NOT be resubmitted — a second execution would
// silently duplicate the delivered rows. The stream fails typed.
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
	c, err := client.DialOpts(fs.addr(), client.DialOptions{Reconnect: reconnectCfg()})
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
	// Deterministically wait for a possible (forbidden) resubmission to
	// materialize before counting: the backoff ceiling is 20ms.
	time.Sleep(150 * time.Millisecond)
	if n := fs.conns.Load(); n != 1 {
		t.Errorf("server saw %d connections; the post-emission fence leaked a resubmit", n)
	}
}

// TestNextQueryRedialsAfterLoss: a connection poisoned by a mid-stream
// loss heals itself on the NEXT query when reconnection is configured —
// the failed stream's error stands, but the Conn is not bricked.
func TestNextQueryRedialsAfterLoss(t *testing.T) {
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
	c, err := client.DialOpts(fs.addr(), client.DialOptions{Reconnect: reconnectCfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Collect("SELECT 1", client.Options{}); !errors.Is(err, client.ErrConnectionLost) {
		t.Fatalf("first query: err = %v, want ErrConnectionLost", err)
	}
	res, err := c.Collect("SELECT 1", client.Options{})
	if err != nil {
		t.Fatalf("second query on a healable conn: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("second query got %d rows, want 1", len(res.Rows))
	}
}

// TestOverloadRetryAfterSurvivesReconnect: a server that sheds with a
// retry-after hint and then drops the connection must not be redialed
// before the hint expires — the floor carries across the reconnect.
func TestOverloadRetryAfterSurvivesReconnect(t *testing.T) {
	const hint = 400 * time.Millisecond
	fs := newFakeServer(t, func(idx int, nc net.Conn) {
		br := bufio.NewReader(nc)
		codec := serverHandshake(t, nc, br)
		if _, ok := readQuery(t, codec, br); !ok {
			return
		}
		if idx == 0 {
			codec.WriteFrame(nc, wire.FrameError, wire.EncodeError(wire.ErrorFrame{
				Code: wire.CodeOverloaded, Message: "shed", RetryAfter: hint,
			}))
			return // hang up after shedding
		}
		batch, done := oneRowResult()
		codec.WriteFrame(nc, wire.FrameRowBatch, wire.EncodeRowBatch(batch))
		codec.WriteFrame(nc, wire.FrameDone, wire.EncodeDone(done))
	})
	c, err := client.DialOpts(fs.addr(), client.DialOptions{Reconnect: reconnectCfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Collect("SELECT 1", client.Options{})
	var ov *qctx.OverloadError
	if !errors.As(err, &ov) || ov.RetryAfter != hint {
		t.Fatalf("err = %v, want OverloadError carrying %v", err, hint)
	}

	// The overload shed is a query answer, not a connection loss — but
	// the server hung up right after it, so this Query must redial. The
	// redial has to respect the server's hint, not the 5ms backoff.
	start := time.Now()
	res, err := c.Collect("SELECT 1", client.Options{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("retry after shed: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("got %d rows, want 1", len(res.Rows))
	}
	if elapsed < hint/2 {
		t.Errorf("redial raced the retry-after floor: resubmitted after %v, hint was %v", elapsed, hint)
	}
}

// TestCancelDuringReconnect: closing the Cancel channel while the
// client sleeps in reconnect backoff aborts promptly with ErrCanceled —
// the caller is never held hostage by a retry schedule.
func TestCancelDuringReconnect(t *testing.T) {
	fs := newFakeServer(t, func(idx int, nc net.Conn) {
		br := bufio.NewReader(nc)
		codec := serverHandshake(t, nc, br)
		readQuery(t, codec, br)
		// Always die: the client will keep reconnecting until canceled.
	})
	cancel := make(chan struct{})
	c, err := client.DialOpts(fs.addr(), client.DialOptions{
		Reconnect: &client.ReconnectConfig{
			BaseDelay: 2 * time.Second, MaxDelay: 2 * time.Second, MaxAttempts: 10, Seed: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	go func() {
		time.Sleep(100 * time.Millisecond)
		close(cancel)
	}()
	start := time.Now()
	_, err = c.Collect("SELECT 1", client.Options{Cancel: cancel})
	elapsed := time.Since(start)
	if !errors.Is(err, qctx.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed > time.Second {
		t.Errorf("cancel took %v to take effect; backoff sleep ignored the channel", elapsed)
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

// TestReconnectGivesUpTyped: when every redial fails, the final error
// still matches ErrConnectionLost (wrapped in the give-up report).
func TestReconnectGivesUpTyped(t *testing.T) {
	fs := newFakeServer(t, func(idx int, nc net.Conn) {
		br := bufio.NewReader(nc)
		codec := serverHandshake(t, nc, br)
		readQuery(t, codec, br)
	})
	c, err := client.DialOpts(fs.addr(), client.DialOptions{
		Reconnect: &client.ReconnectConfig{
			BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, MaxAttempts: 2, Seed: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs.lis.Close() // every redial now fails outright
	_, err = c.Collect("SELECT 1", client.Options{})
	if err == nil {
		t.Fatal("query succeeded against a dead server")
	}
}

// TestRedialBackoffNeverOverflows: 81 redials against a dead server walk
// the backoff far past the attempt where BaseDelay·2^attempt overflows
// int64 (the 40th, at the default 20ms). Every delay must stay in
// (0, MaxDelay]: a negative one panics the jitter roll, an uncapped one
// blows the time bound.
func TestRedialBackoffNeverOverflows(t *testing.T) {
	fs := newFakeServer(t, func(idx int, nc net.Conn) {
		br := bufio.NewReader(nc)
		codec := serverHandshake(t, nc, br)
		readQuery(t, codec, br)
	})
	c, err := client.DialOpts(fs.addr(), client.DialOptions{
		Reconnect: &client.ReconnectConfig{MaxDelay: time.Millisecond, MaxAttempts: 81, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs.lis.Close()
	start := time.Now()
	_, err = c.Collect("SELECT 1", client.Options{})
	if err == nil || !strings.Contains(err.Error(), "gave up after 81 attempts") {
		t.Fatalf("err = %v, want the give-up report after 81 attempts", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("81 redials capped at 1ms each took %v", elapsed)
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
