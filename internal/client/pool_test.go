package client_test

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wire"
)

// echoServer answers any number of queries per connection with the
// one-row result, so pooled connections can be exercised repeatedly.
func echoServer(t *testing.T) *fakeServer {
	return newFakeServer(t, func(idx int, nc net.Conn) {
		br := bufio.NewReader(nc)
		codec := serverHandshake(t, nc, br)
		for {
			if _, ok := readQuery(t, codec, br); !ok {
				return
			}
			batch, done := oneRowResult()
			codec.WriteFrame(nc, wire.FrameRowBatch, wire.EncodeRowBatch(batch))
			codec.WriteFrame(nc, wire.FrameDone, wire.EncodeDone(done))
		}
	})
}

// TestPoolReusesIdleConn: Get after Put hands back the same connection
// instead of dialing again.
func TestPoolReusesIdleConn(t *testing.T) {
	fs := echoServer(t)
	p := client.NewPool(fs.addr(), client.DialOptions{}, 2)
	defer p.Close()
	for i := 0; i < 3; i++ {
		c, err := p.Get()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Collect("SELECT 1", client.Options{}); err != nil {
			t.Fatal(err)
		}
		p.Put(c)
	}
	if n := fs.conns.Load(); n != 1 {
		t.Fatalf("server saw %d connections, want 1 reused across 3 checkouts", n)
	}
}

// TestPoolDropsDeadIdleConn: a connection that died while pooled (the
// server closed it) is discarded by Get, which dials fresh instead of
// handing out a corpse.
func TestPoolDropsDeadIdleConn(t *testing.T) {
	fs := newFakeServer(t, func(idx int, nc net.Conn) {
		br := bufio.NewReader(nc)
		codec := serverHandshake(t, nc, br)
		if _, ok := readQuery(t, codec, br); !ok {
			return
		}
		batch, done := oneRowResult()
		codec.WriteFrame(nc, wire.FrameRowBatch, wire.EncodeRowBatch(batch))
		codec.WriteFrame(nc, wire.FrameDone, wire.EncodeDone(done))
		// Handler returns: the server closes the idle pooled connection.
	})
	p := client.NewPool(fs.addr(), client.DialOptions{}, 2)
	defer p.Close()
	c, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Collect("SELECT 1", client.Options{}); err != nil {
		t.Fatal(err)
	}
	p.Put(c)
	// Wait for the server-side close to reach the pooled conn's pump.
	for c.Healthy() {
		time.Sleep(time.Millisecond)
	}
	c2, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Put(c2)
	if _, err := c2.Collect("SELECT 1", client.Options{}); err != nil {
		t.Fatalf("fresh dial after dead idle conn: %v", err)
	}
	if n := fs.conns.Load(); n != 2 {
		t.Fatalf("server saw %d connections, want 2 (dead idle conn replaced)", n)
	}
}

// TestPoolDropsConnHoldingGoodbye: a server gives up on a session — a
// damaged Pong, a heartbeat timeout — with an Error frame, then closes.
// On an idle pooled connection nothing asked for that frame: it must
// retire the connection, not wait there to be read as the answer to the
// next request while the close behind it goes unseen.
func TestPoolDropsConnHoldingGoodbye(t *testing.T) {
	fs := newFakeServer(t, func(idx int, nc net.Conn) {
		br := bufio.NewReader(nc)
		codec := serverHandshake(t, nc, br)
		for {
			if _, ok := readQuery(t, codec, br); !ok {
				return
			}
			batch, done := oneRowResult()
			codec.WriteFrame(nc, wire.FrameRowBatch, wire.EncodeRowBatch(batch))
			codec.WriteFrame(nc, wire.FrameDone, wire.EncodeDone(done))
			if idx == 0 {
				codec.WriteFrame(nc, wire.FrameError, wire.EncodeError(wire.ErrorFrame{
					Code: wire.CodeProtocol, Message: "heartbeat timeout: no pong from peer",
				}))
				return
			}
		}
	})
	p := client.NewPool(fs.addr(), client.DialOptions{}, 2)
	defer p.Close()
	c, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Collect("SELECT 1", client.Options{}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); c.Healthy(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a connection holding the server's parting Error still reports healthy")
		}
	}
	p.Put(c)
	c2, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Put(c2)
	if _, err := c2.Collect("SELECT 1", client.Options{}); err != nil {
		t.Fatalf("the next checkout answered with %v", err)
	}
	if n := fs.conns.Load(); n != 2 {
		t.Fatalf("server saw %d connections, want 2 (the retired conn replaced)", n)
	}
}

// TestSnapshotStream: the snapshot exchange delivers the schema first,
// then rows, then Done — and a typed refusal leaves the conn usable.
func TestSnapshotStream(t *testing.T) {
	const createSQL = "CREATE TABLE T__S1 (K INTEGER)"
	fs := newFakeServer(t, func(idx int, nc net.Conn) {
		br := bufio.NewReader(nc)
		codec := serverHandshake(t, nc, br)
		for {
			typ, payload, err := codec.ReadFrame(br)
			if err != nil {
				return
			}
			if typ != wire.FrameSnapshot {
				t.Errorf("fake server: got frame 0x%02x, want Snapshot", typ)
				return
			}
			s, err := wire.DecodeSnapshot(payload)
			if err != nil {
				t.Error(err)
				return
			}
			if s.Table == "MISSING" {
				codec.WriteFrame(nc, wire.FrameError, wire.EncodeError(wire.ErrorFrame{
					Code: wire.CodeInternal, Message: "engine: unknown relation MISSING",
				}))
				continue
			}
			codec.WriteFrame(nc, wire.FrameSnapshotMeta, wire.EncodeSnapshotMeta(wire.SnapshotMeta{CreateSQL: createSQL}))
			for i := 0; i < 2; i++ {
				codec.WriteFrame(nc, wire.FrameRowBatch, wire.EncodeRowBatch(wire.RowBatch{
					Columns: []string{"K"},
					Rows:    []storage.Tuple{{value.NewInt(int64(i))}},
				}))
			}
			codec.WriteFrame(nc, wire.FrameDone, wire.EncodeDone(wire.Done{Rows: 2}))
		}
	})
	c, err := client.Dial(fs.addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var rows int
	meta, done, err := c.Snapshot("T__S1", func(b wire.RowBatch) error {
		rows += len(b.Rows)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if meta.CreateSQL != createSQL || rows != 2 || done.Rows != 2 {
		t.Fatalf("snapshot: meta=%q rows=%d done=%+v", meta.CreateSQL, rows, done)
	}

	// A refused table surfaces typed and the connection survives for the
	// next exchange.
	var re *wire.RemoteError
	if _, _, err := c.Snapshot("MISSING", func(wire.RowBatch) error { return nil }); !errors.As(err, &re) {
		t.Fatalf("missing table: err = %v, want RemoteError", err)
	}
	if !c.Healthy() {
		t.Fatal("typed snapshot refusal poisoned the connection")
	}
	if _, _, err := c.Snapshot("T__S1", func(wire.RowBatch) error { return nil }); err != nil {
		t.Fatalf("snapshot after refusal: %v", err)
	}
}
