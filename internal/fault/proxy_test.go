package fault_test

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/fault"
)

// echoServer accepts connections and echoes bytes back until closed.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }()
		}
	}()
	t.Cleanup(func() { lis.Close() })
	return lis
}

// TestProxyForwardsCleanly: with every probability at zero the proxy is
// a transparent pipe, chunk boundaries included.
func TestProxyForwardsCleanly(t *testing.T) {
	lis := echoServer(t)
	inj := fault.New(fault.Plan{Seed: 1})
	p, err := fault.NewProxy(lis.Addr().String(), inj)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := bytes.Repeat([]byte("nested queries revisited "), 400) // ~10 KiB, several chunks
	go c.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Error("clean proxy corrupted the stream")
	}
	if inj.Injected() != 0 {
		t.Errorf("clean proxy reported %d faults", inj.Injected())
	}
}

// TestProxyCorruptsExactlyOnce: with net.corrupt=1 and max=1, the
// stream arrives same-length but not byte-identical, and the fault
// counter reads 1.
func TestProxyCorruptsExactlyOnce(t *testing.T) {
	lis := echoServer(t)
	inj := fault.New(fault.Plan{Seed: 7, Max: 1, Rates: fault.Rates{fault.NetCorrupt: 1}})
	p, err := fault.NewProxy(lis.Addr().String(), inj)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := bytes.Repeat([]byte{0x00}, 2048)
	go c.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		if got[i] != msg[i] {
			diff++
		}
	}
	// The echo path crosses the proxy twice, but max=1 allows only
	// one flip in total; a flip is a single bit of a single byte.
	if diff != 1 {
		t.Errorf("%d bytes differ, want exactly 1", diff)
	}
	if inj.Injected() != 1 {
		t.Errorf("Injected() = %d, want 1", inj.Injected())
	}
}

// TestProxyTruncateClosesLink: a truncation fault cuts the stream and
// hard-closes the connection — the reader sees EOF, not a hang.
func TestProxyTruncateClosesLink(t *testing.T) {
	lis := echoServer(t)
	inj := fault.New(fault.Plan{Seed: 3, Rates: fault.Rates{fault.NetTruncate: 1}})
	p, err := fault.NewProxy(lis.Addr().String(), inj)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := bytes.Repeat([]byte{0xEE}, 4096)
	go c.Write(msg)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := io.ReadFull(c, make([]byte, len(msg)))
	if err == nil || n >= len(msg) {
		t.Errorf("truncating proxy delivered %d/%d bytes without error", n, len(msg))
	}
	if inj.Injected() == 0 {
		t.Error("no fault recorded")
	}
}

// TestProxyPartitionStallsUntilClose: a partitioned link goes silent —
// reads block — until the proxy is closed, which severs it.
func TestProxyPartitionStallsUntilClose(t *testing.T) {
	lis := echoServer(t)
	p, err := fault.NewProxy(lis.Addr().String(), fault.New(fault.Plan{Seed: 5, Rates: fault.Rates{fault.NetPartition: 1}}))
	if err != nil {
		t.Fatal(err)
	}

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello?")); err != nil {
		t.Fatal(err)
	}
	// The link is partitioned: nothing comes back within the grace read.
	c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if n, err := c.Read(make([]byte, 16)); err == nil {
		t.Fatalf("read %d bytes through a partition", n)
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("partition surfaced as %v, want a read timeout", err)
	}
	// Closing the proxy severs the link: the next read errors fast.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 16)); err == nil {
		t.Error("read succeeded after proxy close")
	}
}

// TestProxyDeterministicSchedule: two proxies with the same seed inject
// the same fault schedule for the same traffic.
func TestProxyDeterministicSchedule(t *testing.T) {
	run := func() []byte {
		lis := echoServer(t)
		p, err := fault.NewProxy(lis.Addr().String(), fault.New(fault.Plan{Seed: 99, Rates: fault.Rates{fault.NetCorrupt: 0.3}}))
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		c, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		msg := bytes.Repeat([]byte{0x00}, 512)
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(msg))
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(c, got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	// One small write of zeros produces one chunk per direction, so the
	// seeded schedule fully determines which bytes flip.
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Error("same seed, same traffic, different corruption schedule")
	}
}
