package fault

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy is an in-process TCP proxy that applies the net.* sites to the
// traffic it forwards: it sits between a client and a server and rolls
// its injector once per chunk — one read off one side of one connection,
// at most 4 KiB, so a single query's stream rolls many times; the first
// hard fault to fire wins the chunk. Each direction of each connection
// has its own stream (Injector.Conn), so the schedule of a connection
// replays whatever the goroutine interleaving; which connection gets
// which accept index is the only nondeterminism left. Create with
// NewProxy, point clients at Addr, stop with Close (which also severs any
// partitioned links still blocking).
type Proxy struct {
	in     atomic.Pointer[Injector]
	target string
	lis    net.Listener
	done   chan struct{}

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	nconn  int64
	closed bool

	wg sync.WaitGroup
}

// NewProxy starts a proxy on a random loopback port forwarding to
// target, armed with in (nil forwards cleanly).
func NewProxy(target string, in *Injector) (*Proxy, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		target: target,
		lis:    lis,
		done:   make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	p.Arm(in)
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Arm replaces the injector for all subsequent chunks, including on links
// already open; nil disarms. A proxy created disarmed and armed later
// lets a test load its fixture cleanly and then storm only the phase
// under study.
func (p *Proxy) Arm(in *Injector) {
	if in == nil {
		in = New(Plan{})
	}
	p.in.Store(in)
}

// Addr is the address clients should dial instead of the target.
func (p *Proxy) Addr() string { return p.lis.Addr().String() }

// Connections reports how many client connections the proxy has accepted.
func (p *Proxy) Connections() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nconn
}

// Close stops accepting, severs every link (including partitioned ones),
// and waits for the pump goroutines to unwind.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	err := p.lis.Close()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}

// track registers a connection for Close; it reports false (and closes
// the conn) when the proxy is already shut down.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.lis.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		idx := p.nconn
		p.nconn++
		p.mu.Unlock()
		if !p.track(client) {
			return
		}
		p.wg.Add(1)
		go p.link(client, idx)
	}
}

// link dials the target and pumps both directions until a fault or
// either peer ends the connection.
func (p *Proxy) link(client net.Conn, idx int64) {
	defer p.wg.Done()
	server, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil || !p.track(server) {
		p.untrack(client)
		client.Close()
		return
	}
	l := &pipe{p: p, idx: idx, a: client, b: server}
	p.wg.Add(2)
	go l.pump(client, server, 0)
	go l.pump(server, client, 1)
}

// pipe is one client↔server link: both conns, plus the partition latch
// that stalls the opposite pump too once either direction partitions —
// both stop forwarding after their current read, but the conns stay open
// so peers see a hang, not a reset.
type pipe struct {
	p    *Proxy
	idx  int64
	a, b net.Conn
	once sync.Once
	part atomic.Bool
}

// sever hard-closes both sides of the link.
func (l *pipe) sever() {
	l.once.Do(func() {
		l.p.untrack(l.a)
		l.p.untrack(l.b)
		l.a.Close()
		l.b.Close()
	})
}

// stall blocks a partitioned pump until the proxy shuts down.
func (l *pipe) stall() {
	<-l.p.done
	l.sever()
}

// pump forwards src→dst chunk by chunk, rolling its direction's stream
// once per chunk.
func (l *pipe) pump(src, dst net.Conn, dir int) {
	defer l.p.wg.Done()
	var in *Injector
	var st *Stream
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if l.part.Load() {
				l.stall()
				return
			}
			// Reloaded per chunk so Arm takes effect on open links, which
			// start the new plan's stream for their index and direction.
			if cur := l.p.in.Load(); cur != in {
				in, st = cur, cur.Conn(l.idx, dir)
			}
			chunk := buf[:n]
			if st.Hit(NetDelay) {
				time.Sleep(in.plan.Latency)
			}
			switch {
			case st.Hit(NetDrop):
				l.sever()
				return
			case st.Hit(NetPartition):
				l.part.Store(true)
				l.stall()
				return
			case st.Hit(NetTruncate):
				// Forward a prefix — cutting mid-frame with high
				// probability — then slam the door.
				if cut := st.Intn(n); cut > 0 {
					dst.Write(chunk[:cut])
				}
				l.sever()
				return
			case st.Hit(NetCorrupt):
				chunk[st.Intn(n)] ^= 1 << uint(st.Intn(8))
			}
			if err2 := forward(dst, chunk, st); err2 != nil {
				l.sever()
				return
			}
		}
		if err != nil {
			l.sever()
			return
		}
	}
}

// forward writes one chunk: whole, or on a NetSplit hit in several
// smaller writes with tiny gaps.
func forward(dst net.Conn, chunk []byte, st *Stream) error {
	split := len(chunk) > 1 && st.Hit(NetSplit)
	for len(chunk) > 0 {
		piece := len(chunk)
		if split {
			piece = 1 + st.Intn(len(chunk))
		}
		if _, err := dst.Write(chunk[:piece]); err != nil {
			return err
		}
		if chunk = chunk[piece:]; len(chunk) > 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}
