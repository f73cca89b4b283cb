// Connection pooling. A Conn runs one query stream at a time, so a
// coordinator that wants inter-query parallelism against the same worker
// needs several of them. Pool keeps a small free list of healthy idle
// connections per address: Get reuses one or dials fresh, Put returns a
// connection after a clean exchange, Discard drops one that failed. A
// pooled idle connection still answers server heartbeats from its read
// pump, so it survives idle-session eviction between checkouts.
package client

import (
	"errors"
	"sync"
)

// Healthy reports whether the connection can accept a new request: no
// sticky error, no stream in flight, and a read pump that is still
// running. A false answer is final — pools drop unhealthy conns.
func (c *Conn) Healthy() bool {
	if c.err == nil && c.active == nil {
		c.dropStray()
	}
	if c.err != nil || c.active != nil {
		return false
	}
	select {
	case <-c.tr.done:
		return false
	default:
		return true
	}
}

// Pool is a free list of connections to one address. Safe for concurrent
// use; the connections it hands out are not (each checkout is exclusive
// until Put or Discard).
type Pool struct {
	addr string
	opts DialOptions

	mu     sync.Mutex
	idle   []*Conn
	closed bool
}

// maxIdle bounds a pool's free list; connections beyond it are closed on
// Put.
const maxIdle = 4

// NewPool creates a pool dialing addr with opts.
func NewPool(addr string, opts DialOptions) *Pool {
	return &Pool{addr: addr, opts: opts}
}

// Addr returns the pooled address.
func (p *Pool) Addr() string { return p.addr }

// Get checks out a connection: the most recently returned healthy idle
// one, else a fresh dial. Idle connections that died while pooled (a
// worker restart closes them) are discarded on the way.
func (p *Pool) Get() (*Conn, error) {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, errors.New("client: pool closed")
		}
		if n := len(p.idle); n > 0 {
			c := p.idle[n-1]
			p.idle = p.idle[:n-1]
			p.mu.Unlock()
			if c.Healthy() {
				return c, nil
			}
			c.Close()
			continue
		}
		p.mu.Unlock()
		return DialOpts(p.addr, p.opts)
	}
}

// Put returns a connection to the free list. Unhealthy connections and
// overflow beyond maxIdle are closed instead.
func (p *Pool) Put(c *Conn) {
	if c == nil {
		return
	}
	if !c.Healthy() {
		c.Close()
		return
	}
	p.mu.Lock()
	if p.closed || len(p.idle) >= maxIdle {
		p.mu.Unlock()
		c.Close()
		return
	}
	p.idle = append(p.idle, c)
	p.mu.Unlock()
}

// Discard closes a checked-out connection that failed; nothing returns
// to the free list.
func (p *Pool) Discard(c *Conn) {
	if c != nil {
		c.Close()
	}
}

// Close closes every idle connection and rejects future Gets.
// Checked-out connections are the caller's to close.
func (p *Pool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}
