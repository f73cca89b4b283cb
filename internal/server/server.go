// Package server hosts an engine.DB behind the wire protocol: a TCP
// listener accepting length-prefixed binary frames (see internal/wire),
// one session per connection, streamed row batches with real executor
// backpressure, and a graceful shutdown that drains in-flight queries
// through the admission layer before closing connections.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
)

// Config tunes a Server. The zero value is usable: the engine's
// NestedIteration for wire.StrategyDefault, sequential plans, 64-row
// batches, client-requested deadlines taken as sent, and no cap on row
// budgets.
type Config struct {
	// BatchRows bounds rows per RowBatch frame (0 = exec default of 64).
	BatchRows int
	// MaxRows caps (and defaults) the per-query row budget. 0 = accept
	// the client's value unchanged.
	MaxRows int64
	// Strategy answers wire.StrategyDefault. The zero value is the
	// engine's NestedIteration; nestedsqld overrides it to TransformJA2.
	Strategy engine.Strategy
	// WriteTimeout bounds each frame write (0 = 30s). A client that
	// stops reading stalls the query through backpressure first; this is
	// the slow-client eviction deadline: when a flush exceeds it, the
	// stalled query is cancelled (freeing its admission slot and pool
	// lease), a CodeSlowClient Error frame is attempted, and the
	// connection closes.
	WriteTimeout time.Duration
	// HeartbeatInterval paces Ping frames on idle sessions whose client
	// negotiated FeatureHeartbeat (0 = 15s). Two unanswered pings in a
	// row evict the peer as dead.
	HeartbeatInterval time.Duration
}

const (
	// handshakeTimeout bounds how long a fresh connection may dawdle
	// before its Hello arrives.
	handshakeTimeout = 5 * time.Second
	// writeBufferBytes sizes the per-connection buffered writer. The
	// buffer plus the kernel socket buffer is all the result data the
	// server will hold for a slow client; past that, the executor's pull
	// loop blocks on the flush.
	writeBufferBytes = 32 << 10
)

func (c Config) writeTimeout() time.Duration {
	if c.WriteTimeout <= 0 {
		return 30 * time.Second
	}
	return c.WriteTimeout
}

func (c Config) heartbeatInterval() time.Duration {
	if c.HeartbeatInterval <= 0 {
		return 15 * time.Second
	}
	return c.HeartbeatInterval
}

// Backend is what a Server fronts: a local engine.DB, or a cluster
// coordinator that fans each statement out to worker engines. Either
// way the session layer speaks the same wire protocol; only a backend
// that IS a local engine additionally grants FeatureCluster and answers
// Snapshot and Load frames (a coordinator moves rows between workers, it
// is never one).
type Backend interface {
	ExecSQL(sql string, opts engine.Options) (*engine.Result, error)
	Drain(timeout time.Duration) error
}

// Server owns a listener and its sessions. Create with New (a local
// engine) or NewBackend (any Backend), run with Serve, stop with
// Shutdown.
type Server struct {
	db  Backend
	eng *engine.DB // non-nil when the backend is a local engine (worker role)
	cfg Config

	mu       sync.Mutex
	lis      net.Listener
	sessions map[*session]struct{}
	closing  bool

	wg sync.WaitGroup // live session goroutines
}

// New builds a Server around an opened engine. Enable admission on the
// DB before serving if you want overload shedding and a draining
// Shutdown; without it queries run ungated and Shutdown cuts
// connections without waiting.
func New(db *engine.DB, cfg Config) *Server {
	return &Server{db: db, eng: db, cfg: cfg, sessions: make(map[*session]struct{})}
}

// NewBackend builds a Server around any Backend (e.g. a cluster
// coordinator). When the backend happens to be a local engine this is
// identical to New.
func NewBackend(b Backend, cfg Config) *Server {
	eng, _ := b.(*engine.DB)
	return &Server{db: b, eng: eng, cfg: cfg, sessions: make(map[*session]struct{})}
}

// DB returns the local engine this server fronts, or nil when the
// backend is not a local engine (coordinator role).
func (s *Server) DB() *engine.DB { return s.eng }

// Addr returns the listener address once Serve has been called, for
// tests and for logging "listening on" lines with a :0 port.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Serve accepts connections on lis until Shutdown closes it, spawning
// one session per connection. It returns nil after a Shutdown, or the
// accept error otherwise.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		lis.Close()
		return errors.New("server: already shut down")
	}
	s.lis = lis
	s.mu.Unlock()

	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if closing {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		sess := newSession(s, conn)
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.sessions[sess] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			sess.serve()
		}()
	}
}

// Shutdown stops the server gracefully: the listener closes (Serve
// returns), the engine drains — in-flight queries get until timeout to
// finish streaming, queued and new ones are shed — then every
// connection is closed, a session writing a drained statement's Done
// frame once it has (its write deadline bounds that), and Shutdown waits
// for the sessions to unwind.
// It returns the drain error, if any (stragglers were canceled).
//
// The whole sequence is bounded by the timeout: the drain runs
// concurrently, and if it has not finished shortly after the deadline —
// a canceled query can still be wedged in a frame flush to a client
// that stopped reading mid-drain, which no qctx cancellation can
// unblock — the connections are closed anyway, which breaks the stalled
// writes and lets the drain observe the queries unwinding.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil
	}
	s.closing = true
	lis := s.lis
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}

	// Drain while connections stay up, so finishing queries can still
	// flush their Done frames to the client — but don't let a stalled
	// consumer hold Shutdown hostage past the deadline.
	drained := make(chan error, 1)
	go func() { drained <- s.db.Drain(timeout) }()
	grace := timeout / 4
	if grace < 100*time.Millisecond {
		grace = 100 * time.Millisecond
	} else if grace > time.Second {
		grace = time.Second
	}
	var drainErr error
	gotDrain := false
	select {
	case drainErr = <-drained:
		gotDrain = true
	case <-time.After(timeout + grace):
	}

	s.mu.Lock()
	for sess := range s.sessions {
		// A drained statement may still be writing its Done frame: stop
		// the session's reads instead, and it closes itself once idle.
		if cr, ok := sess.conn.(interface{ CloseRead() error }); !ok || !gotDrain || cr.CloseRead() != nil {
			sess.conn.Close()
		}
	}
	s.mu.Unlock()
	if !gotDrain {
		// Closing the connections failed any wedged flushes, so the
		// queries holding the drain open error out promptly.
		drainErr = <-drained
	}
	s.wg.Wait()
	return drainErr
}

func (s *Server) removeSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
}
