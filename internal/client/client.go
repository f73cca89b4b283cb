// Package client is the Go client for the nestedsql wire protocol: it
// dials a nestedsqld server, runs queries, and streams result rows as
// the server produces them. Server-side failures surface as
// *wire.RemoteError, which unwraps into the same qctx taxonomy a local
// engine returns — errors.Is(err, nestedsql.ErrOverloaded) and
// errors.As(err, &*qctx.OverloadError) work unchanged, retry-after
// hint included.
//
// # Fault tolerance
//
// A connection negotiates checksummed frames and heartbeats during the
// Hello exchange, answers server Pings from a
// background read pump, and — when DialOptions.Reconnect is set —
// survives connection loss transparently: the query is resubmitted on a
// fresh connection after a capped, jittered backoff, but only if zero
// RowBatch frames had been received. Once any rows have arrived a
// resubmission could silently duplicate them, so the stream fails with
// an error matching ErrConnectionLost instead and the caller decides.
// An overload retry-after hint from the server is honored as a floor on
// the reconnect backoff, so a shed-then-disconnected client does not
// hammer a struggling server.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/qctx"
	"repro/internal/storage"
	"repro/internal/wire"
)

// ErrConnectionLost reports a connection that died mid-query after rows
// had already been delivered (or with reconnection disabled). Match
// with errors.Is; the concrete *ConnectionLostError carries the cause.
var ErrConnectionLost = errors.New("client: connection lost")

// ConnectionLostError wraps the transport failure that killed a
// connection. It matches both ErrConnectionLost and its cause, so
// errors.Is(err, wire.ErrCorruptFrame) still works when corruption was
// what tore the link down.
type ConnectionLostError struct {
	Cause error
}

func (e *ConnectionLostError) Error() string {
	return fmt.Sprintf("client: connection lost: %v", e.Cause)
}

// Unwrap exposes both the sentinel and the cause (multi-error unwrap).
func (e *ConnectionLostError) Unwrap() []error {
	return []error{ErrConnectionLost, e.Cause}
}

// ReconnectConfig tunes automatic redialing. The zero value of each
// field selects a default; a nil *ReconnectConfig in DialOptions
// disables reconnection entirely.
type ReconnectConfig struct {
	// MaxAttempts bounds redials per failure (0 = 5).
	MaxAttempts int
	// BaseDelay is the first backoff step (0 = 20ms). Each attempt
	// doubles it, capped at MaxDelay, with ±half jitter.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (0 = 1s).
	MaxDelay time.Duration
	// Seed fixes the jitter schedule for deterministic tests (0 = from
	// the clock).
	Seed int64
}

func (rc *ReconnectConfig) maxAttempts() int {
	if rc.MaxAttempts <= 0 {
		return 5
	}
	return rc.MaxAttempts
}

func (rc *ReconnectConfig) baseDelay() time.Duration {
	if rc.BaseDelay <= 0 {
		return 20 * time.Millisecond
	}
	return rc.BaseDelay
}

func (rc *ReconnectConfig) maxDelay() time.Duration {
	if rc.MaxDelay <= 0 {
		return time.Second
	}
	return rc.MaxDelay
}

// DialOptions tunes a connection beyond the plain Dial signature.
type DialOptions struct {
	// Timeout bounds the dial plus handshake (0 = 10s).
	Timeout time.Duration
	// IOTimeout bounds each wait for a response frame once a query is in
	// flight (0 = no bound). It does not apply to an idle connection,
	// which may sit quietly between queries answering heartbeats.
	IOTimeout time.Duration
	// Reconnect enables transparent redialing; nil disables it.
	Reconnect *ReconnectConfig
}

func (o DialOptions) timeout() time.Duration {
	if o.Timeout <= 0 {
		return 10 * time.Second
	}
	return o.Timeout
}

// transport is one live TCP connection plus its read pump. The pump
// owns all reads: it answers server Pings inline (under the write
// mutex, shared with query submission) and hands every other frame to
// the stream via recv. When a read fails, the error is recorded and
// done closes — readErr is safely visible to anyone who saw done close.
type transport struct {
	nc net.Conn
	br *bufio.Reader

	wmu sync.Mutex // serializes bw writes: query frames vs pump Pongs
	bw  *bufio.Writer

	codec     wire.Codec
	heartbeat bool
	cluster   bool

	recv    chan recvMsg
	done    chan struct{} // closed by the pump when reading ends
	quit    chan struct{} // closed by Close to release a blocked pump
	quitOne sync.Once
	readErr error // set before done closes
}

type recvMsg struct {
	typ     byte
	payload []byte
}

func (t *transport) close() {
	t.quitOne.Do(func() { close(t.quit) })
	t.nc.Close()
}

// write sends one frame and flushes it, under the write mutex and a
// deadline so a pong to a half-dead server cannot wedge the pump.
func (t *transport) write(typ byte, payload []byte, timeout time.Duration) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if timeout > 0 {
		t.nc.SetWriteDeadline(time.Now().Add(timeout))
	} else {
		t.nc.SetWriteDeadline(time.Time{})
	}
	if err := t.codec.WriteFrame(t.bw, typ, payload); err != nil {
		return err
	}
	return t.bw.Flush()
}

func (t *transport) readPump() {
	for {
		typ, payload, err := t.codec.ReadFrame(t.br)
		if err != nil {
			t.readErr = err
			close(t.done)
			return
		}
		if typ == wire.FramePing {
			// Liveness probe from the server; answer without involving
			// the caller, who may be idle between queries.
			if err := t.write(wire.FramePong, payload, 10*time.Second); err != nil {
				t.readErr = err
				close(t.done)
				return
			}
			continue
		}
		select {
		case t.recv <- recvMsg{typ, payload}:
		case <-t.quit:
			return
		}
	}
}

// Conn is one client connection. It is not safe for concurrent use; a
// connection runs one query stream at a time, and the previous Stream
// must be exhausted or closed before the next Query.
type Conn struct {
	addr string
	opts DialOptions
	tr   *transport

	active *Stream
	err    error // sticky failure; a reconnectable loss can clear it

	retryFloor time.Time // earliest next submission after an overload shed
	rng        *rand.Rand
}

// Dial connects and performs the version handshake with default
// options (checksums and heartbeats on, no reconnection).
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	return DialOpts(addr, DialOptions{Timeout: timeout})
}

// DialOpts connects with explicit options.
func DialOpts(addr string, opts DialOptions) (*Conn, error) {
	tr, err := dialTransport(addr, opts)
	if err != nil {
		return nil, err
	}
	seed := int64(0)
	if opts.Reconnect != nil {
		seed = opts.Reconnect.Seed
	}
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Conn{addr: addr, opts: opts, tr: tr, rng: rand.New(rand.NewSource(seed))}, nil
}

// dialTransport dials and handshakes, asking for every feature.
func dialTransport(addr string, opts DialOptions) (*transport, error) {
	nc, err := net.DialTimeout("tcp", addr, opts.timeout())
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(time.Now().Add(opts.timeout()))
	br := bufio.NewReader(nc)
	bw := bufio.NewWriter(nc)

	// Only worker servers (those fronting a local engine) grant
	// FeatureCluster back.
	h := wire.Hello{Version: wire.Version, Flags: wire.FeatureChecksum | wire.FeatureHeartbeat | wire.FeatureCluster}
	// The Hello exchange is always plain framing; the negotiated codec
	// takes over afterwards.
	if err := wire.WriteFrame(bw, wire.FrameHello, wire.EncodeHello(h)); err != nil {
		nc.Close()
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		nc.Close()
		return nil, err
	}
	typ, payload, err := wire.ReadFrame(br)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	var granted byte
	switch typ {
	case wire.FrameHello:
		reply, err := wire.DecodeHello(payload)
		if err != nil {
			nc.Close()
			return nil, err
		}
		if reply.Version != wire.Version {
			nc.Close()
			return nil, fmt.Errorf("client: server speaks version %d, want %d", reply.Version, wire.Version)
		}
		granted = reply.Flags
	case wire.FrameError:
		f, err := wire.DecodeError(payload)
		nc.Close()
		if err != nil {
			return nil, err
		}
		return nil, &wire.RemoteError{Frame: f}
	default:
		nc.Close()
		return nil, fmt.Errorf("client: unexpected handshake frame 0x%02x", typ)
	}
	nc.SetDeadline(time.Time{})

	tr := &transport{
		nc:        nc,
		br:        br,
		bw:        bw,
		codec:     wire.Codec{Checksums: granted&wire.FeatureChecksum != 0},
		heartbeat: granted&wire.FeatureHeartbeat != 0,
		cluster:   granted&wire.FeatureCluster != 0,
		recv:      make(chan recvMsg),
		done:      make(chan struct{}),
		quit:      make(chan struct{}),
	}
	go tr.readPump()
	return tr, nil
}

// Close closes the connection. Any active stream becomes unusable.
func (c *Conn) Close() error {
	c.tr.close()
	if c.err == nil {
		c.err = errors.New("client: connection closed")
	}
	return nil
}

// Heartbeats reports whether the server granted heartbeat liveness.
func (c *Conn) Heartbeats() bool { return c.tr.heartbeat }

// Cluster reports whether the server granted the shard scatter/gather
// feature — true only for servers fronting a local engine (workers).
func (c *Conn) Cluster() bool { return c.tr.cluster }

// Options are the per-query knobs carried in the Query frame. Zero
// values defer to the server's configuration.
type Options struct {
	Timeout     time.Duration
	MaxRows     int64
	Strategy    byte // a wire.Strategy* constant
	Parallelism int
	// Cancel aborts the stream client-side when closed: Next returns
	// false with Err matching qctx.ErrCanceled. It also aborts a
	// reconnect backoff in progress.
	Cancel <-chan struct{}
}

// canReconnect reports whether transparent redialing is configured.
func (c *Conn) canReconnect() bool { return c.opts.Reconnect != nil }

// redial replaces the dead transport after a backoff, honoring the
// overload retry-after floor and the stream's Cancel channel.
func (c *Conn) redial(cancel <-chan struct{}) error {
	rc := c.opts.Reconnect
	var lastErr error = ErrConnectionLost
	for attempt := 0; attempt < rc.maxAttempts(); attempt++ {
		d := qctx.Backoff(rc.baseDelay(), rc.maxDelay(), attempt, c.rng)
		if floor := time.Until(c.retryFloor); floor > d {
			d = floor
		}
		select {
		case <-time.After(d):
		case <-cancel:
			return qctx.ErrCanceled
		}
		tr, err := dialTransport(c.addr, c.opts)
		if err == nil {
			c.tr = tr
			return nil
		}
		lastErr = err
	}
	return fmt.Errorf("client: reconnect gave up after %d attempts: %w", rc.maxAttempts(), lastErr)
}

// Query sends one SQL statement and returns the result stream. The
// stream must be drained (Next until false) or Closed before the next
// Query on this connection.
func (c *Conn) Query(sql string, opts Options) (*Stream, error) {
	if c.err != nil {
		// A reconnectable connection loss is not fatal to the Conn: the
		// next query may transparently redial.
		if !c.canReconnect() || !errors.Is(c.err, ErrConnectionLost) {
			return nil, c.err
		}
		if err := c.redial(opts.Cancel); err != nil {
			return nil, c.poison(err)
		}
		c.err = nil
	}
	if c.active != nil {
		return nil, errors.New("client: previous stream not closed")
	}
	q := wire.Query{
		TimeoutMicros: opts.Timeout.Microseconds(),
		MaxRows:       opts.MaxRows,
		Strategy:      opts.Strategy,
		Parallelism:   int64(opts.Parallelism),
		SQL:           sql,
	}
	if err := c.sendQuery(q); err != nil {
		// The write failed before anything was received; resubmitting on
		// a fresh connection is always safe here.
		if !c.canReconnect() {
			return nil, c.poison(err)
		}
		if rerr := c.redial(opts.Cancel); rerr != nil {
			return nil, c.poison(rerr)
		}
		if rerr := c.sendQuery(q); rerr != nil {
			return nil, c.poison(rerr)
		}
	}
	st := &Stream{conn: c, q: q, cancel: opts.Cancel}
	c.active = st
	return st, nil
}

func (c *Conn) sendQuery(q wire.Query) error {
	return c.tr.write(wire.FrameQuery, wire.EncodeQuery(q), 0)
}

func (c *Conn) poison(err error) error {
	if c.err == nil {
		c.err = err
	}
	return err
}

// noteOverload records a server retry-after hint as a submission floor
// for future reconnects.
func (c *Conn) noteOverload(err error) {
	var ov *qctx.OverloadError
	if errors.As(err, &ov) && ov.RetryAfter > 0 {
		if floor := time.Now().Add(ov.RetryAfter); floor.After(c.retryFloor) {
			c.retryFloor = floor
		}
	}
}

// Stream iterates a query's result. Usage:
//
//	st, err := conn.Query(sql, opts)
//	for st.Next() {
//		use(st.Row())
//	}
//	err = st.Err()
//
// Row slices are reused between Next calls; copy what you keep.
type Stream struct {
	conn     *Conn
	q        wire.Query
	cancel   <-chan struct{}
	cols     []string
	batch    []storage.Tuple
	idx      int
	row      storage.Tuple
	gotBatch bool // a RowBatch arrived: the resubmission fence
	done     bool
	doneInfo wire.Done
	err      error
}

// Next advances to the next row, fetching frames as needed. It returns
// false at end of stream or on error; check Err afterwards.
func (s *Stream) Next() bool {
	if s.done || s.err != nil {
		return false
	}
	for s.idx >= len(s.batch) {
		if !s.fetch() {
			return false
		}
	}
	s.row = s.batch[s.idx]
	s.idx++
	return true
}

// fetch waits for the next frame from the read pump, refilling the
// batch. Returns false when the stream ended (Done, Error, cancel, or
// transport failure that could not be healed by a reconnect).
func (s *Stream) fetch() bool {
	for {
		tr := s.conn.tr
		var timeout <-chan time.Time
		if io := s.conn.opts.IOTimeout; io > 0 {
			tm := time.NewTimer(io)
			defer tm.Stop()
			timeout = tm.C
		}
		select {
		case m := <-tr.recv:
			return s.handleFrame(m)
		case <-tr.done:
			if s.handleLost(tr.readErr) {
				continue // reconnected and resubmitted; keep fetching
			}
			return false
		case <-s.cancel:
			// The server-side query is abandoned; this connection has an
			// answer in flight we will never read, so it cannot be reused.
			s.conn.tr.close()
			s.conn.poison(qctx.ErrCanceled)
			s.fail(qctx.ErrCanceled)
			// Detach: the response is undeliverable and the conn poisoned;
			// a long-lived caller that heals the conn by redialing must
			// not find a dead stream still registered as active.
			s.finish()
			return false
		case <-timeout:
			s.conn.tr.close()
			err := fmt.Errorf("client: no frame within %v: %w", s.conn.opts.IOTimeout, ErrConnectionLost)
			s.conn.poison(err)
			s.fail(err)
			s.finish()
			return false
		}
	}
}

func (s *Stream) handleFrame(m recvMsg) bool {
	switch m.typ {
	case wire.FrameRowBatch:
		b, err := wire.DecodeRowBatch(m.payload)
		if err != nil {
			s.fail(s.conn.poison(err))
			return false
		}
		s.gotBatch = true
		if s.cols == nil {
			s.cols = b.Columns
		}
		s.batch, s.idx = b.Rows, 0
		return true
	case wire.FrameDone:
		d, err := wire.DecodeDone(m.payload)
		if err != nil {
			s.fail(s.conn.poison(err))
			return false
		}
		s.doneInfo = d
		s.finish()
		return false
	case wire.FrameError:
		f, err := wire.DecodeError(m.payload)
		if err != nil {
			s.fail(s.conn.poison(err))
			return false
		}
		rerr := &wire.RemoteError{Frame: f}
		s.conn.noteOverload(rerr)
		s.fail(rerr)
		s.finish()
		return false
	default:
		s.fail(s.conn.poison(fmt.Errorf("client: unexpected frame 0x%02x", m.typ)))
		return false
	}
}

// handleLost reacts to the transport dying mid-stream. If no rows were
// received and reconnection is configured, it redials and resubmits the
// query, reporting true so fetch continues on the new transport. Any
// rows already delivered fence off resubmission — a second execution
// would duplicate them — so the stream fails typed instead.
func (s *Stream) handleLost(cause error) bool {
	lost := &ConnectionLostError{Cause: cause}
	if s.gotBatch || !s.conn.canReconnect() {
		s.conn.poison(lost)
		s.fail(lost)
		s.finish()
		return false
	}
	if err := s.conn.redial(s.cancel); err != nil {
		s.conn.poison(err)
		s.fail(err)
		s.finish()
		return false
	}
	if err := s.conn.sendQuery(s.q); err != nil {
		s.conn.poison(&ConnectionLostError{Cause: err})
		s.fail(s.conn.err)
		s.finish()
		return false
	}
	s.cols, s.batch, s.idx = nil, nil, 0
	return true
}

func (s *Stream) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// finish detaches the stream from the connection: the response is
// complete (or undeliverable) and the conn may run its next query.
func (s *Stream) finish() {
	s.done = true
	if s.conn.active == s {
		s.conn.active = nil
	}
}

// Row returns the current row after a true Next.
func (s *Stream) Row() storage.Tuple { return s.row }

// Columns returns the column names, available after the first Next (or
// after Next returned false for an empty result).
func (s *Stream) Columns() []string { return s.cols }

// Err returns the stream's terminal error: nil on a clean Done, a
// *wire.RemoteError for a server-side failure, or a transport error.
func (s *Stream) Err() error { return s.err }

// Stats returns the Done frame's summary; valid once Next has returned
// false with a nil Err.
func (s *Stream) Stats() wire.Done { return s.doneInfo }

// Close drains any unread frames so the connection is ready for the
// next query. It returns the stream's error, if any.
func (s *Stream) Close() error {
	for !s.done && s.err == nil {
		if s.idx < len(s.batch) {
			s.idx = len(s.batch)
		}
		s.fetch()
	}
	return s.err
}

// Scatter sends one ShardQuery and consumes the shard stream: fn is
// called for every partition-tagged ShardBatch in arrival order, and the
// worker's ShardDone summary is returned on success. Unlike Query,
// Scatter never resubmits after a connection loss — a shuffle is
// coordinated above this layer, where a partial scatter must be torn
// down (staging tables dropped), not silently retried with rows already
// landed.
func (c *Conn) Scatter(q wire.ShardQuery, fn func(wire.ShardBatch) error) (wire.ShardDone, error) {
	var zero wire.ShardDone
	if c.err != nil {
		if !c.canReconnect() || !errors.Is(c.err, ErrConnectionLost) {
			return zero, c.err
		}
		if err := c.redial(nil); err != nil {
			return zero, c.poison(err)
		}
		c.err = nil
	}
	if c.active != nil {
		return zero, errors.New("client: previous stream not closed")
	}
	if !c.Cluster() {
		return zero, errors.New("client: server did not grant the cluster feature")
	}
	if err := c.tr.write(wire.FrameShardQuery, wire.EncodeShardQuery(q), 0); err != nil {
		return zero, c.poison(&ConnectionLostError{Cause: err})
	}
	var tm *time.Timer
	var timeout <-chan time.Time
	if io := c.opts.IOTimeout; io > 0 {
		tm = time.NewTimer(io)
		defer tm.Stop()
		timeout = tm.C
	}
	for {
		tr := c.tr
		if tm != nil {
			if !tm.Stop() {
				select {
				case <-tm.C:
				default:
				}
			}
			tm.Reset(c.opts.IOTimeout)
		}
		select {
		case m := <-tr.recv:
			switch m.typ {
			case wire.FrameShardBatch:
				b, err := wire.DecodeShardBatch(m.payload)
				if err != nil {
					return zero, c.poison(err)
				}
				if err := fn(b); err != nil {
					// The consumer bailed with frames still in flight; this
					// transport cannot be reused mid-stream. Mark it lost so
					// a reconnect-configured conn heals on its next use.
					c.tr.close()
					c.poison(&ConnectionLostError{Cause: err})
					return zero, err
				}
			case wire.FrameShardDone:
				d, err := wire.DecodeShardDone(m.payload)
				if err != nil {
					return zero, c.poison(err)
				}
				return d, nil
			case wire.FrameError:
				f, err := wire.DecodeError(m.payload)
				if err != nil {
					return zero, c.poison(err)
				}
				rerr := &wire.RemoteError{Frame: f}
				c.noteOverload(rerr)
				// A typed query failure leaves the connection usable.
				return zero, rerr
			default:
				return zero, c.poison(fmt.Errorf("client: unexpected frame 0x%02x during scatter", m.typ))
			}
		case <-tr.done:
			lost := &ConnectionLostError{Cause: tr.readErr}
			return zero, c.poison(lost)
		case <-timeout:
			c.tr.close()
			err := fmt.Errorf("client: no frame within %v: %w", c.opts.IOTimeout, ErrConnectionLost)
			return zero, c.poison(err)
		}
	}
}

// Snapshot asks a worker for a full copy of one table: the table's
// schema comes back first, then fn is called for every RowBatch, and the
// Done summary is returned on success. Like Scatter it never resubmits —
// a rejoin re-ships the whole snapshot from scratch if the link dies.
func (c *Conn) Snapshot(table string, fn func(wire.RowBatch) error) (wire.SnapshotMeta, wire.Done, error) {
	var meta wire.SnapshotMeta
	var done wire.Done
	if c.err != nil {
		return meta, done, c.err
	}
	if c.active != nil {
		return meta, done, errors.New("client: previous stream not closed")
	}
	if !c.Cluster() {
		return meta, done, errors.New("client: server did not grant the cluster feature")
	}
	if err := c.tr.write(wire.FrameSnapshot, wire.EncodeSnapshot(wire.Snapshot{Table: table}), 0); err != nil {
		return meta, done, c.poison(&ConnectionLostError{Cause: err})
	}
	var tm *time.Timer
	var timeout <-chan time.Time
	if io := c.opts.IOTimeout; io > 0 {
		tm = time.NewTimer(io)
		defer tm.Stop()
		timeout = tm.C
	}
	gotMeta := false
	for {
		tr := c.tr
		if tm != nil {
			if !tm.Stop() {
				select {
				case <-tm.C:
				default:
				}
			}
			tm.Reset(c.opts.IOTimeout)
		}
		select {
		case m := <-tr.recv:
			switch m.typ {
			case wire.FrameSnapshotMeta:
				sm, err := wire.DecodeSnapshotMeta(m.payload)
				if err != nil {
					return meta, done, c.poison(err)
				}
				meta, gotMeta = sm, true
			case wire.FrameRowBatch:
				if !gotMeta {
					return meta, done, c.poison(errors.New("client: snapshot rows before meta"))
				}
				b, err := wire.DecodeRowBatch(m.payload)
				if err != nil {
					return meta, done, c.poison(err)
				}
				if err := fn(b); err != nil {
					c.tr.close()
					c.poison(&ConnectionLostError{Cause: err})
					return meta, done, err
				}
			case wire.FrameDone:
				d, err := wire.DecodeDone(m.payload)
				if err != nil {
					return meta, done, c.poison(err)
				}
				if !gotMeta {
					return meta, done, c.poison(errors.New("client: snapshot ended before meta"))
				}
				return meta, d, nil
			case wire.FrameError:
				f, err := wire.DecodeError(m.payload)
				if err != nil {
					return meta, done, c.poison(err)
				}
				rerr := &wire.RemoteError{Frame: f}
				c.noteOverload(rerr)
				// A typed failure (e.g. unknown relation) leaves the
				// connection usable.
				return meta, done, rerr
			default:
				return meta, done, c.poison(fmt.Errorf("client: unexpected frame 0x%02x during snapshot", m.typ))
			}
		case <-tr.done:
			lost := &ConnectionLostError{Cause: tr.readErr}
			return meta, done, c.poison(lost)
		case <-timeout:
			c.tr.close()
			err := fmt.Errorf("client: no frame within %v: %w", c.opts.IOTimeout, ErrConnectionLost)
			return meta, done, c.poison(err)
		}
	}
}

// Result is a fully materialized query result, for callers that do not
// need streaming.
type Result struct {
	Columns []string
	Rows    []storage.Tuple
	Done    wire.Done
}

// Collect runs a query and materializes the whole result.
func (c *Conn) Collect(sql string, opts Options) (*Result, error) {
	st, err := c.Query(sql, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for st.Next() {
		res.Rows = append(res.Rows, append(storage.Tuple(nil), st.Row()...))
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	res.Columns = st.Columns()
	res.Done = st.Stats()
	return res, nil
}
