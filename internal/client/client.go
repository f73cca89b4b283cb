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
	"bytes"
	"errors"
	"fmt"
	"io"
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

// LinkFailure reports whether err means the connection, or the peer
// behind it, died — loss mid-query, a corrupt or torn frame, EOF, a
// closed socket, any dial or I/O error of the net package — rather than
// the server answering. Callers add what is theirs: a typed
// *wire.RemoteError proves the peer alive, a deadline may mean slow.
func LinkFailure(err error) bool {
	var ne net.Error
	return errors.Is(err, ErrConnectionLost) || errors.Is(err, wire.ErrCorruptFrame) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.As(err, &ne)
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

	retryFloor time.Time   // earliest next submission after an overload shed
	timer      *time.Timer // recv's IOTimeout timer, reused across waits
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

// dialTransport dials and handshakes, asking for every feature (only
// worker servers — those fronting a local engine — grant FeatureCluster
// back). The Hello exchange is always plain framing; the negotiated
// codec takes over afterwards.
func dialTransport(addr string, opts DialOptions) (_ *transport, err error) {
	nc, err := net.DialTimeout("tcp", addr, opts.timeout())
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			nc.Close()
		}
	}()
	nc.SetDeadline(time.Now().Add(opts.timeout()))
	br := bufio.NewReader(nc)
	bw := bufio.NewWriter(nc)

	h := wire.Hello{Version: wire.Version, Flags: wire.FeatureChecksum | wire.FeatureHeartbeat | wire.FeatureCluster}
	if err := wire.WriteFrame(bw, wire.FrameHello, wire.EncodeHello(h)); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	typ, payload, err := wire.ReadFrame(br)
	if err != nil {
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	var malformed error
	switch typ {
	case wire.FrameHello:
		if h, malformed = wire.DecodeHello(payload); malformed == nil && h.Version != wire.Version {
			err = fmt.Errorf("client: server speaks version %d, want %d", h.Version, wire.Version)
		}
	case wire.FrameError:
		var f wire.ErrorFrame
		if f, malformed = wire.DecodeError(payload); malformed == nil {
			err = &wire.RemoteError{Frame: f}
		}
	default:
		malformed = fmt.Errorf("unexpected frame 0x%02x", typ)
	}
	if malformed != nil {
		// The Hello exchange is plain framing: a reply damaged in flight has
		// no checksum to fail, so one that is no Hello and no Error frame is
		// typed as what the checksum would have called it.
		err = fmt.Errorf("client: handshake: %v: %w", malformed, wire.ErrCorruptFrame)
	}
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(time.Time{})

	tr := &transport{
		nc:        nc,
		br:        br,
		bw:        bw,
		codec:     wire.Codec{Checksums: h.Flags&wire.FeatureChecksum != 0},
		heartbeat: h.Flags&wire.FeatureHeartbeat != 0,
		cluster:   h.Flags&wire.FeatureCluster != 0,
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

// Cluster reports whether the server granted the cluster feature
// (Snapshot and Load) — true only for servers fronting a local engine
// (workers).
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

// ready reports whether a new request may start, first healing a
// reconnectable connection loss by redialing: that loss is not fatal to
// a Conn configured to reconnect, any other sticky error is.
func (c *Conn) ready(cancel <-chan struct{}) error {
	if c.err == nil && c.active == nil {
		c.dropStray()
	}
	if c.err != nil {
		if !c.canReconnect() || !errors.Is(c.err, ErrConnectionLost) {
			return c.err
		}
		if err := c.redial(cancel); err != nil {
			return err
		}
		c.err = nil
	}
	if c.active != nil {
		return errors.New("client: previous stream not closed")
	}
	return nil
}

// dropStray retires the transport when a frame is waiting with no
// request in flight. Only a server ending the session sends one — its
// parting Error (a damaged Pong, a heartbeat timeout) just ahead of the
// close — and the pump, holding that frame for a reader, never sees the
// close behind it: left there, it would read as the answer to the next
// request, and the connection would look healthy for ever.
func (c *Conn) dropStray() {
	select {
	case m := <-c.tr.recv:
		c.abandon(fmt.Errorf("client: frame 0x%02x with no request in flight: %w", m.typ, ErrConnectionLost))
	default:
	}
}

// Query sends one SQL statement and returns the result stream. The
// stream must be drained (Next until false) or Closed before the next
// Query on this connection.
func (c *Conn) Query(sql string, opts Options) (*Stream, error) {
	if err := c.ready(opts.Cancel); err != nil {
		return nil, err
	}
	st := &Stream{conn: c, cancel: opts.Cancel, q: wire.Query{
		TimeoutMicros: opts.Timeout.Microseconds(),
		MaxRows:       opts.MaxRows,
		Strategy:      opts.Strategy,
		Parallelism:   int64(opts.Parallelism),
		SQL:           sql,
	}}
	if err := c.sendQuery(st.q); err != nil {
		// The write failed before anything was received; resubmitting on
		// a fresh connection is always safe here.
		c.err = &ConnectionLostError{Cause: err}
		if !c.canReconnect() {
			return nil, c.err
		}
		if err := st.resubmit(); err != nil {
			return nil, err
		}
	}
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
// A row stays valid after Next; the stream never reuses it.
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

// fetch waits for the next frame of the result, refilling the batch.
// Returns false when the stream ended: Done, or any error recv reports
// that a reconnect could not heal.
func (s *Stream) fetch() bool {
	for {
		m, err := s.conn.recv(s.cancel, wire.FrameRowBatch, wire.FrameDone)
		switch {
		case err != nil:
			// A transport that died with no rows delivered can be healed:
			// resubmitting on a fresh connection cannot duplicate anything.
			// Once a batch has arrived it could, so the stream fails typed.
			var lost *ConnectionLostError
			if errors.As(err, &lost) && !s.gotBatch && s.conn.canReconnect() {
				if err = s.resubmit(); err == nil {
					continue
				}
			}
		case m.typ == wire.FrameRowBatch:
			var b wire.RowBatch
			if b, err = wire.DecodeRowBatch(m.payload); err == nil {
				s.gotBatch = true
				if s.cols == nil {
					s.cols = b.Columns
				}
				s.batch, s.idx = b.Rows, 0
				return true
			}
			s.conn.abandon(err)
		default:
			if s.doneInfo, err = wire.DecodeDone(m.payload); err != nil {
				s.conn.abandon(err)
			}
		}
		// Done, failed or abandoned: the response is over and the stream
		// detaches, so a long-lived caller that heals the conn by
		// redialing never finds a dead stream still registered active.
		s.err, s.done = err, true
		if s.conn.active == s {
			s.conn.active = nil
		}
		return false
	}
}

// resubmit redials after the backoff and sends the query again. On
// failure the error it returns is the connection's sticky one.
func (s *Stream) resubmit() error {
	c := s.conn
	if err := c.redial(s.cancel); err != nil {
		c.err = err
		return err
	}
	if err := c.sendQuery(s.q); err != nil {
		c.err = &ConnectionLostError{Cause: err}
		return c.err
	}
	c.err = nil
	s.cols, s.batch, s.idx = nil, nil, 0
	return nil
}

// recv is the client's one frame-wait: every response frame of every
// request — Query streams, Snapshot, Load — is received here.
// It returns the next frame when its type is one of want, and otherwise
// an error with the connection's fate already settled:
//
//   - an Error frame comes back as *wire.RemoteError, its overload
//     retry-after hint noted; the connection stays usable;
//   - a transport that died comes back as *ConnectionLostError and
//     poisons the connection (a reconnecting Conn heals on its next use);
//   - no frame within IOTimeout, a closed cancel channel, a frame type
//     the request does not expect or an Error frame that does not decode
//     abandon the connection: the transport closes — an answer still in
//     flight could never be matched up again — and the error returned
//     (matching ErrConnectionLost, qctx.ErrCanceled, or neither) is
//     sticky.
func (c *Conn) recv(cancel <-chan struct{}, want ...byte) (recvMsg, error) {
	var timeout <-chan time.Time
	if io := c.opts.IOTimeout; io > 0 {
		if c.timer == nil {
			c.timer = time.NewTimer(io)
		} else {
			c.timer.Reset(io)
		}
		defer func() {
			if !c.timer.Stop() {
				select { // fired unread: drain so the next Reset starts clean
				case <-c.timer.C:
				default:
				}
			}
		}()
		timeout = c.timer.C
	}
	tr := c.tr
	select {
	case m := <-tr.recv:
		if m.typ == wire.FrameError {
			f, err := wire.DecodeError(m.payload)
			if err != nil {
				return m, c.abandon(err)
			}
			rerr := &wire.RemoteError{Frame: f}
			c.noteOverload(rerr)
			return m, rerr
		}
		if bytes.IndexByte(want, m.typ) < 0 {
			return m, c.abandon(fmt.Errorf("client: unexpected frame 0x%02x", m.typ))
		}
		return m, nil
	case <-tr.done:
		return recvMsg{}, c.poison(&ConnectionLostError{Cause: tr.readErr})
	case <-cancel:
		return recvMsg{}, c.abandon(qctx.ErrCanceled)
	case <-timeout:
		return recvMsg{}, c.abandon(fmt.Errorf("client: no frame within %v: %w", c.opts.IOTimeout, ErrConnectionLost))
	}
}

// abandon gives up on the response in flight: the transport closes (its
// remaining frames are undeliverable) and err becomes the connection's
// sticky error.
func (c *Conn) abandon(err error) error {
	c.tr.close()
	return c.poison(err)
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

// roundTrip runs one cluster request: it sends the frame and hands every
// response frame whose type is in want to on, until on reports the
// response complete. An error from on — a payload that does not decode,
// a consumer that bails — abandons the connection mid-stream, as
// ErrConnectionLost so a reconnecting Conn heals on its next use. A
// cluster request is never resubmitted: a re-ship or a load is
// coordinated above this layer, where a partial one must be torn down or
// redone whole, not silently retried with rows already landed. (The
// shuffle's scatter is a plain Query, on connections the coordinator
// dials without Reconnect, so it is never resubmitted either.)
func (c *Conn) roundTrip(typ byte, payload []byte, on func(recvMsg) (done bool, err error), want ...byte) error {
	if err := c.ready(nil); err != nil {
		return err
	}
	if !c.Cluster() {
		return errors.New("client: server did not grant the cluster feature")
	}
	if err := c.tr.write(typ, payload, 0); err != nil {
		return c.poison(&ConnectionLostError{Cause: err})
	}
	for {
		m, err := c.recv(nil, want...)
		if err != nil {
			return err
		}
		if done, err := on(m); err != nil {
			c.abandon(&ConnectionLostError{Cause: err})
			return err
		} else if done {
			return nil
		}
	}
}

// Snapshot asks a worker for a full copy of one table: the table's
// schema comes back first, then fn is called for every RowBatch, and the
// Done summary is returned on success.
func (c *Conn) Snapshot(table string, fn func(wire.RowBatch) error) (wire.SnapshotMeta, wire.Done, error) {
	var meta wire.SnapshotMeta
	var done wire.Done
	gotMeta := false
	err := c.roundTrip(wire.FrameSnapshot, wire.EncodeSnapshot(wire.Snapshot{Table: table}), func(m recvMsg) (end bool, err error) {
		switch {
		case m.typ == wire.FrameSnapshotMeta:
			meta, err = wire.DecodeSnapshotMeta(m.payload)
			gotMeta = true
			return false, err
		case !gotMeta:
			return false, errors.New("client: snapshot frame before meta")
		case m.typ == wire.FrameDone:
			done, err = wire.DecodeDone(m.payload)
			return true, err
		}
		b, err := wire.DecodeRowBatch(m.payload)
		if err != nil {
			return false, err
		}
		return false, fn(b)
	}, wire.FrameSnapshotMeta, wire.FrameRowBatch, wire.FrameDone)
	return meta, done, err
}

// Load lands one batch of typed rows in a worker's table and returns the
// worker's Done (Rows = rows stored). The worker checks the batch's
// column names and value kinds against its catalog; a mismatch comes
// back as a *wire.RemoteError with nothing stored.
func (c *Conn) Load(table string, b wire.RowBatch) (wire.Done, error) {
	var done wire.Done
	err := c.roundTrip(wire.FrameLoad, wire.EncodeLoad(wire.Load{Table: table, Batch: b}), func(m recvMsg) (end bool, err error) {
		done, err = wire.DecodeDone(m.payload)
		return true, err
	}, wire.FrameDone)
	return done, err
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
		res.Rows = append(res.Rows, st.Row())
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	res.Columns = st.Columns()
	res.Done = st.Stats()
	return res, nil
}
