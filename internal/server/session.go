package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/wire"
)

// session is one connection's state. Frames are read by a dedicated
// reader goroutine and handed over a channel, so a query in progress
// learns about a client disconnect (the read loop dying) through the
// dead channel — which is wired into the engine as the query's Cancel,
// turning an abandoned connection into qctx.ErrCanceled instead of a
// query that streams into a broken pipe until its row budget runs out.
// All writes happen on the session goroutine (the reader answers
// nothing itself); net.Conn allows the concurrent Close from Shutdown.
//
// The Hello exchange fixes the session's codec (checksummed frames when
// the client negotiated FeatureChecksum) and whether the session
// heartbeats: with FeatureHeartbeat, an idle session pings the client on
// every HeartbeatInterval tick and evicts it after two unanswered pings
// — the half-open connection a silent partition leaves behind. While a
// query streams, no pings are sent (the session goroutine is busy and
// the write path's deadline already covers a dead consumer).
type session struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	codec     wire.Codec
	heartbeat bool
	cluster   bool // FeatureCluster granted: this session may Snapshot and Load

	frames  chan recvFrame
	dead    chan struct{} // closed when the read loop exits (disconnect)
	quit    chan struct{} // closed when the session goroutine exits
	readErr error         // read-loop failure; written before frames closes
}

type recvFrame struct {
	typ     byte
	payload []byte
}

// writeError wraps a frame-write failure so runQuery can tell "the
// connection broke" (tear the session down) apart from "the query
// failed" (report an Error frame and keep serving).
type writeError struct{ err error }

func (e *writeError) Error() string { return "server: write: " + e.err.Error() }
func (e *writeError) Unwrap() error { return e.err }

func newSession(srv *Server, conn net.Conn) *session {
	return &session{
		srv:    srv,
		conn:   conn,
		br:     bufio.NewReader(conn),
		bw:     bufio.NewWriterSize(conn, writeBufferBytes),
		frames: make(chan recvFrame),
		dead:   make(chan struct{}),
		quit:   make(chan struct{}),
	}
}

// serve runs the session to completion: handshake, then one query at a
// time off the frame channel, with heartbeat ticks interleaved while
// idle. Responses are strictly sequential even if the client pipelines —
// the reader goroutine simply blocks handing over the next Query until
// the current one finishes.
func (s *session) serve() {
	defer s.srv.removeSession(s)
	defer s.conn.Close()
	defer close(s.quit)

	if !s.handshake() {
		return
	}

	go s.readLoop()

	var ticks <-chan time.Time
	if s.heartbeat {
		t := time.NewTicker(s.srv.cfg.heartbeatInterval())
		defer t.Stop()
		ticks = t.C
	}
	var pingSeq uint64
	unanswered := 0

	for {
		select {
		case f, ok := <-s.frames:
			if !ok {
				// Disconnect, or unrecoverable framing. A corrupt frame
				// deserves a typed goodbye: the client's writes were
				// damaged in flight and its reads may still work.
				if s.readErr != nil && errors.Is(s.readErr, wire.ErrCorruptFrame) {
					s.sendError(wire.ErrorFrame{Code: wire.CodeProtocol, Message: s.readErr.Error()})
				}
				return
			}
			unanswered = 0 // any frame proves the peer alive
			switch f.typ {
			case wire.FramePong:
				continue
			case wire.FramePing:
				// Symmetric liveness: echo the client's sequence back.
				if s.writeFrame(wire.FramePong, f.payload) != nil || s.flush() != nil {
					return
				}
				continue
			default:
				// A request — or a frame that is none: request says which,
				// and either way a protocol violation ends the session.
				run, err := s.request(f)
				if err != nil {
					s.sendError(wire.ErrorFrame{Code: wire.CodeProtocol, Message: err.Error()})
					return
				}
				if !run() {
					return
				}
			}
		case <-ticks:
			if unanswered >= 2 {
				// Two intervals of silence after pinging: a dead peer or a
				// partition. Say why (best effort) and evict.
				s.sendError(wire.ErrorFrame{
					Code:    wire.CodeProtocol,
					Message: "heartbeat timeout: no pong from peer",
				})
				return
			}
			pingSeq++
			if s.writeFrame(wire.FramePing, wire.EncodePing(pingSeq)) != nil || s.flush() != nil {
				return
			}
			unanswered++
		}
	}
}

// handshake validates the client Hello under a read deadline, negotiates
// the feature flags, and answers with the server's version plus the
// granted subset. Protocol violations get an Error frame (best effort)
// before the connection drops. The negotiated codec takes effect after
// the reply: the Hello exchange itself is always plain.
func (s *session) handshake() bool {
	s.conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	typ, payload, err := wire.ReadFrame(s.br)
	if err != nil {
		return false
	}
	if typ != wire.FrameHello {
		s.sendError(wire.ErrorFrame{Code: wire.CodeProtocol, Message: "expected hello"})
		return false
	}
	h, err := wire.DecodeHello(payload)
	if err != nil {
		s.sendError(wire.ErrorFrame{Code: wire.CodeProtocol, Message: err.Error()})
		return false
	}
	if h.Version != wire.Version {
		s.sendError(wire.ErrorFrame{
			Code:    wire.CodeProtocol,
			Message: fmt.Sprintf("version %d unsupported (server speaks %d)", h.Version, wire.Version),
		})
		return false
	}
	mask := wire.FeatureChecksum | wire.FeatureHeartbeat
	if s.srv.eng != nil {
		// Only a local engine holds tables to snapshot or load into; a
		// coordinator backend never grants the cluster feature.
		mask |= wire.FeatureCluster
	}
	granted := h.Flags & mask
	s.conn.SetReadDeadline(time.Time{})
	reply := wire.Hello{Version: wire.Version, Flags: granted}
	if err := s.writeFrame(wire.FrameHello, wire.EncodeHello(reply)); err != nil {
		return false
	}
	if s.flush() != nil {
		return false
	}
	s.codec = wire.Codec{Checksums: granted&wire.FeatureChecksum != 0}
	s.heartbeat = granted&wire.FeatureHeartbeat != 0
	s.cluster = granted&wire.FeatureCluster != 0
	return true
}

// readLoop pulls frames off the wire and hands them to the session
// goroutine. Any read error — EOF, reset, a checksum-failing frame,
// malformed framing — is recorded, then dead closes (canceling an
// in-flight query) and the frame channel closes (ending the session
// loop). The select against quit keeps the goroutine from leaking if the
// session exits while a frame is in hand.
func (s *session) readLoop() {
	for {
		typ, payload, err := s.codec.ReadFrame(s.br)
		if err != nil {
			s.readErr = err
			close(s.dead)
			close(s.frames)
			return
		}
		select {
		case s.frames <- recvFrame{typ, payload}:
		case <-s.quit:
			return
		}
	}
}

// request decodes one request frame into the handler that answers it.
// Anything else is a protocol violation: a frame type that is no
// request, a cluster request on a session that did not negotiate the
// feature, a payload that does not decode. The retired frame types
// 0x08–0x0A are no request either, whatever the session negotiated.
func (s *session) request(f recvFrame) (run func() bool, err error) {
	switch f.typ {
	case wire.FrameSnapshot, wire.FrameLoad:
		if !s.cluster {
			return nil, fmt.Errorf("frame type 0x%02x without negotiated cluster feature", f.typ)
		}
	}
	switch f.typ {
	case wire.FrameQuery:
		q, err := wire.DecodeQuery(f.payload)
		return func() bool { return s.runQuery(q) }, err
	case wire.FrameSnapshot:
		sn, err := wire.DecodeSnapshot(f.payload)
		return func() bool { return s.runSnapshot(sn.Table) }, err
	case wire.FrameLoad:
		l, err := wire.DecodeLoad(f.payload)
		return func() bool { return s.runLoad(l) }, err
	default:
		return nil, fmt.Errorf("unexpected frame type 0x%02x", f.typ)
	}
}

// statement is one streaming statement, as the skeleton in stream needs
// it: what to run, and which frames end a successful response.
type statement struct {
	// run executes the statement with the sink stream built.
	run func(engine.Options) (*engine.Result, error)
	// trailer writes the closing frames of a successful response, given
	// the result and the rows sent; stream flushes after it.
	trailer func(res *engine.Result, cols []string, sent int64) error
}

// stream is the one streaming-statement skeleton under runQuery and
// runSnapshot: it runs st with a sink that frames each batch as one
// RowBatch as the executor produces it — flushed per batch, so the
// buffered writer is the only server-side buffering and a full socket
// blocks the executor's pull loop, up to the write deadline — and then
// settles the outcome. A failed statement is answered with an Error
// frame and the session survives. A failed write is not the statement's
// failure: the client is gone or too slow, the session ends either way
// (the query's admission slot and pool lease were already released by
// the engine's return), and only a stalled consumer — write deadline
// exceeded — earns a typed eviction notice; a vanished one has no pipe
// left to talk down. It reports whether the session should keep serving.
func (s *session) stream(opts engine.Options, st statement) bool {
	var (
		cols     []string
		sent     int64
		batchErr error // the sink's own write failure, distinct from a query failure
	)
	opts.Sink = &engine.RowSink{
		BatchRows: s.srv.cfg.BatchRows,
		Columns: func(c []string) error {
			cols = append([]string(nil), c...)
			return nil
		},
		Batch: func(rows []storage.Tuple) error {
			err := s.rowBatch(cols, rows)
			if err == nil {
				err = s.flush()
			}
			if err != nil {
				batchErr = err
				return &writeError{err}
			}
			sent += int64(len(rows))
			return nil
		},
	}
	res, err := st.run(opts)
	if batchErr != nil {
		var ne net.Error
		if errors.As(batchErr, &ne) && ne.Timeout() {
			s.evictSlowClient()
		}
		return false
	}
	if err != nil {
		return s.sendError(wire.ErrorFrameFor(err))
	}
	return st.trailer(res, cols, sent) == nil && s.flush() == nil
}

// rowBatch frames rows as one RowBatch.
func (s *session) rowBatch(cols []string, rows []storage.Tuple) error {
	return s.writeFrame(wire.FrameRowBatch, wire.EncodeRowBatch(wire.RowBatch{Columns: cols, Rows: rows}))
}

// runQuery executes one Query frame. The backend routes a single SELECT
// through the streaming query path and everything else — DDL and DML —
// through Exec, which acknowledges only after the commit record is
// durable when a WAL is enabled. DML answers with an empty column set
// and its affected-row count riding the Done frame's Rows field.
func (s *session) runQuery(q wire.Query) bool {
	opts, ferr := s.queryOptions(q)
	if ferr != nil {
		return s.sendError(*ferr)
	}
	return s.stream(opts, statement{
		run: func(o engine.Options) (*engine.Result, error) { return s.srv.db.ExecSQL(q.SQL, o) },
		trailer: func(res *engine.Result, cols []string, sent int64) error {
			done := wire.Done{Rows: sent, Reads: res.Stats.Reads, Writes: res.Stats.Writes, FellBack: res.FellBack}
			if sent == 0 {
				// An empty result still announces its columns: one zero-row batch.
				if err := s.rowBatch(cols, nil); err != nil {
					return err
				}
				if len(res.Columns) == 0 {
					done.Rows = res.Affected
				}
			}
			return s.writeFrame(wire.FrameDone, wire.EncodeDone(done))
		},
	})
}

// runSnapshot streams one physical table to a coordinator rebuilding a
// rejoining replica: the table's schema first (SnapshotMeta, so the
// receiver can verify the replicas agree structurally), then every row
// as RowBatch frames, then Done. A missing table answers with the
// engine's "unknown relation" phrasing — to the coordinator that means
// this worker lost state and must itself be rebuilt, not skipped.
func (s *session) runSnapshot(table string) bool {
	rel, ok := s.srv.eng.Catalog().Lookup(table)
	if !ok {
		return s.sendError(wire.ErrorFrame{
			Code:    wire.CodeInternal,
			Message: fmt.Sprintf("engine: unknown relation %s", table),
		})
	}
	meta := wire.SnapshotMeta{CreateSQL: rel.CreateSQL()}
	if err := s.writeFrame(wire.FrameSnapshotMeta, wire.EncodeSnapshotMeta(meta)); err != nil {
		return false
	}
	sql := fmt.Sprintf("SELECT %s FROM %s", strings.Join(rel.ColumnNames(), ", "), rel.Name)
	opts := engine.Options{Cancel: s.dead, Strategy: s.srv.cfg.Strategy, Timeout: s.srv.cfg.MaxTimeout}
	return s.stream(opts, statement{
		run: func(o engine.Options) (*engine.Result, error) { return s.srv.eng.ExecSQL(sql, o) },
		trailer: func(_ *engine.Result, _ []string, sent int64) error {
			return s.writeFrame(wire.FrameDone, wire.EncodeDone(wire.Done{Rows: sent}))
		},
	})
}

// runLoad lands one Load frame's rows in a local table — the receiving
// end of the coordinator's row path — and answers Done with the count.
// The engine vets the batch against its catalog before storing anything,
// so a wrong column list or value kind comes back as a typed Error frame
// with the table untouched.
func (s *session) runLoad(l wire.Load) bool {
	if err := s.srv.eng.Load(l.Table, l.Batch.Columns, l.Batch.Rows); err != nil {
		return s.sendError(wire.ErrorFrameFor(err))
	}
	if err := s.writeFrame(wire.FrameDone, wire.EncodeDone(wire.Done{Rows: int64(len(l.Batch.Rows))})); err != nil {
		return false
	}
	return s.flush() == nil
}

// evictSlowClient sends the CodeSlowClient Error frame best-effort,
// bypassing the buffered writer (whose error is sticky after the failed
// flush) and giving the socket one short grace to take it. If the pipe
// is still wedged solid the frame is lost and the client will see the
// close instead — as a connection loss, or as a corrupt frame if the
// failed flush tore mid-frame.
func (s *session) evictSlowClient() {
	s.conn.SetWriteDeadline(time.Now().Add(250 * time.Millisecond))
	s.codec.WriteFrame(s.conn, wire.FrameError, wire.EncodeError(wire.ErrorFrame{
		Code:    wire.CodeSlowClient,
		Message: fmt.Sprintf("write stalled past %s; slow consumer evicted", s.srv.cfg.writeTimeout()),
	}))
}

// queryOptions maps a Query frame onto engine options, applying the
// server's caps. A bad strategy byte is a protocol error.
func (s *session) queryOptions(q wire.Query) (engine.Options, *wire.ErrorFrame) {
	cfg := s.srv.cfg
	opts := engine.Options{Cancel: s.dead}

	switch q.Strategy {
	case wire.StrategyDefault:
		opts.Strategy = cfg.Strategy
	case wire.StrategyNested:
		opts.Strategy = engine.NestedIteration
	case wire.StrategyTransform:
		opts.Strategy = engine.TransformJA2
	case wire.StrategyKim:
		opts.Strategy = engine.TransformKim
	default:
		return opts, &wire.ErrorFrame{
			Code:    wire.CodeProtocol,
			Message: fmt.Sprintf("unknown strategy %d", q.Strategy),
		}
	}

	opts.Timeout = time.Duration(q.TimeoutMicros) * time.Microsecond
	if opts.Timeout < 0 {
		opts.Timeout = 0
	}
	if cfg.MaxTimeout > 0 && (opts.Timeout == 0 || opts.Timeout > cfg.MaxTimeout) {
		opts.Timeout = cfg.MaxTimeout
	}
	opts.MaxRows = q.MaxRows
	if opts.MaxRows < 0 {
		opts.MaxRows = 0
	}
	if cfg.MaxRows > 0 && (opts.MaxRows == 0 || opts.MaxRows > cfg.MaxRows) {
		opts.MaxRows = cfg.MaxRows
	}

	opts.Planner.Parallelism = cfg.Parallelism
	if q.Parallelism > 0 {
		opts.Planner.Parallelism = int(q.Parallelism)
	}
	return opts, nil
}

// sendError reports a query or protocol failure and keeps the session
// alive if the write succeeded. Returns false when the client is gone.
func (s *session) sendError(f wire.ErrorFrame) bool {
	if err := s.writeFrame(wire.FrameError, wire.EncodeError(f)); err != nil {
		return false
	}
	return s.flush() == nil
}

func (s *session) writeFrame(typ byte, payload []byte) error {
	s.conn.SetWriteDeadline(time.Now().Add(s.srv.cfg.writeTimeout()))
	return s.codec.WriteFrame(s.bw, typ, payload)
}

func (s *session) flush() error {
	s.conn.SetWriteDeadline(time.Now().Add(s.srv.cfg.writeTimeout()))
	return s.bw.Flush()
}
