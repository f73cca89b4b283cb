package cluster

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/qctx"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wire"
)

// fakeWorker speaks just enough of the wire protocol to put a scripted
// fate behind every kind of exchange the coordinator runs: it grants the
// cluster feature, then answers each request frame the way its mode says.
type fakeWorker struct {
	lis      net.Listener
	mode     atomic.Value // string: ok | reset | silent | typed | unknown | unknown-logical
	accepted atomic.Int64 // connections accepted so far
	mu       sync.Mutex
	conns    []net.Conn
}

func startFakeWorker(t *testing.T) *fakeWorker {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fw := &fakeWorker{lis: lis}
	fw.mode.Store("ok")
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			fw.accepted.Add(1)
			fw.mu.Lock()
			fw.conns = append(fw.conns, nc)
			fw.mu.Unlock()
			go fw.serve(nc)
		}
	}()
	t.Cleanup(fw.stop)
	return fw
}

// stop closes the listener and every connection: from here on a dial is
// refused.
func (fw *fakeWorker) stop() {
	fw.lis.Close()
	fw.mu.Lock()
	defer fw.mu.Unlock()
	for _, nc := range fw.conns {
		nc.Close()
	}
}

func (fw *fakeWorker) serve(nc net.Conn) {
	defer nc.Close()
	br := bufio.NewReader(nc)
	typ, payload, err := wire.ReadFrame(br)
	if err != nil || typ != wire.FrameHello {
		return
	}
	h, err := wire.DecodeHello(payload)
	if err != nil {
		return
	}
	if wire.WriteFrame(nc, wire.FrameHello, wire.EncodeHello(h)) != nil { // grant all that was asked
		return
	}
	codec := wire.Codec{Checksums: h.Flags&wire.FeatureChecksum != 0}
	rows := wire.RowBatch{Columns: []string{"A"}, Rows: []storage.Tuple{{value.NewInt(1)}, {value.NewInt(2)}}}
	for {
		typ, _, err := codec.ReadFrame(br)
		if err != nil {
			return
		}
		// The well-formed response to each request kind, frame by frame.
		var script []frame
		switch typ {
		case wire.FrameQuery:
			script = []frame{{wire.FrameRowBatch, wire.EncodeRowBatch(rows)}, {wire.FrameDone, wire.EncodeDone(wire.Done{Rows: 2})}}
		case wire.FrameSnapshot:
			script = []frame{
				{wire.FrameSnapshotMeta, wire.EncodeSnapshotMeta(wire.SnapshotMeta{CreateSQL: "CREATE TABLE T__S0 (A INTEGER)"})},
				{wire.FrameRowBatch, wire.EncodeRowBatch(rows)},
				{wire.FrameDone, wire.EncodeDone(wire.Done{Rows: 2})},
			}
		case wire.FrameLoad:
			script = []frame{{wire.FrameDone, wire.EncodeDone(wire.Done{Rows: 2})}}
		default:
			return
		}
		send := func(f frame) bool { return codec.WriteFrame(nc, f.typ, f.payload) == nil }
		switch fw.mode.Load().(string) {
		case "ok":
			for _, f := range script {
				if !send(f) {
					return
				}
			}
		case "reset": // the response starts, then the link dies under it
			if len(script) > 1 {
				send(script[0])
			}
			return
		case "silent": // the response starts, then nothing: only IOTimeout ends the wait
			if len(script) > 1 {
				send(script[0])
			}
			io := make([]byte, 1)
			nc.Read(io) // parks until the client gives up and closes
			return
		case "typed":
			send(frame{wire.FrameError, wire.EncodeError(wire.ErrorFrame{Code: wire.CodeMemoryBudget, Message: "memory limit"})})
		case "unknown":
			send(frame{wire.FrameError, wire.EncodeError(wire.ErrorFrame{Code: wire.CodeInternal, Message: "engine: unknown relation T__S0"})})
		case "unknown-logical": // a name no worker hosts: the statement was wrong, the worker is fine
			send(frame{wire.FrameError, wire.EncodeError(wire.ErrorFrame{Code: wire.CodeInternal, Message: "schema: unknown relation T"})})
		}
	}
}

type frame struct {
	typ     byte
	payload []byte
}

var errConsumer = errors.New("consumer bailed")

// TestWorkerAttemptRule pins the one place an attempt's outcome is
// classified (Coordinator.withWorker): for every kind of exchange the
// coordinator runs and every way it can end, what happens to the pooled
// connection, what the health state machine records, and what error type
// comes back. The rule must not depend on which exchange it was.
func TestWorkerAttemptRule(t *testing.T) {
	bail := false // the consumer-callback-error column sets it
	exchanges := map[string]func(c *client.Conn) error{
		"collect": func(c *client.Conn) error {
			_, err := c.Collect("DELETE FROM T__S0", client.Options{})
			return err
		},
		"gather round": func(c *client.Conn) error {
			st, err := c.Query("SELECT A FROM T__S0", client.Options{})
			if err != nil {
				return err
			}
			for st.Next() {
				if bail { // the row budget: the consumer stops, the stream is drained
					st.Close()
					return qctx.ErrRowBudget
				}
			}
			return st.Close()
		},
		"scatter": func(c *client.Conn) error {
			cols := []string{"A"}
			if bail { // the answer is read whole, then refused for its columns
				cols = []string{"B"}
			}
			_, err := scatterSlice(c, 0, "SELECT A FROM T__S0", client.Options{}, cols, Partitioner{NumShards: 2, KeyCols: []int{0}})
			return err
		},
		"snapshot ship": func(c *client.Conn) error {
			_, _, err := c.Snapshot("T__S0", func(wire.RowBatch) error {
				if bail {
					return errConsumer
				}
				return nil
			})
			return err
		},
		"load": func(c *client.Conn) error {
			_, err := c.Load("T__S0", wire.RowBatch{Columns: []string{"A"}})
			return err
		},
	}
	type want struct {
		idle  int    // healthy connections back in the pool
		state string // health state of the worker afterwards
		check func(error) bool
	}
	lost := func(err error) bool {
		var wl *WorkerLostError
		return errors.As(err, &wl) && errors.Is(err, ErrWorkerLost) && wl.Worker == 0
	}
	typed := func(err error) bool {
		var re *wire.RemoteError
		return errors.As(err, &re) && !errors.Is(err, ErrWorkerLost)
	}
	outcomes := []struct {
		name string
		mode string
		want want
	}{
		{"success", "ok", want{1, "healthy", func(err error) bool { return err == nil }}},
		{"dial refused", "refuse", want{0, "suspect", lost}},
		{"mid-stream reset", "reset", want{0, "suspect", lost}},
		{"IOTimeout", "silent", want{0, "suspect", func(err error) bool { return lost(err) && errors.Is(err, client.ErrConnectionLost) }}},
		{"typed RemoteError", "typed", want{1, "healthy", func(err error) bool { return typed(err) && errors.Is(err, qctx.ErrMemoryBudget) }}},
		{"unknown relation", "unknown", want{1, "dead", func(err error) bool { return typed(err) && strings.Contains(err.Error(), "unknown relation") }}},
		{"unknown logical relation", "unknown-logical", want{1, "healthy", func(err error) bool { return typed(err) && strings.Contains(err.Error(), "unknown relation") }}},
		{"consumer callback error", "ok", want{0, "healthy", func(err error) bool { return errors.Is(err, errConsumer) }}},
	}
	for xname, exchange := range exchanges {
		for _, oc := range outcomes {
			t.Run(xname+"/"+oc.name, func(t *testing.T) {
				want := oc.want
				bail = oc.name == "consumer callback error"
				if bail {
					switch xname {
					case "collect", "load":
						t.Skip("no consumer callback in this exchange")
					case "gather round": // bails by draining: the connection survives
						want.idle, want.check = 1, func(err error) bool { return errors.Is(err, qctx.ErrRowBudget) }
					case "scatter": // refuses a drained answer: the connection survives
						want.idle, want.check = 1, func(err error) bool { return err != nil && strings.Contains(err.Error(), "answered columns") }
					}
				}
				fw := startFakeWorker(t)
				co, err := New(Config{
					Workers:       []string{fw.lis.Addr().String()},
					IOTimeout:     150 * time.Millisecond,
					DialTimeout:   time.Second,
					ProbeInterval: -1,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer co.Close()
				// idle counts the healthy connections in the pool (0 or 1) by
				// what the worker sees: the next checkout reuses a pooled
				// connection, or has to dial.
				idle := func() int {
					before := fw.accepted.Load()
					c, err := co.pools[0].Get()
					if err != nil {
						return 0
					}
					co.pools[0].Put(c)
					if fw.accepted.Load() != before {
						return 0
					}
					return 1
				}
				if n := idle(); n != 1 {
					t.Fatalf("bootstrap left %d idle connections, want 1", n)
				}
				if oc.mode == "refuse" {
					fw.stop()
					for deadline := time.Now().Add(5 * time.Second); idle() > 0; time.Sleep(time.Millisecond) {
						if time.Now().After(deadline) {
							t.Fatal("pooled connection never noticed the worker going away")
						}
					}
				} else {
					fw.mode.Store(oc.mode)
				}
				err = co.withWorker(0, exchange)
				if !want.check(err) {
					t.Errorf("error %T %v is not what this outcome must return", err, err)
				}
				if got := idle(); got != want.idle {
					t.Errorf("%d idle pooled connections, want %d", got, want.idle)
				}
				if got := co.WorkerStates()[0]; got != want.state {
					t.Errorf("worker is %s, want %s", got, want.state)
				}
			})
		}
	}
}
