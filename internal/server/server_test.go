package server_test

import (
	"errors"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/qctx"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wire"
)

// serverDB mirrors the engine lifecycle fixture: RA(K,V) with 60 rows,
// RB(K,V) with 40, sized so transformed joins stream multiple batches.
func serverDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.New(6)
	for _, spec := range []struct {
		name string
		n    int
	}{{"RA", 60}, {"RB", 40}} {
		rel := &schema.Relation{Name: spec.name, Columns: []schema.Column{
			{Name: "K", Type: value.KindInt},
			{Name: "V", Type: value.KindInt},
		}}
		if err := db.CreateRelation(rel, 2); err != nil {
			t.Fatal(err)
		}
		for i := range spec.n {
			row := storage.Tuple{value.NewInt(int64(i % 7)), value.NewInt(int64(i % 5))}
			if err := db.Insert(spec.name, row); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Seal(spec.name); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

const serverQuery = "SELECT T1.K, T1.V FROM RA T1 WHERE T1.V IN (SELECT T2.V FROM RB T2)"

// startServer boots a server on a random port, returning its address
// and installing a cleanup that shuts it down and checks Serve's return.
func startServer(t *testing.T, db *engine.DB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv := server.New(db, cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()
	t.Cleanup(func() {
		srv.Shutdown(5 * time.Second)
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v after Shutdown, want nil", err)
		}
	})
	return srv, lis.Addr().String()
}

func dial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitGoroutineBaseline polls until the goroutine count returns to
// baseline (the leak-check pattern from the engine's storm test).
func waitGoroutineBaseline(t *testing.T, baseline int, label string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%s: goroutines leaked: baseline=%d now=%d\n%s",
				label, baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServeQueryMatchesInProcess: every strategy's streamed result must
// equal the in-process materialized run, batch boundaries invisible.
func TestServeQueryMatchesInProcess(t *testing.T) {
	db := serverDB(t)
	_, addr := startServer(t, db, server.Config{Strategy: engine.TransformJA2, BatchRows: 7})
	c := dial(t, addr)

	for _, tc := range []struct {
		wireStrat byte
		engStrat  engine.Strategy
	}{
		{wire.StrategyDefault, engine.TransformJA2},
		{wire.StrategyNested, engine.NestedIteration},
		{wire.StrategyTransform, engine.TransformJA2},
	} {
		want, err := db.Query(serverQuery, engine.Options{Strategy: tc.engStrat})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Collect(serverQuery, client.Options{Strategy: tc.wireStrat})
		if err != nil {
			t.Fatalf("strategy %d: %v", tc.wireStrat, err)
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) {
			t.Errorf("strategy %d: columns %v, want %v", tc.wireStrat, got.Columns, want.Columns)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("strategy %d: %d rows differ from in-process %d",
				tc.wireStrat, len(got.Rows), len(want.Rows))
		}
		if got.Done.Rows != int64(len(want.Rows)) {
			t.Errorf("strategy %d: Done.Rows=%d, want %d", tc.wireStrat, got.Done.Rows, len(want.Rows))
		}
	}
}

// TestServeEmptyResultCarriesColumns: a zero-row result still tells the
// client its column names (the zero-row batch).
func TestServeEmptyResultCarriesColumns(t *testing.T) {
	_, addr := startServer(t, serverDB(t), server.Config{Strategy: engine.TransformJA2})
	c := dial(t, addr)
	got, err := c.Collect("SELECT T1.K FROM RA T1 WHERE T1.V = 999", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 0 || !reflect.DeepEqual(got.Columns, []string{"K"}) {
		t.Errorf("got %d rows, columns %v", len(got.Rows), got.Columns)
	}
}

// TestServeErrorKeepsSession: a failed query answers with an Error
// frame and the connection stays usable for the next query.
func TestServeErrorKeepsSession(t *testing.T) {
	_, addr := startServer(t, serverDB(t), server.Config{Strategy: engine.TransformJA2})
	c := dial(t, addr)

	_, err := c.Collect("SELECT nonsense FROM nowhere", client.Options{})
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Frame.Code != wire.CodeInternal {
		t.Fatalf("err = %v, want RemoteError with CodeInternal", err)
	}
	if got, err := c.Collect(serverQuery, client.Options{}); err != nil || len(got.Rows) == 0 {
		t.Fatalf("session dead after query error: %v", err)
	}
}

// TestServeTypedErrorsAcrossWire: qctx sentinels survive the protocol —
// a row-budget violation on the server satisfies errors.Is client-side.
func TestServeTypedErrorsAcrossWire(t *testing.T) {
	_, addr := startServer(t, serverDB(t), server.Config{Strategy: engine.TransformJA2})
	c := dial(t, addr)
	_, err := c.Collect(serverQuery, client.Options{MaxRows: 3})
	if !errors.Is(err, qctx.ErrRowBudget) {
		t.Fatalf("err = %v, want ErrRowBudget through the wire", err)
	}
}

// TestServeTransientErrorsStayRetryable: an error that is retryable in
// process is retryable for the client. With every spill record corrupted
// the query fails on its run's checksum, and the client sees the family.
func TestServeTransientErrorsStayRetryable(t *testing.T) {
	db := serverDB(t)
	if err := db.EnableSpill(t.TempDir(), 1); err != nil { // spill from the first buffered byte
		t.Fatal(err)
	}
	in := fault.New(fault.Plan{Seed: 1, Rates: fault.Rates{fault.SpillCorrupt: 1}})
	db.SetFaults(in)
	_, addr := startServer(t, db, server.Config{Strategy: engine.TransformJA2})
	_, err := dial(t, addr).Collect(serverQuery, client.Options{})
	if !errors.Is(err, qctx.ErrSpillCorrupt) || !qctx.Retryable(err) {
		t.Fatalf("err = %v (%d records corrupted), want a retryable ErrSpillCorrupt through the wire", err, in.Injected())
	}
}

// TestServeCapsApplyToUncappedClients: the server's MaxRows ceiling
// governs a client that asked for no budget at all.
func TestServeCapsApplyToUncappedClients(t *testing.T) {
	_, addr := startServer(t, serverDB(t), server.Config{
		Strategy: engine.TransformJA2, MaxRows: 3,
	})
	c := dial(t, addr)
	if _, err := c.Collect(serverQuery, client.Options{}); !errors.Is(err, qctx.ErrRowBudget) {
		t.Fatalf("err = %v, want server-imposed ErrRowBudget", err)
	}
}

// TestServeOverloadCarriesRetryAfter: with admission saturated, a shed
// query's Error frame still yields a *qctx.OverloadError with a
// positive retry-after hint on the client side.
func TestServeOverloadCarriesRetryAfter(t *testing.T) {
	db := serverDB(t)
	db.EnableAdmission(admission.Config{MaxConcurrent: 1, QueueDepth: 0})
	// Slow page reads keep the first query in its slot while the second
	// arrives and gets shed.
	db.SetFaults(fault.New(fault.Plan{Seed: 1, Rates: fault.Rates{fault.StorageLatency: 1}, Latency: 2 * time.Millisecond}))
	_, addr := startServer(t, db, server.Config{Strategy: engine.TransformJA2})

	c1, c2 := dial(t, addr), dial(t, addr)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c1.Collect(serverQuery, client.Options{Strategy: wire.StrategyNested})
	}()
	// Wait until the first query occupies the only slot.
	deadline := time.Now().Add(5 * time.Second)
	for db.Admission().Stats().Running == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	_, err := c2.Collect(serverQuery, client.Options{})
	var ov *qctx.OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("err = %v, want OverloadError", err)
	}
	if ov.RetryAfter <= 0 {
		t.Errorf("retry-after hint lost across the wire: %v", ov.RetryAfter)
	}
	if !errors.Is(err, qctx.ErrOverloaded) {
		t.Errorf("err = %v does not satisfy errors.Is(ErrOverloaded)", err)
	}
	wg.Wait()
}

// TestServeClientDisconnectCancelsQuery: an abandoned connection must
// cancel its in-flight query (the dead channel wired as Options.Cancel)
// instead of letting it stream into the void. Without cancellation the
// injected per-page latency makes the nested-iteration query run for
// tens of seconds; the leak check's 10s deadline would trip.
func TestServeClientDisconnectCancelsQuery(t *testing.T) {
	baseline := runtime.NumGoroutine()
	db := serverDB(t)
	db.SetFaults(fault.New(fault.Plan{Seed: 1, Rates: fault.Rates{fault.StorageLatency: 1}, Latency: 20 * time.Millisecond}))
	srv := server.New(db, server.Config{Strategy: engine.TransformJA2})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	c, err := client.Dial(lis.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Query(serverQuery, client.Options{Strategy: wire.StrategyNested})
	if err != nil {
		t.Fatal(err)
	}
	_ = st
	time.Sleep(50 * time.Millisecond) // let the query start grinding
	c.Close()                         // walk away without reading a row

	srv.Shutdown(100 * time.Millisecond)
	if err := <-serveErr; err != nil {
		t.Errorf("Serve: %v", err)
	}
	waitGoroutineBaseline(t, baseline, "disconnect")
}

// TestServeRejectsBadHandshake: wrong magic and wrong version both get
// a protocol Error frame, never a hang or a panic.
func TestServeRejectsBadHandshake(t *testing.T) {
	_, addr := startServer(t, serverDB(t), server.Config{})

	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"bad magic", append([]byte("XXXX"), wire.Version)},
		{"bad version", append([]byte(wire.Magic), 99)},
	} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(nc, wire.FrameHello, tc.payload); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := wire.ReadFrame(nc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if typ != wire.FrameError {
			t.Fatalf("%s: got frame 0x%02x, want Error", tc.name, typ)
		}
		f, err := wire.DecodeError(payload)
		if err != nil || f.Code != wire.CodeProtocol {
			t.Errorf("%s: frame %+v err %v, want CodeProtocol", tc.name, f, err)
		}
		nc.Close()
	}
}

// TestServeUnexpectedFrameGetsProtocolError: a non-Query frame after
// the handshake is answered with CodeProtocol before the disconnect.
func TestServeUnexpectedFrameGetsProtocolError(t *testing.T) {
	_, addr := startServer(t, serverDB(t), server.Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, wire.FrameHello, wire.EncodeHello(wire.Hello{Version: wire.Version})); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(nc); err != nil || typ != wire.FrameHello {
		t.Fatalf("handshake reply: typ=0x%02x err=%v", typ, err)
	}
	if err := wire.WriteFrame(nc, wire.FrameDone, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := wire.DecodeError(payload)
	if typ != wire.FrameError || f.Code != wire.CodeProtocol {
		t.Errorf("got frame 0x%02x %+v, want protocol Error", typ, f)
	}
}

// TestShutdownDrainsInFlightStream (the graceful-shutdown guarantee):
// Shutdown during an in-flight streaming query lets it finish — the
// client receives the complete, correct result and a clean Done — then
// all goroutines unwind to baseline.
func TestShutdownDrainsInFlightStream(t *testing.T) {
	baseline := runtime.NumGoroutine()
	db := serverDB(t)
	db.EnableAdmission(admission.Config{MaxConcurrent: 4})
	// Mild latency so the stream is still in flight when Shutdown lands.
	db.SetFaults(fault.New(fault.Plan{Seed: 1, Rates: fault.Rates{fault.StorageLatency: 1}, Latency: time.Millisecond}))
	want, err := db.Query(serverQuery, engine.Options{Strategy: engine.TransformJA2})
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(db, server.Config{Strategy: engine.TransformJA2, BatchRows: 4})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	c, err := client.Dial(lis.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Query(serverQuery, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Next() {
		t.Fatalf("no first row: %v", st.Err())
	}

	// The stream is live; shut down underneath it.
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(10 * time.Second) }()

	var rows []storage.Tuple
	rows = append(rows, append(storage.Tuple(nil), st.Row()...))
	for st.Next() {
		rows = append(rows, append(storage.Tuple(nil), st.Row()...))
	}
	if err := st.Err(); err != nil {
		t.Fatalf("in-flight stream broken by shutdown: %v", err)
	}
	if !reflect.DeepEqual(rows, want.Rows) {
		t.Errorf("drained stream delivered %d rows, want %d", len(rows), len(want.Rows))
	}
	if err := <-shutdownErr; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("Serve: %v", err)
	}

	// The server is gone: new connections must fail.
	if _, err := client.Dial(lis.Addr().String(), time.Second); err == nil {
		t.Error("dial succeeded after shutdown")
	}
	c.Close()
	waitGoroutineBaseline(t, baseline, "shutdown")
}
