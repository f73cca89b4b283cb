package cluster_test

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/wire"
)

// relay is a frame-level man in the middle on one worker link. It
// forwards every frame both ways unchanged — read and written in the
// plain framing, so a checksummed frame's trailer rides along as payload
// — except once: after the first Query whose payload satisfies the armed
// cut, it forwards pass reply frames (heartbeats aside) and then closes
// the link instead of forwarding the next one.
type relay struct {
	lis    net.Listener
	target string
	fired  atomic.Int64

	mu    sync.Mutex
	cut   func(payload []byte) bool // nil: nothing armed
	pass  int
	conns []net.Conn
}

func startRelay(t *testing.T, target string) *relay {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &relay{lis: lis, target: target}
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go r.serve(c)
		}
	}()
	t.Cleanup(func() {
		lis.Close()
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, c := range r.conns {
			c.Close()
		}
	})
	return r
}

func (r *relay) addr() string { return r.lis.Addr().String() }

// arm sets the one-shot cut.
func (r *relay) arm(pass int, cut func(payload []byte) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cut, r.pass = cut, pass
}

// take reports whether a request disarms the cut, and how many reply
// frames it lets through first.
func (r *relay) take(payload []byte) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cut == nil || !r.cut(payload) {
		return 0, false
	}
	r.cut = nil
	return r.pass, true
}

func (r *relay) serve(client net.Conn) {
	worker, err := net.Dial("tcp", r.target)
	if err != nil {
		client.Close()
		return
	}
	r.mu.Lock()
	r.conns = append(r.conns, client, worker)
	r.mu.Unlock()
	defer client.Close()
	defer worker.Close()
	pass := make(chan int, 1) // a cut request's allowance, set before the request is forwarded
	go func() {
		defer worker.Close()
		br := bufio.NewReader(client)
		for {
			typ, p, err := wire.ReadFrame(br)
			if err != nil {
				return
			}
			if typ == wire.FrameQuery {
				if n, ok := r.take(p); ok {
					pass <- n
				}
			}
			if wire.WriteFrame(worker, typ, p) != nil {
				return
			}
		}
	}()
	br := bufio.NewReader(worker)
	left := -1 // reply frames still forwarded before the cut; -1 = none armed
	for {
		typ, p, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		if left < 0 {
			select {
			case left = <-pass:
			default:
			}
		}
		if left >= 0 && typ != wire.FramePing {
			if left == 0 {
				r.fired.Add(1)
				return
			}
			left--
		}
		if wire.WriteFrame(client, typ, p) != nil {
			return
		}
	}
}

// relayedCluster is clusterScript on n workers at R=2, each behind a
// relay, with SP placed on PNO so a query correlated on SNO shuffles it.
func relayedCluster(t *testing.T, n int) (*cluster.Coordinator, []*relay, []*engine.DB) {
	t.Helper()
	addrs, dbs := startWorkers(t, n, false)
	relays := make([]*relay, n)
	workers := make([]string, n)
	for i, addr := range addrs {
		relays[i] = startRelay(t, addr)
		workers[i] = relays[i].addr()
	}
	co, err := cluster.New(cluster.Config{
		Workers:       workers,
		Replicas:      2,
		Placement:     map[string]string{"SP": "PNO"},
		DialTimeout:   time.Second,
		IOTimeout:     5 * time.Second,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	if _, err := co.ExecSQL(clusterScript, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	return co, relays, dbs
}

// shuffledMatchesOracle runs a query that shuffles SP and holds it
// against the single node. Its answer moves with any SP row landed twice
// or lost: each supplier's count of parts decides whether it is in.
func shuffledMatchesOracle(t *testing.T, co *cluster.Coordinator) {
	t.Helper()
	const sql = "SELECT S.SNO, S.SNAME FROM S WHERE 2 = (SELECT COUNT(SP.PNO) FROM SP WHERE SP.SNO = S.SNO)"
	want, err := oracleDB(t).Query(sql, engine.Options{Strategy: engine.TransformJA2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := co.ExecSQL(sql, engine.Options{Strategy: engine.TransformJA2})
	if err != nil {
		t.Fatalf("shuffled query: %v", err)
	}
	if d := storage.Diff(engine.AcrossRegimes, got.Rows, want.Rows); d != "" {
		t.Errorf("shuffled result diverges from the oracle: %s", d)
	}
}

// TestStagingCreateAckLost: a worker that commits a staging CREATE whose
// acknowledgement never reaches the coordinator still holds the table.
// The coordinator must know it may, or the table outlives every drop
// and sweep while LiveStaging reads 0.
func TestStagingCreateAckLost(t *testing.T) {
	co, relays, dbs := relayedCluster(t, 2)
	relays[0].arm(0, func(p []byte) bool {
		return strings.Contains(string(p), "CREATE TABLE") && strings.Contains(string(p), "__X")
	})
	shuffledMatchesOracle(t, co)
	if relays[0].fired.Load() != 1 {
		t.Fatal("no staging CREATE reply was cut; the test proved nothing")
	}
	if !co.Probe(0) {
		t.Fatal("worker 0 did not heal")
	}
	if n := co.SweepStaging(); n != 0 {
		t.Errorf("%d staging tables still registered after heal and sweep", n)
	}
	for w, db := range dbs {
		for _, name := range db.Catalog().Names() {
			if strings.Contains(name, "__X") {
				t.Errorf("worker %d still holds staging table %s", w, name)
			}
		}
	}
}

// TestScatterFailoverDiscardsPartialRows: a scatter read that loses its
// link after rows arrived fails over to the slice's other replica, and
// the rows of the lost attempt are dropped, not landed twice.
func TestScatterFailoverDiscardsPartialRows(t *testing.T) {
	co, relays, dbs := relayedCluster(t, 3)
	// Cut the scatter read of a slice that has rows, on its primary,
	// after the first batch.
	s := -1
	for i, db := range dbs {
		if res, err := db.Query(fmt.Sprintf("SELECT T.SNO FROM SP__S%d T", i), engine.Options{}); err == nil && len(res.Rows) > 0 {
			s = i
			break
		}
	}
	if s < 0 {
		t.Fatal("fixture: no SP slice holds rows")
	}
	slice := fmt.Sprintf("FROM SP__S%d", s)
	relays[s].arm(1, func(p []byte) bool { return strings.Contains(string(p), slice) })
	shuffledMatchesOracle(t, co)
	if relays[s].fired.Load() != 1 {
		t.Fatal("the scatter read was not cut after its first batch; the test proved nothing")
	}
	if n := co.LiveStaging(); n != 0 {
		t.Errorf("%d staging tables leaked", n)
	}
}
