package main

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/wire"
)

// The kill -9 recovery storm: a real daemon subprocess (built with the
// race detector and with WAL torn-append faults armed) takes concurrent
// DML bursts from four clients on disjoint tables and is SIGKILLed
// mid-burst, over and over. After every kill the next boot must recover
// exactly the acknowledged commits — allowing, per client, the one
// in-flight statement that was sent but unanswered when the process
// died — with no ghost writes, no torn-tail panics, and no leaked WAL
// or snapshot files. The storm ends with a SIGTERM drain that must exit
// 0 and leave a single snapshot + segment pair behind.

// buildDaemon compiles nestedsqld with -race into a temp dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "nestedsqld")
	cmd := exec.Command("go", "build", "-race", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -race: %v\n%s", err, out)
	}
	return bin
}

// daemon is one running nestedsqld subprocess.
type daemon struct {
	cmd  *exec.Cmd
	addr string

	mu     sync.Mutex
	stderr strings.Builder
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// startDaemon launches the binary against dataDir and waits for its
// listening line. Torn-append faults are armed with the given seed.
func startDaemon(t *testing.T, bin, dataDir string, faultSeed int64) *daemon {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-fixture", "none",
		"-data-dir", dataDir,
		"-fault", fault.Plan{Seed: faultSeed, Max: 1, Rates: fault.Rates{fault.WALTear: 0.02}}.String(),
		"-drain-timeout", "5s",
	)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addrc <- a:
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-addrc:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon never listened; stderr:\n%s", d.log())
	}
	return d
}

// tableState is a sorted multiset of a table's rows, or absent entirely.
type tableState struct {
	exists bool
	rows   []string
}

func (s tableState) equal(o tableState) bool {
	if s.exists != o.exists || len(s.rows) != len(o.rows) {
		return false
	}
	for i := range s.rows {
		if s.rows[i] != o.rows[i] {
			return false
		}
	}
	return true
}

// serverTable reads one table's state over the wire.
func serverTable(t *testing.T, addr, table string) tableState {
	t.Helper()
	c, err := client.Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer c.Close()
	res, err := c.Collect(fmt.Sprintf("SELECT K, V FROM %s", table), client.Options{})
	if err != nil {
		if strings.Contains(err.Error(), "unknown relation") {
			return tableState{}
		}
		t.Fatalf("read %s: %v", table, err)
	}
	return tupleState(res.Rows)
}

func tupleState(rows []storage.Tuple) tableState {
	st := tableState{exists: true, rows: []string{}}
	for _, r := range rows {
		st.rows = append(st.rows, r.String())
	}
	sort.Strings(st.rows)
	return st
}

// oracleTable replays a statement list into a fresh engine and reads the
// table's state — the ground truth for one client's acked (or acked +
// in-flight) history.
func oracleTable(t *testing.T, table string, history []string) tableState {
	t.Helper()
	db := engine.New(32)
	for _, sql := range history {
		if _, err := db.Exec(sql, engine.Options{}); err != nil {
			t.Fatalf("oracle replay %q: %v", sql, err)
		}
	}
	f, ok := db.Store().Lookup(table)
	if !ok {
		return tableState{}
	}
	st := tableState{exists: true, rows: []string{}}
	f.Scan(func(tu storage.Tuple) bool {
		st.rows = append(st.rows, tu.String())
		return true
	})
	sort.Strings(st.rows)
	return st
}

// dataFiles counts the data directory's contents by kind.
func dataFiles(t *testing.T, dir string) (segs, snaps, other int) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".seg"):
			segs++
		case strings.HasSuffix(e.Name(), ".snap"):
			snaps++
		default:
			other++
		}
	}
	return segs, snaps, other
}

func genStormDML(rng *rand.Rand, table string, create bool) string {
	switch {
	case create:
		return fmt.Sprintf("CREATE TABLE %s (K INT, V INT)", table)
	case rng.Intn(5) == 0:
		return fmt.Sprintf("UPDATE %s SET V = %d WHERE K < %d", table, rng.Intn(1000), rng.Intn(40))
	case rng.Intn(5) == 1:
		return fmt.Sprintf("DELETE FROM %s WHERE V > %d", table, 600+rng.Intn(400))
	default:
		return fmt.Sprintf("INSERT INTO %s VALUES (%d, %d), (%d, %d)",
			table, rng.Intn(40), rng.Intn(1000), rng.Intn(40), rng.Intn(1000))
	}
}

func TestCrashStormKill9(t *testing.T) {
	if testing.Short() && os.Getenv("CRASH_STORM_SHORT") == "" {
		// Even the short storm builds a -race daemon; allow scripted
		// short gates to opt in explicitly.
		t.Skip("kill -9 storm skipped in -short mode without CRASH_STORM_SHORT=1")
	}
	rounds, workers := 16, 4
	if testing.Short() {
		rounds = 4
	}
	bin := buildDaemon(t)
	dataDir := t.TempDir()

	acked := make([][]string, workers)  // acknowledged statements, in order
	inflight := make([]string, workers) // sent but unanswered at the kill
	created := make([]bool, workers)    // CREATE TABLE acked (or promoted)
	tables := make([]string, workers)
	for w := range tables {
		tables[w] = fmt.Sprintf("CRASH%d", w)
	}

	// resolve reads the recovered server state for every client table and
	// settles each in-flight statement: it either became durable before
	// the kill (promote it to acked) or it did not (drop it). Anything
	// else — a half-applied statement, a ghost, a lost ack — fails.
	resolve := func(round int, addr string) {
		for w := 0; w < workers; w++ {
			got := serverTable(t, addr, tables[w])
			ackedState := oracleTable(t, tables[w], acked[w])
			if inflight[w] == "" {
				if !got.equal(ackedState) {
					t.Fatalf("round %d: %s diverged from acked history:\n  got:  %v\n  want: %v",
						round, tables[w], got, ackedState)
				}
				continue
			}
			withInflight := oracleTable(t, tables[w], append(append([]string{}, acked[w]...), inflight[w]))
			switch {
			case got.equal(ackedState):
				inflight[w] = ""
			case got.equal(withInflight):
				acked[w] = append(acked[w], inflight[w])
				if strings.HasPrefix(inflight[w], "CREATE") {
					created[w] = true
				}
				inflight[w] = ""
			default:
				t.Fatalf("round %d: %s matches neither acked history nor acked+in-flight %q:\n  got:          %v\n  acked:        %v\n  with inflight: %v",
					round, tables[w], inflight[w], got, ackedState, withInflight)
			}
		}
	}

	for round := 0; round < rounds; round++ {
		d := startDaemon(t, bin, dataDir, int64(round+1))
		resolve(round, d.addr)
		if segs, snaps, other := dataFiles(t, dataDir); segs != 1 || snaps != 1 || other != 0 {
			t.Fatalf("round %d: data dir leaked files after boot checkpoint: %d segments, %d snapshots, %d other\nstderr:\n%s",
				round, segs, snaps, other, d.log())
		}

		// The burst: every worker hammers its own table until the kill
		// lands or the op budget runs out.
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				conn, err := client.Dial(d.addr, 10*time.Second)
				if err != nil {
					return // the kill can beat the dial; nothing sent
				}
				defer conn.Close()
				rng := rand.New(rand.NewSource(int64(round*100 + w)))
				for op := 0; op < 400; op++ {
					sql := genStormDML(rng, tables[w], op == 0 && !created[w])
					inflight[w] = sql
					res, err := conn.Collect(sql, client.Options{})
					if err != nil {
						var remote *wire.RemoteError
						if errors.As(err, &remote) {
							// A served refusal (e.g. the armed WAL fault
							// tearing this append): the torn record cannot
							// survive recovery, so the statement is
							// definitively not committed.
							inflight[w] = ""
						}
						// Anything else means the connection died — the
						// kill landed mid-statement, and whether the
						// commit record made it to the OS is unknowable
						// from here. It stays in-flight for resolve.
						return
					}
					inflight[w] = ""
					acked[w] = append(acked[w], sql)
					if strings.HasPrefix(sql, "CREATE") {
						created[w] = true
					} else if strings.HasPrefix(sql, "INSERT") && res.Done.Rows != 2 {
						t.Errorf("round %d: INSERT acked %d rows, want 2", round, res.Done.Rows)
					}
				}
			}(w)
		}
		// Let the burst run, then kill -9 mid-flight.
		time.Sleep(time.Duration(80+rand.New(rand.NewSource(int64(round))).Intn(200)) * time.Millisecond)
		d.cmd.Process.Kill()
		wg.Wait()
		d.cmd.Wait()
	}

	// Final clean cycle: boot once more (resolving the last kill), then
	// SIGTERM. The drain must exit 0 and leave one snapshot + segment.
	d := startDaemon(t, bin, dataDir, 0)
	resolve(rounds, d.addr)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM exit: %v\nstderr:\n%s", err, d.log())
	}
	if !strings.Contains(d.log(), "bye") {
		t.Fatalf("daemon did not shut down cleanly:\n%s", d.log())
	}
	if segs, snaps, other := dataFiles(t, dataDir); segs != 1 || snaps != 1 || other != 0 {
		t.Fatalf("after final drain: %d segments, %d snapshots, %d other files", segs, snaps, other)
	}

	var total int
	for w := range acked {
		total += len(acked[w])
	}
	t.Logf("kill -9 storm: %d rounds, %d statements acknowledged and verified recovered", rounds, total)
	if total == 0 {
		t.Fatal("storm acknowledged nothing; the burst never reached the daemon")
	}
}
