// Command nestedsqld serves one of the paper's example databases over
// the nestedsql wire protocol (see internal/wire). Clients connect with
// internal/client (or cmd/benchpaper's -serve-load harness), stream
// results batch by batch, and receive typed Error frames — an admission
// shed arrives with its retry-after hint intact.
//
//	nestedsqld -addr 127.0.0.1:4045 -fixture both -max-concurrent 8
//
// The daemon always runs with the admission gateway enabled (the flag
// defaults impose no concurrency bound, but the gateway is what makes
// SIGTERM drain instead of drop): on SIGTERM or SIGINT it stops
// accepting connections, lets in-flight queries finish streaming for up
// to -drain-timeout, then closes every connection and exits 0.
//
// With -coordinator the same binary fronts a cluster instead of an
// engine: it dials the listed workers (plain nestedsqld instances — any
// daemon is a worker, the cluster feature is always negotiated), shards
// CREATE/INSERT across them by hash of each table's partition key, and
// answers distributable queries by shuffling misplaced tables and
// gathering per-shard results. Start the workers first, empty:
//
//	nestedsqld -addr 127.0.0.1:5001 -fixture none &
//	nestedsqld -addr 127.0.0.1:5002 -fixture none &
//	nestedsqld -addr 127.0.0.1:4045 \
//	  -coordinator 127.0.0.1:5001,127.0.0.1:5002 -place SP=SNO
//
// It prints "listening on ADDR" to stderr once the socket is open, so
// scripts using -addr 127.0.0.1:0 can discover the port.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	nestedsql "repro"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/server"
)

var strategies = map[string]engine.Strategy{
	"ni":  engine.NestedIteration,
	"ja2": engine.TransformJA2,
	"kim": engine.TransformKim,
}

// options is the parsed command line.
type options struct {
	addr, fixture, strategy, spillDir, dataDir, coordinator, place, fault string
	buffer, maxConcurrent, queueDepth, replicas                           int
	drainTimeout, heartbeat, writeDeadline, probeInterval                 time.Duration
	maxRows, memPool, spillThreshold                                      int64
	fsync                                                                 bool
}

// defineFlags declares every flag nestedsqld takes on fs.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", "127.0.0.1:4045", "listen address (port 0 picks a free port)")
	fs.StringVar(&o.fixture, "fixture", "both", "dataset: kiessling | suppliers | both | none")
	fs.StringVar(&o.strategy, "strategy", "ja2", "default strategy for StrategyDefault queries: ni | ja2 | kim")
	fs.IntVar(&o.buffer, "buffer", 32, "buffer pool size in pages (the paper's B)")
	fs.Int64Var(&o.maxRows, "max-rows", 0, "cap on per-query row budgets; also applied to clients that send none (0 = none)")
	fs.IntVar(&o.maxConcurrent, "max-concurrent", 0, "admission: max concurrent queries (0 = unlimited)")
	fs.IntVar(&o.queueDepth, "queue-depth", 0, "admission: queries allowed to wait behind the running ones; beyond that, shed")
	fs.Int64Var(&o.memPool, "mem-pool", 0, "admission: global memory pool (bytes) leased out per query (0 = none)")
	fs.StringVar(&o.spillDir, "spill-dir", "", "spill-to-disk directory: queries over their memory lease write checksummed run files there and complete instead of failing (empty = spilling off)")
	fs.Int64Var(&o.spillThreshold, "spill-threshold", 0, "sorts and merge-join groups start spilling once a query buffers this many bytes, even under budget (0 = spill only at the budget)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "how long in-flight queries may finish on shutdown")
	fs.DurationVar(&o.heartbeat, "heartbeat", 0, "ping interval for idle sessions that negotiated heartbeats; two unanswered pings evict the peer (0 = 15s)")
	fs.DurationVar(&o.writeDeadline, "write-deadline", 0, "per-frame write deadline; a consumer stalled past it is evicted, its query cancelled (0 = 30s)")
	fs.StringVar(&o.dataDir, "data-dir", "", "durability: write-ahead log + checkpoint directory; recovers prior state on start, checkpoints on clean shutdown (empty = in-memory only)")
	fs.BoolVar(&o.fsync, "fsync", false, "durability: fsync every commit batch (with -data-dir); off = commits survive a process crash, not host power loss")
	fs.StringVar(&o.fault, "fault", "", "testing: fault plan armed on the engine once it is loaded, e.g. seed=7,max=1,wal.tear=0.02 (sites: internal/fault)")
	fs.StringVar(&o.coordinator, "coordinator", "", "run as cluster coordinator over these comma-separated worker addresses (no local engine)")
	fs.StringVar(&o.place, "place", "", "coordinator: comma-separated TABLE=COL partition-key overrides (default: each table's first key column)")
	fs.IntVar(&o.replicas, "replicas", 1, "coordinator: copies per shard; DML acks only after every live replica logged it, and queries fail over to a replica when a worker dies")
	fs.DurationVar(&o.probeInterval, "probe-interval", time.Second, "coordinator: health-probe cadence; dead workers are automatically rejoined via snapshot re-ship")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	strat, ok := strategies[o.strategy]
	if !ok {
		fail(fmt.Errorf("unknown strategy %q", o.strategy))
	}

	srvCfg := server.Config{
		MaxRows:           o.maxRows,
		Strategy:          strat,
		WriteTimeout:      o.writeDeadline,
		HeartbeatInterval: o.heartbeat,
	}

	if o.coordinator != "" {
		// Coordinator mode has no local engine, so engine-only flags are
		// a configuration error, not something to silently ignore.
		engineOnly := map[string]bool{
			"fixture": true, "buffer": true, "max-concurrent": true,
			"queue-depth": true, "mem-pool": true, "spill-dir": true,
			"spill-threshold": true, "data-dir": true, "fsync": true,
			"fault": true,
		}
		var bad []string
		flag.Visit(func(f *flag.Flag) {
			if engineOnly[f.Name] {
				bad = append(bad, "-"+f.Name)
			}
		})
		if len(bad) > 0 {
			fail(fmt.Errorf("coordinator mode has no local engine; drop %s (workers own storage)",
				strings.Join(bad, ", ")))
		}
		runCoordinator(o.coordinator, o.place, o.replicas, o.probeInterval, srvCfg, o.addr, o.drainTimeout)
		return
	}

	// Admission is always on: it is the drain mechanism behind graceful
	// shutdown. Zero flags just mean no concurrency bound.
	db := nestedsql.Open(nestedsql.WithBufferPages(o.buffer))
	db.EnableAdmission(nestedsql.AdmissionConfig{
		MaxConcurrent: o.maxConcurrent,
		QueueDepth:    o.queueDepth,
		MemPool:       o.memPool,
	})
	if o.spillDir != "" {
		if err := db.EnableSpill(o.spillDir, o.spillThreshold); err != nil {
			fail(err)
		}
	}
	recovered := false
	if o.dataDir != "" {
		info, err := db.EnableDurability(o.dataDir, o.fsync)
		if err != nil {
			fail(err)
		}
		recovered = info.Recovered()
		fmt.Fprintf(os.Stderr, "nestedsqld: %s\n", info)
	}
	// A recovered database already holds its tables (fixtures included,
	// since the first boot's loads were logged); loading again would
	// duplicate rows.
	if !recovered {
		switch o.fixture {
		case "kiessling":
			mustLoad(db, nestedsql.FixtureKiessling)
		case "suppliers":
			mustLoad(db, nestedsql.FixtureSuppliers)
		case "both":
			// Disjoint table names (PARTS/SUPPLY vs S/P/SP), so both paper
			// databases fit in one catalog.
			mustLoad(db, nestedsql.FixtureKiessling)
			mustLoad(db, nestedsql.FixtureSuppliers)
		case "none":
		default:
			fail(fmt.Errorf("unknown fixture %q", o.fixture))
		}
	}
	if o.dataDir != "" {
		// Fold boot-time loads or a replayed WAL tail into one snapshot:
		// every boot starts from a short log, so recovery time and file
		// count stay bounded across kill -9 cycles.
		if err := db.Checkpoint(); err != nil {
			fail(err)
		}
	}
	if o.fault != "" {
		plan, err := fault.Parse(o.fault)
		if err != nil {
			fail(err)
		}
		db.Internal().SetFaults(fault.New(plan))
		fmt.Fprintf(os.Stderr, "nestedsqld: fault injection armed (%v)\n", plan)
	}

	srv := server.New(db.Internal(), srvCfg)
	serveLoop(srv, o.addr, o.drainTimeout)
	db.Internal().SetFaults(nil) // the final checkpoint reads pages outside any query's containment
	if o.spillDir != "" {
		fmt.Fprintf(os.Stderr, "nestedsqld: spill: %v\n", db.SpillStats())
	}
	if o.dataDir != "" {
		// Drained: no queries or DML in flight. One final checkpoint
		// makes the next boot recover from the snapshot alone.
		if err := db.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "nestedsqld: final checkpoint: %v\n", err)
			os.Exit(1)
		}
		if ws, ok := db.WALStats(); ok {
			fmt.Fprintf(os.Stderr, "nestedsqld: wal: %v\n", ws)
		}
	}
	fmt.Fprintln(os.Stderr, "nestedsqld: bye")
}

// serveLoop runs srv on addr until SIGTERM/SIGINT triggers a drain. It
// returns (rather than exiting) so each mode can print its epilogue.
func serveLoop(srv *server.Server, addr string, drainTimeout time.Duration) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "nestedsqld: listening on %s\n", lis.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	shutdownErr := make(chan error, 1)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "nestedsqld: %v; draining (up to %s)\n", sig, drainTimeout)
		shutdownErr <- srv.Shutdown(drainTimeout)
	}()

	if err := srv.Serve(lis); err != nil {
		fail(err)
	}
	// Serve returned nil, so a signal triggered Shutdown; report how the
	// drain went but exit 0 either way — stragglers were canceled, not
	// leaked.
	if err := <-shutdownErr; err != nil {
		fmt.Fprintf(os.Stderr, "nestedsqld: drain: %v\n", err)
	}
}

// runCoordinator fronts a worker fleet with the same wire protocol a
// single-node daemon speaks: clients cannot tell (and need not care)
// that results are gathered from shards.
func runCoordinator(workerList, placeList string, replicas int, probeInterval time.Duration, cfg server.Config, addr string, drainTimeout time.Duration) {
	workers := splitNonEmpty(workerList)
	if len(workers) == 0 {
		fail(fmt.Errorf("-coordinator needs at least one worker address"))
	}
	placement := map[string]string{}
	for _, kv := range splitNonEmpty(placeList) {
		table, col, ok := strings.Cut(kv, "=")
		if !ok || table == "" || col == "" {
			fail(fmt.Errorf("-place entry %q is not TABLE=COL", kv))
		}
		placement[strings.ToUpper(strings.TrimSpace(table))] =
			strings.ToUpper(strings.TrimSpace(col))
	}
	co, err := cluster.New(cluster.Config{
		Workers:       workers,
		Replicas:      replicas,
		Placement:     placement,
		IOTimeout:     10 * time.Second, // per-frame deadline on worker connections
		ProbeInterval: probeInterval,
	})
	if err != nil {
		fail(fmt.Errorf("coordinator: %w", err))
	}
	fmt.Fprintf(os.Stderr, "nestedsqld: coordinating %d workers (replicas=%d): %s\n",
		co.NumWorkers(), co.Replicas(), strings.Join(workers, ", "))

	serveLoop(server.NewBackend(co, cfg), addr, drainTimeout)

	counts := co.GatherCounts()
	states := co.WorkerStates()
	for i, n := range counts {
		fmt.Fprintf(os.Stderr, "nestedsqld: worker %d (%s): %d gathers, %s\n", i, workers[i], n, states[i])
	}
	if err := co.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "nestedsqld: coordinator close: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "nestedsqld: bye")
}

// splitNonEmpty splits a comma list, trimming blanks away.
func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func mustLoad(db *nestedsql.DB, f nestedsql.Fixture) {
	if err := db.LoadFixture(f); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "nestedsqld:", err)
	os.Exit(1)
}
