// Command nestedsql runs SQL against one of the paper's example databases
// (or an empty database) under a chosen evaluation strategy, printing the
// result rows and the measured page I/Os. With -explain it also prints the
// classification, transformation steps, and plan decisions.
//
// Examples:
//
//	nestedsql -fixture kiessling \
//	  "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY
//	   WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)"
//
//	nestedsql -fixture kiessling -strategy kim -explain "..."   # the COUNT bug
//	echo "SELECT SNAME FROM S" | nestedsql -fixture suppliers -
//
// Scripts with DDL and DML work too:
//
//	nestedsql -fixture none "CREATE TABLE T (X INT); INSERT INTO T VALUES (1); SELECT X FROM T"
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	nestedsql "repro"
)

var fixtures = map[string]nestedsql.Fixture{
	"kiessling":   nestedsql.FixtureKiessling,
	"nonequality": nestedsql.FixtureNonEquality,
	"duplicates":  nestedsql.FixtureDuplicates,
	"suppliers":   nestedsql.FixtureSuppliers,
}

var strategies = map[string]nestedsql.Strategy{
	"ni":  nestedsql.StrategyNestedIteration,
	"ja2": nestedsql.StrategyTransform,
	"kim": nestedsql.StrategyTransformKim,
}

// csvLoads accumulates repeated -load TABLE=FILE flags.
type csvLoads []string

func (c *csvLoads) String() string     { return strings.Join(*c, ",") }
func (c *csvLoads) Set(v string) error { *c = append(*c, v); return nil }

// options is the parsed command line.
type options struct {
	fixture, strategy, spillDir, open, save, dataDir string
	buffer, maxConcurrent, queueDepth                int
	explain, interactive, fsync                      bool
	timeout                                          time.Duration
	maxRows, maxBytes, spillThreshold, memPool       int64
	loads                                            csvLoads
}

// defineFlags declares every flag nestedsql takes on fs.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.fixture, "fixture", "kiessling", "dataset: kiessling | nonequality | duplicates | suppliers | none")
	fs.StringVar(&o.strategy, "strategy", "ja2", "evaluation strategy: ni | ja2 | kim")
	fs.IntVar(&o.buffer, "buffer", 32, "buffer pool size in pages (the paper's B)")
	fs.BoolVar(&o.explain, "explain", false, "print classification, transformation steps, and plan decisions")
	fs.BoolVar(&o.interactive, "i", false, "interactive REPL (read statements from stdin)")
	fs.DurationVar(&o.timeout, "timeout", 0, "per-query wall-clock limit; exceeding it fails the query (0 = none)")
	fs.Int64Var(&o.maxRows, "max-rows", 0, "per-query result-row budget; exceeding it fails the query (0 = none)")
	fs.Int64Var(&o.maxBytes, "max-bytes", 0, "per-query memory budget (bytes) for hash builds and sorts; without -spill-dir exceeding it fails the query (0 = none)")
	fs.StringVar(&o.spillDir, "spill-dir", "", "spill-to-disk directory: queries over budget write checksummed run files there and complete instead of failing (empty = spilling off)")
	fs.Int64Var(&o.spillThreshold, "spill-threshold", 0, "sorts and merge-join groups start spilling once a query buffers this many bytes, even under budget (0 = spill only at the budget)")
	fs.IntVar(&o.maxConcurrent, "max-concurrent", 0, "admission: max concurrent queries (0 = no admission gateway)")
	fs.IntVar(&o.queueDepth, "queue-depth", 0, "admission: queries allowed to wait behind the running ones; beyond that, shed")
	fs.Int64Var(&o.memPool, "mem-pool", 0, "admission: global memory pool (bytes) leased out per query (0 = none)")
	fs.Var(&o.loads, "load", "bulk-load a CSV file: TABLE=FILE (repeatable; first line is a header)")
	fs.StringVar(&o.open, "open", "", "open a database snapshot instead of a fixture")
	fs.StringVar(&o.save, "save", "", "write a database snapshot to this file before exiting")
	fs.StringVar(&o.dataDir, "data-dir", "", "durability: write-ahead log + checkpoint directory; recovers prior state on start, checkpoints on exit (empty = in-memory only)")
	fs.BoolVar(&o.fsync, "fsync", false, "durability: fsync every commit batch (with -data-dir); off = commits survive a process crash, not host power loss")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	strat, ok := strategies[o.strategy]
	if !ok {
		fail(fmt.Errorf("unknown strategy %q", o.strategy))
	}

	db, err := openDB(o, flag.CommandLine)
	if err != nil {
		fail(err)
	}
	if o.spillDir != "" {
		// EnableSpill (not the Open option) so a restored snapshot gets
		// spilling too, and so a bad directory is a clean error.
		if err := db.EnableSpill(o.spillDir, o.spillThreshold); err != nil {
			fail(err)
		}
	}
	recovered := false
	if o.dataDir != "" {
		if o.open != "" {
			fail(fmt.Errorf("-data-dir and -open are mutually exclusive; the data directory is the durable state"))
		}
		info, err := db.EnableDurability(o.dataDir, o.fsync)
		if err != nil {
			fail(err)
		}
		recovered = info.Recovered()
		fmt.Fprintf(os.Stderr, "nestedsql: %s\n", info)
	}
	// A recovered database already holds its tables; loading the fixture
	// again would duplicate rows.
	if o.open == "" && !recovered && o.fixture != "none" {
		f, ok := fixtures[o.fixture]
		if !ok {
			fail(fmt.Errorf("unknown fixture %q", o.fixture))
		}
		if err := db.LoadFixture(f); err != nil {
			fail(err)
		}
	}
	for _, spec := range o.loads {
		table, path, ok := strings.Cut(spec, "=")
		if !ok {
			fail(fmt.Errorf("bad -load %q; want TABLE=FILE", spec))
		}
		f, err := os.Open(path)
		if err != nil {
			fail(err)
		}
		n, err := db.LoadCSV(table, f, true)
		f.Close()
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "loaded %d rows into %s\n", n, table)
	}

	saveAndExit := func() {
		if o.dataDir != "" {
			// Retire the log into one snapshot so the next start recovers
			// instantly instead of replaying the session's WAL tail.
			if err := db.Checkpoint(); err != nil {
				fail(err)
			}
		}
		if o.save == "" {
			return
		}
		f, err := os.Create(o.save)
		if err != nil {
			fail(err)
		}
		if err := db.Save(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "snapshot written to %s\n", o.save)
	}
	defer saveAndExit()

	sess := &session{
		strategy: strat,
		explain:  o.explain,
		timeout:  o.timeout,
		maxRows:  o.maxRows,
		maxBytes: o.maxBytes,
	}
	if o.interactive {
		repl(db, os.Stdin, true, sess)
		return
	}
	sql, err := readQuery(flag.Args())
	if err != nil {
		fail(err)
	}

	cancelOpt, cleanup := interruptCancel()
	defer cleanup()
	opts := append(sess.options(), cancelOpt)
	if o.explain {
		rep, err := db.Explain(sql, opts...)
		if err != nil {
			fail(err)
		}
		fmt.Println(rep)
		return
	}
	res, err := db.Exec(sql, opts...)
	if err != nil {
		fail(err)
	}
	if res == nil || len(res.Columns) == 0 {
		if res != nil && res.Affected > 0 {
			fmt.Printf("%d row(s) affected (no SELECT in script)\n", res.Affected)
		} else {
			fmt.Println("ok (no SELECT in script)")
		}
		return
	}
	printResult(res)
}

// openDB opens the database the command line names — an empty one, or
// the snapshot behind -open, whose own buffer pool and tables make -buffer
// or -fixture beside it a configuration error, not something to silently
// ignore — with the admission gateway on either if its flags ask for it.
func openDB(o *options, fs *flag.FlagSet) (*nestedsql.DB, error) {
	var db *nestedsql.DB
	if o.open == "" {
		db = nestedsql.Open(nestedsql.WithBufferPages(o.buffer))
	} else {
		var bad []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "buffer" || f.Name == "fixture" {
				bad = append(bad, "-"+f.Name)
			}
		})
		if len(bad) > 0 {
			return nil, fmt.Errorf("-open restores the snapshot's own buffer pool and tables; drop %s", strings.Join(bad, ", "))
		}
		f, err := os.Open(o.open)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if db, err = nestedsql.Restore(f); err != nil {
			return nil, err
		}
	}
	if o.maxConcurrent > 0 || o.memPool > 0 {
		db.EnableAdmission(nestedsql.AdmissionConfig{
			MaxConcurrent: o.maxConcurrent,
			QueueDepth:    o.queueDepth,
			MemPool:       o.memPool,
		})
	}
	return db, nil
}

func readQuery(args []string) (string, error) {
	if len(args) == 0 {
		return "", fmt.Errorf("usage: nestedsql [flags] <sql> (or '-' to read stdin)")
	}
	if len(args) == 1 && args[0] == "-" {
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			return "", err
		}
		return string(b), nil
	}
	return strings.Join(args, " "), nil
}

func printResult(res *nestedsql.Result) {
	fmt.Println(strings.Join(res.Columns, " | "))
	fmt.Println(strings.Repeat("-", len(strings.Join(res.Columns, " | "))+4))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			if v == nil {
				parts[i] = "NULL"
			} else {
				parts[i] = fmt.Sprint(v)
			}
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	fmt.Printf("\n%d row(s); %s", len(res.Rows), res.PageIO)
	if res.Spill.Runs > 0 {
		fmt.Printf("; spilled %d run(s), %d bytes", res.Spill.Runs, res.Spill.Bytes)
	}
	if res.FellBack {
		fmt.Print("; fell back to nested iteration")
	}
	fmt.Println()
}

func fail(err error) {
	// An admission shed is transient by definition: say when to come
	// back (the gateway's own hint) and exit with EX_TEMPFAIL so scripts
	// can distinguish "try again" from "broken query".
	if d, ok := nestedsql.RetryAfter(err); ok {
		fmt.Fprintf(os.Stderr, "nestedsql: %v — overloaded, retry in %s\n", err, d)
		os.Exit(75)
	}
	fmt.Fprintln(os.Stderr, "nestedsql:", err)
	os.Exit(1)
}
