package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	nestedsql "repro"
)

// session carries the REPL's mutable execution settings, seeded from the
// command-line flags.
type session struct {
	strategy nestedsql.Strategy
	explain  bool
	timeout  time.Duration
	maxRows  int64
	maxBytes int64
}

// options assembles the QueryOptions for one statement.
func (s *session) options() []nestedsql.QueryOption {
	opts := []nestedsql.QueryOption{nestedsql.WithStrategy(s.strategy)}
	if s.timeout > 0 {
		opts = append(opts, nestedsql.WithTimeout(s.timeout))
	}
	if s.maxRows > 0 {
		opts = append(opts, nestedsql.WithMaxRows(s.maxRows))
	}
	if s.maxBytes > 0 {
		opts = append(opts, nestedsql.WithMemoryBudget(s.maxBytes))
	}
	return opts
}

// interruptCancel returns a QueryOption that cancels the query when the
// process receives an interrupt (Ctrl-C), and a cleanup function that
// restores the default signal disposition — so a Ctrl-C at the prompt
// still terminates the process, while one mid-query only fails that query
// with ErrCanceled.
func interruptCancel() (nestedsql.QueryOption, func()) {
	cancel := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	stop := make(chan struct{})
	signal.Notify(sigc, os.Interrupt)
	go func() {
		select {
		case <-sigc:
			fmt.Fprintln(os.Stderr, "canceling query...")
			close(cancel)
		case <-stop:
		}
	}()
	cleanup := func() {
		signal.Stop(sigc)
		close(stop)
	}
	return nestedsql.WithCancel(cancel), cleanup
}

// repl reads statements (terminated by ';') from the reader and executes
// them, printing results. Meta commands: \d lists tables, \strategy sets
// the evaluation strategy, \explain toggles EXPLAIN mode, \timeout sets
// the per-query deadline, \q quits.
func repl(db *nestedsql.DB, in io.Reader, interactive bool, sess *session) {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder

	prompt := func() {
		if !interactive {
			return
		}
		if buf.Len() == 0 {
			fmt.Print("nestedsql> ")
		} else {
			fmt.Print("      ...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && trimmed == "" {
			prompt()
			continue
		}
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if !metaCommand(db, trimmed, sess) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			runStatement(db, buf.String(), sess)
			buf.Reset()
		}
		prompt()
	}
	if buf.Len() > 0 {
		runStatement(db, buf.String(), sess)
	}
}

// metaCommand handles backslash commands; it returns false to quit.
func metaCommand(db *nestedsql.DB, cmd string, sess *session) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case `\q`, `\quit`:
		return false
	case `\d`:
		for _, name := range db.Internal().Catalog().Names() {
			rel, _ := db.Internal().Catalog().Lookup(name)
			cols := make([]string, len(rel.Columns))
			for i, c := range rel.Columns {
				cols[i] = c.Name + " " + c.Type.String()
			}
			fmt.Printf("%s(%s)\n", rel.Name, strings.Join(cols, ", "))
		}
	case `\strategy`:
		if len(fields) != 2 {
			fmt.Println("usage: \\strategy ni|ja2|kim")
			break
		}
		s, ok := strategies[fields[1]]
		if !ok {
			fmt.Printf("unknown strategy %q\n", fields[1])
			break
		}
		sess.strategy = s
		fmt.Printf("strategy set to %s\n", fields[1])
	case `\explain`:
		sess.explain = !sess.explain
		fmt.Printf("explain mode: %v\n", sess.explain)
	case `\timeout`:
		if len(fields) != 2 {
			fmt.Println("usage: \\timeout DURATION  (e.g. 500ms, 10s; 0 disables)")
			break
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil || d < 0 {
			fmt.Printf("bad duration %q\n", fields[1])
			break
		}
		sess.timeout = d
		if d == 0 {
			fmt.Println("query timeout disabled")
		} else {
			fmt.Printf("query timeout set to %v\n", d)
		}
	case `\index`:
		if len(fields) != 3 {
			fmt.Println("usage: \\index TABLE COLUMN")
			break
		}
		if err := db.CreateIndex(fields[1], fields[2]); err != nil {
			fmt.Println("index:", err)
			break
		}
		fmt.Printf("index created on %s.%s\n", fields[1], fields[2])
	case `\analyze`:
		if err := db.Analyze(); err != nil {
			fmt.Println("analyze:", err)
			break
		}
		fmt.Println("statistics collected")
	case `\stats`:
		if db.Internal().Admission() != nil {
			fmt.Println(db.AdmissionStats())
		} else {
			fmt.Println("admission gateway disabled (start with -max-concurrent / -mem-pool)")
		}
		if db.Internal().SpillManager() != nil {
			fmt.Println("spill:", db.SpillStats())
		} else {
			fmt.Println("spilling disabled (start with -spill-dir)")
		}
		if ws, ok := db.WALStats(); ok {
			fmt.Println("wal:", ws)
			fmt.Println("recovery:", db.RecoveryInfo())
		} else {
			fmt.Println("durability disabled (start with -data-dir)")
		}
	default:
		fmt.Printf("unknown command %s (try \\d, \\strategy, \\explain, \\timeout, \\analyze, \\index, \\stats, \\q)\n", fields[0])
	}
	return true
}

func runStatement(db *nestedsql.DB, sql string, sess *session) {
	if strings.TrimSpace(strings.Trim(strings.TrimSpace(sql), ";")) == "" {
		return
	}
	cancelOpt, cleanup := interruptCancel()
	defer cleanup()
	opts := append(sess.options(), cancelOpt)
	if sess.explain {
		rep, err := db.Explain(sql, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return
		}
		fmt.Println(rep)
		return
	}
	res, err := db.Exec(sql, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	if res == nil || len(res.Columns) == 0 {
		if res != nil && res.Affected > 0 {
			fmt.Printf("%d row(s) affected\n", res.Affected)
		} else {
			fmt.Println("ok")
		}
		return
	}
	printResult(res)
}
