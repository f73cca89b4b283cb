// Command benchpaper regenerates every table and figure of "Optimization
// of Nested SQL Queries Revisited" (Ganski & Wong, SIGMOD 1987):
//
//	benchpaper -exp all           # everything, in paper order
//	benchpaper -exp figure1       # Figure 1: page I/Os in Kim's examples
//	benchpaper -exp countbug      # section 5.1: the COUNT bug
//	benchpaper -exp countfix      # section 5.2: the outer-join fix (TEMP tables)
//	benchpaper -exp countstar     # section 5.2.1: COUNT(*) conversion
//	benchpaper -exp noneq         # section 5.3: the non-equality bug and fix
//	benchpaper -exp dups          # section 5.4: the duplicates problem and fix
//	benchpaper -exp ja2           # section 6.1: NEST-JA2 worked example
//	benchpaper -exp cost74        # section 7.4: cost example (3050 vs ~475)
//	benchpaper -exp predicates    # section 8: EXISTS/ANY/ALL extensions
//	benchpaper -exp tree          # section 9.1 / Figure 2: recursive nest_g
//	benchpaper -exp sweep         # section 4: the 80%-95% savings claim
//	benchpaper -exp modelfit      # section 7: cost model vs measurement
//	benchpaper -exp ablations     # design ablations A1-A4 (see DESIGN.md)
//
// Experiment numbering (E1-E12) follows DESIGN.md.
//
// It also holds the three drivers scripts/serve_smoke.sh runs against a
// live nestedsqld (-serve-load, -serve-dml, -serve-dml-verify; see
// smoke.go). What serving costs is measured by bench/, not here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

type experiment struct {
	name string
	desc string
	run  func()
}

var experiments = []experiment{
	{"figure1", "Figure 1 — page I/Os required in Kim's examples (E1)", expFigure1},
	{"countbug", "Section 5.1 — the COUNT bug in NEST-JA (E2)", expCountBug},
	{"countfix", "Section 5.2 — the outer-join fix, temp table contents (E3)", expCountFix},
	{"countstar", "Section 5.2.1 — COUNT(*) conversion (E4)", expCountStar},
	{"noneq", "Section 5.3 — the non-equality bug and fix (E5)", expNonEq},
	{"dups", "Section 5.4 — the duplicates problem and fix (E6)", expDuplicates},
	{"ja2", "Section 6.1 — algorithm NEST-JA2 worked example (E7)", expJA2Example},
	{"cost74", "Section 7.4 — cost example: 3050 vs ~475 (E8)", expCost74},
	{"predicates", "Section 8 — EXISTS / NOT EXISTS / ANY / ALL (E10)", expPredicates},
	{"tree", "Section 9.1 / Figure 2 — recursive processing of a general nested query (E9)", expTree},
	{"sweep", "Section 4 — savings sweep, analytic and measured (E11)", expSweep},
	{"modelfit", "Section 7 — cost model vs end-to-end measurement", expModelFit},
	{"ablations", "Ablations A1-A4 — isolating each NEST-JA2 ingredient", expAblations},
}

// options is the parsed command line.
type options struct {
	exp, serveAddr                                string
	serveLoad                                     bool
	connections, rounds, serveDML, serveDMLVerify int
}

// defineFlags declares every flag benchpaper takes on fs.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.exp, "exp", "all", "experiment to run (all | "+names()+")")
	fs.BoolVar(&o.serveLoad, "serve-load", false, "stream the paper workload through the nestedsqld -fixture both at -serve-addr and diff every result against the in-process oracle")
	fs.StringVar(&o.serveAddr, "serve-addr", "", "address of the running nestedsqld the -serve-* drivers talk to (required by them)")
	fs.IntVar(&o.connections, "connections", 8, "serve-load: concurrent client connections")
	fs.IntVar(&o.rounds, "rounds", 3, "serve-load: rounds of the query mix per connection")
	fs.IntVar(&o.serveDML, "serve-dml", 0, "drive N sequential acked INSERTs into table DURABLE on -serve-addr, printing the acked count (see serve_smoke.sh phase 4)")
	fs.IntVar(&o.serveDMLVerify, "serve-dml-verify", -1, "verify the recovered DURABLE table on -serve-addr holds the contiguous acked prefix (N = acked count from -serve-dml)")
	return o
}

// errUsage marks a command line that asks for nothing runnable: exit 2,
// where a run that failed exits 1.
var errUsage = errors.New("usage")

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchpaper:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run does what the command line asked for: one smoke driver, or
// experiments.
func run(o *options) error {
	smoke := o.serveLoad || o.serveDML > 0 || o.serveDMLVerify >= 0
	if smoke && o.serveAddr == "" {
		return fmt.Errorf("%w: -serve-load, -serve-dml and -serve-dml-verify need -serve-addr HOST:PORT of a running nestedsqld", errUsage)
	}
	switch {
	case o.serveLoad:
		if o.connections < 1 || o.rounds < 1 {
			return fmt.Errorf("%w: -connections and -rounds must be at least 1 (got %d and %d)", errUsage, o.connections, o.rounds)
		}
		banner("Network load harness — streamed results vs the sequential oracle")
		return serveLoad(o.serveAddr, o.connections, o.rounds)
	case o.serveDML > 0:
		_, err := serveDML(o.serveAddr, o.serveDML)
		return err
	case o.serveDMLVerify >= 0:
		return serveDMLVerify(o.serveAddr, o.serveDMLVerify)
	}

	ran := false
	for _, e := range experiments {
		if o.exp == "all" || o.exp == e.name {
			banner(e.desc)
			e.run()
			ran = true
		}
	}
	if !ran {
		return fmt.Errorf("%w: unknown experiment %q; choose one of: all %s", errUsage, o.exp, names())
	}
	return nil
}

func names() string {
	s := ""
	for i, e := range experiments {
		if i > 0 {
			s += " | "
		}
		s += e.name
	}
	return s
}

func banner(title string) {
	fmt.Println()
	fmt.Println("==================================================================")
	fmt.Println(title)
	fmt.Println("==================================================================")
}
