package nestedsql_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/wire"
)

// definedFlags lists the flags cmd/<bin> declares, read from its
// defineFlags(fs *flag.FlagSet) without running the command: every
// string literal that is the first or second argument of a call on fs.
func definedFlags(t *testing.T, bin string) map[string]bool {
	t.Helper()
	path := filepath.Join("cmd", bin, "main.go")
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "defineFlags" {
			continue
		}
		fs := fn.Type.Params.List[0].Names[0].Name
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if recv, ok := sel.X.(*ast.Ident); !ok || recv.Name != fs {
				return true
			}
			for _, arg := range call.Args[:min(2, len(call.Args))] {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					flags[name] = true
					break
				}
			}
			return true
		})
	}
	if len(flags) == 0 {
		t.Fatalf("%s: no defineFlags(fs *flag.FlagSet) with flag definitions found", path)
	}
	return flags
}

// A recipe that passes a binary a flag it no longer defines fails at the
// reader's terminal, not in CI, so CI checks it here: every
// `benchpaper|nestedsqld|nestedsql -flag ...` in the user-facing docs
// and the gate scripts must name a defined flag. A paragraph that says
// "removed in PR <n>" is a dated record of a deleted flag and is left
// alone.
func TestDocsPassOnlyDefinedFlags(t *testing.T) {
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}
	scripts, err := filepath.Glob("scripts/*.sh")
	if err != nil || len(scripts) == 0 {
		t.Fatalf("scripts/*.sh: %v (%d found)", err, len(scripts))
	}
	files = append(files, scripts...)

	defined := map[string]map[string]bool{}
	for _, bin := range []string{"benchpaper", "nestedsqld", "nestedsql"} {
		defined[bin] = definedFlags(t, bin)
	}
	// The binary as a command word, then its arguments up to the end of
	// the inline code span, pipeline stage or comment it sits in.
	invocation := regexp.MustCompile("(?:^|[\\s`\"'/(])(benchpaper|nestedsqld|nestedsql)[\"']?((?:[ \\t][^`|;#\\n]*)?)")
	flagWord := regexp.MustCompile(`^--?([a-zA-Z][\w-]*)`)

	for _, path := range files {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		joined := strings.ReplaceAll(string(text), "\\\n", " ")
		for _, para := range strings.Split(joined, "\n\n") {
			if strings.Contains(para, "removed in PR") {
				continue
			}
			for _, m := range invocation.FindAllStringSubmatch(para, -1) {
				bin := m[1]
				for _, word := range strings.Fields(m[2]) {
					f := flagWord.FindStringSubmatch(strings.TrimLeft(word, `[("'`))
					if f != nil && !defined[bin][f[1]] {
						t.Errorf("%s passes %s the flag -%s, which cmd/%s does not define: %q",
							path, bin, f[1], bin, strings.TrimSpace(m[0]))
					}
				}
			}
		}
	}
}

// One value codec and one record framer: the gob encoding was the second
// codec for value.Value, and wal and spill each used to carry a copy of
// the frame rowcodec now owns (wire keeps its own: the type byte sits
// under its checksum). Neither may come back unnoticed, so no non-test
// file imports the gob package, and hash/crc32 stays inside the two
// packages that frame.
func TestOneCodecOneFramer(t *testing.T) {
	framers := map[string]bool{"internal/rowcodec": true, "internal/wire": true}
	eachSourceFile(t, parser.ImportsOnly, func(path string, file *ast.File) {
		for _, imp := range file.Imports {
			switch name, _ := strconv.Unquote(imp.Path.Value); {
			case name == "encoding/"+"gob": // spelled apart so a grep for the import finds importers only
				t.Errorf("%s imports %s: values and rows have one codec, internal/rowcodec", path, name)
			case name == "hash/crc32" && !framers[filepath.ToSlash(filepath.Dir(path))]:
				t.Errorf("%s imports hash/crc32: records are framed by rowcodec.AppendFrame and FrameReader", path)
			}
		}
	})
}

// One way to sort: rows are sorted by exec's keyed slices.SortFunc and
// everything else by the generic slices sorts. The reflection-based sorts
// of package sort (half of a ja_seq op before PR 23: a Swapper call per
// element moved) must not come back unnoticed, so outside bench/ no
// non-test file calls them; sort.Search and sort.Strings stay.
func TestOneSort(t *testing.T) {
	reflective := map[string]bool{"Slice": true, "SliceStable": true, "Sort": true, "Stable": true}
	eachSourceFile(t, parser.SkipObjectResolution, func(path string, file *ast.File) {
		if strings.HasPrefix(filepath.ToSlash(path), "bench/") {
			return
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && reflective[sel.Sel.Name] {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "sort" {
					t.Errorf("%s uses sort.%s: sort with slices.SortFunc or SortStableFunc (rows: exec's compareRows)", path, sel.Sel.Name)
				}
			}
			return true
		})
	})
}

// eachSourceFile parses every non-test Go file of the repository.
func eachSourceFile(t *testing.T, mode parser.Mode, fn func(path string, file *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, mode)
		if err == nil {
			fn(path, file)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Storage, spill, the WAL and the network proxy each used to carry their
// own seeded fault injector: four config structs, four RNGs, three
// spellings of the fault cap. There is one now, internal/fault, and a
// second must not grow back unnoticed: outside it no non-test package
// declares a type named like an injector or its config, or a field that
// caps faults.
func TestOneFaultInjector(t *testing.T) {
	eachSourceFile(t, parser.SkipObjectResolution, func(path string, file *ast.File) {
		if filepath.ToSlash(filepath.Dir(path)) == "internal/fault" {
			return
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if strings.HasSuffix(n.Name.Name, "FaultConfig") || strings.HasSuffix(n.Name.Name, "FaultInjector") {
					t.Errorf("%s declares type %s: fault schedules are fault.Plan, rolled by fault.Injector", path, n.Name.Name)
				}
			case *ast.Field:
				for _, name := range n.Names {
					if name.Name == "MaxFaults" {
						t.Errorf("%s declares a MaxFaults field: the one fault cap is fault.Plan.Max", path)
					}
				}
			}
			return true
		})
	})
}

// A failed query used to run again in two places, each with its own
// knobs: the engine's degradation ladder and the client's transparent
// reconnect (a config struct, seeded jitter, an overload floor and a
// resubmit fence). The client's is gone — a lost connection stays lost
// and the caller dials again — and must not grow back unnoticed: outside
// internal/admission, whose transient retry is the ladder's one backoff,
// no non-test file uses qctx.Backoff, and none declares a
// ReconnectConfig type or a Reconnect field.
func TestOneRetryPolicy(t *testing.T) {
	eachSourceFile(t, parser.SkipObjectResolution, func(path string, file *ast.File) {
		admission := filepath.ToSlash(filepath.Dir(path)) == "internal/admission"
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "qctx" && n.Sel.Name == "Backoff" && !admission {
					t.Errorf("%s uses qctx.Backoff: only the engine's transient retry (admission.RetryDelay) backs off", path)
				}
			case *ast.TypeSpec:
				if n.Name.Name == "ReconnectConfig" {
					t.Errorf("%s declares type ReconnectConfig: a lost connection stays lost; the caller dials again", path)
				}
			case *ast.Field:
				for _, name := range n.Names {
					if name.Name == "Reconnect" {
						t.Errorf("%s declares a Reconnect field: a lost connection stays lost; the caller dials again", path)
					}
				}
			}
			return true
		})
	})
}

// A failed query used to climb the degradation ladder in two functions:
// the engine's transient-retry loop and two one-shot reruns after it, with
// three copies of the streaming fence, three budget resets and two rules
// for the failed attempt's trace. One function, internal/engine's climb,
// takes every rung now, and a second site must not grow back unnoticed:
// outside it no non-test file names a rerun's trace kind
// (trace.SequentialRerun, ForcedSpillRerun, TransientRetry) or calls
// ResetUsage, ForceSpill or RetryDelay.
func TestOneLadder(t *testing.T) {
	kinds := map[string]bool{"SequentialRerun": true, "ForcedSpillRerun": true, "TransientRetry": true}
	calls := map[string]bool{"ResetUsage": true, "ForceSpill": true, "RetryDelay": true}
	sites := 0
	eachSourceFile(t, parser.SkipObjectResolution, func(path string, file *ast.File) {
		for _, decl := range file.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			ladder := fn != nil && fn.Name.Name == "climb" && filepath.ToSlash(filepath.Dir(path)) == "internal/engine"
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "trace" && kinds[n.Sel.Name] {
						if !ladder {
							t.Errorf("%s names trace.%s: only the engine's climb takes a rung", path, n.Sel.Name)
						}
						sites++
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && calls[sel.Sel.Name] {
						if !ladder {
							t.Errorf("%s calls %s: only the engine's climb reruns a query", path, sel.Sel.Name)
						}
						sites++
					}
				}
				return true
			})
		}
	})
	if sites == 0 {
		t.Error("no rung found in internal/engine's climb: the guard checks nothing")
	}
}

// A returning worker's shard slices used to come back two ways: re-shipped
// from a live peer, or, for a shard with none, from the copy every replica
// agreed on (agreedCopy, which read each copy whole over Snapshot and
// skipped the ones a failed re-ship had left half-built, tracked as torn).
// Rejoin has one rule now (re-ship from a live peer, else keep the
// shard's last copy), and a second path must not grow back unnoticed: in
// non-test internal/cluster code only shipSnapshot calls .Snapshot, once,
// and no identifier is named torn, tornSlice or agreedCopy.
func TestOneRejoinPath(t *testing.T) {
	gone := map[string]bool{"torn": true, "tornSlice": true, "agreedCopy": true}
	var callers []string
	eachSourceFile(t, parser.SkipObjectResolution, func(path string, file *ast.File) {
		if filepath.ToSlash(filepath.Dir(path)) != "internal/cluster" {
			return
		}
		for _, decl := range file.Decls {
			name := "(package level)"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				name = fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Snapshot" {
						callers = append(callers, name)
					}
				case *ast.Ident:
					if gone[n.Name] {
						t.Errorf("%s names %s: rejoin re-ships from a live peer or keeps the last copy, nothing else", path, n.Name)
					}
				}
				return true
			})
		}
	})
	if len(callers) != 1 || callers[0] != "shipSnapshot" {
		t.Errorf(".Snapshot( is called from %v in internal/cluster, want exactly once, from shipSnapshot", callers)
	}
}

// The agreement rule — which results of one query must be equal, and
// whether as bags or as sets — and the sorted-rendered-rows comparator
// under it used to be written out in the engine's VerifyParallel, again in
// internal/metamorph (with a generator-annotated "has an ALL quantifier"
// flag, because the runner could not ask the engine) and again in four
// test packages. The rule is engine.AgreementWithNI now and the comparator
// storage.Diff; a copy must not grow back unnoticed: outside
// internal/storage no non-test package (bench/ keeps its own until a
// benchmark PR) declares a function named like a row-bag, row-set or
// row-diff helper, nor that flag; and no query skips admission by a flag
// in Options.
func TestOneOracle(t *testing.T) {
	comparator := regexp.MustCompile(`(?i)^((row|sorted|equal)(bag|set)s?|(bag|set)of|diffrows)$`)
	// Spelled apart so a grep for either name finds offenders only.
	gone := map[string]string{
		"Has" + "All":      "ask engine.AgreementWithNI",
		"no" + "Admission": "no query skips admission by a flag in Options",
	}
	eachSourceFile(t, parser.SkipObjectResolution, func(path string, file *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "bench" || dir == "internal/storage" {
			return
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if comparator.MatchString(n.Name.Name) {
					t.Errorf("%s declares func %s: results are compared by storage.Canon, DiffCanon and Diff", path, n.Name.Name)
				}
			case *ast.Field:
				for _, name := range n.Names {
					if why, ok := gone[name.Name]; ok {
						t.Errorf("%s declares a %s field: %s", path, name.Name, why)
					}
				}
			}
			return true
		})
	})
}

// Three-valued logic used to be written four times: nested iteration's
// predicates, a flat-row compiler (compilePred/compileExpr) behind every
// plan Filter and join predicate, the AntiJoin's own NOT IN rule and the
// planner's HAVING closure. Plans compile through the evaluator now, and a
// second copy must not grow back unnoticed: outside internal/value only
// internal/exec/eval.go calls a comparison's .Apply, and no identifier is
// named compilePred or compileExpr.
func TestOnePredicateEvaluator(t *testing.T) {
	gone := map[string]bool{"compilePred": true, "compileExpr": true}
	eachSourceFile(t, parser.SkipObjectResolution, func(path string, file *ast.File) {
		path = filepath.ToSlash(path)
		if filepath.Dir(path) == "internal/value" {
			return
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Apply" && path != "internal/exec/eval.go" {
					t.Errorf("%s calls .Apply: three-valued predicates are compiled once, by internal/exec/eval.go", path)
				}
			case *ast.Ident:
				if gone[n.Name] {
					t.Errorf("%s names %s: plans compile predicates with exec.CompileConjuncts, through the evaluator", path, n.Name)
				}
			}
			return true
		})
	})
}

// A predicate's OR/AND/NOT tree used to be walked by hand in nine places,
// and two ways of listing its subqueries disagreed: one saw a single block
// per comparison, so the coordinator's per-shard rewrite skipped the left
// subquery of (SELECT …) = (SELECT …). ast.Leaves is the one walk now, and
// a second must not grow back unnoticed: outside internal/ast no non-test
// function type-switches on *ast.OrPred, *ast.AndPred or *ast.NotPred and
// calls itself on a node's operand (.Left, .Right or .P) — except the two
// that combine a value at each node, the evaluator's framePred and
// Selectivity.
func TestOnePredicateWalk(t *testing.T) {
	combiners := map[string]bool{"Evaluator.framePred": true, "Stats.Selectivity": true}
	boolean := map[string]bool{"OrPred": true, "AndPred": true, "NotPred": true}
	eachSourceFile(t, parser.SkipObjectResolution, func(path string, file *ast.File) {
		path = filepath.ToSlash(path)
		if filepath.Dir(path) == "internal/ast" {
			return
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name, recv := fn.Name.Name, ""
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					name = id.Name + "." + name
				}
				if len(fn.Recv.List[0].Names) == 1 {
					recv = fn.Recv.List[0].Names[0].Name
				}
			}
			switches, recurses := false, false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CaseClause:
					for _, e := range n.List {
						if star, ok := e.(*ast.StarExpr); ok {
							if sel, ok := star.X.(*ast.SelectorExpr); ok && boolean[sel.Sel.Name] {
								switches = true
							}
						}
					}
				case *ast.CallExpr:
					self := false
					switch f := n.Fun.(type) {
					case *ast.Ident:
						self = recv == "" && f.Name == fn.Name.Name
					case *ast.SelectorExpr:
						x, ok := f.X.(*ast.Ident)
						self = ok && recv != "" && x.Name == recv && f.Sel.Name == fn.Name.Name
					}
					for _, arg := range n.Args {
						if sel, ok := arg.(*ast.SelectorExpr); ok && self && (sel.Sel.Name == "Left" || sel.Sel.Name == "Right" || sel.Sel.Name == "P") {
							recurses = true
						}
					}
				}
				return true
			})
			if switches && recurses && !combiners[name] {
				t.Errorf("%s:%d: %s walks a predicate's OR/AND/NOT tree by hand: visit its leaves with ast.Leaves", path, lineOf(t, path, int(fn.Pos()-file.FileStart)), name)
			}
		}
	})
}

// A row's group used to be found three ways beside the join's flat hash
// table — ParallelHashGroup's map of group buckets, a field-for-field copy
// of it in nested iteration, and DISTINCT's own map — and every group was
// five heap objects. There is one group table now, internal/exec/group.go,
// holding groups by value and indexed by the join's hashTable, and a
// second must not grow back unnoticed: no non-test file under
// internal/exec declares a map keyed by uint64, and only group.go makes a
// value.Accumulator.
func TestOneGroupTable(t *testing.T) {
	eachSourceFile(t, parser.SkipObjectResolution, func(path string, file *ast.File) {
		path = filepath.ToSlash(path)
		at := func(n ast.Node) string {
			return path + ":" + strconv.Itoa(lineOf(t, path, int(n.Pos()-file.FileStart)))
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.MapType:
				if key, ok := n.Key.(*ast.Ident); ok && key.Name == "uint64" && filepath.Dir(path) == "internal/exec" {
					t.Errorf("%s uses a map keyed by uint64: rows are indexed by exec's hashTable, groups held by its groupTable", at(n))
				}
			case *ast.CallExpr:
				name := ""
				switch fn := n.Fun.(type) {
				case *ast.SelectorExpr:
					name = fn.Sel.Name
				case *ast.Ident:
					name = fn.Name
				}
				if name == "NewAccumulator" && path != "internal/exec/group.go" {
					t.Errorf("%s calls NewAccumulator: accumulators live by value in internal/exec/group.go's groupTable", at(n))
				}
			}
			return true
		})
	})
}

// Memory ran short three ways: sorts and merge-join groups spilled to
// runs, the parallel hash join Grace-partitioned its build and probe
// sides (splitting them again, level by level, up to maxSpillDepth), and
// the parallel hash aggregation overflowed unseen keys into further
// passes. Hash operators hold their state in memory now and the engine's
// forced-spill rerun sort-merges, and a second spill path must not grow
// back unnoticed: under internal/exec only sort.go, join.go (MergeJoin's
// group) and budget.go (the reserve rule and the run reader) import the
// spill package, and no identifier is named maxSpillDepth.
func TestOneSpillPath(t *testing.T) {
	spillers := map[string]bool{"internal/exec/sort.go": true, "internal/exec/join.go": true, "internal/exec/budget.go": true}
	eachSourceFile(t, parser.SkipObjectResolution, func(path string, file *ast.File) {
		path = filepath.ToSlash(path)
		for _, imp := range file.Imports {
			if name, _ := strconv.Unquote(imp.Path.Value); name == "repro/internal/spill" && filepath.Dir(path) == "internal/exec" && !spillers[path] {
				t.Errorf("%s imports internal/spill: only sorts and merge-join groups spill; hash operators hard-charge", path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "maxSpillDepth" {
				t.Errorf("%s names maxSpillDepth: no operator re-splits spilled data", path)
			}
			return true
		})
	})
}

// Section 8's quantifiers used to reach a plan only as COUNT and MAX
// comparisons, and NOT IN had its own anti-join with its own loop over the
// inner rows; later the quantified join had its own nested-loops operator
// beside NestedLoopJoin and its own choice of method beside the planner's
// join. A plan now keeps EXISTS, NOT EXISTS, x θ ANY and NOT IN as one
// quantified join in three forms — hash, merge and nested loops:
// ParallelHashJoin, MergeJoin and NestedLoopJoin with a Quant, each
// deciding its exec.Quantifier through one decision — whose method is
// chosen by one function, internal/planner's join, as for any join; and
// the decision folds through nested iteration's own rule,
// internal/exec/eval.go's quantified. A second fold, a second semi-join or
// anti-join or a second method choice must not grow back unnoticed:
// quantified is declared in eval.go and named only there and in
// internal/exec/quantified.go; no non-test type is named like a semi-join
// or an anti-join; decision is named only by quantified.go and the three
// forms' files; in internal/exec exactly the three forms have a Quant
// field, a *Quantifier; and internal/planner/quantified.go builds no exec
// join operator and calls none of the planner's join builders but join.
func TestOneQuantifiedFold(t *testing.T) {
	semiAnti := regexp.MustCompile(`(?i)(semi|anti)-?join`)
	foldUsers := map[string]bool{"internal/exec/eval.go": true, "internal/exec/quantified.go": true}
	decisionUsers := map[string]bool{"internal/exec/quantified.go": true, "internal/exec/join.go": true, "internal/exec/parallel.go": true}
	builders := map[string]bool{"hashJoin": true, "mergeJoin": true, "nlJoin": true, "groupJoin": true}
	var forms []string
	joins := 0
	eachSourceFile(t, parser.SkipObjectResolution, func(path string, file *ast.File) {
		path = filepath.ToSlash(path)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if semiAnti.MatchString(n.Name.Name) {
					t.Errorf("%s declares type %s: a quantified join is a MergeJoin, ParallelHashJoin or NestedLoopJoin with a Quant", path, n.Name.Name)
				}
				if n.Name.Name == "quantified" && path != "internal/exec/eval.go" {
					t.Errorf("%s declares a second quantified", path)
				}
				st, ok := n.Type.(*ast.StructType)
				if !ok || filepath.Dir(path) != "internal/exec" {
					return true
				}
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						if name.Name != "Quant" {
							continue
						}
						if star, ok := f.Type.(*ast.StarExpr); !ok || fmt.Sprint(star.X) != "Quantifier" {
							t.Errorf("%s: %s.Quant is not a *Quantifier", path, n.Name.Name)
						}
						forms = append(forms, n.Name.Name)
					}
				}
			case *ast.Ident:
				if n.Name == "quantified" && !foldUsers[path] {
					t.Errorf("%s names quantified: only a quantified join's decision folds inner rows outside nested iteration", path)
				}
				if n.Name == "decision" && filepath.Dir(path) == "internal/exec" && !decisionUsers[path] {
					t.Errorf("%s names decision: only the three forms of a quantified join decide a Quantifier", path)
				}
			case *ast.SelectorExpr:
				if path != "internal/planner/quantified.go" {
					return true
				}
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "exec" && strings.HasSuffix(n.Sel.Name, "Join") {
					t.Errorf("%s names exec.%s: a quantified join is built by the planner's join", path, n.Sel.Name)
				}
				if builders[n.Sel.Name] {
					t.Errorf("%s calls %s: a quantified join's method is chosen by the planner's join", path, n.Sel.Name)
				}
				if n.Sel.Name == "join" {
					joins++
				}
			}
			return true
		})
	})
	slices.Sort(forms)
	if want := []string{"MergeJoin", "NestedLoopJoin", "ParallelHashJoin"}; !slices.Equal(forms, want) {
		t.Errorf("operators with a Quant field: %v, want %v", forms, want)
	}
	if joins == 0 {
		t.Error("internal/planner/quantified.go does not call the planner's join")
	}
}

// A query's trace used to be text: every query formatted its plan notes
// and plan outlines, and its readers parsed that text back — the storms
// counted degradation rungs by substring, tests grepped for join methods,
// and the paper experiments picked steps by a six-byte prefix. The trace
// is typed events now, internal/trace, recorded always and rendered only
// on read, and the text form must not come back unnoticed:
// engine.Result.Trace is not []string; no field reachable from a
// trace.Event holds an operator, a heap file or a row, so a finished
// Result pins no temp pages or hash tables; and no non-test file outside
// bench/ runs strings.Contains or strings.HasPrefix over rendered trace
// text — a reader asks an event's Kind and fields.
func TestOneTrace(t *testing.T) {
	if f, _ := reflect.TypeOf(engine.Result{}).FieldByName("Trace"); f.Type == reflect.TypeOf([]string(nil)) {
		t.Error("engine.Result.Trace is []string: record trace.Event values and render them on read")
	}
	operator := reflect.TypeOf((*exec.Operator)(nil)).Elem()
	pinned := map[reflect.Type]bool{operator: true, reflect.TypeOf((*storage.HeapFile)(nil)): true, reflect.TypeOf(storage.Tuple(nil)): true}
	seen := map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		if pinned[ty] || ty.Kind() != reflect.Interface && ty.Implements(operator) {
			t.Errorf("trace.Event reaches %s of type %v: an event holds values, never what executes or stores", path, ty)
		}
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := range ty.NumField() {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		}
	}
	walk("Event", reflect.TypeOf(trace.Event{}))

	textual := func(e ast.Expr, tainted map[string]bool) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				found = found || n.Sel.Name == "Trace" || n.Sel.Name == "Lines"
			case *ast.Ident:
				found = found || tainted[n.Name]
			}
			return !found
		})
		return found
	}
	eachSourceFile(t, parser.SkipObjectResolution, func(path string, file *ast.File) {
		if strings.HasPrefix(filepath.ToSlash(path), "bench/") {
			return
		}
		// Names bound to trace text or events: ranged over, or assigned
		// from, an expression that reads a trace. Two passes reach names
		// bound from names.
		tainted := map[string]bool{}
		for range 2 {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.RangeStmt:
					if v, ok := n.Value.(*ast.Ident); ok && textual(n.X, tainted) {
						tainted[v.Name] = true
					}
				case *ast.AssignStmt:
					for i, rhs := range n.Rhs {
						if id, ok := n.Lhs[min(i, len(n.Lhs)-1)].(*ast.Ident); ok && textual(rhs, tainted) {
							tainted[id.Name] = true
						}
					}
				}
				return true
			})
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Contains" && sel.Sel.Name != "HasPrefix" {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "strings" {
				return true
			}
			if textual(call.Args[0], tainted) {
				t.Errorf("%s:%d runs strings.%s over trace text: ask the events' Kind and fields",
					path, lineOf(t, path, int(call.Pos()-file.FileStart)), sel.Sel.Name)
			}
			return true
		})
	})
}

// Parallel plans used to be switched on from ten places — a field of
// the Query frame, the client's and the server's options, a flag of each
// binary, two REPL commands and two options of the public API — and a
// negative worker count meant one per CPU. planner.Options.Parallelism is
// the one switch now, set inside the module only: by the planner, the
// engine, the metamorphic runner, the paper experiments and bench/. A
// second must not grow back unnoticed: wire.Query carries four fields,
// and no other non-test file declares or sets an identifier named
// Parallelism, ForceParallel or VerifyParallel. ForceParallel is ignored
// and stays only while bench/ sets it: no Go file outside bench/, test
// files included, sets it.
func TestOneParallelSwitch(t *testing.T) {
	if n := reflect.TypeOf(wire.Query{}).NumField(); n != 4 {
		t.Errorf("wire.Query has %d fields, want 4 (deadline, row budget, strategy, SQL): a client does not ask for parallel plans", n)
	}
	knobs := map[string]bool{"Parallelism": true, "ForceParallel": true, "VerifyParallel": true}
	owners := map[string]bool{
		"internal/planner": true, "internal/engine": true,
		"internal/metamorph": true, "cmd/benchpaper": true, "bench": true,
	}
	eachSourceFile(t, parser.SkipObjectResolution, func(path string, file *ast.File) {
		if owners[filepath.ToSlash(filepath.Dir(path))] {
			return
		}
		ast.Inspect(file, func(n ast.Node) bool {
			for _, id := range declaredOrSet(n) {
				if id != nil && knobs[id.Name] {
					t.Errorf("%s:%d declares or sets %s: parallel plans are switched by planner.Options inside the module only",
						path, lineOf(t, path, int(id.Pos()-file.FileStart)), id.Name)
				}
			}
			return true
		})
	})
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasPrefix(filepath.ToSlash(path), "bench/") {
			return err
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.KeyValueExpr, *ast.AssignStmt:
				for _, id := range declaredOrSet(n) {
					if id != nil && id.Name == "ForceParallel" {
						t.Errorf("%s:%d sets ForceParallel: it is ignored, Parallelism alone swaps the method",
							path, lineOf(t, path, int(id.Pos()-file.FileStart)))
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The planner used to wrap every hash join and hash aggregation worth
// partitioning in an exchange: a distributor goroutine and one per worker,
// whose second worker bought nothing on two CPUs, and the executor kept
// the exchange after no plan placed it. Every operator runs on the
// query's goroutine now, and an exchange must not grow back unnoticed:
// non-test internal/planner names no exec.ExchangeMerge and sets no
// Workers other than 1; it, internal/engine and internal/exec have no go
// statement; internal/exec declares no channel-typed field, and its
// ExchangeMerge, a pass-through bench/ still builds, declares one field.
func TestPlansRunInline(t *testing.T) {
	one := func(e ast.Expr) bool { lit, ok := e.(*ast.BasicLit); return ok && lit.Value == "1" }
	eachSourceFile(t, parser.SkipObjectResolution, func(path string, file *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir != "internal/planner" && dir != "internal/engine" && dir != "internal/exec" {
			return
		}
		at := func(n ast.Node) int { return lineOf(t, path, int(n.Pos()-file.FileStart)) }
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s:%d starts a goroutine: a plan runs on the query's goroutine", path, at(n))
			case *ast.Field:
				if _, ok := n.Type.(*ast.ChanType); ok && dir == "internal/exec" && len(n.Names) > 0 {
					t.Errorf("%s:%d declares a channel-typed field: operators hand rows over by Next alone", path, at(n))
				}
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok && dir == "internal/exec" && n.Name.Name == "ExchangeMerge" && st.Fields.NumFields() != 1 {
					t.Errorf("%s:%d: ExchangeMerge declares %d fields, want one (its Source): it only passes its source through", path, at(n), st.Fields.NumFields())
				}
			case *ast.SelectorExpr:
				if dir == "internal/planner" && n.Sel.Name == "ExchangeMerge" {
					t.Errorf("%s:%d names exec.ExchangeMerge: no plan places an exchange", path, at(n))
				}
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok && dir == "internal/planner" && k.Name == "Workers" && !one(n.Value) {
					t.Errorf("%s:%d sets Workers: hash operators run inline, on one", path, at(n))
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && dir == "internal/planner" && sel.Sel.Name == "Workers" && (len(n.Rhs) != len(n.Lhs) || !one(n.Rhs[i])) {
						t.Errorf("%s:%d sets Workers: hash operators run inline, on one", path, at(n))
					}
				}
			}
			return true
		})
	})
}

// declaredOrSet returns the identifiers n declares (a type, a field, a
// var or const, a func) or sets (a composite-literal key, an assignment's left
// side); nil entries stand for expressions that name nothing.
func declaredOrSet(n ast.Node) []*ast.Ident {
	name := func(e ast.Expr) *ast.Ident {
		switch e := e.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			return e.Sel
		}
		return nil
	}
	var ids []*ast.Ident
	switch n := n.(type) {
	case *ast.Field:
		ids = n.Names
	case *ast.ValueSpec:
		ids = n.Names
	case *ast.FuncDecl:
		ids = []*ast.Ident{n.Name}
	case *ast.TypeSpec:
		ids = []*ast.Ident{n.Name}
	case *ast.KeyValueExpr:
		ids = []*ast.Ident{name(n.Key)}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			ids = append(ids, name(lhs))
		}
	}
	return ids
}

// A setting stays only while a program sets it, or while a test needs it
// to reach a regime it could not otherwise reach in test time. Six had
// neither: the engine's in-query parallel oracle (its switch, its re-run
// and its two trace kinds), the server's deadline cap, admission's two
// lease overrides, the public API's second admission switch beside
// EnableAdmission and its per-query spill policy (engine.Options.Spill
// stays: metamorph and the benchmark set it). Nor did Parallelism's
// tuple gate (parallelOK and its per-worker minimum), which every caller
// bypassed, or the worker-goroutine exchange's source interface and stop
// error, which no plan reached. They must not grow back unnoticed: no
// non-test file declares or sets an identifier by any of these names.
func TestRemovedSettingsStayGone(t *testing.T) {
	// Spelled apart so a grep for any name finds offenders only.
	gone := map[string]string{
		"Verify" + "Parallel":                  "parallel plans are compared with sequential ones and nested iteration by the tests, through storage.Diff",
		"verify" + "Parallel":                  "parallel plans are compared with sequential ones and nested iteration by the tests, through storage.Diff",
		"Oracle" + "Sequential":                "the engine runs no oracle of its own",
		"Oracle" + "NestedIteration":           "the engine runs no oracle of its own",
		"Max" + "Timeout":                      "the server takes the client's deadline as sent",
		"Default" + "Lease":                    "the default lease is PoolBytes/MaxConcurrent",
		"Min" + "Lease":                        "the minimum lease is a quarter of the default lease",
		"With" + "Admission" + "Control":       "admission is switched on by EnableAdmission alone",
		"With" + "Spill" + "Policy":            "no program or test chose a query's spill policy through the public API",
		"Parallel" + "Source":                  "no operator runs on worker goroutines",
		"err" + "Exchange" + "Stopped":         "no operator runs on worker goroutines",
		"parallel" + "OK":                      "Parallelism > 1 alone swaps the method",
		"Min" + "Parallel" + "TuplesPerWorker": "Parallelism > 1 alone swaps the method",
	}
	eachSourceFile(t, parser.SkipObjectResolution, func(path string, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			for _, id := range declaredOrSet(n) {
				if id == nil {
					continue
				}
				if why, ok := gone[id.Name]; ok {
					t.Errorf("%s:%d declares or sets %s: %s", path, lineOf(t, path, int(id.Pos()-file.FileStart)), id.Name, why)
				}
			}
			return true
		})
	})
}

// A transformed query's TEMPn tables used to be registered in the shared
// catalog and store under per-query names (TEMP1#q17), which every other
// reader of the catalog then met: ANALYZE failed on a temp whose file was
// already dropped. They are the planner's own anonymous files now, and the
// shared namespace must not come back unnoticed: no non-test Go in
// internal/planner, internal/exec or internal/transform calls a catalog's
// Define or Drop (Define is the catalog's alone; a Drop counts when its
// receiver is named like a catalog), and no non-test Go outside bench/ sets
// TempSuffix or spells the "#q" suffix.
func TestQueriesDoNotWriteCatalog(t *testing.T) {
	queryside := map[string]bool{"internal/planner": true, "internal/exec": true, "internal/transform": true}
	catalogLike := regexp.MustCompile(`(?i)cat`)
	recvName := func(e ast.Expr) string {
		if call, ok := e.(*ast.CallExpr); ok {
			e = call.Fun
		}
		switch e := e.(type) {
		case *ast.Ident:
			return e.Name
		case *ast.SelectorExpr:
			return e.Sel.Name
		}
		return ""
	}
	eachSourceFile(t, parser.SkipObjectResolution, func(path string, file *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "bench" || strings.HasPrefix(dir, "bench/") {
			return
		}
		if strings.Contains(readFile(t, path), "#q") {
			t.Errorf("%s spells the per-query temp suffix #q: a query's temps are its planner's own", path)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !queryside[dir] {
					break
				}
				if sel.Sel.Name == "Define" || (sel.Sel.Name == "Drop" && catalogLike.MatchString(recvName(sel.X))) {
					t.Errorf("%s:%d calls %s.%s: queries do not write the shared catalog",
						path, lineOf(t, path, int(n.Pos()-file.FileStart)), recvName(sel.X), sel.Sel.Name)
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok && id.Name == "TempSuffix" {
					t.Errorf("%s:%d sets TempSuffix, which is ignored", path, lineOf(t, path, int(id.Pos()-file.FileStart)))
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "TempSuffix" {
						t.Errorf("%s:%d sets TempSuffix, which is ignored", path, lineOf(t, path, int(sel.Pos()-file.FileStart)))
					}
				}
			}
			return true
		})
	})
}

// lineOf is the line of path holding the byte at offset.
func lineOf(t *testing.T, path string, offset int) int {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return 1 + strings.Count(string(src[:offset]), "\n")
}

// DESIGN.md and README.md are the contract only while they describe the
// tree that is there, so CI holds them to it:
//
//	(a) every root guard — each TestOne* here, TestDocsPassOnlyDefinedFlags,
//	    TestRetiredShardFrameRefused and TestQueriesDoNotWriteCatalog — is
//	    named exactly once in DESIGN.md;
//	(b) every Test name DESIGN.md or README.md gives is a func Test in the
//	    checkout, bench/ included, or a prefix of one;
//	(c) §4's layout names every directory under cmd/, internal/ and
//	    examples/, plus bench/, and nothing that does not exist;
//	(d) every DESIGN.md §N (and §N rule K) and every quoted DESIGN heading
//	    that Go code, README.md or EXPERIMENTS.md cites is there;
//	(e) README's gate table lists exactly the Makefile's GATES, in order.
func TestDocsMatchTree(t *testing.T) {
	design, readme := readFile(t, "DESIGN.md"), readFile(t, "README.md")
	sections := designSections(design)
	testFunc := regexp.MustCompile(`(?m)^func (Test\w+)\(`)

	// (a)
	guards := []string{"TestDocsPassOnlyDefinedFlags", "TestRetiredShardFrameRefused", "TestQueriesDoNotWriteCatalog"}
	for _, m := range testFunc.FindAllStringSubmatch(readFile(t, "docflags_test.go"), -1) {
		if strings.HasPrefix(m[1], "TestOne") {
			guards = append(guards, m[1])
		}
	}
	for _, g := range guards {
		if n := len(regexp.MustCompile(`\b`+g+`\b`).FindAllStringIndex(design, -1)); n != 1 {
			t.Errorf("DESIGN.md names the root guard %s %d times, want once", g, n)
		}
	}

	// (b) and the citing texts of (d), from one walk of the checkout.
	var tests []string
	citing := map[string]string{"README.md": readme, "EXPERIMENTS.md": readFile(t, "EXPERIMENTS.md")}
	commentBreak := regexp.MustCompile(`\n\s*//\s?`)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		src := readFile(t, path)
		for _, m := range testFunc.FindAllStringSubmatch(src, -1) {
			tests = append(tests, m[1])
		}
		citing[path] = commentBreak.ReplaceAllString(src, " ")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for doc, text := range map[string]string{"DESIGN.md": design, "README.md": readme} {
		for _, name := range regexp.MustCompile(`\bTest[A-Z]\w*`).FindAllString(text, -1) {
			if !slices.ContainsFunc(tests, func(fn string) bool { return strings.HasPrefix(fn, name) }) {
				t.Errorf("%s names %s, which is no func Test in the checkout nor a prefix of one", doc, name)
			}
		}
	}

	// (c)
	named := layoutDirs(sections[4])
	want := []string{"bench/"}
	for _, top := range []string{"cmd", "internal", "examples"} {
		entries, err := os.ReadDir(top)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				want = append(want, top+"/"+e.Name()+"/")
			}
		}
	}
	for _, dir := range want {
		if !named[dir] {
			t.Errorf("DESIGN.md §4 does not name %s", dir)
		}
	}
	for dir := range named {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			t.Errorf("DESIGN.md §4 names %s, which is no directory", dir)
		}
	}

	// (d)
	citation := regexp.MustCompile(`DESIGN(?:\.md)?((?:(?:,|\s+and)?\s+§\d+(?:\s+rule\s+\d+)?)*)(?:,?\s+"([A-Z][^"\n]{0,60})")?`)
	ref := regexp.MustCompile(`§(\d+)(?:\s+rule\s+(\d+))?`)
	for path, text := range citing {
		text = strings.Join(strings.Fields(text), " ")
		for _, m := range citation.FindAllStringSubmatch(text, -1) {
			scope := design
			for _, r := range ref.FindAllStringSubmatch(m[1], -1) {
				n, _ := strconv.Atoi(r[1])
				body, ok := sections[n]
				if !ok {
					t.Errorf("%s cites DESIGN.md §%d, which has no such section: %q", path, n, m[0])
					continue
				}
				scope = body
				if r[2] != "" && !regexp.MustCompile(`(?m)^`+r[2]+`\. `).MatchString(body) {
					t.Errorf("%s cites DESIGN.md §%d rule %s, which §%d does not number: %q", path, n, r[2], n, m[0])
				}
			}
			if m[2] != "" && !hasHeading(scope, m[2]) {
				t.Errorf("%s cites DESIGN.md heading %q, which is not there: %q", path, m[2], m[0])
			}
		}
	}

	// (e)
	gates := regexp.MustCompile(`(?m)^GATES\s*:=(.*)$`).FindStringSubmatch(readFile(t, "Makefile"))
	if gates == nil {
		t.Fatal("Makefile: no GATES := line")
	}
	var rows []string
	_, checks, _ := strings.Cut(readme, "\n## Checks\n")
	checks, _, _ = strings.Cut(checks, "\n## ")
	for _, line := range strings.Split(checks, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || strings.HasPrefix(strings.TrimSpace(cells[1]), "-") {
			continue
		}
		rows = append(rows, strings.Trim(strings.TrimSpace(cells[1]), "`"))
	}
	if len(rows) > 0 {
		rows = rows[1:] // the header
	}
	if want := strings.Fields(gates[1]); !slices.Equal(rows, want) {
		t.Errorf("README.md's gate table lists %v, the Makefile's GATES are %v", rows, want)
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// designSections splits DESIGN.md at its "## N. Title" headings, each
// body running from its heading to the next.
func designSections(design string) map[int]string {
	sections := map[int]string{}
	heading := regexp.MustCompile(`(?m)^## (\d+)\. `)
	at := heading.FindAllStringSubmatchIndex(design, -1)
	for i, m := range at {
		end := len(design)
		if i+1 < len(at) {
			end = at[i+1][0]
		}
		n, _ := strconv.Atoi(design[m[2]:m[3]])
		sections[n] = design[m[0]:end]
	}
	return sections
}

// hasHeading reports whether text holds title as a heading line or as a
// bold run-in heading ("**Title.**").
func hasHeading(text, title string) bool {
	return regexp.MustCompile(`(?m)^#+ (?:\d+\. )?`+regexp.QuoteMeta(title)+`\s*$`).MatchString(text) ||
		strings.Contains(text, "**"+title+".**")
}

// layoutDirs reads the directory tree in a section's indented code
// block: a name ending in "/" alone on its line opens a directory, and
// names indented under it are its entries. Comments start at "#".
func layoutDirs(section string) map[string]bool {
	type level struct {
		indent int
		path   string
	}
	var open []level
	named := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "    ") {
			continue
		}
		code, _, _ := strings.Cut(line, "#")
		fields := strings.Fields(code)
		if len(fields) == 0 {
			continue
		}
		indent := len(code) - len(strings.TrimLeft(code, " "))
		for len(open) > 0 && open[len(open)-1].indent >= indent {
			open = open[:len(open)-1]
		}
		parent := ""
		if len(open) > 0 {
			parent = open[len(open)-1].path
		}
		for _, f := range fields {
			if strings.HasSuffix(f, "/") {
				named[parent+f] = true
			}
		}
		if len(fields) == 1 && strings.HasSuffix(fields[0], "/") {
			open = append(open, level{indent, parent + fields[0]})
		}
	}
	return named
}
