package nestedsql_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
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

// The agreement rule — which results of one query must be equal, and
// whether as bags or as sets — and the sorted-rendered-rows comparator
// under it used to be written out in the engine's VerifyParallel, again in
// internal/metamorph (with a generator-annotated "has an ALL quantifier"
// flag, because the runner could not ask the engine) and again in four
// test packages. The rule is engine.AgreementWithNI now and the comparator
// storage.Diff; a copy must not grow back unnoticed: outside
// internal/storage no non-test package (bench/ keeps its own until a
// benchmark PR) declares a function named like a row-bag, row-set or
// row-diff helper, nor that flag; and the oracle's re-runs skip admission
// by structure (DB.run), not by a flag in Options.
func TestOneOracle(t *testing.T) {
	comparator := regexp.MustCompile(`(?i)^((row|sorted|equal)(bag|set)s?|(bag|set)of|diffrows)$`)
	// Spelled apart so a grep for either name finds offenders only.
	gone := map[string]string{
		"Has" + "All":      "ask engine.AgreementWithNI",
		"no" + "Admission": "oracle re-runs call DB.execute under run's lock hold, without a ticket",
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
