package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden experiment output")

// The full experiment output is deterministic (fixed seeds, deterministic
// engine), so it is pinned as a golden file: any semantic or cost change
// to the reproduction shows up as a diff against the paper's tables.
func TestGoldenExperimentOutput(t *testing.T) {
	var buf bytes.Buffer
	captureStdout(t, &buf, func() {
		for _, e := range experiments {
			banner(e.desc)
			e.run()
		}
	})
	golden := filepath.Join("testdata", "experiments.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated (%d bytes)", buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("experiment output drifted from golden file; run with -update and inspect the diff (got %d bytes, want %d)",
			buf.Len(), len(want))
		// Show the first divergence for quick triage.
		g, w := buf.Bytes(), want
		n := min(len(g), len(w))
		for i := range n {
			if g[i] != w[i] {
				lo := max(0, i-120)
				t.Errorf("first divergence at byte %d:\n  got:  ...%q\n  want: ...%q",
					i, g[lo:min(len(g), i+120)], w[lo:min(len(w), i+120)])
				break
			}
		}
	}
}

// Parallel execution may only reorder rows — never add, drop, or change
// them. The semantic experiments (result rows and temp-table contents, no
// measured I/O numbers) must therefore print the same content under
// sequential and forced-parallel execution once row order, the one thing
// parallelism is allowed to perturb, is normalized away by sorting lines.
// The parallel run also arms the differential oracle, so any semantic
// divergence fails inside the engine before the comparison here.
func TestGoldenParallelSemantics(t *testing.T) {
	semantic := map[string]bool{
		"countbug": true, "countfix": true, "countstar": true,
		"noneq": true, "dups": true, "ja2": true,
		"predicates": true, "tree": true,
	}
	run := func() string {
		var buf bytes.Buffer
		captureStdout(t, &buf, func() {
			for _, e := range experiments {
				if semantic[e.name] {
					banner(e.desc)
					e.run()
				}
			}
		})
		return buf.String()
	}
	seq := run()
	parallelWorkers = 4
	defer func() { parallelWorkers = 0 }()
	par := run()
	got, want := sortedLines(par), sortedLines(seq)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	n := min(len(gl), len(wl))
	for i := range n {
		if gl[i] != wl[i] {
			t.Fatalf("parallel semantics diverge from sequential (%d vs %d lines); first difference:\n  parallel:   %q\n  sequential: %q",
				len(gl), len(wl), gl[i], wl[i])
		}
	}
	t.Fatalf("parallel semantics diverge from sequential: %d vs %d lines; first unmatched: %q",
		len(gl), len(wl), append(gl, wl...)[n])
}

// sortedLines sorts the output's lines, erasing row order while keeping
// every printed row, temp-table tuple, and banner comparable.
func sortedLines(s string) string {
	lines := strings.Split(s, "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// captureStdout redirects os.Stdout into buf while fn runs.
func captureStdout(t *testing.T, buf *bytes.Buffer, fn func()) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan struct{})
	go func() {
		buf.ReadFrom(r)
		close(done)
	}()
	fn()
	w.Close()
	<-done
	os.Stdout = old
}
