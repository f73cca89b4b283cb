package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the ID of the span that caused this one (0 for the root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// layerTotal accumulates one span name over a traced pass.
type layerTotal struct {
	Count   int64
	Total   time.Duration // Σ span durations
	Self    time.Duration // Σ self times
	Longest time.Duration
}

// maxKeptSpans bounds the spans kept for the trace file; totals keep
// counting past it, so the ledger covers every op while the file stays
// a readable sample.
const maxKeptSpans = 20000

// tracer records spans in memory for one client goroutine. It is not
// safe for concurrent use; clients each own one and merge at the end.
type tracer struct {
	epoch  time.Time
	nextID int
	op     int
	cur    []span // spans of the operation in flight
	kept   []span
	totals map[string]*layerTotal
	counts map[string]int64 // work counted at the same boundaries as the spans
}

// newTracer makes client's tracer; IDs are offset per client so spans
// stay unique when the clients' files are merged.
func newTracer(epoch time.Time, client int) *tracer {
	base := client * 100_000_000
	return &tracer{epoch: epoch, nextID: base, op: base, totals: make(map[string]*layerTotal),
		counts: make(map[string]int64)}
}

// count adds n to a named counter.
func (t *tracer) count(name string, n int64) { t.counts[name] += n }

// begin opens a span under parent (0 = root of the op) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	t.nextID++
	t.cur = append(t.cur, span{
		ID: t.nextID, Parent: parent, Op: t.op, Name: name,
		StartNS: int64(time.Since(t.epoch)),
	})
	return t.nextID
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.epoch))
	for i := len(t.cur) - 1; i >= 0; i-- {
		if t.cur[i].ID == id {
			t.cur[i].EndNS = now
			return
		}
	}
}

// endOp folds the finished operation's spans into the totals.
func (t *tracer) endOp() {
	self := selfTimes(t.cur)
	for i, s := range t.cur {
		lt := t.totals[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			t.totals[s.Name] = lt
		}
		d := time.Duration(s.EndNS - s.StartNS)
		lt.Count++
		lt.Total += d
		lt.Self += self[i]
		if d > lt.Longest {
			lt.Longest = d
		}
	}
	if room := maxKeptSpans - len(t.kept); room > 0 {
		if len(t.cur) < room {
			room = len(t.cur)
		}
		t.kept = append(t.kept, t.cur[:room]...)
	}
	t.cur = t.cur[:0]
	t.op++
}

// selfTimes returns, index-aligned with spans, each span's duration
// minus the part of its own interval that its direct children cover.
// Children may be adjacent, overlap each other, or (a shadow run made
// after the parent returned) lie outside the parent entirely; only the
// covered part of the parent's interval is subtracted, once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, edge := int64(0), s.StartNS
		for _, c := range iv {
			lo, hi := max(c[0], edge), min(c[1], s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// mergeTracers sums the clients' totals and counters and concatenates
// their kept spans.
func mergeTracers(ts []*tracer) (map[string]*layerTotal, map[string]int64, []span) {
	totals := make(map[string]*layerTotal)
	counts := make(map[string]int64)
	var kept []span
	for _, t := range ts {
		for name, n := range t.counts {
			counts[name] += n
		}
		for name, lt := range t.totals {
			m := totals[name]
			if m == nil {
				m = &layerTotal{}
				totals[name] = m
			}
			m.Count += lt.Count
			m.Total += lt.Total
			m.Self += lt.Self
			m.Longest = max(m.Longest, lt.Longest)
		}
		kept = append(kept, t.kept...)
	}
	return totals, counts, kept
}

// writeSpans writes the kept spans to dir/<workload>.trace.json.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	data, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
