package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wire"
)

// canonBag renders a result with its rows in a canonical total order as
// the wire's own RowBatch encoding, so "equal" means byte-equal column
// names and values, independent of the order a plan produced them in.
func canonBag(cols []string, rows []storage.Tuple) []byte {
	return wire.EncodeRowBatch(wire.RowBatch{Columns: cols, Rows: sortedRows(rows)})
}

// canonSet is canonBag after dropping duplicate rows. NEST-N-J turns IN
// into a join, which multiplies duplicates nested iteration never
// produces, so the cross-strategy oracle compares results as sets.
func canonSet(cols []string, rows []storage.Tuple) []byte {
	sorted := sortedRows(rows)
	out := sorted[:0:0]
	var prev []byte
	for _, r := range sorted {
		enc := appendRow(nil, r)
		if prev != nil && bytes.Equal(enc, prev) {
			continue
		}
		out, prev = append(out, r), enc
	}
	return wire.EncodeRowBatch(wire.RowBatch{Columns: cols, Rows: out})
}

func sortedRows(rows []storage.Tuple) []storage.Tuple {
	sorted := append([]storage.Tuple(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			c, err := value.TotalCompare(a[k], b[k])
			if err != nil {
				c = bytes.Compare(wire.AppendValue(nil, a[k]), wire.AppendValue(nil, b[k]))
			}
			if c != 0 {
				return c < 0
			}
		}
		return len(a) < len(b)
	})
	return sorted
}

func appendRow(dst []byte, row storage.Tuple) []byte {
	for _, v := range row {
		dst = wire.AppendValue(dst, v)
	}
	return dst
}

// fingerprint identifies a result cheaply enough to check every timed
// op: the row count plus two order-insensitive sums and one
// order-sensitive chain over FNV-1a hashes of each row's wire encoding
// (column names seed the chain). Set-up proves the reference results
// byte-equal to the oracle once; the timed loop then compares
// fingerprints, which costs one pass and no sort.
type fingerprint struct {
	rows    int
	sum     uint64
	squares uint64
	chain   uint64
}

// fingerprinter owns the scratch buffer so the hot loop allocates nothing.
type fingerprinter struct{ scratch []byte }

func (f *fingerprinter) of(cols []string, rows []storage.Tuple) fingerprint {
	h := fnv.New64a()
	for _, c := range cols {
		h.Write([]byte(c))
		h.Write([]byte{0})
	}
	fp := fingerprint{rows: len(rows), chain: h.Sum64()}
	for _, r := range rows {
		f.scratch = appendRow(f.scratch[:0], r)
		h.Reset()
		h.Write(f.scratch)
		x := h.Sum64()
		fp.sum += x
		fp.squares += x * x
		fp.chain = fp.chain*1099511628211 + x
	}
	return fp
}

// matches reports whether got equals the expected fingerprint; ordered
// also requires the same row order (plans that are order-deterministic).
func (want fingerprint) matches(got fingerprint, ordered bool) bool {
	if want.rows != got.rows || want.sum != got.sum || want.squares != got.squares {
		return false
	}
	return !ordered || want.chain == got.chain
}

//go:embed testdata/golden_seed1.json
var goldenJSON []byte

// goldenRows returns the checked-in reference row counts per op for
// seed 1 at full size, so a bug common to nested iteration and NEST-JA2
// still trips the check.
func goldenRows() (map[string]map[string]int, error) {
	var g map[string]map[string]int
	return g, json.Unmarshal(goldenJSON, &g)
}

// attachOracle gives every read op of the plan its expected result. On
// a freshly loaded engine each query runs once under nested iteration —
// the engine's semantic ground truth — or, for ops that are themselves
// nested iteration, under sequential NEST-JA2, and once as the
// reference: the op's own strategy with ref's options (sequential
// defaults when nil). The two must agree as canonically sorted sets of
// wire-encoded rows; the reference's fingerprint is then what every
// timed result is held to. An op that fails here is marked broken and
// every execution of it counts as failed.
func attachOracle(e *env, p *plan, load func(*env, *engine.DB) error, ref func(*op) engine.Options) error {
	db := engine.New(bufferPages)
	if err := load(e, db); err != nil {
		return fmt.Errorf("oracle load: %w", err)
	}
	golden, err := goldenRows()
	if err != nil {
		return fmt.Errorf("golden row counts: %w", err)
	}
	var fp fingerprinter
	for i := range p.ops {
		o := &p.ops[i]
		if o.insertRows > 0 {
			continue
		}
		truthStrat := engine.NestedIteration
		if o.strat == engine.NestedIteration {
			truthStrat = engine.TransformJA2
		}
		truth, err := db.Query(o.sql, engine.Options{Strategy: truthStrat})
		if err != nil {
			return fmt.Errorf("oracle %s: %w", o.name, err)
		}
		refOpts := engine.Options{Strategy: o.strat}
		if ref != nil {
			refOpts = ref(o)
		}
		got, err := db.Query(o.sql, refOpts)
		if err != nil {
			return fmt.Errorf("reference %s: %w", o.name, err)
		}
		// The paper calls its ANY/ALL rewrites "logically (but not
		// necessarily semantically) equivalent": > ALL over an empty set
		// is true, > MAX of it is not. The engine's own differential
		// oracle excludes ALL for that reason, and so does this one.
		if !o.diverges && !bytes.Equal(canonSet(truth.Columns, truth.Rows), canonSet(got.Columns, got.Rows)) {
			o.broken = fmt.Sprintf("%v result differs from the %v oracle", o.strat, truthStrat)
		}
		if want, ok := golden[e.workload][o.name]; ok && e.seed == 1 && e.size == fullSize && want != len(got.Rows) {
			o.broken = fmt.Sprintf("reference has %d rows, golden count for seed 1 is %d", len(got.Rows), want)
		}
		o.want = fp.of(got.Columns, got.Rows)
		o.wireBytes = wireFrameBytes(got.Columns, got.Rows)
	}
	return nil
}

// frameOverhead is a checksummed frame's header and trailer bytes.
const frameOverhead = 9

// wireFrameBytes is what a result costs on the wire: the RowBatch
// frames the server would cut it into at its default batch size.
func wireFrameBytes(cols []string, rows []storage.Tuple) int {
	total := 0
	for lo := 0; lo == 0 || lo < len(rows); lo += exec.DefaultBatchRows {
		hi := min(lo+exec.DefaultBatchRows, len(rows))
		total += frameOverhead + len(wire.EncodeRowBatch(wire.RowBatch{Columns: cols, Rows: rows[lo:hi]}))
	}
	return total
}
