package metamorph

import (
	"repro/internal/engine"
	"repro/internal/storage"
)

// maxShrinkAttempts bounds the replays one shrink may spend. Each replay
// is a handful of tiny in-process queries, so the bound is generous.
const maxShrinkAttempts = 600

// ShrinkViolation minimizes the scenario behind a violation: it narrows
// the scenario to the failing pair, then greedily deletes table rows —
// chunks first, then single rows, to a fixed point — keeping every
// deletion that preserves the failure. Each candidate replays on a
// fresh throwaway engine, so shrinking never disturbs the runner's
// database. Violations that only reproduce through the network stack
// (and not in-process under the same strategy) come back narrowed but
// otherwise unshrunk.
func ShrinkViolation(s *Scenario, v *Violation, underTest engine.Strategy) *Scenario {
	cand := &Scenario{Seed: s.Seed, ID: s.ID, Pairs: []Pair{v.Pair}}
	for _, t := range s.Tables {
		ct := t
		ct.Rows = append([]storage.Tuple(nil), t.Rows...)
		cand.Tables = append(cand.Tables, ct)
	}
	attempts := 0
	try := func(next *Scenario) bool {
		if attempts >= maxShrinkAttempts {
			return false
		}
		attempts++
		return replayDetail(next, v, underTest) != ""
	}
	if !try(cand) {
		return cand
	}
	for {
		reduced := false
		for ti := range cand.Tables {
			for chunk := len(cand.Tables[ti].Rows) / 2; chunk >= 1; chunk /= 2 {
				off := 0
				for off < len(cand.Tables[ti].Rows) {
					next := withoutRows(cand, ti, off, chunk)
					if try(next) {
						cand = next
						reduced = true
					} else {
						off += chunk
					}
				}
			}
		}
		if !reduced || attempts >= maxShrinkAttempts {
			return cand
		}
	}
}

// withoutRows copies the scenario with rows [off, off+n) of table ti
// removed.
func withoutRows(s *Scenario, ti, off, n int) *Scenario {
	out := &Scenario{Seed: s.Seed, ID: s.ID, Pairs: s.Pairs}
	out.Tables = append([]Table(nil), s.Tables...)
	t := out.Tables[ti]
	end := off + n
	if end > len(t.Rows) {
		end = len(t.Rows)
	}
	rows := make([]storage.Tuple, 0, len(t.Rows)-(end-off))
	rows = append(rows, t.Rows[:off]...)
	rows = append(rows, t.Rows[end:]...)
	t.Rows = rows
	out.Tables[ti] = t
	return out
}

// replayDetail re-runs a violation's specific check against a fresh
// engine loaded with the scenario, returning the (possibly different)
// failure detail, or "" when the check now passes. Network-only checks
// are replayed through the in-process path under the same strategy: a
// genuine logic bug reproduces there too, a wire-layer divergence does
// not (and then resists shrinking).
func replayDetail(s *Scenario, v *Violation, underTest engine.Strategy) string {
	if underTest == engine.NestedIteration {
		underTest = engine.TransformJA2
	}
	db := engine.New(64)
	if load(db, s) != nil {
		return ""
	}
	run := func(sql, regime string) (runResult, bool) {
		res, err := db.Query(sql, regimeOptions(regime, underTest))
		if err != nil {
			return runResult{}, false
		}
		return runResult{rows: res.Rows, fellBack: res.FellBack}, true
	}
	pair := v.Pair
	switch v.Check {
	case "relation":
		regime := v.Regime
		if regime == RegimeNet {
			regime = RegimeSeq
		}
		rs := make([]runResult, len(pair.Queries))
		for qi, q := range pair.Queries {
			rr, ok := run(q.SQL, regime)
			if !ok {
				return ""
			}
			rs[qi] = rr
		}
		d, _ := pair.checkRuns(rs, rs)
		return d
	case "roundtrip":
		q := pair.Queries[v.QueryIndex]
		seq, ok1 := run(q.SQL, RegimeSeq)
		ni, ok2 := run(q.SQL, RegimeNI)
		if !ok1 || !ok2 {
			return ""
		}
		return storage.Diff(pair.agreement(q.SQL), seq.rows, ni.rows)
	case "parity", "netparity", "paperparity":
		regime := RegimePar
		if v.Check == "paperparity" {
			regime = RegimePaper
		}
		q := pair.Queries[v.QueryIndex]
		seq, ok1 := run(q.SQL, RegimeSeq)
		other, ok2 := run(q.SQL, regime)
		if !ok1 || !ok2 {
			return ""
		}
		return storage.Diff(engine.AcrossRegimes, other.rows, seq.rows)
	default:
		return ""
	}
}
