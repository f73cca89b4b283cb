package metamorph

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/sqlparser"
	"repro/internal/storage"
)

// ReproScript renders a violation as a standalone .sql script: a header
// of structured comments, the scenario's CREATE/INSERT setup, and the
// pair's queries behind "-- Q<i>:" markers. The script replays through
// LoadRepro/Replay (or any tool that feeds it to engine.Exec).
func ReproScript(s *Scenario, v *Violation) string {
	var b strings.Builder
	b.WriteString("-- metamorph repro\n")
	fmt.Fprintf(&b, "-- class: %s\n", v.Pair.Class)
	fmt.Fprintf(&b, "-- relation: %s\n", v.Pair.Relation)
	fmt.Fprintf(&b, "-- check: %s\n", v.Check)
	if v.Regime != "" {
		fmt.Fprintf(&b, "-- regime: %s\n", v.Regime)
	}
	fmt.Fprintf(&b, "-- query-index: %d\n", v.QueryIndex)
	fmt.Fprintf(&b, "-- seed: %d scenario: %d pair: %d\n", s.Seed, s.ID, v.Pair.ID)
	for _, line := range strings.Split(v.Detail, "\n") {
		fmt.Fprintf(&b, "-- detail: %s\n", line)
	}
	b.WriteString(s.SetupSQL())
	for i, q := range v.Pair.Queries {
		fmt.Fprintf(&b, "-- Q%d:\n%s;\n", i, q.SQL)
	}
	return b.String()
}

// WriteRepro writes the violation's repro script into dir (creating it)
// and returns the file path.
func WriteRepro(dir string, s *Scenario, v *Violation) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	class := strings.NewReplacer("/", "-", " ", "-", "(", "", ")", "").Replace(v.Pair.Class)
	name := fmt.Sprintf("%s-%s-seed%d-sc%d-p%d.sql", class, v.Check, s.Seed, s.ID, v.Pair.ID)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(ReproScript(s, v)), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// Repro is a parsed repro script.
type Repro struct {
	Class      string
	Relation   Relation
	Check      string
	Regime     string
	QueryIndex int
	Detail     string
	Scenario   *Scenario
	Queries    []Query
}

// Pair rebuilds the repro's query pair.
func (r *Repro) Pair() Pair {
	return Pair{Class: r.Class, Relation: r.Relation, Queries: r.Queries}
}

// Replay re-runs the repro's recorded check on a fresh engine and
// returns the failure detail, or "" when the check passes. Network
// regimes replay through the in-process path under the same strategy.
func (r *Repro) Replay(underTest engine.Strategy) string {
	v := &Violation{
		Pair:       r.Pair(),
		Check:      r.Check,
		Regime:     r.Regime,
		QueryIndex: r.QueryIndex,
	}
	if v.Check == "" {
		v.Check = "relation"
	}
	if v.Check == "relation" && v.Regime == "" {
		v.Regime = RegimeSeq
	}
	return replayDetail(r.Scenario, v, underTest)
}

// LoadRepro parses a repro script written by WriteRepro.
func LoadRepro(path string) (*Repro, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseRepro(string(raw))
}

// ParseRepro parses repro-script text: structured header comments, setup
// statements, and "-- Q<i>:"-marked queries.
func ParseRepro(src string) (*Repro, error) {
	r := &Repro{Scenario: &Scenario{}}
	var setup, query strings.Builder
	inQuery := false
	flushQuery := func() {
		if !inQuery {
			return
		}
		sql := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(query.String()), ";"))
		if sql != "" {
			r.Queries = append(r.Queries, Query{SQL: sql})
		}
		query.Reset()
	}
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "-- Q"):
			flushQuery()
			inQuery = true
		case strings.HasPrefix(trimmed, "--"):
			key, val, ok := strings.Cut(strings.TrimSpace(strings.TrimPrefix(trimmed, "--")), ":")
			if !ok {
				continue
			}
			val = strings.TrimSpace(val)
			switch strings.TrimSpace(key) {
			case "class":
				r.Class = val
			case "relation":
				rel, ok := relationByName(val)
				if !ok {
					return nil, fmt.Errorf("metamorph: unknown relation %q", val)
				}
				r.Relation = rel
			case "check":
				r.Check = val
			case "regime":
				r.Regime = val
			case "query-index":
				qi, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("metamorph: bad query-index %q", val)
				}
				r.QueryIndex = qi
			case "seed":
				// "seed: N scenario: N pair: N" — informational only.
			case "detail":
				if r.Detail != "" {
					r.Detail += "\n"
				}
				r.Detail += val
			}
		case trimmed == "":
		case inQuery:
			query.WriteString(line + "\n")
		default:
			setup.WriteString(line + "\n")
		}
	}
	flushQuery()
	if err := parseSetup(setup.String(), r.Scenario); err != nil {
		return nil, err
	}
	if len(r.Queries) == 0 {
		return nil, fmt.Errorf("metamorph: repro has no queries")
	}
	return r, nil
}

// parseSetup turns the CREATE/INSERT half of a repro back into tables.
func parseSetup(src string, s *Scenario) error {
	stmts, err := sqlparser.ParseScript(src)
	if err != nil {
		return fmt.Errorf("metamorph: bad repro setup: %w", err)
	}
	byName := map[string]int{}
	for _, stmt := range stmts {
		switch stmt := stmt.(type) {
		case *sqlparser.CreateTableStmt:
			rel := stmt.Relation
			byName[rel.Name] = len(s.Tables)
			s.Tables = append(s.Tables, Table{Name: rel.Name, Cols: rel.Columns, Key: rel.Key})
		case *sqlparser.InsertStmt:
			ti, ok := byName[stmt.Table]
			if !ok {
				return fmt.Errorf("metamorph: repro inserts into unknown table %s", stmt.Table)
			}
			for _, row := range stmt.Rows {
				s.Tables[ti].Rows = append(s.Tables[ti].Rows, storage.Tuple(row))
			}
		default:
			return fmt.Errorf("metamorph: unexpected statement in repro setup")
		}
	}
	return nil
}
