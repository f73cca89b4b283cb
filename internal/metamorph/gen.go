package metamorph

import (
	"fmt"
	"math/rand"

	"repro/internal/classify"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// Config seeds and sizes a generator. Zero values take defaults.
type Config struct {
	// Seed drives every random choice. The same Config generates the same
	// scenarios, byte for byte.
	Seed int64
	// Scenarios is the number of database instances to generate.
	Scenarios int
	// PairsPerScenario is the number of query pairs per instance.
	PairsPerScenario int
	// MaxRows caps the row count of each generated table. Tables draw a
	// size in [0, MaxRows] (the outer table at least 1), so empty inner
	// relations — where the COUNT bug class lives — occur regularly.
	MaxRows int
	// NullFrac is the probability that a nullable cell is NULL. The
	// default 0.25 keeps the 3VL regimes dense without drowning the
	// two-valued ones.
	NullFrac float64
}

func (c Config) filled() Config {
	if c.Scenarios == 0 {
		c.Scenarios = 8
	}
	if c.PairsPerScenario == 0 {
		c.PairsPerScenario = 25
	}
	if c.MaxRows == 0 {
		c.MaxRows = 24
	}
	if c.NullFrac == 0 {
		c.NullFrac = 0.25
	}
	return c
}

// Generator produces scenarios deterministically from its Config.
type Generator struct {
	cfg Config
}

// NewGenerator builds a generator.
func NewGenerator(cfg Config) *Generator { return &Generator{cfg: cfg.filled()} }

// Scenarios returns the number of scenarios this generator produces.
func (g *Generator) Scenarios() int { return g.cfg.Scenarios }

// Scenario generates instance id. Each scenario has its own derived
// seed, so scenarios can be regenerated independently of each other.
func (g *Generator) Scenario(id int) *Scenario {
	rng := rand.New(rand.NewSource(g.cfg.Seed + int64(id)*0x9E3779B9))
	s := &Scenario{Seed: g.cfg.Seed, ID: id}
	d := genDomains(rng, g.cfg)
	s.Tables = genTables(rng, id, g.cfg, d)
	for p := 0; p < g.cfg.PairsPerScenario; p++ {
		s.Pairs = append(s.Pairs, genPair(rng, p, names(id), d))
	}
	return s
}

// tableNames are the per-scenario relation names; the scenario ID keeps
// concurrent scenarios apart on a shared engine.
type tableNames struct{ A, B, C string }

func names(id int) tableNames {
	return tableNames{
		A: fmt.Sprintf("MM%dA", id),
		B: fmt.Sprintf("MM%dB", id),
		C: fmt.Sprintf("MM%dC", id),
	}
}

// domains are the value ranges data and query constants draw from. They
// are deliberately tiny: a join-key domain of 2-5 values over a couple
// dozen rows forces duplicate-heavy bags and guarantees outer values
// with zero inner matches.
type domains struct {
	keyDom int // join keys K and G: [0, keyDom)
	valDom int // measures V and W: [0, valDom)
	rowsA  int
}

func genDomains(rng *rand.Rand, cfg Config) domains {
	return domains{
		keyDom: 2 + rng.Intn(4),
		valDom: 4 + rng.Intn(7),
		rowsA:  1 + rng.Intn(cfg.MaxRows),
	}
}

var sDomain = []string{"ash", "elm", "fir", "oak"}

func genTables(rng *rand.Rand, id int, cfg Config, d domains) []Table {
	n := names(id)
	null := func() bool { return rng.Float64() < cfg.NullFrac }
	key := func() value.Value {
		if null() {
			return value.Null
		}
		return value.NewInt(int64(rng.Intn(d.keyDom)))
	}
	val := func() value.Value {
		if null() {
			return value.Null
		}
		return value.NewInt(int64(rng.Intn(d.valDom)))
	}
	str := func() value.Value {
		if null() {
			return value.Null
		}
		return value.NewString(sDomain[rng.Intn(len(sDomain))])
	}
	date := func() value.Value {
		if null() {
			return value.Null
		}
		dt, err := value.NewDate(1977+rng.Intn(5), 1+rng.Intn(12), 1+rng.Intn(28))
		if err != nil {
			panic(err)
		}
		return value.NewDateValue(dt)
	}

	// A: the outer relation. R is a NULL-free unique rowid (the sound
	// partition column and declared key); everything else is nullable
	// and duplicate-heavy.
	a := Table{
		Name: n.A,
		Cols: []schema.Column{
			{Name: "R", Type: value.KindInt},
			{Name: "K", Type: value.KindInt},
			{Name: "V", Type: value.KindInt},
			{Name: "G", Type: value.KindInt},
			{Name: "S", Type: value.KindString},
			{Name: "D", Type: value.KindDate},
		},
		Key: []string{"R"},
	}
	for i := 0; i < d.rowsA; i++ {
		a.Rows = append(a.Rows, storage.Tuple{
			value.NewInt(int64(i)), key(), val(), key(), str(), date(),
		})
	}

	// B: the inner relation; may be empty, which is where the COUNT bug
	// class lives. ID is a true key so the key-based IN-merge path is
	// exercised honestly.
	b := Table{
		Name: n.B,
		Cols: []schema.Column{
			{Name: "ID", Type: value.KindInt},
			{Name: "K", Type: value.KindInt},
			{Name: "W", Type: value.KindInt},
			{Name: "G", Type: value.KindInt},
		},
		Key: []string{"ID"},
	}
	for i, rows := 0, rng.Intn(cfg.MaxRows+1); i < rows; i++ {
		b.Rows = append(b.Rows, storage.Tuple{
			value.NewInt(int64(i)), key(), val(), key(),
		})
	}

	// C: the third level for multi-level correlation; keyless, so whole
	// duplicate rows are legal and generated.
	c := Table{
		Name: n.C,
		Cols: []schema.Column{
			{Name: "K", Type: value.KindInt},
			{Name: "W", Type: value.KindInt},
			{Name: "G", Type: value.KindInt},
		},
	}
	for i, rows := 0, rng.Intn(cfg.MaxRows+1); i < rows; i++ {
		row := storage.Tuple{key(), val(), key()}
		c.Rows = append(c.Rows, row)
		if rng.Float64() < 0.2 { // duplicate-heavy bag
			c.Rows = append(c.Rows, row.Clone())
		}
	}
	return []Table{a, b, c}
}

// nestedPred is one generated nested predicate over outer alias A, plus
// the classification every checker must agree on.
type nestedPred struct {
	sql  string
	want []classify.NestType
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

var cmpOps = []string{"<", "<=", "=", ">=", ">", "!="}

// genNested draws one nested predicate. The mix leans on the correlated
// aggregate shapes (type-JA), because that is where Kim's COUNT and
// non-equality bugs live.
func genNested(rng *rand.Rand, n tableNames, d domains) nestedPred {
	kc := rng.Intn(d.keyDom + 1) // join-key constant
	vc := rng.Intn(d.valDom + 1) // measure constant
	agg := pick(rng, []string{"MAX", "MIN", "SUM", "AVG"})
	switch rng.Intn(12) {
	case 0: // type-A: uncorrelated aggregate, a single constant
		return nestedPred{
			sql:  fmt.Sprintf("A.V >= (SELECT %s(B.W) FROM %s B)", agg, n.B),
			want: []classify.NestType{classify.TypeA},
		}
	case 1: // type-A with a restricted inner block
		return nestedPred{
			sql:  fmt.Sprintf("A.V <= (SELECT AVG(B.W) FROM %s B WHERE B.G <= %d)", n.B, kc),
			want: []classify.NestType{classify.TypeA},
		}
	case 2: // type-N: the canonical IN
		return nestedPred{
			sql:  fmt.Sprintf("A.K IN (SELECT B.K FROM %s B WHERE B.W <= %d)", n.B, vc),
			want: []classify.NestType{classify.TypeN},
		}
	case 3: // type-N via a quantified comparison
		return nestedPred{
			sql:  fmt.Sprintf("A.V > ANY (SELECT B.W FROM %s B WHERE B.G = %d)", n.B, kc),
			want: []classify.NestType{classify.TypeN},
		}
	case 4: // type-N selecting the inner key column (the honest IN-merge path)
		return nestedPred{
			sql:  fmt.Sprintf("A.R IN (SELECT B.ID FROM %s B WHERE B.W >= %d)", n.B, vc),
			want: []classify.NestType{classify.TypeN},
		}
	case 5: // type-J: correlated EXISTS
		return nestedPred{
			sql:  fmt.Sprintf("EXISTS (SELECT B.ID FROM %s B WHERE B.K = A.K AND B.W <= %d)", n.B, vc),
			want: []classify.NestType{classify.TypeJ},
		}
	case 6: // type-J: correlated IN
		return nestedPred{
			sql:  fmt.Sprintf("A.V IN (SELECT B.W FROM %s B WHERE B.G = A.G)", n.B),
			want: []classify.NestType{classify.TypeJ},
		}
	case 7: // type-JA: the COUNT-bug shape
		op := pick(rng, []string{"=", ">=", "<="})
		return nestedPred{
			sql:  fmt.Sprintf("A.V %s (SELECT COUNT(*) FROM %s B WHERE B.K = A.K)", op, n.B),
			want: []classify.NestType{classify.TypeJA},
		}
	case 8: // type-JA: correlated aggregate comparison
		return nestedPred{
			sql:  fmt.Sprintf("A.V %s (SELECT %s(B.W) FROM %s B WHERE B.K = A.K)", pick(rng, cmpOps), agg, n.B),
			want: []classify.NestType{classify.TypeJA},
		}
	case 9: // ALL quantifier (transformed form diverges from NI on empty inners)
		if rng.Intn(2) == 0 {
			return nestedPred{
				sql:  fmt.Sprintf("A.V <= ALL (SELECT B.W FROM %s B WHERE B.K = A.K)", n.B),
				want: []classify.NestType{classify.TypeJ},
			}
		}
		return nestedPred{
			sql:  fmt.Sprintf("A.V < ALL (SELECT B.W FROM %s B WHERE B.G = %d)", n.B, kc),
			want: []classify.NestType{classify.TypeN},
		}
	case 10: // two levels: N over JA (section 9.1's recursive shape)
		return nestedPred{
			sql: fmt.Sprintf("A.K IN (SELECT B.K FROM %s B WHERE B.W >= (SELECT MIN(C.W) FROM %s C WHERE C.G = B.G))",
				n.B, n.C),
			want: []classify.NestType{classify.TypeN, classify.TypeJA},
		}
	default: // two levels: J over JA, correlation skipping a level
		return nestedPred{
			sql: fmt.Sprintf("EXISTS (SELECT B.ID FROM %s B WHERE B.K = A.K AND B.W <= (SELECT MAX(C.W) FROM %s C WHERE C.G = A.G))",
				n.B, n.C),
			want: []classify.NestType{classify.TypeJ, classify.TypeJA},
		}
	}
}

// genConjunct draws one plain strengthening conjunct over the outer
// alias A. ANDing it onto a query can only remove outer rows — under
// 3VL a NULL operand makes the conjunct unknown, which also removes the
// row — so it strengthens regardless of operator.
func genConjunct(rng *rand.Rand, d domains) string {
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("A.V %s %d", pick(rng, cmpOps), rng.Intn(d.valDom+1))
	case 1:
		return fmt.Sprintf("A.S = '%s'", pick(rng, sDomain))
	case 2:
		dt, err := value.NewDate(1977+rng.Intn(5), 1+rng.Intn(12), 1+rng.Intn(28))
		if err != nil {
			panic(err)
		}
		return fmt.Sprintf("A.D %s %s", pick(rng, []string{"<=", ">=", "<", ">"}), value.NewDateValue(dt).DateOf())
	default:
		return fmt.Sprintf("A.G = %d", rng.Intn(d.keyDom+1))
	}
}

// genPair draws one metamorphic pair.
func genPair(rng *rand.Rand, id int, n tableNames, d domains) Pair {
	np := genNested(rng, n, d)
	vc := rng.Intn(d.valDom + 1)
	switch rng.Intn(11) {
	case 0, 1: // predicate strengthening: bag(Q1) ⊆ bag(Q0)
		base := fmt.Sprintf("SELECT A.R, A.K FROM %s A WHERE %s", n.A, np.sql)
		order := ""
		if rng.Intn(4) == 0 {
			order = " ORDER BY A.R"
		}
		return Pair{
			ID:       id,
			Class:    "strengthen/" + np.want[0].String(),
			Relation: SubsetBag,
			Queries: []Query{
				{SQL: base + order, Want: np.want},
				{SQL: base + " AND " + genConjunct(rng, d) + order, Want: np.want},
			},
		}
	case 2: // partition on the NULL-free rowid: exact reassembly
		cut := rng.Intn(d.rowsA + 1)
		base := fmt.Sprintf("SELECT A.K, A.V FROM %s A WHERE %s", n.A, np.sql)
		return Pair{
			ID:       id,
			Class:    "partition/" + np.want[0].String(),
			Relation: PartitionEqual,
			Queries: []Query{
				{SQL: base, Want: np.want},
				{SQL: fmt.Sprintf("%s AND A.R < %d", base, cut), Want: np.want},
				{SQL: fmt.Sprintf("%s AND A.R >= %d", base, cut), Want: np.want},
			},
		}
	case 3: // partition on a NULLable column: 3VL loses the NULL rows, never gains
		cut := rng.Intn(d.valDom + 1)
		base := fmt.Sprintf("SELECT A.R, A.S FROM %s A WHERE %s", n.A, np.sql)
		return Pair{
			ID:       id,
			Class:    "partition-null/" + np.want[0].String(),
			Relation: PartitionSubset,
			Queries: []Query{
				{SQL: base, Want: np.want},
				{SQL: fmt.Sprintf("%s AND A.V < %d", base, cut), Want: np.want},
				{SQL: fmt.Sprintf("%s AND A.V >= %d", base, cut), Want: np.want},
			},
		}
	case 4: // DISTINCT projection
		tail := fmt.Sprintf("A.K, A.S FROM %s A WHERE %s", n.A, np.sql)
		return Pair{
			ID:       id,
			Class:    "distinct/" + np.want[0].String(),
			Relation: DistinctEqual,
			Queries: []Query{
				{SQL: "SELECT " + tail, Want: np.want},
				{SQL: "SELECT DISTINCT " + tail, Want: np.want},
			},
		}
	case 5: // COUNT monotonicity under strengthening
		base := fmt.Sprintf("SELECT COUNT(*) FROM %s A WHERE %s", n.A, np.sql)
		return Pair{
			ID:       id,
			Class:    "aggbound-count/" + np.want[0].String(),
			Relation: CountBound,
			Queries: []Query{
				{SQL: base, Want: np.want},
				{SQL: base + " AND " + genConjunct(rng, d), Want: np.want},
			},
		}
	case 6: // MIN/MAX bounds under strengthening
		base := fmt.Sprintf("SELECT MIN(A.V) AS lo, MAX(A.V) AS hi FROM %s A WHERE %s", n.A, np.sql)
		return Pair{
			ID:       id,
			Class:    "aggbound-minmax/" + np.want[0].String(),
			Relation: MinMaxBound,
			Queries: []Query{
				{SQL: base, Want: np.want},
				{SQL: base + " AND " + genConjunct(rng, d), Want: np.want},
			},
		}
	case 7: // IN vs its correlated EXISTS form: set-equal under 3VL
		return Pair{
			ID:       id,
			Class:    "inexists",
			Relation: SetEqual,
			Queries: []Query{
				{
					SQL:  fmt.Sprintf("SELECT A.R, A.K FROM %s A WHERE A.K IN (SELECT B.K FROM %s B WHERE B.W <= %d)", n.A, n.B, vc),
					Want: []classify.NestType{classify.TypeN},
				},
				{
					SQL:  fmt.Sprintf("SELECT A.R, A.K FROM %s A WHERE EXISTS (SELECT B.ID FROM %s B WHERE B.W <= %d AND B.K = A.K)", n.A, n.B, vc),
					Want: []classify.NestType{classify.TypeJ},
				},
			},
		}
	case 8: // NOT IN ⊆ NOT EXISTS: they differ exactly on NULLs, one-directionally
		return Pair{
			ID:       id,
			Class:    "notin-notexists",
			Relation: SubsetSet,
			Queries: []Query{
				{
					SQL:  fmt.Sprintf("SELECT A.R, A.K FROM %s A WHERE NOT EXISTS (SELECT B.ID FROM %s B WHERE B.W <= %d AND B.K = A.K)", n.A, n.B, vc),
					Want: []classify.NestType{classify.TypeJ},
				},
				{
					SQL:  fmt.Sprintf("SELECT A.R, A.K FROM %s A WHERE A.K NOT IN (SELECT B.K FROM %s B WHERE B.W <= %d)", n.A, n.B, vc),
					Want: []classify.NestType{classify.TypeN},
				},
			},
		}
	case 9: // strengthening a DISTINCT projection: dedup + transform interplay
		base := fmt.Sprintf("SELECT DISTINCT A.K, A.G FROM %s A WHERE %s", n.A, np.sql)
		return Pair{
			ID:       id,
			Class:    "distinct-strengthen/" + np.want[0].String(),
			Relation: SubsetSet,
			Queries: []Query{
				{SQL: base, Want: np.want},
				{SQL: base + " AND " + genConjunct(rng, d), Want: np.want},
			},
		}
	default: // grouped HAVING thresholds: higher cutoff keeps fewer groups
		lo := 1 + rng.Intn(2)
		hi := lo + 1 + rng.Intn(2)
		base := fmt.Sprintf("SELECT A.K, COUNT(*) AS cnt FROM %s A WHERE %s GROUP BY A.K HAVING cnt >= ", n.A, np.sql)
		return Pair{
			ID:       id,
			Class:    "having/" + np.want[0].String(),
			Relation: SubsetBag,
			Queries: []Query{
				{SQL: fmt.Sprintf("%s%d", base, lo), Want: np.want},
				{SQL: fmt.Sprintf("%s%d", base, hi), Want: np.want},
			},
		}
	}
}
