// Package planner compiles a transformed (canonical) query — temporary
// table definitions plus a flat final query — into physical operator trees
// and executes them.
//
// It is a miniature of the System R optimizer the paper delegates to
// ([SEL 79]): for every two-input join it estimates the cost of a
// sort-merge join and of a nested-loops join with the cost model of
// section 7 and picks the cheaper, or honors a forced method so the
// experiments can reproduce all four combinations of section 7.4. It also
// implements that section's ordering optimizations: a projection created
// DISTINCT is already in join-column order, a merge-join result is already
// in GROUP BY order, and a temp table grouped on its join column needs no
// sort before the final merge join.
package planner

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/qctx"
	"repro/internal/schema"
	"repro/internal/spill"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/transform"
	"repro/internal/value"
)

// JoinMethod selects how a join is executed.
type JoinMethod uint8

// Join method choices. Auto picks by estimated cost.
const (
	JoinAuto JoinMethod = iota
	JoinMerge
	JoinNL
)

// String names the method.
func (m JoinMethod) String() string {
	switch m {
	case JoinMerge:
		return "merge"
	case JoinNL:
		return "nested-loops"
	default:
		return "auto"
	}
}

// Options control planning.
type Options struct {
	// TempJoin forces the join method inside temporary-table creation;
	// FinalJoin forces it for the final query's joins. JoinAuto (zero
	// value) chooses by cost. Forcing reproduces the four section 7.4
	// combinations.
	TempJoin, FinalJoin JoinMethod
	// TempTuplesPerPage sizes temp-table pages (0 = storage default).
	TempTuplesPerPage int
	// KeepTemps leaves the named temporary tables in the catalog and
	// store after Run so a harness can inspect them (as the paper prints
	// TEMP1/TEMP2/TEMP3 contents); call DropTemps when done.
	KeepTemps bool
	// Stats, when set, provides System R selectivity estimation for the
	// cost-based join choice ([SEL 79]); without it the planner uses raw
	// relation sizes.
	Stats *stats.Stats
	// Indexes, when set, lets the planner replace a sequential scan with
	// an index scan for selective single-column restrictions.
	Indexes *index.Registry
	// Parallelism enables the morsel-driven parallel operators: 0 or 1
	// keeps every plan sequential, n > 1 uses n workers, and a negative
	// value uses one worker per CPU. Parallel plans produce rows in
	// nondeterministic order, so the planner treats exchange output as
	// unsorted (no section 7.4 elisions above it).
	Parallelism int
	// ForceParallel bypasses the cost-model gate so even small inputs run
	// parallel plans — used by tests and the differential oracle to
	// exercise the parallel operators on tiny generated databases.
	ForceParallel bool
	// QC, when set, threads lifecycle governance (cancellation, deadline,
	// row and memory budgets) into every operator the planner builds.
	QC *qctx.QueryContext
	// Spill, when set, gives every buffering operator the planner builds
	// (sorts, hash builds, aggregations, merge-join groups) a per-query
	// spill session: a refused memory reservation degrades to run files
	// on disk instead of failing with ErrMemoryBudget.
	Spill *spill.Session
	// TempSuffix namespaces the physical names of this query's temporary
	// tables in the shared store and catalog (TEMP1 → TEMP1<suffix>), so
	// concurrent queries materializing the same logical TEMPn cannot
	// collide. Plan notes and EXPLAIN keep the logical names. Empty means
	// no namespacing (single-query tools, paper experiments).
	TempSuffix string
	// Sink, when set, streams the final query's rows in batches of
	// SinkBatchRows instead of materializing them: Run returns nil rows
	// and the sink's blocking becomes executor backpressure. Temporary
	// tables are still materialized — only the final pipeline streams.
	Sink exec.BatchSink
	// SinkBatchRows sizes Sink batches (0 = exec.DefaultBatchRows).
	SinkBatchRows int
}

// workers resolves the Parallelism option to a worker count; values <= 1
// disable parallel plans.
func (o Options) workers() int {
	if o.Parallelism < 0 {
		return runtime.NumCPU()
	}
	return o.Parallelism
}

// Planner plans and executes one transformed query. Single-use.
type Planner struct {
	cat   *schema.Catalog
	store *storage.Store
	opts  Options

	notes     []string
	tempNames []string          // physical temp-table names (catalog + store)
	dropLater []string          // anonymous materializations
	tempOrder map[string]string // logical temp name -> column it is sorted on
	physNames map[string]string // logical temp name (upper) -> physical name
	curFrom   []ast.TableRef    // FROM clause of the block being planned
}

// New creates a planner.
func New(cat *schema.Catalog, store *storage.Store, opts Options) *Planner {
	return &Planner{
		cat: cat, store: store, opts: opts,
		tempOrder: make(map[string]string),
		physNames: make(map[string]string),
	}
}

// physName maps a relation reference to its physical name: temporary
// tables materialized by this planner live under suffixed names when
// Options.TempSuffix is set; everything else resolves as written.
func (p *Planner) physName(name string) string {
	if phys, ok := p.physNames[strings.ToUpper(name)]; ok {
		return phys
	}
	return name
}

// Notes returns the plan decisions (join methods, sort eliminations) in
// execution order, for EXPLAIN.
func (p *Planner) Notes() []string { return p.notes }

func (p *Planner) notef(format string, args ...any) {
	p.notes = append(p.notes, fmt.Sprintf(format, args...))
}

// Run materializes the temporary tables in order and evaluates the final
// query, returning its rows and schema. Temporary tables are dropped
// before returning.
func (p *Planner) Run(res *transform.Result) (rows []storage.Tuple, sch exec.RowSchema, err error) {
	defer p.cleanup()
	for _, temp := range res.Temps {
		if err := p.buildTemp(temp); err != nil {
			return nil, nil, err
		}
	}
	final, err := p.planBlock(res.Query, p.opts.FinalJoin, "final")
	if err != nil {
		return nil, nil, err
	}
	p.notef("final plan:\n%s", exec.Describe(final.op))
	if p.opts.Sink != nil {
		if _, err := exec.DrainInto(final.op, p.opts.QC, p.opts.SinkBatchRows, p.opts.Sink); err != nil {
			return nil, nil, err
		}
		return nil, final.op.Schema(), nil
	}
	rows, err = exec.Drain(final.op, p.opts.QC)
	if err != nil {
		return nil, nil, err
	}
	return rows, final.op.Schema(), nil
}

// materialize drains op into an anonymous temp file under the query's
// memory budget. The file is registered for cleanup before it is filled,
// so a failed materialization is dropped with the rest at the end of Run.
func (p *Planner) materialize(op exec.Operator) (*storage.HeapFile, error) {
	f := p.store.CreateTemp(p.opts.TempTuplesPerPage)
	p.dropLater = append(p.dropLater, f.Name())
	return f, exec.MaterializeInto(op, f, p.opts.QC)
}

func (p *Planner) cleanup() {
	if !p.opts.KeepTemps {
		p.DropTemps()
	}
	for _, name := range p.dropLater {
		p.store.Drop(name)
	}
	p.dropLater = nil
}

// DropTemps removes the named temporary tables kept by KeepTemps.
func (p *Planner) DropTemps() {
	for _, name := range p.tempNames {
		p.store.Drop(name)
		p.cat.Drop(name)
	}
	p.tempNames = nil
}

// buildTemp plans a temp definition, materializes it under its name, and
// registers its schema so later definitions and the final query resolve.
func (p *Planner) buildTemp(temp transform.TempTable) error {
	plan, err := p.planBlock(temp.Def, p.opts.TempJoin, temp.Name)
	if err != nil {
		return err
	}
	phys := temp.Name + p.opts.TempSuffix
	file, err := p.store.Create(phys, p.opts.TempTuplesPerPage)
	if err != nil {
		return fmt.Errorf("planner: temp %s: %w", temp.Name, err)
	}
	p.tempNames = append(p.tempNames, phys)
	p.physNames[strings.ToUpper(temp.Name)] = phys
	rel := temp.Rel
	if phys != temp.Name {
		// Register the suffixed clone; the transform result keeps the
		// logical relation so query text and notes stay readable.
		clone := *temp.Rel
		clone.Name = phys
		rel = &clone
	}
	if err := p.cat.Define(rel); err != nil {
		return fmt.Errorf("planner: temp %s: %w", temp.Name, err)
	}
	p.notef("%s plan:\n%s", temp.Name, exec.Describe(plan.op))
	if err := exec.MaterializeInto(plan.op, file, p.opts.QC); err != nil {
		return err
	}
	if plan.sortedOn >= 0 && plan.sortedOn < len(temp.Rel.Columns) {
		// The temp is stored in this column's order (section 7.4's sort
		// eliminations carry across materialization).
		p.tempOrder[temp.Name] = temp.Rel.Columns[plan.sortedOn].Name
	}
	p.notef("%s materialized: %d tuples, %d pages", temp.Name, file.NumTuples(), file.NumPages())
	return nil
}

// input tracks a planned subtree with its cost-model statistics.
type input struct {
	op     exec.Operator
	pages  float64
	tuples float64
	// sortedOn is the column position the stream is known to be ordered
	// by (-1 when unknown), enabling the section 7.4 sort eliminations.
	sortedOn int
}

// planBlock compiles one canonical query block (no nesting except
// constant type-A subqueries, which are evaluated here).
func (p *Planner) planBlock(qb *ast.QueryBlock, force JoinMethod, label string) (input, error) {
	if err := p.foldConstantSubqueries(qb); err != nil {
		return input{}, err
	}

	conjs := append([]ast.Predicate(nil), qb.Where...)
	used := make([]bool, len(conjs))
	p.curFrom = qb.From

	cur, err := p.accessPath(qb.From[0], conjs, used, label)
	if err != nil {
		return input{}, err
	}
	cur, err = p.applyLocal(cur, conjs, used)
	if err != nil {
		return input{}, err
	}

	for _, tr := range qb.From[1:] {
		right, err := p.accessPath(tr, conjs, used, label)
		if err != nil {
			return input{}, err
		}
		cur, err = p.join(cur, right, conjs, used, force, label)
		if err != nil {
			return input{}, err
		}
		cur, err = p.applyLocal(cur, conjs, used)
		if err != nil {
			return input{}, err
		}
	}
	for i, c := range conjs {
		if used[i] {
			continue
		}
		if ip, ok := c.(*ast.InPred); ok && ip.Negated {
			cur, err = p.antiJoin(cur, ip, qb.From, label)
			if err != nil {
				return input{}, err
			}
			used[i] = true
			continue
		}
		return input{}, fmt.Errorf("planner: conjunct %s references no plannable input", c)
	}
	return p.finish(cur, qb, label)
}

// foldConstantSubqueries replaces uncorrelated scalar subqueries (type-A
// remnants) with their value, evaluated once by nested iteration — the
// System R treatment of type-A nesting.
func (p *Planner) foldConstantSubqueries(qb *ast.QueryBlock) error {
	var ev *exec.Evaluator
	for _, conj := range qb.Where {
		cmp, ok := conj.(*ast.Comparison)
		if !ok {
			continue
		}
		for _, side := range []*ast.Expr{&cmp.Left, &cmp.Right} {
			sq, ok := (*side).(*ast.Subquery)
			if !ok {
				continue
			}
			if ast.IsCorrelated(sq.Block) {
				return fmt.Errorf("planner: residual correlated subquery %s", sq)
			}
			if ev == nil {
				ev = exec.NewEvaluator(p.cat, p.store)
				ev.MapName = p.physName
				defer ev.Close()
			}
			rows, _, err := ev.EvalQuery(sq.Block)
			if err != nil {
				return err
			}
			v := value.Null
			switch len(rows) {
			case 0:
			case 1:
				v = rows[0][0]
			default:
				return fmt.Errorf("planner: constant subquery returned %d rows", len(rows))
			}
			*side = ast.Const{Val: v}
			p.notef("type-A subquery evaluated to constant %s", v)
		}
	}
	return nil
}

// accessPath chooses between a sequential scan and an index scan for one
// FROM entry. An index scan is picked when an unused conjunct restricts an
// indexed column of this table with a supported operator and the covered
// index pages plus the matching base pages cost clearly less than a full
// scan; the conjunct is then consumed by the access path.
func (p *Planner) accessPath(tr ast.TableRef, conjs []ast.Predicate, used []bool, label string) (input, error) {
	seq, err := p.scanInput(tr)
	if err != nil {
		return input{}, err
	}
	if p.opts.Indexes == nil {
		return seq, nil
	}
	scan, ok := seq.op.(*exec.SeqScan)
	if !ok {
		return seq, nil
	}
	for i, c := range conjs {
		if used[i] {
			continue
		}
		col, op, key, ok := indexableConjunct(c, tr.Binding())
		if !ok {
			continue
		}
		idx := p.opts.Indexes.On(tr.Relation, col)
		if idx == nil {
			continue
		}
		matches, ok := idx.EstimateMatches(op, key)
		if !ok {
			continue
		}
		idxCost := float64(1 + matches/max(1, scan.File.TuplesPerPage()*4) + min(matches, scan.File.NumPages()))
		if idxCost >= 0.8*seq.pages {
			continue
		}
		used[i] = true
		p.notef("%s: index scan on %s.%s (%s %s, ~%d matches)",
			label, tr.Relation, col, op, key, matches)
		rel, _ := p.cat.Lookup(tr.Relation)
		sortedOn := rel.ColumnIndex(col)
		return input{
			op:       &exec.IndexScan{Idx: idx, Sch: scan.Schema(), Op: op, Key: key},
			pages:    idxCost,
			tuples:   float64(matches),
			sortedOn: sortedOn,
		}, nil
	}
	return seq, nil
}

// indexableConjunct recognizes `binding.col op const` (either orientation)
// for operators an index supports.
func indexableConjunct(c ast.Predicate, binding string) (col string, op value.CompareOp, key value.Value, ok bool) {
	cmp, isCmp := c.(*ast.Comparison)
	if !isCmp || cmp.LeftOuter || cmp.Op == value.OpNe {
		return "", 0, value.Null, false
	}
	if lc, lok := cmp.Left.(ast.ColumnRef); lok {
		if k, kok := cmp.Right.(ast.Const); kok && strings.EqualFold(lc.Table, binding) {
			return lc.Column, cmp.Op, k.Val, true
		}
	}
	if rc, rok := cmp.Right.(ast.ColumnRef); rok {
		if k, kok := cmp.Left.(ast.Const); kok && strings.EqualFold(rc.Table, binding) {
			return rc.Column, cmp.Op.Flip(), k.Val, true
		}
	}
	return "", 0, value.Null, false
}

// scanInput builds a sequential scan of one FROM entry. Temp-table
// references resolve through the logical→physical name map so concurrent
// queries read their own materializations.
func (p *Planner) scanInput(tr ast.TableRef) (input, error) {
	name := p.physName(tr.Relation)
	rel, ok := p.cat.Lookup(name)
	if !ok {
		return input{}, fmt.Errorf("planner: unknown relation %s", tr.Relation)
	}
	file, ok := p.store.Lookup(name)
	if !ok {
		return input{}, fmt.Errorf("planner: no stored relation %s", tr.Relation)
	}
	scan := exec.NewSeqScan(file, tr.Binding(), rel.ColumnNames())
	scan.QC = p.opts.QC
	sortedOn := -1
	if col, ok := p.tempOrder[tr.Relation]; ok {
		sortedOn = rel.ColumnIndex(col)
	}
	return input{
		op:       scan,
		pages:    float64(file.NumPages()),
		tuples:   float64(file.NumTuples()),
		sortedOn: sortedOn,
	}, nil
}

// applyLocal attaches every still-unused conjunct evaluable over the
// current schema as a filter.
func (p *Planner) applyLocal(in input, conjs []ast.Predicate, used []bool) (input, error) {
	var local []ast.Predicate
	for i, c := range conjs {
		if used[i] || hasOuterFlag(c) {
			continue
		}
		if predCompilable(c, in.op.Schema()) {
			local = append(local, c)
			used[i] = true
		}
	}
	if len(local) == 0 {
		return in, nil
	}
	pred, err := exec.CompileConjuncts(local, in.op.Schema())
	if err != nil {
		return input{}, err
	}
	in.op = &exec.Filter{Child: in.op, Pred: pred}
	if p.opts.Stats != nil {
		sel := 1.0
		for _, c := range local {
			sel *= p.opts.Stats.Selectivity(c, p.curFrom)
		}
		in.tuples *= sel
		if in.pages = in.pages * sel; in.pages < 1 {
			in.pages = 1
		}
	}
	return in, nil
}

func hasOuterFlag(p ast.Predicate) bool {
	cmp, ok := p.(*ast.Comparison)
	return ok && cmp.LeftOuter
}

// predCompilable reports whether every column the predicate references is
// available in the schema (and it contains no subquery).
func predCompilable(p ast.Predicate, sch exec.RowSchema) bool {
	if len(ast.SubqueriesOf(p)) > 0 {
		return false
	}
	holder := &ast.QueryBlock{Where: []ast.Predicate{p}}
	for _, ref := range holder.LocalColumnRefs() {
		if sch.Index(ref) < 0 {
			return false
		}
	}
	return true
}
