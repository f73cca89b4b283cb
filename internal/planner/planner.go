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
	"cmp"
	"fmt"
	"math"
	"strings"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/qctx"
	"repro/internal/schema"
	"repro/internal/spill"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
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
	// KeepTemps materializes every temporary table, those that would stream
	// or be held in memory too, and keeps them after Run so a harness can
	// read them through Temp (as the paper prints TEMP1/TEMP2/TEMP3
	// contents); call DropTemps when done.
	KeepTemps bool
	// Stats, when set, provides System R selectivity estimation for the
	// cost-based join choice ([SEL 79]); without it the planner uses raw
	// relation sizes.
	Stats *stats.Stats
	// Indexes, when set, lets the planner replace a sequential scan with
	// an index scan for selective single-column restrictions.
	Indexes *index.Registry
	// Parallelism enables the morsel-driven parallel operators: n > 1
	// uses n workers, anything less keeps every plan sequential. Only
	// callers inside the module set it (TestOneParallelSwitch). Parallel
	// plans produce rows in nondeterministic order, so the planner treats
	// exchange output as unsorted (no section 7.4 elisions above it).
	Parallelism int
	// ForceParallel bypasses the cost-model gate so even small inputs run
	// parallel plans — used by tests and the differential oracle to
	// exercise the parallel operators on tiny generated databases.
	ForceParallel bool
	// QC, when set, threads lifecycle governance (cancellation, deadline,
	// row and memory budgets) into every operator the planner builds.
	QC *qctx.QueryContext
	// Spill, when set, gives the operators the planner builds that can
	// spill (sorts and merge-join groups) a per-query spill session: a
	// refused memory reservation degrades to run files on disk instead of
	// failing with ErrMemoryBudget. Hash joins and hash aggregation always
	// hard-charge.
	Spill *spill.Session
	// TempSuffix is ignored. A query's temporary tables are the planner's
	// own anonymous files, never in the shared catalog, so they need no
	// per-query name; the field stays only for callers that still set it.
	TempSuffix string
	// Sink, when set, streams the final query's rows in batches of
	// SinkBatchRows instead of materializing them: Run returns nil rows
	// and the sink's blocking becomes executor backpressure.
	Sink exec.BatchSink
	// SinkBatchRows sizes Sink batches (0 = exec.DefaultBatchRows).
	SinkBatchRows int
	// AsPaper keeps the plan the paper costs in section 7: every external
	// sort writes its last merge pass as one run and reads it back
	// (exec.Sort.WriteLastPass) instead of merging its last runs as the
	// consumer pulls, and materializes every temporary table. Only
	// cmd/benchpaper sets it, so that E1–E12, model fit and the ablations
	// keep printing the paper's page I/Os.
	AsPaper bool
}

// Planner plans and executes one transformed query. Single-use.
type Planner struct {
	// Trace collects the plan decisions (join methods, sort eliminations)
	// and plan outlines in execution order, for EXPLAIN. A caller may seed
	// it with the events recorded before planning, so that one slice holds
	// the query's whole trace.
	Trace []trace.Event

	cat   *schema.Catalog
	store *storage.Store
	opts  Options

	temps   []temp         // materialized files and held-back temps, in order
	curFrom []ast.TableRef // FROM clause of the block being planned
	// heldPages is what the temps held in memory would fill as files.
	heldPages int
}

// temp is one anonymous store file the planner materialized. A named one
// is a TEMPn of the transformed query: its name resolves in this planner
// only, never through the shared catalog, and sortedOn is the column its
// rows are stored in order of (-1 when none), so section 7.4's sort
// eliminations carry across materialization, as does a DISTINCT temp's
// unique. An unnamed one is a join's right side or a re-scanned inner. A temp
// Run holds back to stream has its definition in def and no file; one it
// holds in memory has its rows in held, no file, and readers, the FROM
// entries naming it that are still to be planned.
type temp struct {
	name     string
	rel      *schema.Relation
	file     *storage.HeapFile
	sortedOn int
	unique   bool
	def      *ast.QueryBlock
	held     *exec.Resident
	readers  int
}

// New creates a planner. Under a SpillForced query context it plans the
// paper's section 7 plan, whose every buffer can spill: joins left to cost
// sort-merge and nothing runs in parallel, since hash operators never
// spill. A caller-forced join method is kept.
func New(cat *schema.Catalog, store *storage.Store, opts Options) *Planner {
	if opts.QC.SpillPolicy() == qctx.SpillForced {
		opts.TempJoin, opts.FinalJoin = cmp.Or(opts.TempJoin, JoinMerge), cmp.Or(opts.FinalJoin, JoinMerge)
		opts.Parallelism = 0
	}
	return &Planner{cat: cat, store: store, opts: opts}
}

// Temp looks a temporary table of this query up by name, as the catalog
// would, and returns its relation and file. The planner holds its temps
// during Run and, under KeepTemps, after it until DropTemps. A temp Run
// streams into its reader or holds in memory has no file and is not found.
func (p *Planner) Temp(name string) (*schema.Relation, *storage.HeapFile, bool) {
	if t := p.temp(name); t != nil && t.file != nil {
		return t.rel, t.file, true
	}
	return nil, nil, false
}

func (p *Planner) temp(name string) *temp {
	for i := range p.temps {
		if strings.EqualFold(p.temps[i].name, name) {
			return &p.temps[i]
		}
	}
	return nil
}

// note records a plan decision of block label.
func (p *Planner) note(label string, e trace.Event) {
	e.Label = label
	p.Trace = append(p.Trace, e)
}

// Run builds the temporary tables in order, holding back those that
// stream, and evaluates the final query, returning its rows and schema.
// Temporary tables are dropped, and those held in memory released, before
// returning.
func (p *Planner) Run(res *transform.Result) (rows []storage.Tuple, sch exec.RowSchema, err error) {
	defer p.cleanup()
	for i, tt := range res.Temps {
		if p.streams(res, i) {
			p.temps = append(p.temps, temp{name: tt.Name, rel: tt.Rel, def: tt.Def})
			continue
		}
		if err := p.buildTemp(tt, p.holds(res, i)); err != nil {
			return nil, nil, err
		}
	}
	final, err := p.planBlock(res.Query, p.opts.FinalJoin, "final")
	if err != nil {
		return nil, nil, err
	}
	p.note("final", trace.Event{Kind: trace.Plan, Plan: exec.Snapshot(final.op)})
	if p.opts.Sink != nil {
		if err := exec.DrainInto(final.op, p.opts.QC, p.opts.SinkBatchRows, p.opts.Sink); err != nil {
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
	f := p.createTemp()
	return f, exec.MaterializeInto(op, f, p.opts.QC)
}

// createTemp makes an anonymous temp file, registered for cleanup.
func (p *Planner) createTemp() *storage.HeapFile {
	f := p.store.CreateTemp(p.opts.TempTuplesPerPage)
	p.temps = append(p.temps, temp{file: f, sortedOn: -1})
	return f
}

// cleanup drops every materialized file, except the named temps under
// KeepTemps, and releases the temps held in memory.
func (p *Planner) cleanup() {
	kept := p.temps[:0]
	for _, t := range p.temps {
		switch {
		case t.name != "" && p.opts.KeepTemps:
			kept = append(kept, t)
		case t.file != nil:
			p.store.Drop(t.file.Name())
		case t.held != nil:
			t.held.Release(p.opts.QC)
		}
	}
	clear(p.temps[len(kept):])
	p.temps, p.heldPages = kept, 0
}

// DropTemps drops the temporary tables kept by KeepTemps.
func (p *Planner) DropTemps() {
	p.opts.KeepTemps = false
	p.cleanup()
}

// buildTemp plans a temp definition and builds it, so that later
// definitions and the final query resolve its name: held in memory for its
// readers (holds) when there are any, the temps held so far leave room for
// it in B−1 pages and the memory budget grants its bytes, else
// materialized in its file.
func (p *Planner) buildTemp(tt transform.TempTable, readers int) error {
	plan, err := p.planBlock(tt.Def, p.opts.TempJoin, tt.Name)
	if err != nil {
		return err
	}
	p.note(tt.Name, trace.Event{Kind: trace.Plan, Plan: exec.Snapshot(plan.op)})
	t := temp{name: tt.Name, rel: tt.Rel, sortedOn: -1, unique: plan.unique, readers: readers}
	if plan.sortedOn < len(tt.Rel.Columns) {
		t.sortedOn = plan.sortedOn
	}
	if room := p.store.BufferPages() - 1 - p.heldPages; readers > 0 && room > 0 {
		t.held, err = exec.Hold(plan.op, room*p.tempPage(), p.opts.QC, p.createTemp)
	} else {
		_, err = p.materialize(plan.op)
	}
	if err != nil {
		return err
	}
	if t.held != nil {
		pages := int(p.pages(float64(t.held.Len())))
		p.heldPages += pages
		p.temps = append(p.temps, t)
		p.note(tt.Name, trace.Event{Kind: trace.Resident, N: int64(t.held.Len()), M: int64(pages)})
		return nil
	}
	f := &p.temps[len(p.temps)-1]
	t.file = f.file
	*f = t
	p.note(tt.Name, trace.Event{Kind: trace.Materialized, N: int64(t.file.NumTuples()), M: int64(t.file.NumPages())})
	return nil
}

// streams reports whether temp i of res is a restriction temp read once,
// which its reader plans as its own subtree (scanInput) instead of paying
// section 7's write and read-back: its definition neither aggregates,
// groups, removes duplicates nor orders, and the later blocks name it
// once, in their own FROM, never in a subquery (which the constant-subquery
// evaluator reads through Temp). AsPaper and KeepTemps materialize all.
func (p *Planner) streams(res *transform.Result, i int) bool {
	def := res.Temps[i].Def
	if p.opts.AsPaper || p.opts.KeepTemps || def.HasAggregate() || len(def.GroupBy) > 0 || def.Distinct || len(def.OrderBy) > 0 {
		return false
	}
	final, temps, nested := readers(res, i)
	return final+temps == 1 && nested == 0
}

// holds reports how many FROM entries read temp i of res when it may be
// held in memory instead of written to its file, and 0 when it may not.
// It may when the later blocks name it only in their own FROM, as streams
// requires, none of them under a forced nested-loops join (whose right
// side must be a file), and the plan is neither the paper's (AsPaper) nor
// kept (KeepTemps). A query forced to spill holds none either: SpillForced
// refuses every grant, so Hold writes each temp's file from its first row.
func (p *Planner) holds(res *transform.Result, i int) int {
	final, temps, nested := readers(res, i)
	if p.opts.AsPaper || p.opts.KeepTemps || nested > 0 ||
		(final > 0 && p.opts.FinalJoin == JoinNL) || (temps > 0 && p.opts.TempJoin == JoinNL) {
		return 0
	}
	return final + temps
}

// readers counts the FROM entries naming temp i of res in the blocks after
// it: in the final query's own FROM, in the later temps' own FROM, and in
// the blocks nested in either.
func readers(res *transform.Result, i int) (final, temps, nested int) {
	name := res.Temps[i].Name
	final, nested = refs(res.Query, name)
	for _, later := range res.Temps[i+1:] {
		f, n := refs(later.Def, name)
		temps, nested = temps+f, nested+n
	}
	return final, temps, nested
}

// refs counts the FROM entries naming relation name in qb itself, and in
// the blocks nested in it at any depth.
func refs(qb *ast.QueryBlock, name string) (from, nested int) {
	ast.VisitBlocks(qb, func(b *ast.QueryBlock, depth int) bool {
		for _, tr := range b.From {
			if !strings.EqualFold(tr.Relation, name) {
				continue
			}
			if depth == 0 {
				from++
			} else {
				nested++
			}
		}
		return true
	})
	return from, nested
}

// stream plans a held-back temp's definition where its one reader reads
// it, naming the columns binding.column as a scan of its file would, and
// sizes it in the pages that file would have had, so the reader's join
// choice (section 7's B−1 rule) sees what a materialized temp would show.
// t is a copy: planning may append to p.temps.
func (p *Planner) stream(t temp, binding, label string) (input, error) {
	in, err := p.planBlock(t.def, p.opts.TempJoin, t.name)
	if err != nil {
		return input{}, err
	}
	proj := in.op.(*exec.Project) // streams admits no grouping, DISTINCT or ORDER BY
	proj.Sch = make(exec.RowSchema, len(t.rel.Columns))
	for i, c := range t.rel.Columns {
		proj.Sch[i] = exec.ColID{Table: binding, Column: c.Name}
	}
	in.pages = p.pages(in.tuples)
	p.note(label, trace.Event{Kind: trace.Streamed, Text: t.name, N: int64(in.tuples), M: int64(in.pages)})
	return in, nil
}

// tempPage is the tuples a temp file's page holds.
func (p *Planner) tempPage() int {
	return cmp.Or(max(p.opts.TempTuplesPerPage, 0), storage.DefaultTuplesPerPage)
}

// pages is the size in pages of a temp file of the given tuples.
func (p *Planner) pages(tuples float64) float64 { return math.Ceil(tuples / float64(p.tempPage())) }

// input tracks a planned subtree with its cost-model statistics.
type input struct {
	op     exec.Operator
	pages  float64
	tuples float64
	// sortedOn is the column position the stream is known to be ordered
	// by (-1 when unknown), enabling the section 7.4 sort eliminations.
	sortedOn int
	// unique: no two rows are equal on all of the columns (DISTINCT).
	unique bool
}

// planBlock compiles one canonical query block (no nesting except
// constant type-A subqueries, which are evaluated here). A block planned
// inside another (a streamed temp, a quantified join's inner) leaves curFrom
// as it found it.
func (p *Planner) planBlock(qb *ast.QueryBlock, force JoinMethod, label string) (input, error) {
	conjs := append([]ast.Predicate(nil), qb.Where...)
	if err := p.foldConstantSubqueries(conjs); err != nil {
		return input{}, err
	}
	used := make([]bool, len(conjs))
	defer func(from []ast.TableRef) { p.curFrom = from }(p.curFrom)
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
		// Restrict the right side first: for NEST-JA2's outer joins that is
		// a correctness requirement, not an optimization (section 5.2).
		if right, err = p.applyLocal(right, conjs, used); err != nil {
			return input{}, err
		}
		joinConjs, outer := joinConjuncts(cur, right, conjs, used)
		if in, ok := p.groupJoin(cur, right, joinConjs, outer, qb, used, force, label); ok {
			return in, nil
		}
		if cur, err = p.join(cur, right, joinConjs, outer, force, nil, label); err != nil {
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
		if q, sub, x := quantifier(c); q != nil {
			cur, err = p.quantifiedJoin(cur, q, sub, x, force, label)
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

// foldConstantSubqueries replaces each conjunct comparing with an
// uncorrelated scalar subquery (a type-A remnant) by one comparing with its
// value, evaluated once by nested iteration — the System R treatment of
// type-A nesting. The block's own predicates are left as the transformation
// produced them, which its steps print.
func (p *Planner) foldConstantSubqueries(conjs []ast.Predicate) error {
	var ev *exec.Evaluator
	for i, conj := range conjs {
		cmp, ok := conj.(*ast.Comparison)
		if !ok {
			continue
		}
		_, left := cmp.Left.(*ast.Subquery)
		if _, right := cmp.Right.(*ast.Subquery); !left && !right {
			continue
		}
		folded := *cmp
		for _, side := range []*ast.Expr{&folded.Left, &folded.Right} {
			sq, ok := (*side).(*ast.Subquery)
			if !ok {
				continue
			}
			if ast.IsCorrelated(sq.Block) {
				return fmt.Errorf("planner: residual correlated subquery %s", sq)
			}
			if ev == nil {
				ev = exec.NewEvaluator(p.cat, p.store)
				ev.Temps = p.Temp
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
			conjs[i] = &folded
			p.note("", trace.Event{Kind: trace.Constant, Detail: &trace.Detail{Val: v}})
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
	seq, err := p.scanInput(tr, label)
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
		p.note(label, trace.Event{Kind: trace.IndexScan, Cols: []exec.ColID{{Table: tr.Relation, Column: col}},
			Op: op, N: int64(matches), Detail: &trace.Detail{Val: key}})
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

// scanInput builds a sequential scan of one FROM entry. A name resolves
// against this query's temps first, then the catalog, as transform's
// lookupRel does; a held-back temp plans as its definition's subtree, and
// one held in memory as a scan of its rows, sized as its file would be.
func (p *Planner) scanInput(tr ast.TableRef, label string) (input, error) {
	t := p.temp(tr.Relation)
	if t != nil && t.def != nil {
		return p.stream(*t, tr.Binding(), label)
	}
	if t != nil && t.held != nil {
		if t.readers--; t.readers == 0 {
			t.held.Unreserve(p.opts.QC)
		}
		n := float64(t.held.Len())
		scan := exec.NewResidentScan(t.held, tr.Binding(), t.rel.ColumnNames())
		scan.QC, scan.Name = p.opts.QC, t.name
		return input{op: scan, pages: p.pages(n), tuples: n, sortedOn: t.sortedOn, unique: t.unique}, nil
	}
	if t == nil {
		rel, ok := p.cat.Lookup(tr.Relation)
		if !ok {
			return input{}, fmt.Errorf("planner: unknown relation %s", tr.Relation)
		}
		file, ok := p.store.Lookup(tr.Relation)
		if !ok {
			return input{}, fmt.Errorf("planner: no stored relation %s", tr.Relation)
		}
		t = &temp{rel: rel, file: file, sortedOn: -1}
	}
	scan := exec.NewSeqScan(t.file, tr.Binding(), t.rel.ColumnNames())
	scan.QC, scan.Name = p.opts.QC, t.name
	return input{
		op:       scan,
		pages:    float64(t.file.NumPages()),
		tuples:   float64(t.file.NumTuples()),
		sortedOn: t.sortedOn,
		unique:   t.unique,
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
	for _, ref := range ast.PredicateRefs(p) {
		if sch.Index(ref) < 0 {
			return false
		}
	}
	return true
}
