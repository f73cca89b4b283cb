package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

// The traced pass produces the per-layer ledger. It spends the run's
// seconds on an untraced segment (engine.Query or Conn.Collect exactly
// as the end-to-end pass runs them: the base every share is taken of),
// a traced segment (the same ops through the layer-by-layer replay,
// with spans), and then the fixed-work unit probes.
const (
	untracedShare = 0.3
	tracedShare   = 0.4
)

func usPerOp(total time.Duration, ops int64) float64 {
	return float64(total) / float64(time.Microsecond) / float64(max(ops, 1))
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func tracedPass(cfg runConfig, spec *workloadSpec, e *env, p *plan, inst instance) (*report, error) {
	out := make(map[string]float64)
	epoch := time.Now()
	clients := newClients(cfg, spec.clients, epoch)
	for _, c := range clients {
		c.keepTimes = true
	}

	// Untraced segment.
	base := runRound(inst, p, clients, time.Duration(cfg.seconds*untracedShare*float64(time.Second)), cfg.cycles, false)
	var spillRuns int64
	var spillKB float64
	var wireBytes int64
	for _, c := range clients {
		spillRuns, spillKB, wireBytes = spillRuns+c.spillRuns, spillKB+c.spillKB, wireBytes+c.wireBytes
	}
	ops := float64(max(base.ops, 1))
	untracedUS := mean(base.lat) * 1000
	out["storage.page_reads_per_op"] = float64(base.pageIO.Reads) / ops
	out["storage.page_writes_per_op"] = float64(base.pageIO.Writes) / ops
	out["spill.runs_per_op"] = float64(spillRuns) / ops
	out["spill.kb_per_op"] = spillKB / ops
	out["wire.bytes_per_op"] = float64(wireBytes) / ops
	out["go.gc_cycles_per_kop"] = float64(base.gcCycles) / ops * 1000
	out["go.gc_pause_ms_total"] = float64(base.gcPause) / float64(time.Millisecond)
	out["op_p99_ms"] = percentile(base.lat, 99)
	out["op_max_ms"] = percentile(base.lat, 100)
	if srv, ok := inst.(*serverInst); ok {
		srv.checkpointMetrics(out, clients)
		if st := srv.db.Admission().Stats(); st.Admitted+st.Shed > 0 {
			out["admission.shed_ratio"] = float64(st.Shed) / float64(st.Admitted+st.Shed)
		}
		out["client.dial_us"] = float64(srv.dial) / float64(time.Microsecond)
	}

	// Traced segment.
	for _, c := range clients {
		c.keepTimes = false
	}
	traced := runRound(inst, p, clients, time.Duration(cfg.seconds*tracedShare*float64(time.Second)), cfg.cycles, true)
	tracers := make([]*tracer, len(clients))
	for i, c := range clients {
		tracers[i] = c.tr
	}
	totals, counts, spans := mergeTracers(tracers)
	path, err := writeSpans(cfg.traceDir, spec.name, spans)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(cfg.log, "%s: traced %d ops, %d spans kept in %s\n", spec.name, traced.ops, len(spans), path)
	spanNames := make([]string, 0, len(totals))
	for name := range totals {
		spanNames = append(spanNames, name)
	}
	sort.Strings(spanNames)
	for _, name := range spanNames {
		lt := totals[name]
		fmt.Fprintf(cfg.log, "  span %-32s %8d x  mean %10.1f us  self %10.1f us  longest %10.1f us\n", name, lt.Count,
			usPerOp(lt.Total, lt.Count), usPerOp(lt.Self, lt.Count), usPerOp(lt.Longest, 1))
	}

	// total sums the spans named prefix or prefix.<class>.
	total := func(prefix string) (d time.Duration, n int64) {
		for name, lt := range totals {
			if name == prefix || strings.HasPrefix(name, prefix+".") {
				d, n = d+lt.Total, n+lt.Count
			}
		}
		return d, n
	}
	reads := func(prefix string) (d time.Duration, n int64) {
		d, n = total(prefix)
		ins, m := total(prefix + ".insert")
		return d - ins, n - m
	}
	// The stage spans come from the staged pipeline, which replays every
	// read op right after the real call: engine.Query in process, the
	// shadow engine.Query on the twin behind a network. Means are over
	// the ops that were staged, so each share compares like with like.
	_, stagedOps := total("staged.query")
	stage := func(name string) float64 { d, _ := total(name); return usPerOp(d, stagedOps) }
	front := 0.0
	for metric, name := range map[string]string{
		"sqlparser.parse_us_per_op":  "sqlparser.parse",
		"schema.resolve_us_per_op":   "schema.resolve",
		"classify.profile_us_per_op": "classify.profile",
		"transform.nest_us_per_op":   "transform.nest",
	} {
		out[metric] = stage(name)
		front += out[metric]
	}
	out["planner.run_us_per_op"] = stage("planner.run")
	if _, n := total("transform.nest"); n > 0 {
		fell := 0
		for _, c := range clients {
			fell += c.fellBack
		}
		out["transform.temps_per_op"] = float64(counts["transform.temps"]) / float64(n)
		out["transform.fallback_ratio"] = float64(fell) / float64(n)
	}

	root, rootOps := total("engine.query")
	engineUS := usPerOp(root, rootOps)
	if collect, collected := total("client.collect"); collected > 0 {
		root, rootOps = collect, collected
		engineUS = usPerOp(reads("shadow.engine.query"))
		out["client.collect_us_per_op"] = usPerOp(collect, collected)
		// What the server fronts: an engine, or a coordinator. Either
		// way both sides of the subtraction average the same statements.
		client, behind := usPerOp(collect, collected), usPerOp(total("shadow.engine.query"))
		if d, n := total("shadow.cluster.exec"); n > 0 {
			client, behind = usPerOp(reads("client.collect")), usPerOp(d, n)
		}
		out["server.transport_us_per_op"] = client - behind
		out["server.transport_share"] = (client - behind) / client
	}
	out["engine.query_us_per_op"] = engineUS
	out["engine.self_us_per_op"] = engineUS - front - out["planner.run_us_per_op"] - stage("exec.nestediter")
	out["engine.frontend_share"] = front / engineUS
	// The same call with the tracer on, against the untraced segment.
	out["trace.overhead_ratio"] = usPerOp(root, rootOps) / untracedUS

	if cl, ok := inst.(*clusterInst); ok {
		if err := cl.clusterMetrics(out, total); err != nil {
			return nil, err
		}
	}
	finishErr := inst.finish()
	if srv, ok := inst.(*serverInst); ok && srv.walDir != "" {
		out["wal.recovery_ms"] = float64(srv.rec.took) / float64(time.Millisecond)
		out["wal.recovery_records"] = float64(srv.rec.records)
		out["wal.bytes_per_user_byte"] = float64(srv.rec.walBytes) / float64(max(srv.rec.userBytes, 1))
	}
	if cl, ok := inst.(*clusterInst); ok && finishErr == nil {
		finishErr = cl.rejoinMetrics(out)
	}

	// The workload's own widest result feeds the wire probe.
	var wide opResult
	for i := range p.ops {
		if p.ops[i].class == "wide" {
			wide, _ = engineResult(e, p.ops[i])
		}
	}
	probed, err := runProbes(e, wide)
	if err != nil {
		return nil, fmt.Errorf("unit probes: %w", err)
	}
	for name, v := range probed {
		if _, measured := out[name]; !measured { // the workload's own dial time wins over the probe's
			out[name] = v
		}
	}
	for name, v := range countLines(cfg.repoRoot) {
		out[name] = v
	}

	rep := &report{Attempted: base.ops + traced.ops, Failed: base.failed + traced.failed, Metrics: make(map[string]metric)}
	if finishErr != nil {
		fmt.Fprintf(cfg.log, "%s: post-run check failed: %v\n", spec.name, finishErr)
		rep.Failed = rep.Attempted
	}
	for _, c := range clients {
		if c.firstErr != "" {
			fmt.Fprintf(cfg.log, "%s: client %d first failure: %s\n", spec.name, c.id, c.firstErr)
		}
	}
	rep.Correct = rep.Failed == 0
	out["failed_ratio"] = float64(rep.Failed) / float64(max(rep.Attempted, 1))
	out["peak_rss_mb"] = peakRSSMiB()
	out["machine.kernel_ms"] = median(append(base.kernel, traced.kernel...)) / float64(time.Millisecond)
	for _, m := range perLayer {
		rep.Metrics[m.name] = metric{Value: out[m.name], Unit: m.unit}
	}
	return rep, nil
}

// engineResult runs an op once on a fresh single-node engine.
func engineResult(e *env, o op) (opResult, error) {
	db := engine.New(bufferPages)
	if err := loadServeRead(e, db); err != nil {
		return opResult{}, err
	}
	res, err := db.Query(o.sql, engine.Options{Strategy: o.strat})
	if err != nil {
		return opResult{}, err
	}
	return opResult{cols: res.Columns, rows: res.Rows}, nil
}

// checkpointMetrics reports serve_write's in-line checkpoints: their
// mean length, and the longest op of another client that overlapped one
// — what the exclusive commit lock cost a concurrent caller.
func (in *serverInst) checkpointMetrics(out map[string]float64, clients []*clientState) {
	in.ckpt.mu.Lock()
	defer in.ckpt.mu.Unlock()
	var lens []float64
	stall := 0.0
	for _, ck := range in.ckpt.spans {
		lens = append(lens, float64(ck[1].Sub(ck[0]))/float64(time.Millisecond))
		for _, c := range clients {
			for _, iv := range c.times {
				if iv[0].Before(ck[1]) && iv[1].After(ck[0]) {
					stall = max(stall, float64(iv[1].Sub(iv[0]))/float64(time.Millisecond))
				}
			}
		}
	}
	out["wal.checkpoint_ms"] = mean(lens)
	out["wal.checkpoint_stall_ms"] = stall
}

// clusterMetrics derives the cluster ledger from the shadow spans.
func (in *clusterInst) clusterMetrics(out map[string]float64, total func(string) (time.Duration, int64)) error {
	direct, n := total("shadow.cluster.exec")
	single, m := total("shadow.engine.query")
	out["cluster.exec_us_per_op"] = usPerOp(direct, n)
	out["cluster.coord_overhead_ratio"] = usPerOp(direct, n) / usPerOp(single, m)
	colo, n := total("shadow.cluster.exec.colocated")
	out["cluster.colocated_us_per_op"] = usPerOp(colo, n)
	shuffle, n := total("shadow.cluster.exec.shuffle")
	out["cluster.shuffle_us_per_op"] = usPerOp(shuffle, n)
	// Every shuffle op re-partitions all of SPX.
	if shuffle > 0 {
		out["cluster.shuffle_rows_per_s"] = float64(in.shipments) * float64(n) / shuffle.Seconds()
	}
	out["cluster.load_rows_per_s"] = float64(in.rows) / in.loaded.Seconds()

	// Routed single-row commits at R=2, straight into the coordinator.
	const commits = 50
	t0 := time.Now()
	for i := 0; i < commits; i++ {
		sql, rows := in.acks[0].insertSQL(ackTable, 0, 1, 2)
		if _, err := in.co.ExecSQL(sql, engine.Options{}); err != nil {
			return fmt.Errorf("replicated commit probe: %w", err)
		}
		in.acks[0].acked(rows)
	}
	out["cluster.replicated_commit_us"] = usPerOp(time.Since(t0), commits)

	lo, hi := int64(0), int64(0)
	for i, g := range in.co.GatherCounts() {
		if i == 0 || g < lo {
			lo = g
		}
		hi = max(hi, g)
	}
	out["cluster.gather_skew"] = float64(hi) / float64(max(lo, 1))
	return nil
}

// rejoinMetrics kills worker 1, lets the coordinator find out, boots an
// empty server on the same address, and times one Rejoin: a snapshot
// re-ship of every shard slice the worker hosts (with two workers at
// R=2, every row of every table).
func (in *clusterInst) rejoinMetrics(out map[string]float64) error {
	const w = 1
	in.stops[w]()
	probe := clusterMix[0]
	for i := 0; in.co.WorkerStates()[w] != "dead"; i++ {
		if i == 50 {
			return fmt.Errorf("rejoin probe: worker %d never went dead (%v)", w, in.co.WorkerStates())
		}
		in.co.ExecSQL(probe.sql, engine.Options{Strategy: probe.strat}) // failover serves it; the strike is the point
	}
	stop, err := listenAt(in.addrs[w], server.New(engine.New(bufferPages), server.Config{Strategy: engine.TransformJA2}))
	if err != nil {
		return fmt.Errorf("rejoin probe: restarting worker %d: %w", w, err)
	}
	in.stops[w] = stop
	t0 := time.Now()
	if err := in.co.Rejoin(w); err != nil {
		return fmt.Errorf("rejoin probe: %w", err)
	}
	took := time.Since(t0)
	shipped := in.rows + ackedTotal(in.acks).rows
	out["cluster.rejoin_ms"] = float64(took) / float64(time.Millisecond)
	out["cluster.rejoin_rows_per_s"] = float64(shipped) / took.Seconds()
	return nil
}

// locName is the metric name of a package's line count.
func locName(pkg string) string { return "loc." + strings.ReplaceAll(pkg, "/", ".") }

// countLines counts non-test Go lines per package under root's
// internal/, cmd/ and top level (ROADMAP aim 2).
func countLines(root string) map[string]float64 {
	out := map[string]float64{"loc.total": 0, "loc.other": 0}
	for _, pkg := range locPackages {
		out[locName(pkg)] = 0
	}
	count := func(pkg, path string) {
		f, err := os.Open(path)
		if err != nil {
			return
		}
		defer f.Close()
		n := 0.0
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			n++
		}
		name := locName(pkg)
		if _, listed := out[name]; !listed {
			name = "loc.other"
		}
		out[name] += n
		out["loc.total"] += n
	}
	isSource := func(name string) bool {
		return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
	}
	if top, err := os.ReadDir(root); err == nil {
		for _, ent := range top {
			if !ent.IsDir() && isSource(ent.Name()) {
				count("root", filepath.Join(root, ent.Name()))
			}
		}
	}
	for _, dir := range []string{"internal", "cmd"} {
		filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && isSource(d.Name()) {
				rel, _ := filepath.Rel(root, filepath.Dir(path))
				count(filepath.ToSlash(rel), path)
			}
			return nil
		})
	}
	return out
}

// sortedNames returns the keys of a metric map in a stable order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
