package main

// metricDef describes one reported metric. BENCHMARK.json carries name,
// unit, better and (end-to-end only) bound; moves — which end-to-end
// metric a layer metric should move, and on which workload — lives here
// and in README.md, because BENCHMARK.json's keys are fixed.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end: share of the parent's median it may worsen by
	moves  string  // per-layer: end-to-end metric -> workload(s)
}

// endToEnd are the metrics a user of the system would see; the same
// names are reported for every workload, from the untraced pass only.
// The five time-valued ones are normalised to a reference machine speed
// (calibrate.go) and carry the widest bound the contract allows: ten
// runs on ten seeds spread 1-7% normalised — up to 11% in a noisier
// hour, in which the values as measured spread up to 31% — and a bound
// should be three times the spread. page_io_per_op repeats exactly for
// one seed and cycle count on the single-client workloads, but across
// seeds the cost-based plans of cluster_mix move it by 5-7%, hence 20%.
// Two metrics ISSUE.md lists are not among them, reason recorded: a
// failed_ratio that is 0 on every healthy run cannot carry a relative
// bound, so failures travel as the result line's attempted/failed
// counts; peak_rss_mb spread 4-22% run to run with GC pacing. Both are
// reported per layer instead.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25},
	{name: "page_io_per_op", unit: "pages", better: "lower", bound: 0.20},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.05},
	{name: "alloc_kb_per_op", unit: "KiB", better: "lower", bound: 0.05},
}

func endToEndUnit(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// perLayer are the single-layer metrics of the traced pass. A metric a
// workload does not exercise (cluster.* on a single node, say) reads 0
// there: the result line must carry every name on every workload.
var perLayer = []metricDef{
	{"sqlparser.parse_us_per_op", "us", "lower", 0, "op_p50_ms, cpu_ms_per_op -> point_mix, then serve_read; nothing on ja_*"},
	{"schema.resolve_us_per_op", "us", "lower", 0, "op_p50_ms, cpu_ms_per_op -> point_mix, then serve_read"},
	{"classify.profile_us_per_op", "us", "lower", 0, "op_p50_ms, cpu_ms_per_op -> point_mix, then serve_read"},
	{"transform.nest_us_per_op", "us", "lower", 0, "op_p50_ms, cpu_ms_per_op -> point_mix, then serve_read"},
	{"transform.temps_per_op", "count", "lower", 0, "page_io_per_op -> ja_seq, spill_join"},
	{"transform.fallback_ratio", "ratio", "lower", 0, "op_p95_ms -> point_mix"},
	{"planner.run_us_per_op", "us", "lower", 0, "op_p50_ms -> ja_seq, ja_par, spill_join"},
	{"engine.query_us_per_op", "us", "lower", 0, "op_p50_ms -> every in-process workload"},
	{"engine.self_us_per_op", "us", "lower", 0, "op_p50_ms, allocs_per_op -> point_mix"},
	{"engine.frontend_share", "ratio", "lower", 0, "ceiling of any plan-cache claim -> point_mix"},
	{"exec.seqscan_ns_per_row", "ns", "lower", 0, "op_p50_ms -> ja_seq, ja_par"},
	{"exec.sort_ns_per_row", "ns", "lower", 0, "op_p50_ms -> ja_seq"},
	{"exec.sort_allocs_per_row", "count", "lower", 0, "allocs_per_op -> ja_seq"},
	{"exec.sort_spill_ns_per_row", "ns", "lower", 0, "op_p50_ms -> spill_join"},
	{"exec.mergejoin_ns_per_row", "ns", "lower", 0, "op_p50_ms -> ja_seq, spill_join"},
	{"exec.mergejoin_allocs_per_row", "count", "lower", 0, "allocs_per_op -> ja_seq, spill_join"},
	{"exec.groupagg_ns_per_row", "ns", "lower", 0, "op_p50_ms -> ja_seq"},
	{"exec.par_hashjoin_w1_ns_per_row", "ns", "lower", 0, "op_p50_ms -> ja_par"},
	{"exec.par_hashjoin_w2_ns_per_row", "ns", "lower", 0, "op_p50_ms -> ja_par"},
	{"exec.par_speedup_w2", "ratio", "higher", 0, "ops_per_s -> ja_par (the flat-scaling anomaly)"},
	{"exec.par_hashgroup_w2_ns_per_row", "ns", "lower", 0, "op_p50_ms -> ja_par"},
	{"exec.nestediter_us_per_outer_row", "us", "lower", 0, "op_p95_ms -> point_mix, cluster_mix (their nested-iteration ops)"},
	{"exec.nestediter_page_io_per_outer_row", "pages", "lower", 0, "page_io_per_op -> nested-iteration ops"},
	{"storage.page_reads_per_op", "pages", "lower", 0, "page_io_per_op -> ja_seq, ja_par, spill_join"},
	{"storage.page_writes_per_op", "pages", "lower", 0, "page_io_per_op -> ja_seq, ja_par, spill_join"},
	{"storage.readpage_hit_ns", "ns", "lower", 0, "op_p50_ms -> ja_*"},
	{"storage.readpage_miss_ns", "ns", "lower", 0, "op_p50_ms -> ja_*"},
	{"storage.append_ns_per_row", "ns", "lower", 0, "op_p50_ms -> ja_seq (temp build)"},
	{"storage.scan_scaling_2g", "ratio", "higher", 0, "ops_per_s -> ja_par, serve_read (the global store mutex)"},
	{"spill.runs_per_op", "count", "lower", 0, "op_p50_ms -> spill_join; 0 elsewhere"},
	{"spill.kb_per_op", "KiB", "lower", 0, "op_p50_ms -> spill_join; 0 elsewhere"},
	{"spill.write_ns_per_row", "ns", "lower", 0, "op_p50_ms -> spill_join"},
	{"spill.read_ns_per_row", "ns", "lower", 0, "op_p50_ms -> spill_join"},
	{"rowcodec.encode_ns_per_row", "ns", "lower", 0, "op_p50_ms -> spill_join, serve_write"},
	{"rowcodec.decode_ns_per_row", "ns", "lower", 0, "op_p50_ms -> spill_join, serve_write"},
	{"wal.append_us_per_commit", "us", "lower", 0, "op_p50_ms -> serve_write"},
	{"wal.bytes_per_user_byte", "ratio", "lower", 0, "write amplification -> serve_write"},
	{"wal.checkpoint_ms", "ms", "lower", 0, "op_p95_ms -> serve_write"},
	{"wal.checkpoint_stall_ms", "ms", "lower", 0, "op_p95_ms -> serve_write (the commit lock)"},
	{"wal.recovery_ms", "ms", "lower", 0, "setup_s of a restart; diagnostic"},
	{"wal.recovery_records", "count", "lower", 0, "diagnostic"},
	{"wire.encode_rowbatch_ns_per_row", "ns", "lower", 0, "op_p50_ms -> serve_read (wide op), cluster_mix"},
	{"wire.decode_rowbatch_ns_per_row", "ns", "lower", 0, "op_p50_ms -> serve_read (wide op), cluster_mix"},
	{"wire.frame_roundtrip_us", "us", "lower", 0, "op_p50_ms -> serve_*"},
	{"wire.bytes_per_op", "bytes", "lower", 0, "op_p50_ms -> serve_read, cluster_mix"},
	{"admission.admit_release_ns", "ns", "lower", 0, "op_p50_ms -> serve_*"},
	{"admission.shed_ratio", "ratio", "lower", 0, "failed ops, op_p95_ms -> serve_*"},
	{"client.dial_us", "us", "lower", 0, "setup_s"},
	{"client.collect_us_per_op", "us", "lower", 0, "= op_p50_ms -> serve_*, cluster_mix"},
	{"server.transport_us_per_op", "us", "lower", 0, "op_p50_ms -> serve_read; 0 in process"},
	{"server.transport_share", "ratio", "lower", 0, "ceiling of any transport claim -> serve_read"},
	{"cluster.exec_us_per_op", "us", "lower", 0, "op_p50_ms -> cluster_mix"},
	{"cluster.coord_overhead_ratio", "ratio", "lower", 0, "the E14 anomaly -> cluster_mix"},
	{"cluster.colocated_us_per_op", "us", "lower", 0, "op_p50_ms -> cluster_mix"},
	{"cluster.shuffle_us_per_op", "us", "lower", 0, "op_p95_ms -> cluster_mix"},
	{"cluster.shuffle_rows_per_s", "rows/s", "higher", 0, "ROADMAP 3 -> cluster_mix"},
	{"cluster.load_rows_per_s", "rows/s", "higher", 0, "setup_s -> cluster_mix"},
	{"cluster.replicated_commit_us", "us", "lower", 0, "op_p50_ms -> cluster_mix"},
	{"cluster.rejoin_ms", "ms", "lower", 0, "ROADMAP 3; diagnostic"},
	{"cluster.rejoin_rows_per_s", "rows/s", "higher", 0, "ROADMAP 3; diagnostic"},
	{"cluster.gather_skew", "ratio", "lower", 0, "op_p95_ms -> cluster_mix"},
	{"go.gc_cycles_per_kop", "count", "lower", 0, "op_p95_ms, cpu_ms_per_op -> ja_seq, spill_join"},
	{"go.gc_pause_ms_total", "ms", "lower", 0, "op_p95_ms -> ja_seq, spill_join"},
	{"op_p99_ms", "ms", "lower", 0, "diagnostic: too noisy to gate"},
	{"op_max_ms", "ms", "lower", 0, "diagnostic: too noisy to gate"},
	{"peak_rss_mb", "MiB", "lower", 0, "memory moved into set-up or a cache shows here; demoted from end-to-end: GC pacing spreads it 4-22% run to run"},
	{"failed_ratio", "ratio", "lower", 0, "must be 0 everywhere; absolute, so not an end-to-end metric"},
	{"trace.overhead_ratio", "ratio", "lower", 0, "validity of the ledger"},
	{"machine.kernel_ms", "ms", "lower", 0, "the sandbox's speed during the run (calibrate.go); layer times are as measured, so read them against it"},
}

// locPackages are the packages whose non-test Go lines are reported as
// loc.<package> (ROADMAP aim 2: least code is a measured aim). The list
// is fixed so the metric names are; a package added later is counted in
// loc.other and loc.total, a package removed reads 0.
var locPackages = []string{
	"root", "cmd/benchpaper", "cmd/nestedsql", "cmd/nestedsqld",
	"internal/admission", "internal/ast", "internal/classify", "internal/client",
	"internal/cluster", "internal/core", "internal/costmodel", "internal/engine",
	"internal/exec", "internal/index", "internal/metamorph", "internal/netfault",
	"internal/planner", "internal/qctx", "internal/querygraph", "internal/rowcodec",
	"internal/schema", "internal/server", "internal/spill", "internal/sqlparser",
	"internal/stats", "internal/storage", "internal/transform", "internal/value",
	"internal/wal", "internal/wire", "internal/workload",
}

func init() {
	add := func(name string) {
		perLayer = append(perLayer, metricDef{name, "lines", "lower", 0, "ROADMAP aim 2; never gates"})
	}
	add("loc.total")
	add("loc.other")
	for _, pkg := range locPackages {
		add(locName(pkg))
	}
}
