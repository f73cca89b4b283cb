package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/qctx"
	"repro/internal/rowcodec"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/spill"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The unit probes drive single layers directly, the way
// BenchmarkExternalSort drives exec.Sort: each runs a fixed amount of
// work a few times on the ja_* relations (so the numbers are comparable
// across workloads) and reports the median. They say what a layer costs
// per row or per call in isolation; the spans of the traced pass say how
// much of an op it is.

const probeReps = 5

var jaCols = []string{"JC", "VAL", "FILT"}

// medianOf times f probeReps times and returns the median.
func medianOf(f func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// mallocsOf counts heap allocations of one call of f.
func mallocsOf(f func() error) (uint64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, err
}

// drainCount runs an operator to completion and counts its rows without
// keeping them.
func drainCount(op exec.Operator) (n int, err error) {
	defer op.Close()
	if err := op.Open(); err != nil {
		return 0, err
	}
	for {
		_, ok, err := op.Next()
		if err != nil || !ok {
			return n, err
		}
		n++
	}
}

// probes is the unit-probe context: one engine holding the ja_*
// relations, plus sorted copies for the operators that need sorted input.
type probes struct {
	e        *env
	cfg      workload.SyntheticConfig
	db       *engine.DB
	ri, rj   *storage.HeapFile
	sri, srj *storage.HeapFile // RI and RJ sorted on JC
	rjRows   []storage.Tuple   // RJ's tuples, for the probes that feed rows by hand
	out      map[string]float64
}

func nsPer(d time.Duration, n int) float64 { return float64(d) / float64(max(n, 1)) }

func runProbes(e *env, wide opResult) (map[string]float64, error) {
	p := &probes{e: e, cfg: jaConfig(e), db: engine.New(bufferPages), out: make(map[string]float64)}
	if err := loadJA(e, p.db); err != nil {
		return nil, err
	}
	p.ri, _ = p.db.Store().Lookup("RI")
	p.rj, _ = p.db.Store().Lookup("RJ")
	p.rj.Scan(func(t storage.Tuple) bool { p.rjRows = append(p.rjRows, t); return true })
	var err error
	if p.sri, err = exec.Materialize(p.sorted(p.ri, "RI", nil, nil), p.db.Store(), 10); err != nil {
		return nil, err
	}
	if p.srj, err = exec.Materialize(p.sorted(p.rj, "RJ", nil, nil), p.db.Store(), 10); err != nil {
		return nil, err
	}
	for _, probe := range []func() error{
		p.execOperators, p.parallelOperators, p.nestedIteration, p.storage,
		p.spillAndCodec, p.walAppend, func() error { return p.wire(wide) }, p.admissionAndDial,
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

func (p *probes) scan(f *storage.HeapFile, binding string) *exec.SeqScan {
	return exec.NewSeqScan(f, binding, jaCols)
}

func (p *probes) sorted(f *storage.HeapFile, binding string, qc *qctx.QueryContext, sess *spill.Session) *exec.Sort {
	return &exec.Sort{Child: p.scan(f, binding), Keys: []int{0}, Store: p.db.Store(), TuplesPerPage: 10, QC: qc, Spill: sess}
}

func (p *probes) execOperators() error {
	rows := p.cfg.InnerTuples
	d, err := medianOf(func() error { _, err := drainCount(p.scan(p.rj, "RJ")); return err })
	if err != nil {
		return err
	}
	p.out["exec.seqscan_ns_per_row"] = nsPer(d, rows)

	sortOnce := func() error { _, err := drainCount(p.sorted(p.rj, "RJ", nil, nil)); return err }
	if d, err = medianOf(sortOnce); err != nil {
		return err
	}
	p.out["exec.sort_ns_per_row"] = nsPer(d, rows)
	allocs, err := mallocsOf(sortOnce)
	if err != nil {
		return err
	}
	p.out["exec.sort_allocs_per_row"] = float64(allocs) / float64(rows)

	dir, err := os.MkdirTemp(p.e.tmp, "probe-spill")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	mgr, err := spill.NewManager(dir)
	if err != nil {
		return err
	}
	if d, err = medianOf(func() error {
		sess := mgr.NewSession("sort")
		defer sess.Close()
		qc := qctx.New(qctx.Limits{Spill: qctx.SpillForced})
		defer qc.Finish()
		_, err := drainCount(p.sorted(p.rj, "RJ", qc, sess))
		return err
	}); err != nil {
		return err
	}
	p.out["exec.sort_spill_ns_per_row"] = nsPer(d, rows)

	joined := 0
	joinOnce := func() error {
		var err error
		joined, err = drainCount(&exec.MergeJoin{Left: p.scan(p.sri, "RI"), Right: p.scan(p.srj, "RJ")})
		return err
	}
	if d, err = medianOf(joinOnce); err != nil {
		return err
	}
	p.out["exec.mergejoin_ns_per_row"] = nsPer(d, joined)
	if allocs, err = mallocsOf(joinOnce); err != nil {
		return err
	}
	p.out["exec.mergejoin_allocs_per_row"] = float64(allocs) / float64(max(joined, 1))

	if d, err = medianOf(func() error {
		_, err := drainCount(&exec.GroupAgg{Child: p.scan(p.srj, "RJ"), GroupCols: []int{0}, Items: countByJC})
		return err
	}); err != nil {
		return err
	}
	p.out["exec.groupagg_ns_per_row"] = nsPer(d, rows)
	return nil
}

// countByJC is SELECT JC, COUNT(VAL) ... GROUP BY JC.
var countByJC = []exec.GroupItem{
	{Agg: value.AggNone, Col: 0, Out: exec.ColID{Column: "JC"}},
	{Agg: value.AggCount, Col: 1, Out: exec.ColID{Column: "CT"}},
}

func (p *probes) parallelOperators() error {
	join := func(workers int) (time.Duration, int, error) {
		joined := 0
		d, err := medianOf(func() error {
			var err error
			joined, err = drainCount(&exec.ExchangeMerge{Source: &exec.ParallelHashJoin{
				Left: p.scan(p.ri, "RI"), Right: p.scan(p.rj, "RJ"), Workers: workers}})
			return err
		})
		return d, joined, err
	}
	d1, n, err := join(1)
	if err != nil {
		return err
	}
	d2, _, err := join(parallelWorkers)
	if err != nil {
		return err
	}
	p.out["exec.par_hashjoin_w1_ns_per_row"] = nsPer(d1, n)
	p.out["exec.par_hashjoin_w2_ns_per_row"] = nsPer(d2, n)
	p.out["exec.par_speedup_w2"] = float64(d1) / float64(max(d2, 1))

	d, err := medianOf(func() error {
		_, err := drainCount(&exec.ExchangeMerge{Source: &exec.ParallelHashGroup{
			Child: p.scan(p.rj, "RJ"), GroupCols: []int{0}, Items: countByJC, Workers: parallelWorkers}})
		return err
	})
	p.out["exec.par_hashgroup_w2_ns_per_row"] = nsPer(d, p.cfg.InnerTuples)
	return err
}

// nestedIteration evaluates the COUNT shape by nested iteration over a
// 300-row outer slice: what one outer tuple costs when the inner
// relation does not fit the pool.
func (p *probes) nestedIteration() error {
	cfg := p.cfg
	cfg.OuterTuples, cfg.Selectivity = min(300, cfg.OuterTuples), 1
	db := engine.New(bufferPages)
	if err := workload.LoadSynthetic(&workload.DB{Cat: db.Catalog(), Store: db.Store()}, cfg); err != nil {
		return err
	}
	qb, err := sqlparser.Parse(workload.TypeJAQuery(cfg))
	if err != nil {
		return err
	}
	if _, err := schema.Resolve(db.Catalog(), qb); err != nil {
		return err
	}
	before, t0 := db.Store().Stats(), time.Now()
	ev := exec.NewEvaluator(db.Catalog(), db.Store())
	defer ev.Close()
	if _, _, err := ev.EvalQuery(qb); err != nil {
		return err
	}
	p.out["exec.nestediter_us_per_outer_row"] = nsPer(time.Since(t0), cfg.OuterTuples) / 1000
	p.out["exec.nestediter_page_io_per_outer_row"] = float64(db.Store().Stats().Sub(before).Total()) / float64(cfg.OuterTuples)
	return nil
}

func (p *probes) storage() error {
	store := p.db.Store()
	// A file that fits the pool: after one pass every read is a hit.
	small := store.CreateTemp(10)
	defer store.Drop(small.Name())
	for i := 0; i < 10*bufferPages/2; i++ {
		small.Append(storage.Tuple{value.NewInt(int64(i))})
	}
	small.Seal()
	readAll := func(f *storage.HeapFile, passes int) func() error {
		return func() error {
			for n := 0; n < passes; n++ {
				for i := 0; i < f.NumPages(); i++ {
					f.ReadPage(i)
				}
			}
			return nil
		}
	}
	readAll(small, 1)()
	d, _ := medianOf(readAll(small, 200))
	p.out["storage.readpage_hit_ns"] = nsPer(d, 200*small.NumPages())
	// RJ cycles past B, so under LRU every read is a miss.
	d, _ = medianOf(readAll(p.rj, 10))
	p.out["storage.readpage_miss_ns"] = nsPer(d, 10*p.rj.NumPages())

	rows := p.rjRows
	d, _ = medianOf(func() error {
		f := store.CreateTemp(10)
		for _, t := range rows {
			f.Append(t)
		}
		f.Seal()
		store.Drop(f.Name())
		return nil
	})
	p.out["storage.append_ns_per_row"] = nsPer(d, len(rows))

	// Two goroutines scanning against one: every page read takes the
	// store's single mutex, so this is what that lock lets through.
	scanners := func(n int) func() error {
		return func() error {
			var wg sync.WaitGroup
			for g := 0; g < n; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for pass := 0; pass < 10; pass++ {
						drainCount(p.scan(p.rj, "RJ"))
					}
				}()
			}
			wg.Wait()
			return nil
		}
	}
	one, _ := medianOf(scanners(1))
	two, _ := medianOf(scanners(2))
	p.out["storage.scan_scaling_2g"] = 2 * float64(one) / float64(max(two, 1))
	return nil
}

func (p *probes) spillAndCodec() error {
	rows := p.rjRows
	var encoded [][]byte
	d, _ := medianOf(func() error {
		encoded = encoded[:0]
		for _, t := range rows {
			encoded = append(encoded, rowcodec.AppendTuple(nil, t))
		}
		return nil
	})
	p.out["rowcodec.encode_ns_per_row"] = nsPer(d, len(rows))
	d, err := medianOf(func() error {
		for _, b := range encoded {
			if _, err := rowcodec.DecodeTuple(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["rowcodec.decode_ns_per_row"] = nsPer(d, len(rows))

	dir, err := os.MkdirTemp(p.e.tmp, "probe-runs")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	mgr, err := spill.NewManager(dir)
	if err != nil {
		return err
	}
	sess := mgr.NewSession("probe")
	defer sess.Close()
	var writes, reads []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		w, err := sess.NewWriter()
		if err != nil {
			return err
		}
		for _, t := range rows {
			if err := w.Append(t); err != nil {
				return err
			}
		}
		run, err := w.Finish()
		if err != nil {
			return err
		}
		writes = append(writes, float64(time.Since(t0)))
		t0 = time.Now()
		rd, err := run.Open()
		if err != nil {
			return err
		}
		for range rows {
			if _, err := rd.Next(); err != nil {
				return err
			}
		}
		rd.Close()
		reads = append(reads, float64(time.Since(t0)))
		run.Remove()
	}
	p.out["spill.write_ns_per_row"] = median(writes) / float64(len(rows))
	p.out["spill.read_ns_per_row"] = median(reads) / float64(len(rows))
	return nil
}

func (p *probes) walAppend() error {
	dir, err := os.MkdirTemp(p.e.tmp, "probe-wal")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(dir, walOptions)
	if err != nil {
		return err
	}
	defer log.Close()
	const commits = 1000
	row := []storage.Tuple{{value.NewInt(1), value.NewInt(2), value.NewInt(3)}}
	d, err := medianOf(func() error {
		for i := 0; i < commits; i++ {
			c, err := log.Append(wal.Record{Type: wal.RecInsert, Table: writeTable, Rows: row})
			if err != nil {
				return err
			}
			if err := c.Wait(); err != nil {
				return err
			}
		}
		return nil
	})
	p.out["wal.append_us_per_commit"] = nsPer(d, commits) / 1000
	return err
}

// wire encodes and decodes the workload's own widest result in the
// server's batch size, and round-trips a 4 KiB checksummed frame
// through a buffer.
func (p *probes) wire(wide opResult) error {
	if len(wide.rows) == 0 {
		// A workload whose results are a handful of rows: use RJ, so the
		// per-row numbers are still per row and not per frame.
		wide.cols, wide.rows = jaCols, p.rjRows
	}
	var frames [][]byte
	d, _ := medianOf(func() error {
		frames = frames[:0]
		for lo := 0; lo < len(wide.rows); lo += exec.DefaultBatchRows {
			hi := min(lo+exec.DefaultBatchRows, len(wide.rows))
			frames = append(frames, wire.EncodeRowBatch(wire.RowBatch{Columns: wide.cols, Rows: wide.rows[lo:hi]}))
		}
		return nil
	})
	p.out["wire.encode_rowbatch_ns_per_row"] = nsPer(d, len(wide.rows))
	d, err := medianOf(func() error {
		for _, f := range frames {
			if _, err := wire.DecodeRowBatch(f); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["wire.decode_rowbatch_ns_per_row"] = nsPer(d, len(wide.rows))

	codec := wire.Codec{Checksums: true}
	payload := bytes.Repeat([]byte{0xA5}, 4096)
	var buf bytes.Buffer
	const trips = 2000
	d, err = medianOf(func() error {
		for i := 0; i < trips; i++ {
			buf.Reset()
			if err := codec.WriteFrame(&buf, wire.FrameRowBatch, payload); err != nil {
				return err
			}
			if _, _, err := codec.ReadFrame(&buf); err != nil {
				return err
			}
		}
		return nil
	})
	p.out["wire.frame_roundtrip_us"] = nsPer(d, trips) / 1000
	return err
}

func (p *probes) admissionAndDial() error {
	ctl := admission.NewController(admission.Config{MaxConcurrent: 4, QueueDepth: 64})
	const admits = 20000
	d, err := medianOf(func() error {
		for i := 0; i < admits; i++ {
			t, err := ctl.Admit(admission.Request{})
			if err != nil {
				return err
			}
			t.Release()
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["admission.admit_release_ns"] = nsPer(d, admits)

	addr, stop, err := listen(server.New(p.db, server.Config{Strategy: engine.TransformJA2}))
	if err != nil {
		return err
	}
	defer stop()
	var dials []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		c, err := client.Dial(addr, 10*time.Second)
		if err != nil {
			return fmt.Errorf("dial probe: %w", err)
		}
		dials = append(dials, float64(time.Since(t0))/1000)
		c.Close()
	}
	p.out["client.dial_us"] = median(dials)
	return nil
}
